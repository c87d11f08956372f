"""Straight-edged tetrahedral meshes of curved domains, and classification
of the boundary entities the shifted trial space needs.

Generators:
  * octant mesh: one octant of a sphere/ellipsoid, built from the Kuhn
    triangulation of a corner simplex mapped radially shell-by-shell
  * torus sector mesh: one symmetry sector (theta in [0, pi/4], z >= 0)
    of a solid torus

All boundary vertices produced by the generators lie either exactly on the
curved surface Gamma or on a flat symmetry plane through the origin.

Mesh entities are integer ids.  A mesh's `Topology` numbers its edges and
faces by first appearance, scanning the tets in order and the local edges
(faces) of each tet in the canonical `elements.EDGES` (`FACES`) order; an
entity's vertices are stored sorted.  Every DOF numbering derives from
these ids, so it is deterministic and independent of hashing.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elements import EDGES, FACES, blocks, edge_adjugate
from .surfaces import Ellipsoid, Surface, Torus

_EDGES = np.array(EDGES)
_FACES = np.array(FACES)
#: local edges of each local face (face i is opposite vertex i)
_FACE_EDGES = np.array([[e for e, pair in enumerate(EDGES) if i not in pair]
                        for i in range(4)])
#: largest flat index of an entity key in `_number`
_KEY_MAX = np.iinfo(np.int64).max

# lattice steps of the 6 Kuhn tets of a unit cell: each walks from the cell
# origin to the opposite corner, one axis step at a time
_KUHN_STEPS = np.cumsum(
    np.eye(3, dtype=np.int64)[np.array(list(itertools.permutations(range(3))))],
    axis=1)
_KUHN_PATHS = np.concatenate(
    [np.zeros((6, 1, 3), dtype=np.int64), _KUHN_STEPS], axis=1)  # (6, 4, 3)


def _number(keys, kind, entry="vertex id"):
    """Number the distinct rows of `keys` (m, d) by first appearance: the id
    of every row, and the index of the first row of every id.

    The rows are non-negative integers.  Each is encoded as one int64, its
    flat index in a (max + 1,)^d array, because a 1-D `np.unique` is
    several times faster than `np.unique(axis=0)`.  Where that index would
    overflow, a ValueError names the `kind` of row, its largest `entry` and
    the limit, so distinct rows never merge."""
    top, d = int(keys.max()), keys.shape[1]
    if (top + 1) ** d > _KEY_MAX:
        limit = int(round(_KEY_MAX ** (1.0 / d)))
        while (limit + 1) ** d > _KEY_MAX:
            limit -= 1
        raise ValueError(
            "cannot number the %ss: largest %s %d is above %d, the largest "
            "whose %s key fits one int64" % (kind, entry, top, limit, kind))
    flat = np.ravel_multi_index(keys.T, (top + 1,) * d)
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


@dataclass(frozen=True)
class Topology:
    """Edges and faces of a tet mesh as id arrays (see the module
    docstring for the numbering)."""

    tet_edges: np.ndarray  # (n_tets, 6) edge ids, local edges in EDGES order
    edge_vertices: np.ndarray  # (n_edges, 2) sorted vertex ids
    tet_faces: np.ndarray  # (n_tets, 4) face ids; local face i is opposite vertex i
    face_vertices: np.ndarray  # (n_faces, 3) sorted vertex ids
    face_tet: np.ndarray  # (n_faces,) first tet containing the face
    face_local: np.ndarray  # (n_faces,) local vertex of face_tet opposite the face
    boundary: np.ndarray  # ascending ids of the faces of exactly one tet

    @classmethod
    def of(cls, tets):
        n = tets.shape[0]
        pairs = np.sort(tets[:, _EDGES], axis=-1).reshape(-1, 2)
        tet_edges, first_edge = _number(pairs, "edge")
        tris = np.sort(tets[:, _FACES], axis=-1).reshape(-1, 3)
        tet_faces, first_face = _number(tris, "face")
        count = np.bincount(tet_faces, minlength=first_face.size)
        return cls(
            tet_edges=tet_edges.reshape(n, 6),
            edge_vertices=pairs[first_edge],
            tet_faces=tet_faces.reshape(n, 4),
            face_vertices=tris[first_face],
            face_tet=first_face // 4,
            face_local=first_face % 4,
            boundary=np.flatnonzero(count == 1),
        )

    @property
    def n_edges(self):
        return self.edge_vertices.shape[0]

    @property
    def n_faces(self):
        return self.face_vertices.shape[0]

    def face_edges(self, faces):
        """Edge ids (n, 3) of the given faces."""
        return self.tet_edges[self.face_tet[faces][:, None],
                              _FACE_EDGES[self.face_local[faces]]]


@dataclass
class Mesh:
    vertices: np.ndarray  # (n_v, 3)
    tets: np.ndarray  # (n_t, 4) vertex indices, positively oriented
    name: str = "mesh"
    #: (n, 3) unit normals of the flat symmetry planes, all through the origin
    symmetry_planes: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=np.int64)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_tets(self):
        return self.tets.shape[0]

    @cached_property
    def topology(self) -> Topology:
        """Edge and face ids, built on first use from `tets`."""
        return Topology.of(self.tets)

    def boundary_faces(self):
        """Sorted vertex triples (n, 3) of the boundary faces, in face-id
        order."""
        return self.topology.face_vertices[self.topology.boundary]

    def face_normals(self, faces):
        """Unit normals (n, 3) of the given faces, pointing away from the
        first tet that contains each: outward on boundary faces."""
        top = self.topology
        a, b, c = np.moveaxis(self.vertices[top.face_vertices[faces]], -2, 0)
        opp = self.vertices[self.tets[top.face_tet[faces], top.face_local[faces]]]
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        return np.where(np.sum(n * (opp - a), axis=-1, keepdims=True) > 0.0,
                        -n, n)


def _fix_orientation(vertices, tets):
    """Swap two vertices of negatively oriented tets; reject degenerate ones.
    The determinants are taken in `blocks` of tets, so that the
    temporaries stay bounded whatever the mesh size."""
    tets = np.array(tets, dtype=np.int64)
    det = np.empty(tets.shape[0])
    ok = np.empty(tets.shape[0], dtype=bool)
    for blk in blocks(tets.shape[0], 12):  # v holds 4 x 3 entries per tet
        v = vertices[tets[blk]]
        edges = v[:, 1:] - v[:, :1]
        _, det[blk] = edge_adjugate(edges)
        vol_scale = np.max(np.abs(edges), axis=(1, 2)) ** 3
        # written so that a NaN determinant fails it too
        ok[blk] = np.abs(det[blk]) > 1e-12 * np.maximum(vol_scale, 1e-300)
    flat = np.flatnonzero(~ok)
    if flat.size:
        raise ValueError("degenerate tetrahedron %d produced by mesh mapping"
                         % flat[0])
    tets[det < 0.0] = tets[det < 0.0][:, [0, 1, 3, 2]]
    return tets


def _kuhn_paths(cells):
    """Lattice points (6 * n_cells, 4, 3) of the Kuhn tets of the unit
    cells with the given origins (n_cells, 3), the cells in that order."""
    return (cells[:, None, None, :] + _KUHN_PATHS).reshape(-1, 4, 3)


def _grid_cells(shape):
    """Origins (n_cells, 3) of the cells of a grid of `shape` cells, in C
    order."""
    return np.indices(shape).reshape(3, -1).T


def _kuhn_simplex_cells(J):
    """Origins of the cells (i, j, k) of the J^3 grid with i >= j >= k, in
    C order: the only cells with a Kuhn tet inside K_J."""
    cells = _grid_cells((J, J, J))
    return cells[(cells[:, 0] >= cells[:, 1]) & (cells[:, 1] >= cells[:, 2])]


# -- octant mesh (sphere / ellipsoid) ---------------------------------------


def generate_octant_mesh(J, semi_axes=(1.0, 1.0, 1.0)):
    """Mesh of one octant {x, y, z >= 0} of an ellipsoid with the given
    semi-axes (a sphere when they are equal), with exactly J^3 tets.

    Construction: the Kuhn simplex K_J = {J >= x >= y >= z >= 0} is tiled
    by the J^3 Kuhn tets of the unit-cube triangulation that fall inside
    it.  Only the cells (i, j, k) with i >= j >= k meet K_J, so only
    their 6 Kuhn tets each are formed and filtered (Bey, Numer. Math.
    2000), not those of all J^3 cells of the cube.  K_J is mapped
    affinely onto the corner simplex
    conv{0, e1, e2, e3}; the lattice shells x = j become the planes
    u+v+w = j/J, which are then mapped radially onto concentric spheres of
    radius j/J and finally scaled by the semi-axes.  All outer-shell
    vertices land exactly on the surface; the flat faces land in the
    coordinate planes.  Vertices are numbered by first appearance.
    """
    if not (isinstance(J, numbers.Integral) and J >= 1):
        raise ValueError("octant mesh needs an integer J >= 1, got J = %s" % J)
    semi_axes = Ellipsoid(semi_axes).semi_axes  # finite and > 0, or raise

    paths = _kuhn_paths(_kuhn_simplex_cells(J))
    inside = np.all((paths[..., 0] >= paths[..., 1])
                    & (paths[..., 1] >= paths[..., 2]), axis=1)
    paths = paths[inside].reshape(-1, 3)
    tets, first = _number(paths, "lattice vertex", "coordinate")
    coords = paths[first].astype(float)

    # affine map K_J -> corner simplex conv{0, e1, e2, e3}
    u = np.empty_like(coords)
    u[:, 0] = (coords[:, 0] - coords[:, 1]) / J
    u[:, 1] = (coords[:, 1] - coords[:, 2]) / J
    u[:, 2] = coords[:, 2] / J
    # radial map: shell u+v+w = s -> sphere of radius s
    s = coords[:, 0] / J
    norms = np.linalg.norm(u, axis=1)
    mapped = np.zeros_like(u)
    nz = norms > 0.0
    mapped[nz] = u[nz] * (s[nz] / norms[nz])[:, None]
    mapped *= semi_axes

    tets = _fix_orientation(mapped, tets.reshape(-1, 4))
    return Mesh(mapped, tets, name="octant", symmetry_planes=np.eye(3))


# -- torus sector mesh -------------------------------------------------------


def _square_to_quarter_disk(y, z):
    """Map [0,1]^2 onto the quarter disk {y,z >= 0, y^2+z^2 <= 1}, sending
    the concentric squares max(y,z) = c onto the arcs of radius c."""
    m = np.maximum(y, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(y >= z, 0.25 * np.pi * (z / y),
                       0.5 * np.pi - 0.25 * np.pi * (y / z))
    phi = np.where(m == 0.0, 0.0, phi)
    return m * np.cos(phi), m * np.sin(phi)


def generate_torus_sector_mesh(I, major_radius, minor_radius):
    """Mesh of the torus sector {theta in [0, pi/4], z >= 0} of the solid
    torus with tube radius `minor_radius` around a circle of radius
    `major_radius`, with 6*I^3 tets (I even).

    Pipeline: the cube [0,1]^3 is split into 2I x I/2 x I/2 boxes of 6
    Kuhn tets each; the (y, z) cross-section square is mapped onto the
    quarter disk concentrically; the quarter disk is reflected through
    y = 0 into a half disk; finally (x, y, z) is mapped to the torus by
    theta = x*pi/4, rho = R + r*y, giving (rho cos theta, rho sin theta,
    r*z).  The Kuhn diagonals run from the curved corner of the
    cross-section so that no tet touches the curved surface with both a
    face and an extra edge.
    """
    if not (isinstance(I, numbers.Integral) and I >= 2 and I % 2 == 0):
        raise ValueError("torus sector mesh needs an even resolution I >= 2, "
                         "got I = %s" % I)
    Torus(major_radius, minor_radius)  # rejects radii without R > r > 0
    nx, nyz = 2 * I, I // 2
    dims = (nx + 1, nyz + 1, nyz + 1)

    # build the structured grid in flipped cross-section coordinates
    # (x, Y, Z) = (x, 1-y, 1-z), standard Kuhn diagonal from the min corner,
    # then flip back: the diagonals then start at the curved corner y=z=1;
    # the cross-section square goes to the quarter disk
    i, j, k = np.indices(dims).reshape(3, -1)
    y, z = _square_to_quarter_disk(1.0 - j / nyz, 1.0 - k / nyz)
    verts = np.column_stack([i / nx, y, z])
    paths = _kuhn_paths(_grid_cells((nx, nyz, nyz)))
    tets = np.ravel_multi_index(tuple(np.moveaxis(paths, -1, 0)), dims)

    # reflect through y = 0 into the half disk, welding the y = 0 plane
    n0 = verts.shape[0]
    off_plane = ~(np.abs(verts[:, 1]) <= 1e-14)
    mirror_id = np.arange(n0)
    mirror_id[off_plane] = n0 + np.arange(np.count_nonzero(off_plane))
    verts = np.vstack([verts, verts[off_plane] * np.array([1.0, -1.0, 1.0])])
    tets = np.vstack([tets, mirror_id[tets]])

    # torus map
    R, r = float(major_radius), float(minor_radius)
    theta = verts[:, 0] * (np.pi / 4.0)
    rho = R + r * verts[:, 1]
    mapped = np.column_stack(
        [rho * np.cos(theta), rho * np.sin(theta), r * verts[:, 2]]
    )

    tets = _fix_orientation(mapped, tets)
    sq2 = np.sqrt(0.5)
    planes = np.array([[0.0, 0.0, 1.0],  # z = 0
                       [0.0, 1.0, 0.0],  # theta = 0
                       [sq2, -sq2, 0.0]])  # theta = pi/4
    return Mesh(mapped, tets, name="torus-sector", symmetry_planes=planes)


# -- boundary classification -------------------------------------------------


@dataclass
class BoundaryClassification:
    """Which mesh entities approximate the curved surface, and which tets
    need the shifted trial basis.  Entities are ascending id arrays."""

    gamma_faces: np.ndarray  # face ids on Gamma_h
    gamma_edges: np.ndarray  # edge ids of the Gamma_h faces
    gamma_vertices: np.ndarray  # vertex ids of the Gamma_h faces
    s_tets: np.ndarray  # tets with a face on Gamma_h
    r_tets: np.ndarray  # tets with an edge (and no face) on Gamma_h
    violations: list  # human-readable descriptions of assumption violations

    @property
    def o_tets(self):
        """The boundary tets: S_h, then R_h."""
        return np.concatenate([self.s_tets, self.r_tets])

    def check_assumption(self):
        """Raise when a tet breaks the one-face-or-one-edge assumption."""
        if self.violations:
            raise ValueError(
                "mesh violates the one-face-or-one-edge boundary assumption: "
                + "; ".join(self.violations[:5])
            )


#: |F| bound, relative to the surface scale, of a vertex on the surface
ON_SURFACE_TOL = 1e-9
#: violation kinds of `classify_boundary`, by code
_VIOLATIONS = {
    1: "tet %d has %d faces on Gamma_h",
    2: "tet %d has a face and %d extra edge(s) on Gamma_h",
    3: "tet %d has %d edges (and no face) on Gamma_h",
}


def classify_boundary(mesh: Mesh, surface: Surface):
    """Classify boundary faces/edges/vertices of `mesh` against `surface`.

    A boundary face belongs to Gamma_h when all three of its vertices lie
    on the surface (|F(v)| <= ON_SURFACE_TOL * characteristic length); every
    other boundary face is a symmetry face, which must lie on one of the
    mesh's symmetry planes (unit normals of planes through the origin), or
    a ValueError names the first that does not; a mesh without declared
    planes (a box) accepts any.  Tets violating the one-face-or-one-edge
    assumption are recorded in `violations`.
    """
    top = mesh.topology
    tol = ON_SURFACE_TOL * surface.scale
    tris = mesh.boundary_faces()
    on_surface = np.abs(surface.value(mesh.vertices[tris])).max(axis=1) <= tol
    gamma_faces = top.boundary[on_surface]

    planes = mesh.symmetry_planes
    if len(planes) and not on_surface.all():
        pts = mesh.vertices[tris[~on_surface]]  # (n, 3, 3)
        tol_plane = 1e-9 * max(1.0, surface.scale)
        on_plane = (np.abs(pts @ planes.T).max(axis=1) <= tol_plane).any(axis=1)
        if not on_plane.all():
            raise ValueError(
                "boundary face %s is neither on the surface nor on a "
                "symmetry plane"
                % (tuple(tris[~on_surface][~on_plane][0].tolist()),)
            )

    gamma_edges = np.unique(top.face_edges(gamma_faces))
    gamma_vertices = np.unique(top.face_vertices[gamma_faces])

    n_faces = np.isin(top.tet_faces, gamma_faces).sum(axis=1)
    n_edges = np.isin(top.tet_edges, gamma_edges).sum(axis=1)
    # a Gamma_h face brings its 3 edges; any further one is extra
    kind = np.select(
        [n_faces >= 2, (n_faces == 1) & (n_edges > 3),
         (n_faces == 0) & (n_edges >= 2)], [1, 2, 3], 0)
    count = np.choose(kind, [n_faces, n_faces, n_edges - 3, n_edges])
    bad = np.flatnonzero(kind)
    violations = [_VIOLATIONS[c] % (t, n)
                  for t, c, n in zip(bad, kind[bad], count[bad])]

    return BoundaryClassification(
        gamma_faces=gamma_faces,
        gamma_edges=gamma_edges,
        gamma_vertices=gamma_vertices,
        s_tets=np.flatnonzero(n_faces >= 1),
        r_tets=np.flatnonzero((n_faces == 0) & (n_edges >= 1)),
        violations=violations,
    )


def skin_directions(mesh: Mesh, cls: BoundaryClassification):
    """Unit vectors (n, 3), one per `cls.gamma_edges` entry, orthogonal to
    the edge and pointing out of the mesh, along which edge nodes are
    shifted onto the surface.

    With two Gamma_h faces adjacent to an edge, the direction is the
    component orthogonal to the edge of the bisector of the two outward
    face normals.  On a symmetry plane of the domain only one Gamma_h
    face is present; the mirror face normal is the reflection of that
    face's normal through the plane, so the bisector reduces to the
    in-plane component of the single normal.
    """
    top = mesh.topology
    edges = cls.gamma_edges
    bface_edges = top.face_edges(top.boundary).ravel()
    # the boundary faces of every edge, in face-id order
    order = np.argsort(bface_edges, kind="stable") // 3
    count = np.bincount(bface_edges, minlength=top.n_edges)
    start = np.cumsum(count) - count
    odd = np.flatnonzero(count[edges] != 2)
    if odd.size:
        e = edges[odd[0]]
        raise ValueError(
            "Gamma_h edge %s has %d adjacent boundary faces; cannot form a "
            "skin direction" % (tuple(top.edge_vertices[e].tolist()), count[e]))
    f1, f2 = order[start[edges]], order[start[edges] + 1]

    normals = mesh.face_normals(top.boundary)
    on_gamma = np.isin(top.boundary, cls.gamma_faces)
    first_on = on_gamma[f1][:, None]
    own = np.where(first_on, normals[f1], normals[f2])  # a Gamma_h normal
    other = np.where(first_on, normals[f2], normals[f1])
    # with a symmetry face: project onto the symmetry plane containing the edge
    n = np.where((on_gamma[f1] & on_gamma[f2])[:, None], own + other,
                 own - np.sum(own * other, axis=1, keepdims=True) * other)

    ends = mesh.vertices[top.edge_vertices[edges]]
    e = ends[:, 1] - ends[:, 0]
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    n = n - np.sum(n * e, axis=1, keepdims=True) * e
    norm = np.linalg.norm(n, axis=1)
    flat = np.flatnonzero(norm <= 1e-12)
    if flat.size:
        raise ValueError("degenerate skin direction at edge %s"
                         % (tuple(top.edge_vertices[edges[flat[0]]].tolist()),))
    return n / norm[:, None]


# -- export -----------------------------------------------------------------


def write_vtk(mesh: Mesh, path, point_data=None):
    """Legacy ASCII VTK unstructured-grid writer."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n%s\nASCII\n" % mesh.name)
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.n_vertices)
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        fh.write("CELLS %d %d\n" % (mesh.n_tets, 5 * mesh.n_tets))
        np.savetxt(fh, np.column_stack([np.full(mesh.n_tets, 4), mesh.tets]),
                   fmt="%d")
        fh.write("CELL_TYPES %d\n" % mesh.n_tets)
        fh.write("10\n" * mesh.n_tets)
        if point_data:
            fh.write("POINT_DATA %d\n" % mesh.n_vertices)
            for name, values in point_data.items():
                fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
                np.savetxt(fh, np.asarray(values, dtype=float), fmt="%.17g")


def write_mesh_text(mesh: Mesh, path):
    """Plain-text dump: vertex coordinates then tet connectivity."""
    with open(path, "w") as fh:
        fh.write("vertices %d\n" % mesh.n_vertices)
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        fh.write("tets %d\n" % mesh.n_tets)
        np.savetxt(fh, mesh.tets, fmt="%d")
