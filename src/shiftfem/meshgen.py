"""Straight-edged tetrahedral meshes of curved domains, and classification
of the boundary entities the shifted trial space needs.

Generators:
  * box mesh: structured grid, 6 Kuhn tets per cell
  * octant mesh: one octant of a sphere/ellipsoid, built from the Kuhn
    triangulation of a corner simplex mapped radially shell-by-shell
  * torus sector mesh: one symmetry sector (theta in [0, pi/4], z >= 0)
    of a solid torus

All boundary vertices produced by the generators lie either exactly on the
curved surface Gamma or on flat symmetry planes of the domain.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .surfaces import Surface

# permutations defining the 6 Kuhn tets of a unit cell: walk from the cell
# origin to the opposite corner, one axis step at a time
_KUHN_PERMS = list(itertools.permutations((0, 1, 2)))


@dataclass
class Mesh:
    vertices: np.ndarray  # (n_v, 3)
    tets: np.ndarray  # (n_t, 4) vertex indices, positively oriented
    name: str = "mesh"
    #: flat symmetry planes of the domain as (point, unit normal) pairs
    symmetry_planes: list = field(default_factory=list)
    #: nominal mesh size of the generator (used for root brackets)
    h_ref: float = 0.0

    _edges: dict | None = None
    _faces: dict | None = None
    _boundary_faces: dict | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=np.int64)
        if self.h_ref == 0.0:
            self.h_ref = float(np.max(self.edge_lengths()))

    # -- topology ---------------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_tets(self):
        return self.tets.shape[0]

    def edges(self):
        """Sorted vertex pair -> edge id, in deterministic order."""
        if self._edges is None:
            edges = {}
            for tet in self.tets:
                for i in range(4):
                    for j in range(i + 1, 4):
                        key = (min(tet[i], tet[j]), max(tet[i], tet[j]))
                        if key not in edges:
                            edges[key] = len(edges)
            self._edges = edges
        return self._edges

    def faces(self):
        """Sorted vertex triple -> face id."""
        if self._faces is None:
            faces = {}
            for tet in self.tets:
                for skip in range(4):
                    tri = tuple(sorted(tet[k] for k in range(4) if k != skip))
                    if tri not in faces:
                        faces[tri] = len(faces)
            self._faces = faces
        return self._faces

    def boundary_faces(self):
        """Sorted vertex triple -> (tet index, local index of opposite vertex)
        for faces incident to exactly one tet."""
        if self._boundary_faces is None:
            incidence = {}
            for t, tet in enumerate(self.tets):
                for skip in range(4):
                    tri = tuple(sorted(tet[k] for k in range(4) if k != skip))
                    incidence.setdefault(tri, []).append((t, skip))
            self._boundary_faces = {
                tri: inc[0] for tri, inc in incidence.items() if len(inc) == 1
            }
        return self._boundary_faces

    def edge_lengths(self):
        v = self.vertices
        lens = []
        for tet in self.tets:
            for i in range(4):
                for j in range(i + 1, 4):
                    lens.append(np.linalg.norm(v[tet[i]] - v[tet[j]]))
        return np.array(lens)

    def element_sizes(self):
        """Longest edge of each tet."""
        v = self.vertices
        h = np.zeros(self.n_tets)
        for t, tet in enumerate(self.tets):
            for i in range(4):
                for j in range(i + 1, 4):
                    h[t] = max(h[t], np.linalg.norm(v[tet[i]] - v[tet[j]]))
        return h

    def tet_volumes(self):
        v = self.vertices
        vols = np.zeros(self.n_tets)
        for t, tet in enumerate(self.tets):
            B = (v[tet[1:]] - v[tet[0]]).T
            vols[t] = np.linalg.det(B) / 6.0
        return vols

    def outward_face_normal(self, tri):
        """Unit outward normal of a boundary face (sorted vertex triple)."""
        t, skip = self.boundary_faces()[tri]
        tet = self.tets[t]
        opp = self.vertices[tet[skip]]
        a, b, c = (self.vertices[i] for i in tri)
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n)
        if n @ (opp - a) > 0.0:
            n = -n
        return n


def _fix_orientation(vertices, tets):
    """Swap two vertices of negatively oriented tets; reject degenerate ones."""
    tets = np.asarray(tets, dtype=np.int64).copy()
    for t in range(tets.shape[0]):
        verts = vertices[tets[t]]
        B = (verts[1:] - verts[0]).T
        det = np.linalg.det(B)
        vol_scale = np.max(np.abs(verts[1:] - verts[0])) ** 3
        if abs(det) <= 1e-12 * max(vol_scale, 1e-300):
            raise ValueError("degenerate tetrahedron produced by mesh mapping")
        if det < 0.0:
            tets[t, [2, 3]] = tets[t, [3, 2]]
    return tets


# -- box mesh --------------------------------------------------------------


def generate_box_tet_mesh(nx, ny, nz, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """Structured mesh of an axis-aligned box, 6 Kuhn tets per cell, all
    sharing the cell's main diagonal direction."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dims = (nx + 1, ny + 1, nz + 1)

    def vid(i, j, k):
        return (i * dims[1] + j) * dims[2] + k

    verts = np.empty((dims[0] * dims[1] * dims[2], 3))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                frac = np.array([i / nx, j / ny, k / nz])
                verts[vid(i, j, k)] = lo + frac * (hi - lo)

    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    for ax in perm:
                        nxt = path[-1].copy()
                        nxt[ax] += 1
                        path.append(nxt)
                    tets.append([vid(*p) for p in path])
    tets = _fix_orientation(verts, tets)
    h = max((hi - lo)[0] / nx, (hi - lo)[1] / ny, (hi - lo)[2] / nz)
    return Mesh(verts, tets, name="box", h_ref=h)


# -- octant mesh (sphere / ellipsoid) ---------------------------------------


def generate_octant_mesh(J, semi_axes=(1.0, 1.0, 1.0)):
    """Mesh of one octant {x, y, z >= 0} of an ellipsoid with the given
    semi-axes (a sphere when they are equal), with exactly J^3 tets.

    Construction: the Kuhn simplex K_J = {J >= x >= y >= z >= 0} is tiled
    by the J^3 Kuhn tets of the unit-cube triangulation that fall inside
    it.  K_J is mapped affinely onto the corner simplex
    conv{0, e1, e2, e3}; the lattice shells x = j become the planes
    u+v+w = j/J, which are then mapped radially onto concentric spheres of
    radius j/J and finally scaled by the semi-axes.  All outer-shell
    vertices land exactly on the surface; the flat faces land in the
    coordinate planes.
    """
    J = int(J)
    semi_axes = np.asarray(semi_axes, dtype=float)

    vert_ids: dict[tuple, int] = {}
    verts: list[np.ndarray] = []

    def vid(p):
        key = tuple(int(c) for c in p)
        if key not in vert_ids:
            vert_ids[key] = len(verts)
            verts.append(np.array(key, dtype=float))
        return vert_ids[key]

    tets = []
    for i in range(J):
        for j in range(J):
            for k in range(J):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    for ax in perm:
                        nxt = path[-1].copy()
                        nxt[ax] += 1
                        path.append(nxt)
                    if all(p[0] >= p[1] >= p[2] for p in path):
                        tets.append(path)
    if len(tets) != J**3:
        raise RuntimeError("octant tiling produced an unexpected tet count")
    tets = [[vid(p) for p in path] for path in tets]

    coords = np.array(verts)
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

    tets = _fix_orientation(mapped, tets)
    planes = [
        (np.zeros(3), np.array([1.0, 0.0, 0.0])),
        (np.zeros(3), np.array([0.0, 1.0, 0.0])),
        (np.zeros(3), np.array([0.0, 0.0, 1.0])),
    ]
    return Mesh(
        mapped, tets, name="octant", symmetry_planes=planes, h_ref=1.0 / J
    )


# -- torus sector mesh -------------------------------------------------------


def _square_to_quarter_disk(y, z):
    """Map [0,1]^2 onto the quarter disk {y,z >= 0, y^2+z^2 <= 1}, sending
    the concentric squares max(y,z) = c onto the arcs of radius c."""
    m = max(y, z)
    if m == 0.0:
        return 0.0, 0.0
    if y >= z:
        phi = 0.25 * np.pi * (z / y)
    else:
        phi = 0.5 * np.pi - 0.25 * np.pi * (y / z)
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
    I = int(I)
    if I % 2 != 0:
        raise ValueError("torus sector mesh needs an even resolution I")
    nx, nyz = 2 * I, I // 2
    dims = (nx + 1, nyz + 1, nyz + 1)

    def vid(i, j, k):
        return (i * dims[1] + j) * dims[2] + k

    # build the structured grid in flipped cross-section coordinates
    # (x, Y, Z) = (x, 1-y, 1-z), standard Kuhn diagonal from the min corner,
    # then flip back: the diagonals then start at the curved corner y=z=1
    verts = np.empty((dims[0] * dims[1] * dims[2], 3))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                verts[vid(i, j, k)] = [i / nx, 1.0 - j / nyz, 1.0 - k / nyz]

    tets = []
    for i in range(nx):
        for j in range(nyz):
            for k in range(nyz):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    for ax in perm:
                        nxt = path[-1].copy()
                        nxt[ax] += 1
                        path.append(nxt)
                    tets.append([vid(*p) for p in path])

    # cross-section: square -> quarter disk
    for v in verts:
        v[1], v[2] = _square_to_quarter_disk(v[1], v[2])

    # reflect through y = 0 into the half disk, welding the y = 0 plane
    n0 = verts.shape[0]
    on_plane = np.abs(verts[:, 1]) <= 1e-14
    mirror_id = np.empty(n0, dtype=np.int64)
    extra = []
    for i in range(n0):
        if on_plane[i]:
            mirror_id[i] = i
        else:
            mirror_id[i] = n0 + len(extra)
            extra.append(verts[i] * np.array([1.0, -1.0, 1.0]))
    verts = np.vstack([verts, np.array(extra)])
    mirrored = [[mirror_id[a], mirror_id[b], mirror_id[d], mirror_id[c]]
                for a, b, c, d in tets]
    tets = tets + mirrored

    # torus map
    R, r = float(major_radius), float(minor_radius)
    theta = verts[:, 0] * (np.pi / 4.0)
    rho = R + r * verts[:, 1]
    mapped = np.column_stack(
        [rho * np.cos(theta), rho * np.sin(theta), r * verts[:, 2]]
    )

    tets = _fix_orientation(mapped, tets)
    sq2 = np.sqrt(0.5)
    planes = [
        (np.zeros(3), np.array([0.0, 0.0, 1.0])),  # z = 0
        (np.zeros(3), np.array([0.0, 1.0, 0.0])),  # theta = 0
        (np.zeros(3), np.array([sq2, -sq2, 0.0])),  # theta = pi/4
    ]
    return Mesh(
        mapped,
        tets,
        name="torus-sector",
        symmetry_planes=planes,
        h_ref=np.pi / (8.0 * I),
    )


# -- boundary classification -------------------------------------------------


@dataclass
class BoundaryClassification:
    """Which mesh entities approximate the curved surface, and which tets
    need the shifted trial basis."""

    gamma_faces: set  # sorted vertex triples on Gamma_h
    gamma_edges: set  # sorted vertex pairs on Gamma_h
    gamma_vertices: set
    s_tets: list  # tets with exactly one face on Gamma_h
    r_tets: list  # tets with exactly one edge (and no face) on Gamma_h
    violations: list  # human-readable descriptions of assumption violations
    symmetry_faces: set  # boundary faces on flat symmetry planes

    @property
    def o_tets(self):
        return self.s_tets + self.r_tets

    def check_assumption(self):
        """Raise when a tet breaks the one-face-or-one-edge assumption."""
        if self.violations:
            raise ValueError(
                "mesh violates the one-face-or-one-edge boundary assumption: "
                + "; ".join(self.violations[:5])
            )


def classify_boundary(mesh: Mesh, surface: Surface, tol_rel=1e-9):
    """Classify boundary faces/edges/vertices of `mesh` against `surface`.

    A boundary face belongs to Gamma_h when all three of its vertices lie
    on the surface (|F(v)| <= tol_rel * characteristic length); every
    other boundary face must lie on one of the mesh's declared symmetry
    planes.  Tets violating the one-face-or-one-edge assumption are
    recorded in `violations`.
    """
    tol = tol_rel * surface.scale
    bfaces = mesh.boundary_faces()

    gamma_faces, symmetry_faces = set(), set()
    for tri in bfaces:
        vals = [abs(surface.value(mesh.vertices[i])) for i in tri]
        if max(vals) <= tol:
            gamma_faces.add(tri)
        else:
            symmetry_faces.add(tri)
            if mesh.symmetry_planes:
                pts = mesh.vertices[list(tri)]
                ok = any(
                    np.max(np.abs((pts - p0) @ n)) <= 1e-9 * max(1.0, surface.scale)
                    for p0, n in mesh.symmetry_planes
                )
                if not ok:
                    raise ValueError(
                        "boundary face %s is neither on the surface nor on a "
                        "symmetry plane" % (tri,)
                    )

    gamma_edges = set()
    gamma_vertices = set()
    for tri in gamma_faces:
        a, b, c = tri
        gamma_edges.update({(a, b), (a, c), (b, c)})
        gamma_vertices.update(tri)

    s_tets, r_tets = [], []
    violations = []
    for t, tet in enumerate(mesh.tets):
        tfaces = []
        for skip in range(4):
            tri = tuple(sorted(tet[k] for k in range(4) if k != skip))
            if tri in gamma_faces:
                tfaces.append(tri)
        tedges = []
        for i in range(4):
            for j in range(i + 1, 4):
                key = (min(tet[i], tet[j]), max(tet[i], tet[j]))
                if key in gamma_edges:
                    tedges.append(key)
        if not tfaces and not tedges:
            continue
        if len(tfaces) >= 2:
            violations.append("tet %d has %d faces on Gamma_h" % (t, len(tfaces)))
            s_tets.append(t)
        elif len(tfaces) == 1:
            a, b, c = tfaces[0]
            face_edges = {(a, b), (a, c), (b, c)}
            extra = [e for e in tedges if e not in face_edges]
            if extra:
                violations.append(
                    "tet %d has a face and %d extra edge(s) on Gamma_h"
                    % (t, len(extra))
                )
            s_tets.append(t)
        else:
            if len(tedges) >= 2:
                violations.append(
                    "tet %d has %d edges (and no face) on Gamma_h" % (t, len(tedges))
                )
            r_tets.append(t)

    return BoundaryClassification(
        gamma_faces=gamma_faces,
        gamma_edges=gamma_edges,
        gamma_vertices=gamma_vertices,
        s_tets=s_tets,
        r_tets=r_tets,
        violations=violations,
        symmetry_faces=symmetry_faces,
    )


def skin_direction(mesh: Mesh, cls: BoundaryClassification, edge):
    """Unit vector orthogonal to the Gamma_h edge `edge`, pointing out of
    the mesh, along which edge nodes are shifted onto the surface.

    With two Gamma_h faces adjacent to the edge, the direction is the
    component orthogonal to the edge of the bisector of the two outward
    face normals.  On a symmetry plane of the domain only one Gamma_h
    face is present; the mirror face normal is the reflection of that
    face's normal through the plane, so the bisector reduces to the
    in-plane component of the single normal.
    """
    a, b = edge
    e = mesh.vertices[b] - mesh.vertices[a]
    e /= np.linalg.norm(e)

    incident_gamma, incident_sym = [], []
    for tri in mesh.boundary_faces():
        if a in tri and b in tri:
            if tri in cls.gamma_faces:
                incident_gamma.append(tri)
            else:
                incident_sym.append(tri)

    if len(incident_gamma) == 2:
        n = mesh.outward_face_normal(incident_gamma[0]) + mesh.outward_face_normal(
            incident_gamma[1]
        )
    elif len(incident_gamma) == 1 and len(incident_sym) == 1:
        n = mesh.outward_face_normal(incident_gamma[0])
        # project onto the symmetry plane containing the edge
        p = mesh.outward_face_normal(incident_sym[0])
        n = n - (n @ p) * p
    else:
        raise ValueError(
            "edge %s has %d adjacent Gamma_h faces; cannot form a skin direction"
            % (edge, len(incident_gamma))
        )
    n = n - (n @ e) * e
    norm = np.linalg.norm(n)
    if norm <= 1e-12:
        raise ValueError("degenerate skin direction at edge %s" % (edge,))
    return n / norm


# -- export -----------------------------------------------------------------


def write_vtk(mesh: Mesh, path, point_data=None):
    """Legacy ASCII VTK unstructured-grid writer."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n%s\nASCII\n" % mesh.name)
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.n_vertices)
        for p in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        fh.write("CELLS %d %d\n" % (mesh.n_tets, 5 * mesh.n_tets))
        for t in mesh.tets:
            fh.write("4 %d %d %d %d\n" % tuple(t))
        fh.write("CELL_TYPES %d\n" % mesh.n_tets)
        fh.write("10\n" * mesh.n_tets)
        if point_data:
            fh.write("POINT_DATA %d\n" % mesh.n_vertices)
            for name, values in point_data.items():
                fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
                for v in values:
                    fh.write("%.17g\n" % v)


def write_mesh_text(mesh: Mesh, path):
    """Plain-text dump: vertex coordinates then tet connectivity."""
    with open(path, "w") as fh:
        fh.write("vertices %d\n" % mesh.n_vertices)
        for p in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        fh.write("tets %d\n" % mesh.n_tets)
        for t in mesh.tets:
            fh.write("%d %d %d %d\n" % tuple(t))
