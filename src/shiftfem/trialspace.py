"""Modified trial basis on boundary elements: Lagrangian nodes on the
polyhedral boundary Gamma_h are shifted onto the true surface Gamma, and
the element shape functions are recombined so that they interpolate at the
shifted points.

Shift rules per owning entity:
  * vertex: already on Gamma, kept in place;
  * interior node of a Gamma_h edge e: along the skin direction of e
    (orthogonal to e, bisecting the adjacent boundary-face normals);
  * interior node of a Gamma_h face (the centroid at degree 3, none at
    degree 2): away from the vertex of the face's tet opposite to the face.
A node moves to the intersection of Gamma with its line nearest to it
(Q on an edge, P on a face), within one bracket: 4 times its largest
distance to a vertex of its entity, formed by `shift_from_entities`
(`nonconforming` uses it too).

The nodes of an entity are read off the layout of `dofs`; the shifted
nodes are the DOFs of the Gamma_h edges and faces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dofs import LagrangeNodeSet
from .elements import AffineMap, shape_values
from .meshgen import BoundaryClassification, Mesh, skin_directions
from .surfaces import LineQueryError, Surface

#: conditioning guard for the perturbed DOF matrix of every shifted basis
COND_LIMIT = 1e8


@dataclass
class ShiftedNodeTable:
    """Where the DOF of each Lagrange node evaluates: at the node itself,
    or at the shifted point on Gamma of a Gamma_h edge or face node."""

    shifts: np.ndarray  # (n_shifted,) ids of the shifted (edge and face) nodes
    points: np.ndarray  # (n_nodes, 3) evaluation point of every node


def shift_from_entities(mesh: Mesh, surface: Surface, kind, vertex_ids,
                        origin, direction):
    """The points of `surface.nearest_line_intersection` for lines cast
    from the Gamma_h entities of `kind` ("edge" or "face"): `origin` is
    (n_entities, ..., 3), and each line is searched within 4 times the
    largest distance from its origin to a vertex of its entity, whose
    sorted ids are its row of `vertex_ids` and name it if the line misses."""
    verts = mesh.vertices[vertex_ids]
    verts = np.expand_dims(verts, tuple(range(1, origin.ndim - 1)))
    reach = np.linalg.norm(origin[..., None, :] - verts, axis=-1).max(axis=-1)
    try:
        return surface.nearest_line_intersection(origin, direction,
                                                 4.0 * reach)[0]
    except LineQueryError as err:
        ids = vertex_ids[err.index // (err.count // len(vertex_ids))]
        raise ValueError("cannot shift Gamma_h %s %s onto the surface: %s"
                         % (kind, tuple(ids.tolist()), err)) from err


def shift_gamma_edge_points(mesh: Mesh, cls: BoundaryClassification,
                            surface: Surface, origins):
    """The Gamma_h edge rule in one batched line query: `origins`, m points
    (n_e, m, 3) on each edge of `cls.gamma_edges`, move along the edge's
    skin direction to the nearest point of the surface."""
    pairs = mesh.topology.edge_vertices[cls.gamma_edges]
    return shift_from_entities(mesh, surface, "edge", pairs, origins,
                               skin_directions(mesh, cls)[:, None, :])


def build_shifted_node_table(mesh: Mesh, cls: BoundaryClassification,
                             surface: Surface, nodes: LagrangeNodeSet
                             ) -> ShiftedNodeTable:
    """Shift every node of a Gamma_h edge and of a Gamma_h face, with one
    batched line query per entity dimension.  A line that misses the
    surface is reported by its Gamma_h edge or face."""
    top, layout = mesh.topology, nodes.layout
    points = nodes.coords.copy()

    edge_ids = layout.ids(1, cls.gamma_edges)  # (n_e, k-1)
    points[edge_ids] = shift_gamma_edge_points(mesh, cls, surface,
                                               nodes.coords[edge_ids])

    faces = cls.gamma_faces
    face_ids = layout.ids(2, faces)  # (n_f, (k-1)(k-2)/2)
    if face_ids.size:
        opp = mesh.vertices[mesh.tets[top.face_tet[faces], top.face_local[faces]]]
        M = nodes.coords[face_ids]
        d = M - opp[:, None]
        d /= np.linalg.norm(d, axis=-1)[..., None]
        points[face_ids] = shift_from_entities(
            mesh, surface, "face", top.face_vertices[faces], M, d)

    shifts = np.concatenate([edge_ids.ravel(), face_ids.ravel()])
    return ShiftedNodeTable(shifts=shifts, points=points)


@dataclass
class ModifiedElementBasis:
    """The modified basis of one boundary element, or of a stack of them:
    C = K⁻¹ for the perturbed DOF matrix K, and K's two diagnostics.  K
    itself is not kept.  The Lagrange builder and the nonconforming
    builder both return it."""

    tets: np.ndarray  # tet id, or (n,) tet ids
    C: np.ndarray  # (..., n_k, n_k) inverse of K: psi_j = sum_m C[m, j] phi_m
    conditions: np.ndarray  # (...) 1-norm condition number of each K
    deviations: np.ndarray  # (...) largest row sum of |K - I| of each K

    @property
    def condition(self):
        """The largest condition number of the stack."""
        return float(np.max(self.conditions, initial=0.0))

    @property
    def deviation_from_identity(self):
        """The largest row sum of |K - I| over the stack."""
        return float(np.max(self.deviations, initial=0.0))


def shifted_dof_matrices(mesh: Mesh, tets, points, shifted, degree: int,
                         weights, T) -> ModifiedElementBasis:
    """Perturbed DOF matrices of one boundary tet or an id array of them,
    in one batch, inverted behind the conditioning guard.

    DOF i of an element is v -> sum_p weights[i, p] v(points[..., p, :]),
    and its basis is b_j = sum_m T[m, j] phi_m over the P_k Lagrange basis
    phi.  On the rows marked in `shifted` (..., n_dofs), K[i, j] is DOF i
    applied to b_j at the shifted points; the other rows are identity
    rows.  The points are pulled back through each element's affine map,
    so that K is formed in reference coordinates and its conditioning is
    independent of the element size; P_k is evaluated only at the points
    that feed a shifted DOF.  The result keeps C = K⁻¹, each K's 1-norm
    condition number and its deviation from the identity, not K.
    """
    tets = np.asarray(tets)
    n, (n_dofs, n_p) = tets.size, weights.shape
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[tets.reshape(-1)]],
                                   tets)
    ref = amap.to_reference(np.reshape(points, (n, n_p, 3)))
    rows = np.reshape(shifted, (n, n_dofs))
    t, p = np.nonzero(rows @ (weights != 0))
    phi = np.zeros(ref.shape[:2] + (T.shape[0],))
    phi[t, p] = shape_values(degree, ref[t, p])
    K = weights @ phi @ T
    del phi
    t, i = np.nonzero(~rows)  # the unshifted rows: identity rows
    K[t, i] = 0.0
    K[t, i, i] = 1.0
    K = K.reshape(tets.shape + (n_dofs, n_dofs))
    try:
        C = np.linalg.inv(K)
        # NumPy's own definition of cond(K, 1), from the one inverse
        cond = np.linalg.norm(K, 1, axis=(-2, -1)) * np.linalg.norm(C, 1, axis=(-2, -1))
    except np.linalg.LinAlgError:  # a singular K: cond locates the first
        C, cond = None, np.linalg.cond(K, 1)
    bad = np.flatnonzero(~(cond <= COND_LIMIT))  # NaN and inf fail too
    if bad.size:
        raise ValueError(
            "mesh too coarse for shifted basis (DOF matrix condition %.3g "
            "on tet %d)" % (np.ravel(cond)[bad[0]], np.ravel(tets)[bad[0]]))
    # K becomes |K - I| in place: it is not needed any more
    d = np.arange(n_dofs)
    K[..., d, d] -= 1.0
    deviations = np.abs(K, out=K).sum(axis=-1).max(axis=-1)
    return ModifiedElementBasis(tets, C, cond, deviations)


def build_modified_basis(
    mesh: Mesh, nodes: LagrangeNodeSet, table: ShiftedNodeTable, tets
) -> ModifiedElementBasis:
    """Perturbed node matrices and their inverses for one boundary tet or
    an id array of them: each DOF evaluates at its node's point, and the
    rows of the shifted nodes are perturbed."""
    cell = nodes.cell_nodes_table[tets]
    shifted = np.zeros(nodes.n_nodes, dtype=bool)
    shifted[table.shifts] = True
    eye = np.eye(cell.shape[-1])
    return shifted_dof_matrices(mesh, tets, table.points[cell], shifted[cell],
                                nodes.degree, eye, eye)
