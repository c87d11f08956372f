"""Modified trial basis on boundary elements: Lagrangian nodes on the
polyhedral boundary Gamma_h are shifted onto the true surface Gamma, and
the element shape functions are recombined so that they interpolate at the
shifted points.

Shift rules per owning entity:
  * vertex: already on Gamma, kept in place;
  * interior node of a Gamma_h edge e: moved to the nearest intersection Q
    of Gamma with the line through the node along the skin direction of e
    (orthogonal to e, bisecting the adjacent boundary-face normals);
  * interior node of a Gamma_h face (degree 3): moved to the nearest
    intersection P of Gamma with the line through the node and the vertex
    of the face's tet opposite to the face.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dofs import LagrangeNodeSet
from .elements import AffineMap, shape_values
from .meshgen import BoundaryClassification, Mesh, skin_direction
from .surfaces import Surface

#: conditioning guard for the perturbed DOF matrix of every shifted basis
COND_LIMIT = 1e8


@dataclass
class ShiftedNodeTable:
    """Global map: Lagrangian node id on Gamma_h -> point on Gamma.

    Vertex nodes are not stored (their shifted point is the vertex
    itself); `shifted_point` resolves them transparently.
    """

    nodes: LagrangeNodeSet
    shifts: dict  # node id -> shifted point (edge and face nodes only)
    gamma_mask: np.ndarray  # per-node: lies on Gamma_h

    def shifted_point(self, node_id):
        if node_id in self.shifts:
            return self.shifts[node_id]
        return self.nodes.coords[node_id]

    def dirichlet_values(self, g):
        """Per-node array: the boundary datum at the shifted point of every
        Gamma_h node, 0 elsewhere."""
        pts = self.nodes.coords.copy()
        pts[list(self.shifts)] = np.reshape(list(self.shifts.values()), (-1, 3))
        vals = np.zeros(self.nodes.n_nodes)
        vals[self.gamma_mask] = g(pts[self.gamma_mask])
        return vals


def build_shifted_node_table(
    mesh: Mesh,
    cls: BoundaryClassification,
    surface: Surface,
    nodes: LagrangeNodeSet,
) -> ShiftedNodeTable:
    """Shift every Gamma_h edge node, and for k=3 every Gamma_h face node,
    with one batched line query per kind of node."""
    k = nodes.degree
    shifts = {}

    edges = mesh.edges()
    n_v = mesh.n_vertices
    per_edge = k - 1
    gamma_edges = sorted(cls.gamma_edges)
    if gamma_edges:
        pairs = np.array(gamma_edges, dtype=np.int64)
        w = np.array([skin_direction(mesh, cls, edge) for edge in gamma_edges])
        length = np.linalg.norm(
            mesh.vertices[pairs[:, 1]] - mesh.vertices[pairs[:, 0]], axis=1)
        e_id = np.array([edges[edge] for edge in gamma_edges], dtype=np.int64)
        nid = n_v + e_id[:, None] * per_edge + np.arange(per_edge)  # (n_e, k-1)
        Q, _t = surface.nearest_line_intersection(
            nodes.coords[nid], w[:, None, :], 4.0 * length[:, None])
        shifts.update(zip(nid.ravel().tolist(), Q.reshape(-1, 3)))

    gamma_faces = sorted(cls.gamma_faces)
    if k == 3 and gamma_faces:
        n_e = len(edges) * per_edge
        faces = mesh.faces()
        bfaces = mesh.boundary_faces()
        tris = np.array(gamma_faces, dtype=np.int64)
        opp = mesh.vertices[[mesh.tets[t][skip] for t, skip in
                             (bfaces[tri] for tri in gamma_faces)]]
        nid = n_v + n_e + np.array([faces[tri] for tri in gamma_faces])
        M = nodes.coords[nid]
        d = M - opp
        dist = np.linalg.norm(d, axis=1)
        d /= dist[:, None]
        # the sought intersection lies within O(h_T) of M
        h_t = np.max(np.linalg.norm(mesh.vertices[tris] - M[:, None, :], axis=2),
                     axis=1)
        P, _t = surface.nearest_line_intersection(
            M, d, 4.0 * np.maximum(h_t, dist))
        shifts.update(zip(nid.tolist(), P))

    return ShiftedNodeTable(
        nodes=nodes, shifts=shifts, gamma_mask=nodes.gamma_mask(cls)
    )


@dataclass
class ModifiedElementBasis:
    """Perturbed DOF matrix of one boundary element and its inverse; the
    Lagrange builder and the nonconforming builder both return it."""

    K: np.ndarray  # K[i, j] = shifted DOF i applied to basis function j
    C: np.ndarray  # inverse of K: psi_j = sum_m C[m, j] phi_m
    condition: float

    @property
    def deviation_from_identity(self):
        return float(np.max(np.abs(self.K - np.eye(self.K.shape[0])).sum(axis=1)))

    @classmethod
    def invert(cls, K, tet):
        """Invert K behind the conditioning guard."""
        cond = float(np.linalg.cond(K, 1))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "mesh too coarse for shifted basis (DOF matrix condition %.3g "
                "on tet %d)" % (cond, tet)
            )
        return cls(K=K, C=np.linalg.inv(K), condition=cond)


def build_modified_basis(
    mesh: Mesh, nodes: LagrangeNodeSet, table: ShiftedNodeTable, tet: int
) -> ModifiedElementBasis:
    """Perturbed node matrix and its inverse for one boundary element.

    The shifted points are pulled back through the element's affine map so
    that K is formed in reference coordinates; its conditioning is then
    independent of the element size.  Rows of unshifted nodes are identity
    rows.
    """
    k = nodes.degree
    cell = nodes.cell_nodes(tet)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[tet]])

    K = np.eye(len(cell))
    for i, g in enumerate(cell):
        g = int(g)
        if g in table.shifts:
            ref = amap.to_reference(table.shifts[g])
            K[i, :] = shape_values(k, ref)[0]
    return ModifiedElementBasis.invert(K, tet)
