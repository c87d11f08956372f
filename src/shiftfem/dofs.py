"""Global degree-of-freedom numbering.

Lagrange nodes of the continuous P2/P3 spaces are owned by mesh entities:
one node per vertex, k-1 nodes per edge (ordered from the smaller to the
larger global vertex id), and for k=3 one node per face.  Node ids follow
the entity ids of `meshgen.Topology`: the vertices, then the nodes of
edge 0, edge 1, ..., then the face nodes in face-id order.  This makes
continuity automatic and lets boundary classification decide per entity
whether a node lies on Gamma_h.

Every discretization numbers its equations through one `DofMap`: a table
of the global DOF ids of each tet plus a Gamma_h mask.  The equations are
the DOFs off Gamma_h, in ascending order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import EDGES
from .meshgen import BoundaryClassification, Mesh


@dataclass
class DofMap:
    """Equation numbering: one equation per DOF not on Gamma_h."""

    cells: np.ndarray  # (n_tets, n_loc) global DOF ids of each tet
    gamma_mask: np.ndarray  # (n_dofs,) True for DOFs on Gamma_h

    @property
    def n_dofs(self):
        return self.gamma_mask.size

    @property
    def n_eq(self):
        return int(np.count_nonzero(~self.gamma_mask))


@dataclass
class LagrangeNodeSet:
    mesh: Mesh
    degree: int
    coords: np.ndarray  # (n_nodes, 3)
    cell_nodes_table: np.ndarray  # (n_tets, n_k)

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    def edge_nodes(self, edges):
        """Node ids (..., k-1) of edge ids (...), each edge's nodes running
        from its smaller vertex id."""
        per_edge = self.degree - 1
        return (self.mesh.n_vertices + per_edge * np.asarray(edges)[..., None]
                + np.arange(per_edge))

    def face_nodes(self, faces):
        """Node ids of the centroid nodes of face ids (k = 3)."""
        return (self.mesh.n_vertices
                + (self.degree - 1) * self.mesh.topology.n_edges
                + np.asarray(faces))

    def gamma_mask(self, cls: BoundaryClassification):
        """Boolean mask over global nodes: True when the node lies on Gamma_h."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[cls.gamma_vertices] = True
        mask[self.edge_nodes(cls.gamma_edges)] = True
        if self.degree == 3:
            mask[self.face_nodes(cls.gamma_faces)] = True
        return mask


def build_lagrange_nodes(mesh: Mesh, degree: int) -> LagrangeNodeSet:
    if degree not in (2, 3):
        raise ValueError("only degrees 2 and 3 are supported")
    k = degree
    top = mesh.topology
    frac = (np.arange(k - 1) + 1) / k
    pa = mesh.vertices[top.edge_vertices[:, 0]][:, None, :]
    pb = mesh.vertices[top.edge_vertices[:, 1]][:, None, :]
    edge_coords = (1.0 - frac)[:, None] * pa + frac[:, None] * pb
    coords = [mesh.vertices, edge_coords.reshape(-1, 3)]
    if k == 3:
        coords.append(mesh.vertices[top.face_vertices].mean(axis=1))
    nodes = LagrangeNodeSet(mesh, degree, np.vstack(coords), None)

    # global edge nodes run from the smaller vertex id; flip them where the
    # local edge runs the other way
    tets = mesh.tets
    ids = nodes.edge_nodes(top.tet_edges)
    a, b = np.array(EDGES).T
    ids = np.where((tets[:, a] > tets[:, b])[:, :, None], ids[:, :, ::-1], ids)
    table = [tets, ids.reshape(mesh.n_tets, -1)]
    if k == 3:
        table.append(nodes.face_nodes(top.tet_faces))
    nodes.cell_nodes_table = np.hstack(table)
    return nodes
