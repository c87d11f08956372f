"""Global degree-of-freedom numbering, one block per entity kind.

A `DofLayout` gives each vertex, edge and face of a mesh a fixed number
of DOFs and numbers them in one block per entity dimension, the blocks in
a chosen order and each block in the entity ids of `meshgen.Topology`.
An edge's DOFs run from its smaller to its larger global vertex id, and
the per-tet table flips them where the tet's local edge runs the other
way, which makes continuity automatic.  Boundary classification decides
per entity whether its DOFs lie on Gamma_h.  scikit-fem (Gustafsson &
McBain, JOSS 2020) numbers every element this way.

The Lagrange nodes of degree k have 1, k-1 and (k-1)(k-2)/2 DOFs per
vertex, edge and face, counted off `elements.multi_indices`, which holds
the one degree check; the nonconforming DOFs are (0, 1, 1), faces first.
Each discretization numbers its equations through its layout's per-tet
table and Gamma_h mask: the equations are the DOFs off Gamma_h, in
ascending order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import EDGES, multi_indices
from .meshgen import BoundaryClassification, Mesh


@dataclass
class DofLayout:
    """`counts` DOFs per vertex, edge and face of `mesh`, numbered in one
    block per entity dimension, the blocks in the order of `order`."""

    mesh: Mesh
    counts: tuple  # DOFs per vertex, edge, face
    order: tuple = (0, 1, 2)  # entity dimension of each block

    @property
    def sizes(self):
        """DOFs in the vertex, edge and face blocks."""
        top = self.mesh.topology
        return np.multiply(self.counts,
                           (self.mesh.n_vertices, top.n_edges, top.n_faces))

    def ids(self, dim, entities):
        """DOF ids (..., counts[dim]) of entity ids (...) of dimension dim."""
        start = self.sizes[list(self.order[:self.order.index(dim)])].sum()
        c = self.counts[dim]
        return start + c * np.asarray(entities)[..., None] + np.arange(c)

    def cells(self):
        """(n_tets, n_loc) DOF ids of each tet, in the block order."""
        tets, top = self.mesh.tets, self.mesh.topology
        a, b = np.array(EDGES).T
        edge = self.ids(1, top.tet_edges)
        blocks = (self.ids(0, tets),
                  np.where((tets[:, a] > tets[:, b])[..., None],
                           edge[..., ::-1], edge),
                  self.ids(2, top.tet_faces))
        return np.hstack([blocks[d].reshape(len(tets), -1) for d in self.order])

    def gamma_mask(self, cls: BoundaryClassification, dims=(0, 1, 2)):
        """(n_dofs,) True for the DOFs of the Gamma_h entities of `dims`."""
        mask = np.zeros(self.sizes.sum(), dtype=bool)
        entities = (cls.gamma_vertices, cls.gamma_edges, cls.gamma_faces)
        for d in dims:
            mask[self.ids(d, entities[d])] = True
        return mask


@dataclass
class LagrangeNodeSet:
    layout: DofLayout
    degree: int
    coords: np.ndarray  # (n_nodes, 3)
    cell_nodes_table: np.ndarray  # (n_tets, n_k)

    @property
    def n_nodes(self):
        return self.coords.shape[0]


def build_lagrange_nodes(mesh: Mesh, degree: int) -> LagrangeNodeSet:
    """The nodes of the continuous P_k space.  Their counts, and their
    places on every edge and face (vertices sorted), are those of the
    reference nodes on edge (0, 1) and face (1, 2, 3)."""
    k, alpha = degree, multi_indices(degree)
    support = np.count_nonzero(alpha, axis=1)
    counts = np.bincount(support, minlength=4)[1:4] // (4, 6, 4)
    layout = DofLayout(mesh, tuple(counts.tolist()))
    t = alpha[support == 2][:counts[1], 1, None] / k
    face = alpha[support == 3][:counts[2], 1:, None]
    p, top = mesh.vertices, mesh.topology
    ends = p[top.edge_vertices][:, None]
    edges = (1.0 - t) * ends[..., 0, :] + t * ends[..., 1, :]
    faces = (face * p[top.face_vertices][:, None]).sum(axis=2) / k
    coords = np.vstack([p, edges.reshape(-1, 3), faces.reshape(-1, 3)])
    return LagrangeNodeSet(layout, k, coords, layout.cells())
