"""Global degree-of-freedom numbering, one block per entity kind.

A `DofLayout` gives each vertex, edge and face of a mesh a fixed number
of DOFs and numbers them in one block per entity dimension: the vertices,
then the edges, then the faces, each block in the entity ids of
`meshgen.Topology`.  The per-tet table keeps the element's own local
order, that of `elements.multi_indices`: the vertices, the edges in
`EDGES` order, then the faces in `FACES` order.  An edge's DOFs run from
its smaller to its larger global vertex id, and the per-tet table flips
them where the tet's local edge runs the other way, which makes
continuity automatic.  Boundary classification decides per entity
whether its DOFs lie on Gamma_h.  scikit-fem (Gustafsson & McBain, JOSS
2020) and the UFC dofmaps of FEniCS keep the local and the global order
apart in the same way.

The Lagrange nodes of degree k have 1, k-1 and (k-1)(k-2)/2 DOFs per
vertex, edge and face, counted off `elements.multi_indices`, which holds
the one degree check; the nonconforming DOFs are (0, 1, 1).
The equations are the DOFs off Gamma_h, in ascending order.  A DOF's
functional on the P1 hats belongs to its entity, not to a tet that holds
it (`DofLayout.hats`): the Lagrange nodes and the multigrid prolongation
both read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .elements import EDGES, FACES, multi_indices
from .meshgen import BoundaryClassification, Mesh


@dataclass
class DofLayout:
    """`counts` DOFs per vertex, edge and face of `mesh`, numbered in one
    block per entity dimension: vertices, edges, then faces."""

    mesh: Mesh
    counts: tuple  # DOFs per vertex, edge, face

    @property
    def sizes(self):
        """DOFs in the vertex, edge and face blocks."""
        top = self.mesh.topology
        return np.multiply(self.counts,
                           (self.mesh.n_vertices, top.n_edges, top.n_faces))

    def ids(self, dim, entities):
        """DOF ids (..., counts[dim]) of entity ids (...) of dimension dim."""
        start = self.sizes[:dim].sum()
        c = self.counts[dim]
        return start + c * np.asarray(entities)[..., None] + np.arange(c)

    def cells(self):
        """(n_tets, n_loc) DOF ids of each tet, in the element's local
        order: the vertices, the edges in `EDGES` order, then the faces in
        `FACES` order, `counts` DOFs each."""
        tets, top = self.mesh.tets, self.mesh.topology
        out = np.empty((len(tets), np.dot(self.counts, (4, 6, 4))), np.int64)
        col = 0
        for d, entities in enumerate((tets, top.tet_edges, top.tet_faces)):
            # one local entity at a time: only its ids live beside the table
            for i in range(entities.shape[1]):
                ids = self.ids(d, entities[:, i])
                if d == 1:  # from the smaller global vertex id
                    a, b = EDGES[i]
                    flip = tets[:, a] > tets[:, b]
                    ids[flip] = ids[flip, ::-1]
                out[:, col:col + ids.shape[1]] = ids
                col += ids.shape[1]
        return out

    def hats(self, weights):
        """W (n_dofs, n_vertices), sparse: each DOF's functional on the P1
        hats, from the `weights` (n_loc, 4) of the local DOFs of `cells`.
        An entity's DOFs read its sorted vertices with the weights of its
        kind's first local entity: vertex 0, edge (0, 1), face (1, 2, 3)."""
        top = self.mesh.topology
        entities = (np.arange(self.mesh.n_vertices)[:, None],
                    top.edge_vertices, top.face_vertices)
        c0, c1, _ = self.counts
        starts = (0, 4 * c0, 4 * c0 + 6 * c1)  # each kind's local offset
        data, indices = [], []
        for d in range(3):  # the blocks, in DOF id order
            c, ends, start = self.counts[d], entities[d], starts[d]
            w = weights[start:start + c, list(((0,), EDGES[0], FACES[0])[d])]
            shape = (len(ends), c, d + 1)
            data.append(np.broadcast_to(w, shape).ravel())
            indices.append(np.broadcast_to(ends[:, None], shape).ravel())
        reads = np.repeat((1, 2, 3), self.sizes)
        return scipy.sparse.csr_matrix(
            (np.concatenate(data), np.concatenate(indices),
             np.concatenate([[0], np.cumsum(reads)])),
            shape=(self.sizes.sum(), self.mesh.n_vertices))

    def gamma_mask(self, cls: BoundaryClassification):
        """(n_dofs,) True for the DOFs of the Gamma_h entities."""
        mask = np.zeros(self.sizes.sum(), dtype=bool)
        entities = (cls.gamma_vertices, cls.gamma_edges, cls.gamma_faces)
        for d in range(3):
            mask[self.ids(d, entities[d])] = True
        return mask


@dataclass
class LagrangeNodeSet:
    """The P_k nodes, with the W (`DofLayout.hats`) that places them."""

    layout: DofLayout
    degree: int
    coords: np.ndarray  # (n_nodes, 3)
    cell_nodes_table: np.ndarray  # (n_tets, n_k)
    hats: scipy.sparse.csr_matrix  # W (n_nodes, n_vertices)

    @property
    def n_nodes(self):
        return self.coords.shape[0]


def build_lagrange_nodes(mesh: Mesh, degree: int) -> LagrangeNodeSet:
    """The nodes of the continuous P_k space: their hat weights alpha/k,
    W (`DofLayout.hats`, kept in the set), applied to the vertex
    coordinates, so that a vertex that no tet holds keeps its own."""
    k, alpha = degree, multi_indices(degree)
    counts = np.bincount(np.count_nonzero(alpha, axis=1), minlength=4)[1:4]
    layout = DofLayout(mesh, tuple((counts // (4, 6, 4)).tolist()))
    cells = layout.cells()  # before W, which is built below its peak
    W = layout.hats(alpha / k)
    return LagrangeNodeSet(layout, k, W @ mesh.vertices, cells, W)
