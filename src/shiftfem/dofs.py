"""Global degree-of-freedom numbering.

Lagrange nodes of the continuous P2/P3 spaces are owned by mesh entities:
one node per vertex, k-1 nodes per edge (ordered from the smaller to the
larger global vertex id), and for k=3 one node per face.  This makes
continuity automatic and lets boundary classification decide per entity
whether a node lies on Gamma_h.

Every discretization numbers its equations through one `DofMap`: a table
of the global DOF ids of each tet plus a Gamma_h mask.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import EDGES, FACES
from .meshgen import BoundaryClassification, Mesh


def tet_edge_ids(mesh: Mesh) -> np.ndarray:
    """(n_tets, 6) global edge ids, local edges in canonical order."""
    edges = mesh.edges()
    return np.array(
        [[edges[(min(t[a], t[b]), max(t[a], t[b]))] for a, b in EDGES]
         for t in mesh.tets.tolist()],
        dtype=np.int64,
    )


def tet_face_ids(mesh: Mesh) -> np.ndarray:
    """(n_tets, 4) global face ids, local faces in canonical order."""
    faces = mesh.faces()
    return np.array(
        [[faces[tuple(sorted(t[i] for i in f))] for f in FACES]
         for t in mesh.tets.tolist()],
        dtype=np.int64,
    )


@dataclass
class DofMap:
    """Equation numbering: one equation per DOF not on Gamma_h."""

    cells: np.ndarray  # (n_tets, n_loc) global DOF ids of each tet
    gamma_mask: np.ndarray  # (n_dofs,) True for DOFs on Gamma_h
    eq: np.ndarray  # (n_dofs,) equation number, -1 on Gamma_h
    n_eq: int

    @property
    def n_dofs(self):
        return self.gamma_mask.size

    @classmethod
    def build(cls, cells, gamma_mask):
        eq = np.full(gamma_mask.size, -1, dtype=np.int64)
        free = np.nonzero(~gamma_mask)[0]
        eq[free] = np.arange(free.size)
        return cls(cells=cells, gamma_mask=gamma_mask, eq=eq, n_eq=free.size)


@dataclass
class LagrangeNodeSet:
    mesh: Mesh
    degree: int
    coords: np.ndarray  # (n_nodes, 3)
    n_nodes: int
    cell_nodes_table: np.ndarray  # (n_tets, n_k)
    #: parallel lists describing each node's owning entity
    entity_kind: list  # 'vertex' | 'edge' | 'face'
    entity_key: list  # vertex id | sorted vertex pair | sorted vertex triple

    def cell_nodes(self, t):
        return self.cell_nodes_table[t]

    def gamma_mask(self, cls: BoundaryClassification):
        """Boolean mask over global nodes: True when the node lies on Gamma_h."""
        mesh, per_edge = self.mesh, self.degree - 1
        edges = mesh.edges()
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[list(cls.gamma_vertices)] = True
        e = np.array([edges[key] for key in cls.gamma_edges], dtype=np.int64)
        mask[mesh.n_vertices + per_edge * e[:, None] + np.arange(per_edge)] = True
        if self.degree == 3:
            faces = mesh.faces()
            base = mesh.n_vertices + per_edge * len(edges)
            mask[[base + faces[tri] for tri in cls.gamma_faces]] = True
        return mask


def build_lagrange_nodes(mesh: Mesh, degree: int) -> LagrangeNodeSet:
    if degree not in (2, 3):
        raise ValueError("only degrees 2 and 3 are supported")
    k = degree
    per_edge = k - 1
    n_v = mesh.n_vertices
    edges = mesh.edges()
    pairs = np.array(list(edges), dtype=np.int64)
    n_e = len(edges) * per_edge

    frac = (np.arange(per_edge) + 1) / k
    pa = mesh.vertices[pairs[:, 0]][:, None, :]
    pb = mesh.vertices[pairs[:, 1]][:, None, :]
    edge_coords = (1.0 - frac)[:, None] * pa + frac[:, None] * pb
    coords = [mesh.vertices, edge_coords.reshape(-1, 3)]
    kinds = ["vertex"] * n_v + ["edge"] * n_e
    keys = list(range(n_v)) + [key for key in edges for _ in range(per_edge)]

    # global edge nodes run from the smaller vertex id; flip them where the
    # local edge runs the other way
    tets = mesh.tets
    ids = n_v + per_edge * tet_edge_ids(mesh)[:, :, None] + np.arange(per_edge)
    a, b = np.array(EDGES).T
    ids = np.where((tets[:, a] > tets[:, b])[:, :, None], ids[:, :, ::-1], ids)
    table = [tets, ids.reshape(mesh.n_tets, -1)]

    if k == 3:
        faces = mesh.faces()
        tris = np.array(list(faces), dtype=np.int64)
        coords.append(mesh.vertices[tris].mean(axis=1))
        kinds += ["face"] * len(faces)
        keys += list(faces)
        table.append(n_v + n_e + tet_face_ids(mesh))

    coords = np.vstack(coords)
    return LagrangeNodeSet(
        mesh=mesh,
        degree=degree,
        coords=coords,
        n_nodes=coords.shape[0],
        cell_nodes_table=np.hstack(table),
        entity_kind=kinds,
        entity_key=keys,
    )
