"""Quadratic nonconforming element with face-centroid and weighted-edge
degrees of freedom, and its boundary-shifted variant.

Per tet the 10 DOFs are, in the local order of `elements` (edges, then
faces):
  * nu_e(v) = 0.4*v(M_e) + 0.3*[v(A_e) + v(B_e)] for the 6 edges, with
    A_e, B_e the endpoints and M_e the midpoint (canonical edge order);
  * mu_F(v) = v(centroid of F) for the 4 faces (canonical face order).

The DOFs are written once, as data: a 10x14 weight matrix over the P2
nodes and the face centroids, each point once and in local order.  The
canonical basis is obtained by inverting the 10x10 matrix of these
functionals applied to the P2 Lagrange basis; the evaluation points map
affinely, so this one matrix R is every element's test transform T.

The boundary-shifted variant replaces, on boundary elements, mu_F of a
Gamma_h face by evaluation at the nearest intersection of the surface
with the perpendicular to F through its centroid, and the midpoint in
nu_e of a Gamma_h edge by Q_e, where the one Gamma_h edge rule of
`trialspace` moves it (no P2 node set is built): both lines are cast by
`trialspace.shift_from_entities`, with its one bracket.  The Dirichlet
value of a Gamma_h DOF is its shifted functional applied to g.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assembly import System, assemble
from .dofs import DofLayout
from .elements import EDGES, FACES, multi_indices, shape_values
from .meshgen import BoundaryClassification, Mesh
from .surfaces import Surface
from .trialspace import (ModifiedElementBasis, shift_from_entities,
                         shift_gamma_edge_points, shifted_dof_matrices)

# Not called here: bench/tracing.py rebinds these names on this module.
from .assembly import element_load, element_stiffness  # noqa: F401


def nc_edge_functional(v_a, v_m, v_b):
    """The weighted edge functional 0.4*v(midpoint) + 0.3*(endpoints)."""
    return 0.4 * v_m + 0.3 * (v_a + v_b)


#: per tet, each once and in local order: the P2 nodes (the 4 vertices,
#: then the 6 edge midpoints), then the 4 face centroids
_REF_BARY = np.vstack([multi_indices(2) / 2,
                       np.eye(4)[list(FACES)].mean(axis=1)])
#: DOF i is v -> sum_p _WEIGHTS[i, p] v(_REF_BARY[p]): an edge reads its
#: two vertices and its midpoint, a face its centroid
_WEIGHTS = np.zeros((10, len(_REF_BARY)))
_WEIGHTS[:6, :10] = nc_edge_functional(np.eye(10)[[a for a, _ in EDGES]],
                                       np.eye(10)[4:],
                                       np.eye(10)[[b for _, b in EDGES]])
_WEIGHTS[6:, 10:] = np.eye(4)


@lru_cache(maxsize=None)
def nc_reference_matrix() -> np.ndarray:
    """R with b_j = sum_m R[m, j] * phi_m (phi = P2 Lagrange basis)."""
    return np.linalg.inv(_WEIGHTS @ shape_values(2, _REF_BARY[:, 1:]))


def nc_layout(mesh: Mesh) -> DofLayout:
    """One DOF per edge and per face, the face DOFs numbered first.  The
    block order is global only: each tet's local order stays the
    element's, edges then faces.  With the edge DOFs numbered first, the
    LU factor of tp1 J=8 would store 205,890 entries, not the 181,624
    that `test_fill_stays_at_its_measured_count` pins (J=16, LU forced:
    5,088,980, not 4,692,672)."""
    return DofLayout(mesh, (0, 1, 1), (2, 1, 0))


def _shifted_edge_points(mesh, bc, surface):
    """(n_edges, 3): the middle point of every edge functional, the edge
    midpoint, moved to Q_e on a Gamma_h edge by the one Gamma_h edge rule
    of `trialspace`, as the k=2 Lagrange edge node: no P2 node set."""
    pts = mesh.vertices[mesh.topology.edge_vertices].mean(axis=1)
    e = bc.gamma_edges
    pts[e] = shift_gamma_edge_points(mesh, bc, surface, pts[e][:, None])[:, 0]
    return pts


def _shifted_face_points(mesh, bc, surface):
    """(n_faces, 3): the point of every face functional, which is the
    nearest intersection of the surface with the perpendicular through the
    centroid on a Gamma_h face and the centroid elsewhere.  A line that
    misses the surface is reported by its face's vertex triple."""
    triples = mesh.topology.face_vertices
    pts = mesh.vertices[triples].mean(axis=1)
    f = bc.gamma_faces
    pts[f] = shift_from_entities(mesh, surface, "face", triples[f], pts[f],
                                 mesh.face_normals(f))
    return pts


def build_nc_modified_basis(mesh: Mesh, bc: BoundaryClassification, tets,
                            edge_shifts, face_shifts) -> ModifiedElementBasis:
    """Perturbed DOF matrices of one boundary tet or an id array of them,
    in one batch, from the shifted edge and face points of the mesh."""
    top = mesh.topology
    edges, faces = top.tet_edges[tets], top.tet_faces[tets]
    # in the order of _REF_BARY, with the shifted middle and face points
    points = np.concatenate([mesh.vertices[mesh.tets[tets]],
                             edge_shifts[edges], face_shifts[faces]], axis=-2)
    # the DOFs in the order of the rows of _WEIGHTS: edges, then faces
    shifted = np.concatenate([np.isin(edges, bc.gamma_edges),
                              np.isin(faces, bc.gamma_faces)], axis=-1)
    return shifted_dof_matrices(mesh, tets, points, shifted, 2, _WEIGHTS,
                                nc_reference_matrix())


def nc_assemble(
    mesh: Mesh, bc: BoundaryClassification, surface: Surface, degree: int, f, g
) -> System:
    """Square system over the non-Gamma_h face/edge DOFs.  A Gamma_h DOF
    carries its functional of `g`: g at the shifted point of a Gamma_h
    face, and the edge functional of g at the endpoints and the shifted
    point Q_e of a Gamma_h edge."""
    if degree != 2:
        raise ValueError("the nonconforming element only exists for k=2")
    bc.check_assumption()
    edge_points = _shifted_edge_points(mesh, bc, surface)
    face_points = _shifted_face_points(mesh, bc, surface)
    layout = nc_layout(mesh)
    gamma_mask = layout.gamma_mask(bc)
    dirichlet = np.zeros(gamma_mask.size)
    faces, edges = bc.gamma_faces, bc.gamma_edges
    dirichlet[layout.ids(2, faces)[:, 0]] = g(face_points[faces])
    ends = mesh.vertices[mesh.topology.edge_vertices[edges]]
    dirichlet[layout.ids(1, edges)[:, 0]] = nc_edge_functional(
        g(ends[:, 0]), g(edge_points[edges]), g(ends[:, 1]))
    basis = build_nc_modified_basis(mesh, bc, bc.o_tets, edge_points,
                                    face_points)
    return assemble(mesh, 2, layout.cells(), gamma_mask, dirichlet, basis,
                    nc_reference_matrix(), f, layout.hats(_WEIGHTS @ _REF_BARY))
