"""Quadratic nonconforming element with face-centroid and weighted-edge
degrees of freedom, and its boundary-shifted variant.

Per tet the 10 DOFs are:
  * mu_F(v) = v(centroid of F) for the 4 faces (canonical face order);
  * nu_e(v) = 0.4*v(M_e) + 0.3*[v(A_e) + v(B_e)] for the 6 edges, with
    A_e, B_e the endpoints and M_e the midpoint (canonical edge order).

The DOFs are written once, as data: 22 reference points and a 10x22
weight matrix.  The canonical basis is obtained by inverting the 10x10
matrix of these functionals applied to the P2 Lagrange basis; since all
the evaluation points map affinely, the same coefficient matrix serves
every element.

The boundary-shifted variant replaces, on boundary elements, mu_F of a
Gamma_h face by evaluation at the nearest intersection of the surface
with the perpendicular to F through its centroid, and the midpoint in
nu_e of a Gamma_h edge by the skin-shifted point Q_e.  Only the
homogeneous Dirichlet problem is supported: the shifted DOFs of Gamma_h
entities are constrained to zero.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assembly import System, assemble
from .dofs import DofLayout, build_lagrange_nodes
from .elements import EDGES, FACES, REF_VERTICES, barycentric, shape_values
from .meshgen import BoundaryClassification, Mesh
from .surfaces import Surface
from .trialspace import (ModifiedElementBasis, build_shifted_node_table,
                         shifted_dof_matrices)

# Not called here: bench/tracing.py rebinds these names on this module.
from .assembly import element_load, element_stiffness  # noqa: F401

N_DOFS = 10


def nc_edge_functional(v_a, v_m, v_b):
    """The weighted edge functional 0.4*v(midpoint) + 0.3*(endpoints)."""
    return 0.4 * v_m + 0.3 * (v_a + v_b)


#: per tet: the 4 face centroids, then the 6 edges' A, then M, then B points
_REF_POINTS = np.vstack([
    REF_VERTICES[list(FACES)].mean(axis=1),
    REF_VERTICES[[a for a, _ in EDGES]],
    REF_VERTICES[list(EDGES)].mean(axis=1),
    REF_VERTICES[[b for _, b in EDGES]],
])
#: DOF i is v -> sum_p _WEIGHTS[i, p] v(_REF_POINTS[p])
_WEIGHTS = np.zeros((N_DOFS, len(_REF_POINTS)))
_WEIGHTS[:4, :4] = np.eye(4)
_WEIGHTS[4:, 4:] = nc_edge_functional(*np.split(np.eye(18), 3))


@lru_cache(maxsize=None)
def nc_reference_matrix() -> np.ndarray:
    """R with b_j = sum_m R[m, j] * phi_m (phi = P2 Lagrange basis)."""
    return np.linalg.inv(_WEIGHTS @ shape_values(2, _REF_POINTS))


def nc_layout(mesh: Mesh) -> DofLayout:
    """One DOF per face and per edge, faces first: numbered edges first,
    the LU factor of tp1 stores 205,890 entries instead of 181,624 at
    J=8, and 5,123,116 instead of 4,692,672 at J=16.  The J=16 counts are
    those of the LU path forced: its 13,616 equations are above the
    switch of `linsolve`, so by default it takes the multigrid path."""
    return DofLayout(mesh, (0, 1, 1), (2, 1, 0))


def _shifted_edge_points(mesh, bc, surface):
    """(n_edges, 3): the middle point of every edge functional, which is
    the skin-shifted midpoint Q_e on a Gamma_h edge and the midpoint
    elsewhere: the edge nodes of the P2 shift table."""
    nodes = build_lagrange_nodes(mesh, 2)
    points = build_shifted_node_table(mesh, bc, surface, nodes).points
    return points[nodes.layout.ids(1, np.arange(mesh.topology.n_edges))[:, 0]]


def _shifted_face_points(mesh, bc, surface):
    """(n_faces, 3): the point of every face functional, which is the
    nearest intersection of the surface with the perpendicular through the
    centroid on a Gamma_h face and the centroid elsewhere."""
    tris = mesh.vertices[mesh.topology.face_vertices]
    pts = tris.mean(axis=1)
    f = bc.gamma_faces
    if f.size:
        h_t = np.max(np.linalg.norm(tris[f] - pts[f][:, None, :], axis=2), axis=1)
        pts[f], _ = surface.nearest_line_intersection(
            pts[f], mesh.face_normals(f), 4.0 * h_t)
    return pts


def build_nc_modified_basis(mesh: Mesh, bc: BoundaryClassification, tets,
                            edge_shifts, face_shifts) -> ModifiedElementBasis:
    """Perturbed DOF matrices of one boundary tet or an id array of them,
    in one batch, from the shifted edge and face points of the mesh."""
    top = mesh.topology
    faces, edges = top.tet_faces[tets], top.tet_edges[tets]
    ends = mesh.vertices[top.edge_vertices[edges]]  # (..., 6, 2, 3)
    # in the order of _REF_POINTS, with the shifted face and middle points
    points = np.concatenate([face_shifts[faces], ends[..., 0, :],
                             edge_shifts[edges], ends[..., 1, :]], axis=-2)
    shifted = np.concatenate([np.isin(faces, bc.gamma_faces),
                              np.isin(edges, bc.gamma_edges)], axis=-1)
    return shifted_dof_matrices(mesh, tets, points, shifted, 2, _WEIGHTS,
                                nc_reference_matrix())


def nc_assemble(
    mesh: Mesh, bc: BoundaryClassification, surface: Surface, degree: int, f, g
) -> System:
    """Square system over the non-Gamma_h face/edge DOFs.  Only
    homogeneous Dirichlet data is supported: the Gamma_h DOFs carry the
    value zero, and `g` must vanish at every point they read, which are
    the Gamma_h vertices, the shifted edge points Q_e of the Gamma_h edges
    and the shifted points of the Gamma_h faces."""
    if degree != 2:
        raise ValueError("the nonconforming element only exists for k=2")
    bc.check_assumption()
    edge_points = _shifted_edge_points(mesh, bc, surface)
    face_points = _shifted_face_points(mesh, bc, surface)
    read = np.vstack([mesh.vertices[bc.gamma_vertices],
                      edge_points[bc.gamma_edges], face_points[bc.gamma_faces]])
    if np.any(g(read) != 0.0):
        raise ValueError("the nonconforming element needs homogeneous "
                         "Dirichlet data")
    layout = nc_layout(mesh)
    gamma_mask = layout.gamma_mask(bc)
    basis = build_nc_modified_basis(mesh, bc, bc.o_tets, edge_points,
                                    face_points)
    return assemble(mesh, 2, layout.cells(), gamma_mask,
                    np.zeros(gamma_mask.size), basis, nc_reference_matrix(), f,
                    _WEIGHTS @ barycentric(_REF_POINTS))
