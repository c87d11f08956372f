"""Assembly of the Poisson systems.

Every discretization goes through one pipeline:
  * a DOF layout's per-tet global DOF ids and its Gamma_h mask;
  * a per-element transform in reference coordinates: the test functions
    are T_test = I (Lagrange) or R (nonconforming canonical basis) applied
    to the P_k Lagrange basis, and the trial functions are T_test on
    interior tets and T_test C on boundary tets, C = K~^-1 being the
    coefficients of the boundary-shifted basis;
  * a Dirichlet lift on every tet, b_T -= S_T @ g[cells_T], so that the
    system is square over the free DOFs.

The builders differ only in what they feed the pipeline:
  * the boundary-shifted method: Lagrange nodes with Dirichlet values at
    the shifted points and C on the boundary tets (non-symmetric system);
  * the polyhedral baseline: Dirichlet values imposed at the Gamma_h nodes
    themselves, no C (symmetric system);
  * the nonconforming element (`nonconforming.nc_assemble`): face/edge
    DOFs, T_test = R.

The element kernels run once per mesh on one stacked `AffineMap` of all
tets, and one scatter into the free DOFs goes through COO index arrays,
following Cuvelier, Japhet & Scarella, "An efficient way to assemble
finite element matrices in vector languages" (BIT Numer. Math. 2016), and
scikit-fem (Gustafsson & McBain, JOSS 2020).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dofs import LagrangeNodeSet, build_lagrange_nodes
from .elements import (AffineMap, barycentric, reference_nodes,
                       shape_gradients, shape_values, tet_quadrature)
from .meshgen import BoundaryClassification, Mesh
from .surfaces import Surface
from .trialspace import (
    ModifiedElementBasis,
    build_modified_basis,
    build_shifted_node_table,
)


@dataclass
class System:
    """Square system over the DOFs off Gamma_h, with what recovery needs."""

    A: sp.csr_matrix
    b: np.ndarray
    cells: np.ndarray  # (n_tets, n_loc) global DOF ids of each tet
    gamma_mask: np.ndarray  # (n_dofs,) True for the DOFs on Gamma_h
    dirichlet: np.ndarray  # (n_dofs,) value of each Gamma_h DOF, 0 elsewhere
    basis: ModifiedElementBasis | None  # C of the boundary tets, stacked
    R: np.ndarray | None  # test transform; None is the identity
    # the P1 coarse space of `linsolve`: the vertex ids of each tet, and
    # (n_loc, 4) each local DOF's functional applied to the four P1 hats;
    # without them the system is solved by LU at every size
    tets: np.ndarray | None = None
    coarse_weights: np.ndarray | None = None


def element_stiffness(amap: AffineMap, degree: int, quad):
    """Lagrange stiffness matrices of the tets of `amap`: (n_tets, n_k, n_k),
    or (n_k, n_k) for one tet.  The metric detB B^-1 B^-T of each tet is
    contracted with the reference tensor
    K[d, e] = sum_q w_q dphi_q[:, d] dphi_q[:, e]^T."""
    grads = shape_gradients(degree, quad.points)  # (n_q, n_k, 3)
    K = np.einsum("q,qid,qje->deij", quad.weights, grads, grads)
    G = amap.Binv @ np.swapaxes(amap.Binv, -1, -2)
    return np.tensordot(np.asarray(amap.detB)[..., None, None] * G, K, axes=2)


def element_load(amap: AffineMap, degree: int, quad, f):
    """Load vectors of the tets of `amap`: (n_tets, n_k), or (n_k,)."""
    vals = shape_values(degree, quad.points)  # (n_q, n_k)
    fq = f(amap.to_physical(quad.points))  # (n_tets, n_q), or a constant
    return (quad.weights * fq) @ vals * np.asarray(amap.detB)[..., None]


def assemble(mesh: Mesh, degree: int, cells, gamma_mask, dirichlet, basis,
             R, f, coarse_weights=None) -> System:
    """Form T_test^T S T_trial and T_test^T b_loc on every tet, scatter
    them once and lift the Dirichlet values (see the module docstring).
    `coarse_weights` only rides along to the solver (see `System`)."""
    quad = tet_quadrature(5)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    S_all = element_stiffness(amap, degree, quad)
    b_all = element_load(amap, degree, quad, f)
    if R is not None:
        S_all = R.T @ S_all @ R
        b_all = b_all @ R
    if basis is not None:
        S_all[basis.tets] = S_all[basis.tets] @ basis.C

    b_all -= (S_all @ dirichlet[cells][..., None])[..., 0]
    # equation ids, int32 where they fit; Gamma_h goes to the dropped row n
    n, n_loc = np.count_nonzero(~gamma_mask), cells.shape[1]
    idx = np.int32 if n < np.iinfo(np.int32).max else np.int64
    eq = np.where(gamma_mask, n, np.cumsum(~gamma_mask) - 1).astype(idx)[cells]
    A = sp.csr_matrix((S_all.ravel(), (np.repeat(eq, n_loc, axis=1).ravel(),
                                       np.tile(eq, n_loc).ravel())),
                      shape=(n + 1, n + 1))
    A.resize(n, n)
    b = np.bincount(eq.ravel(), weights=b_all.ravel(), minlength=n + 1)[:n]
    return System(A=A, b=b, cells=cells, gamma_mask=gamma_mask,
                  dirichlet=dirichlet, basis=basis, R=R, tets=mesh.tets,
                  coarse_weights=coarse_weights)


def assemble_new_method(
    mesh: Mesh,
    cls: BoundaryClassification,
    surface: Surface,
    degree: int,
    f,
    g,
) -> System:
    """Petrov-Galerkin system with the boundary-shifted trial basis."""
    cls.check_assumption()
    nodes = build_lagrange_nodes(mesh, degree)
    table = build_shifted_node_table(mesh, cls, surface, nodes)
    basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
    return _lagrange_system(mesh, cls, nodes, table.points, basis, f, g)


def assemble_polyhedral(
    mesh: Mesh,
    cls: BoundaryClassification,
    surface: Surface,
    degree: int,
    f,
    g,
) -> System:
    """Standard Galerkin baseline: Dirichlet data moved to Gamma_h, g
    imposed at the Gamma_h nodes themselves.  `surface` is unused; the
    signature is that of every builder."""
    nodes = build_lagrange_nodes(mesh, degree)
    return _lagrange_system(mesh, cls, nodes, nodes.coords, None, f, g)


def _lagrange_system(mesh: Mesh, cls: BoundaryClassification,
                     nodes: LagrangeNodeSet, points, basis, f, g) -> System:
    """The system over the Lagrange nodes, with the Dirichlet value of each
    Gamma_h node read from `g` at its row of `points` (n_nodes, 3)."""
    gamma_mask = nodes.layout.gamma_mask(cls)
    dirichlet = np.zeros(nodes.n_nodes)
    dirichlet[gamma_mask] = g(points[gamma_mask])
    return assemble(mesh, nodes.degree, nodes.cell_nodes_table, gamma_mask,
                    dirichlet, basis, None, f,
                    barycentric(reference_nodes(nodes.degree)))


def element_phi_coefficients(system: System, x: np.ndarray):
    """Per-element coefficients of the solution in the standard P_k
    Lagrange basis: (n_tets, n_k).  The DOF values of each tet (free
    solution entries and Dirichlet values) are mapped through its trial
    transform T_test C (or T_test)."""
    values = system.dirichlet.copy()
    values[~system.gamma_mask] = x
    coef = values[system.cells]
    basis = system.basis
    if basis is not None:
        coef[basis.tets] = np.einsum("tij,tj->ti", basis.C, coef[basis.tets])
    if system.R is not None:
        coef = coef @ system.R.T
    return coef
