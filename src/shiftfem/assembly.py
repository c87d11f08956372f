"""Assembly of the Poisson systems.

Every discretization goes through one pipeline:
  * a `DofMap` (per-tet global DOF ids and a Gamma_h mask);
  * a per-element transform in reference coordinates: the test functions
    are T_test = I (Lagrange) or R (nonconforming canonical basis) applied
    to the P_k Lagrange basis, and the trial functions are T_test on
    interior tets and T_test C on boundary tets, C = K~^-1 being the
    coefficients of the boundary-shifted basis;
  * a Dirichlet lift: the Gamma_h columns move to the right-hand side,
    b -= A[free, Gamma_h] @ g, keeping the system square over the free DOFs.

The builders differ only in what they feed the pipeline:
  * the boundary-shifted method: Lagrange nodes with Dirichlet values at
    the shifted points and C on the boundary tets (non-symmetric system);
  * the polyhedral baseline: Dirichlet values imposed at the Gamma_h nodes
    themselves, no C (symmetric system);
  * the nonconforming element (`nonconforming.nc_assemble`): face/edge
    DOFs, T_test = R.

The scatter through COO index arrays follows Cuvelier, Japhet & Scarella,
"An efficient way to assemble finite element matrices in vector
languages" (BIT Numer. Math. 2016).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dofs import DofMap, build_lagrange_nodes
from .elements import AffineMap, shape_gradients, shape_values, tet_quadrature
from .meshgen import BoundaryClassification, Mesh
from .surfaces import Surface
from .trialspace import build_modified_basis, build_shifted_node_table


@dataclass
class System:
    """Square system over the DOFs off Gamma_h, with what recovery needs."""

    A: sp.csr_matrix
    b: np.ndarray
    dofmap: DofMap
    dirichlet: np.ndarray  # (n_dofs,) value of each Gamma_h DOF, 0 elsewhere
    C: dict  # boundary tet -> coefficient matrix C of its modified basis
    R: np.ndarray | None  # test transform; None is the identity

    @property
    def symmetric(self):
        return not self.C


def element_stiffness(amap: AffineMap, degree: int, quad):
    """Standard Lagrange stiffness matrix of one tet."""
    grads = shape_gradients(degree, quad.points)  # (n_q, n_k, 3)
    phys = grads @ amap.Binv  # gradient chain rule: B^{-T} g  ->  g B^{-1}
    S = np.einsum("q,qid,qjd->ij", quad.weights, phys, phys) * amap.detB
    return S


def element_load(amap: AffineMap, degree: int, quad, f):
    vals = shape_values(degree, quad.points)  # (n_q, n_k)
    pts = amap.to_physical(quad.points)
    fq = np.array([f(p) for p in pts])
    return (quad.weights * fq) @ vals * amap.detB


def assemble(mesh: Mesh, degree: int, dofmap: DofMap, dirichlet, C, R,
             f) -> System:
    """Form T_test^T S T_trial and T_test^T b_loc on every tet, scatter
    them once and lift the Dirichlet values (see the module docstring)."""
    quad = tet_quadrature(5)
    n_tets, n_loc = dofmap.cells.shape
    S_all = np.empty((n_tets, n_loc, n_loc))
    b_all = np.empty((n_tets, n_loc))
    for t in range(n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        S = element_stiffness(amap, degree, quad)
        b_loc = element_load(amap, degree, quad, f)
        if R is not None:
            S = R.T @ S @ R
            b_loc = R.T @ b_loc
        if t in C:
            S = S @ C[t]
        S_all[t] = S
        b_all[t] = b_loc

    n = dofmap.n_dofs
    rows = np.repeat(dofmap.cells, n_loc, axis=1).ravel()
    cols = np.tile(dofmap.cells, n_loc).ravel()
    full = sp.coo_matrix((S_all.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    free = ~dofmap.gamma_mask
    load = np.bincount(dofmap.cells.ravel(), weights=b_all.ravel(), minlength=n)
    A_free = full[free]
    b = load[free] - A_free[:, dofmap.gamma_mask] @ dirichlet[dofmap.gamma_mask]
    return System(A=A_free[:, free].tocsr(), b=b, dofmap=dofmap,
                  dirichlet=dirichlet, C=C, R=R)


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
    dofmap = DofMap.build(nodes.cell_nodes_table, table.gamma_mask)
    dirichlet = table.dirichlet_values(g)
    C = {t: build_modified_basis(mesh, nodes, table, t).C for t in cls.o_tets}
    return assemble(mesh, degree, dofmap, dirichlet, C, None, f)


def assemble_polyhedral(
    mesh: Mesh,
    cls: BoundaryClassification,
    surface: Surface,
    degree: int,
    f,
    g,
) -> System:
    """Standard Galerkin baseline: Dirichlet data moved to Gamma_h.

    The value imposed at a boundary node M is g evaluated at the closest
    point of the true surface (identical to g(M) for the homogeneous
    cases).
    """
    nodes = build_lagrange_nodes(mesh, degree)
    gamma_mask = nodes.gamma_mask(cls)
    dirichlet = np.zeros(nodes.n_nodes)
    for n in np.nonzero(gamma_mask)[0]:
        dirichlet[n] = g(surface.closest_point(nodes.coords[n]))
    dofmap = DofMap.build(nodes.cell_nodes_table, gamma_mask)
    return assemble(mesh, degree, dofmap, dirichlet, {}, None, f)


def element_phi_coefficients(system: System, x: np.ndarray):
    """Per-element coefficients of the solution in the standard P_k
    Lagrange basis: (n_tets, n_k).  The DOF values of each tet (free
    solution entries and Dirichlet values) are mapped through its trial
    transform T_test C (or T_test)."""
    values = system.dirichlet.copy()
    values[~system.dofmap.gamma_mask] = x
    coef = values[system.dofmap.cells]
    for t, C in system.C.items():
        coef[t] = C @ coef[t]
    if system.R is not None:
        coef = coef @ system.R.T
    return coef


def write_matrix_market(system: System, path):
    from scipy.io import mmwrite

    mmwrite(str(path), system.A)
