"""Assembly of the Poisson systems.

Every discretization goes through one pipeline:
  * a DOF layout's per-tet global DOF ids and its Gamma_h mask;
  * a per-element transform in reference coordinates: the test functions
    are the P_k Lagrange basis times the (n_loc, n_loc) array T_test
    (`System.T`: I, or R for the nonconforming canonical basis), the trial
    functions T_test on interior tets and T_test C on boundary tets, with
    C = K~^-1 the coefficients of the boundary-shifted basis;
  * a Dirichlet lift on every tet, b_T -= S_T @ g[cells_T], so that the
    system is square over the free DOFs.

The builders differ only in what they feed the pipeline:
  * the boundary-shifted method: Lagrange nodes with Dirichlet values at
    the shifted points and C on the boundary tets (non-symmetric system);
  * the polyhedral baseline: the same path with nothing shifted, so g at
    the Gamma_h nodes themselves and an empty C (symmetric system);
  * the nonconforming element (`nonconforming.nc_assemble`): face/edge
    DOFs, T_test = R.

The pattern of A is built once, before any element matrix: it is the
pattern of E^T E, E being the tet -> free DOF incidence, and each of its
entries knows its index in the data of A.  The element kernels then run on
one block of tets at a time (`elements.blocks`, at most `_BLOCK_ENTRIES`
entries in a block's stack of n_loc x n_loc element matrices), with the
block's own `AffineMap`, and the block's entries are added at their
indices, found by CSR indexing into the block's rows of the pattern.  The
kernels are vectorised over the tets of a block, following Cuvelier,
Japhet & Scarella, "An efficient way to assemble finite element matrices
in vector languages" (BIT Numer. Math. 2016), and scikit-fem (Gustafsson &
McBain, JOSS 2020); no array holds an entry for every tet, so the memory
peak is the matrix and its entry indices plus the arrays of one block.
The kernels' one quadrature rule is owned by their reference tables,
which are computed once per degree, not once per block.

The same equation numbering gives the coarse space of the solver's
p-multigrid cycle: P1 on the same mesh, for every element.  Its
prolongation `System.P` gives each free DOF the value its functional takes
on the P1 hats: the free rows of the layout's W (`dofs.DofLayout.hats`),
over the vertices that some free DOF reads, in ascending order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from .dofs import LagrangeNodeSet, build_lagrange_nodes
from .elements import (AffineMap, blocks, shape_gradients, shape_values,
                       tet_quadrature)
from .meshgen import BoundaryClassification, Mesh
from .surfaces import Surface
from .trialspace import (
    ModifiedElementBasis,
    ShiftedNodeTable,
    build_modified_basis,
    build_shifted_node_table,
)


@dataclass
class System:
    """Square system over the DOFs off Gamma_h, with what recovery needs."""

    A: scipy.sparse.csr_matrix
    b: np.ndarray
    cells: np.ndarray  # (n_tets, n_loc) global DOF ids of each tet
    gamma_mask: np.ndarray  # (n_dofs,) True for the DOFs on Gamma_h
    dirichlet: np.ndarray  # (n_dofs,) value of each Gamma_h DOF, 0 elsewhere
    basis: ModifiedElementBasis  # C of the boundary tets, stacked; may be empty
    T: np.ndarray  # (n_loc, n_loc) test transform: I, or the nonconforming R
    # the P1 prolongation; None: LU only
    P: scipy.sparse.csr_matrix | None = None


@lru_cache(maxsize=8)
def _reference_tables(degree: int):
    """The block-invariant tables of the element kernels, and their one
    rule: the tensor K[d, e] = sum_q w_q dphi_q[:, d] dphi_q[:, e]^T,
    (3, 3, n_k, n_k), the shape values (n_q, n_k) and the rule itself."""
    quad = tet_quadrature(5)
    grads = shape_gradients(degree, quad.points)  # (n_q, n_k, 3)
    K = np.einsum("q,qid,qje->deij", quad.weights, grads, grads)
    return K, shape_values(degree, quad.points), quad


def element_stiffness(amap: AffineMap, degree: int, T):
    """Stiffness matrices T^T S T of the tets of `amap`, S in the P_k
    Lagrange basis and T (n_k, n_k): (n_tets, n_k, n_k), or (n_k, n_k) for
    one tet.  T is contracted into the reference tensor K once per call,
    and each tet's metric detB B^-1 B^-T with the result."""
    K = T.T @ _reference_tables(degree)[0] @ T
    G = amap.Binv @ np.swapaxes(amap.Binv, -1, -2)
    return np.tensordot(np.asarray(amap.detB)[..., None, None] * G, K, axes=2)


def element_load(amap: AffineMap, degree: int, f, T):
    """Load vectors b T of the tets of `amap`, b in the P_k Lagrange basis
    and T (n_k, n_k): (n_tets, n_k), or (n_k,) for one tet."""
    _K, vals, quad = _reference_tables(degree)  # vals (n_q, n_k)
    fq = f(amap.to_physical(quad.points))  # (n_tets, n_q), or a constant
    return (quad.weights * fq) @ (vals @ T) * np.asarray(amap.detB)[..., None]


def assemble(mesh: Mesh, degree: int, cells, gamma_mask, dirichlet, basis,
             T, f, hats) -> System:
    """Form T^T S T C and T^T b_loc on every tet (C on the boundary tets
    only), lift the Dirichlet values and add them into the pattern of the
    free DOFs, one block of tets at a time (`elements.blocks`).  From
    `hats` (n_dofs, n_vertices), each DOF's functional applied to the P1
    hats, take the prolongation P too (see the module docstring)."""
    # equation ids, int32 where they fit; Gamma_h goes to the dropped row n
    n_tets, n_loc = cells.shape
    n = np.count_nonzero(~gamma_mask)
    idx = np.int32 if n < np.iinfo(np.int32).max else np.int64
    eq = np.where(gamma_mask, n, np.cumsum(~gamma_mask) - 1).astype(idx)[cells]
    # the tet -> free DOF incidence E; E^T E has the pattern of A
    free = eq < n
    E = scipy.sparse.csr_matrix(
        (np.ones(np.count_nonzero(free), dtype=bool), eq[free],
         np.concatenate([[0], np.cumsum(free.sum(axis=1))])),
        shape=(n_tets, n))
    where = E.T.tocsr() @ E
    where.sort_indices()
    del E, free
    P = hats[~gamma_mask]
    P = P[:, np.unique(P.indices)]
    # each entry's index in the data, from 1: what the pattern lacks, the
    # pairs with a Gamma_h DOF in the empty row and column n, reads 0
    where.data = np.arange(1, where.nnz + 1, dtype=where.indices.dtype)
    where.resize(n + 1, n + 1)
    data, b = np.zeros(where.nnz + 1), np.zeros(n + 1)
    c_row = np.full(n_tets, -1)
    c_row[basis.tets] = np.arange(basis.tets.size)
    for block in blocks(n_tets, n_loc * n_loc):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[block]],
                                       range(n_tets)[block])
        S = element_stiffness(amap, degree, T)
        b_loc = element_load(amap, degree, f, T)
        k = c_row[block]
        on = np.flatnonzero(k >= 0)
        S[on] = S[on] @ basis.C[k[on]]
        b_loc -= (S @ dirichlet[cells[block]][..., None])[..., 0]
        q = eq[block]
        np.add.at(b, q, b_loc)
        # the block's rows, cut out of the pattern, so that each look-up is
        # a binary search in a slice not much larger than the block
        dofs, local = np.unique(q, return_inverse=True)
        rows = np.repeat(local.reshape(q.shape), n_loc, axis=1)
        pos = where[dofs][rows.ravel(), np.tile(q, n_loc).ravel()]
        np.add.at(data, np.asarray(pos).ravel(), S.ravel())
    A = scipy.sparse.csr_matrix((data[1:], where.indices, where.indptr[:-1]),
                                shape=(n, n))
    return System(A=A, b=b[:n], cells=cells, gamma_mask=gamma_mask,
                  dirichlet=dirichlet, basis=basis, T=T, P=P)


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
    return _lagrange_system(mesh, cls, nodes, table, cls.o_tets, f, g)


def assemble_polyhedral(
    mesh: Mesh,
    cls: BoundaryClassification,
    surface: Surface,
    degree: int,
    f,
    g,
) -> System:
    """Standard Galerkin baseline: the new method with nothing shifted, g
    imposed at the Gamma_h nodes themselves and an empty boundary basis.
    `surface` is unused; the signature is that of every builder."""
    nodes = build_lagrange_nodes(mesh, degree)
    table = ShiftedNodeTable(np.empty(0, dtype=np.int64), nodes.coords)
    return _lagrange_system(mesh, cls, nodes, table, cls.o_tets[:0], f, g)


def _lagrange_system(mesh: Mesh, cls: BoundaryClassification,
                     nodes: LagrangeNodeSet, table: ShiftedNodeTable, tets,
                     f, g) -> System:
    """The system over the Lagrange nodes: the modified basis of `tets`,
    and the Dirichlet value of each Gamma_h node read from `g` at its
    point in `table`."""
    basis = build_modified_basis(mesh, nodes, table, tets)
    gamma_mask = nodes.layout.gamma_mask(cls)
    dirichlet = np.zeros(nodes.n_nodes)
    dirichlet[gamma_mask] = g(table.points[gamma_mask])
    return assemble(mesh, nodes.degree, nodes.cell_nodes_table, gamma_mask,
                    dirichlet, basis, np.eye(basis.C.shape[-1]), f, nodes.hats)


def element_phi_coefficients(system: System, x: np.ndarray):
    """Per-element coefficients of the solution in the standard P_k
    Lagrange basis: (n_tets, n_k).  The DOF values of each tet (free
    solution entries and Dirichlet values) are mapped through its trial
    transform T C (or T)."""
    values = system.dirichlet.copy()
    values[~system.gamma_mask] = x
    coef = values[system.cells]
    basis = system.basis
    coef[basis.tets] = np.einsum("tij,tj->ti", basis.C, coef[basis.tets])
    return coef @ system.T.T
