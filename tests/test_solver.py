import numpy as np
import pytest
import scipy.sparse as sp

from shiftfem.assembly import System, assemble_new_method
from shiftfem.dofs import DofMap, build_lagrange_nodes
from shiftfem.linsolve import solve
from shiftfem.meshgen import classify_boundary, generate_octant_mesh
from shiftfem.surfaces import Ellipsoid


def _wrap(A, b):
    return System(
        A=sp.csr_matrix(A), b=np.asarray(b, dtype=float), dofmap=None,
        dirichlet=None, C={}, R=None,
    )


def test_identity_system():
    rep = solve(_wrap(np.eye(3), [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(rep.x, [1, 0, 0])
    np.testing.assert_array_equal(rep.x, [1, 0, 0])  # a direct solve
    assert rep.relative_residual <= 1e-12


def test_two_by_two():
    rep = solve(_wrap([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-14)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        solve(_wrap(np.eye(2), [1.0, 1.0]), tol=1e-3)


def test_singular_system_fails():
    with pytest.raises((RuntimeError, ValueError, Exception)):
        solve(_wrap([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]))


def test_new_method_system_matches_dense_lu_oracle():
    surf = Ellipsoid(np.array([0.6, 0.8, 1.0]))
    mesh = generate_octant_mesh(4, (0.6, 0.8, 1.0))
    cls = classify_boundary(mesh, surf)
    system = assemble_new_method(
        mesh, cls, surf, 2, lambda p: float(1.0 + p[0] * p[1]), lambda p: 0.0
    )
    rep = solve(system)
    dense = np.linalg.solve(system.A.toarray(), system.b)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(rep.x - dense)) <= 1e-9 * scale
    assert rep.relative_residual <= 1e-12


def test_dimension_grows_cubically():
    dims = []
    for J in (4, 8, 16):
        mesh = generate_octant_mesh(J)
        surf = Ellipsoid(np.array([1.0, 1.0, 1.0]))
        cls = classify_boundary(mesh, surf)
        nodes = build_lagrange_nodes(mesh, 2)
        dofmap = DofMap.build(nodes.cell_nodes_table, nodes.gamma_mask(cls))
        dims.append(dofmap.n_eq)
    for small, big in zip(dims, dims[1:]):
        assert 5.0 <= big / small <= 9.0
