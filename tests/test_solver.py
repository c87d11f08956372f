import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import hilbert
from scipy.sparse.linalg import splu

from shiftfem.analysis import run_single
from shiftfem.assembly import System, assemble_new_method, assemble_polyhedral
from shiftfem.cases import get_case
from shiftfem import linsolve
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.linsolve import solve
from shiftfem.meshgen import classify_boundary, generate_octant_mesh
from shiftfem.nonconforming import nc_assemble
from shiftfem.surfaces import Ellipsoid

BUILDERS = {"new": assemble_new_method, "polyhedral": assemble_polyhedral,
            "nonconforming": nc_assemble}


def _case_system(case_name, method, degree, param):
    case = get_case(case_name)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    return BUILDERS[method](mesh, cls, case.surface, degree, case.f, case.g)


def _force_path(monkeypatch, path):
    """Every system that carries a coarse space takes `path`, "lu" or
    "pmg", at any size: the switch moves to infinity or to 0."""
    monkeypatch.setattr(linsolve, "PMG_MIN_EQUATIONS",
                        np.inf if path == "lu" else 0)


def _wrap(A, b):
    return System(
        A=sp.csr_matrix(A), b=np.asarray(b, dtype=float), cells=None,
        gamma_mask=None, dirichlet=None, basis=None, R=None,
    )


def test_identity_system():
    rep = solve(_wrap(np.eye(3), [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(rep.x, [1, 0, 0])
    # the float32 factor of I is exact, so the first solve is
    np.testing.assert_array_equal(rep.x, [1, 0, 0])
    assert rep.relative_residual <= 1e-12


def test_two_by_two():
    """Its pattern is not symmetric: symmetric mode still solves it."""
    rep = solve(_wrap([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-14)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        solve(_wrap(np.eye(2), [1.0, 1.0]), tol=1e-3)


def test_singular_system_fails():
    with pytest.raises(RuntimeError, match="solver failure"):
        solve(_wrap([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]))


def test_residual_above_tolerance_fails():
    """The LU solve of tp1 J=4 cannot meet a relative residual of 1e-300:
    the contract fails loudly instead of returning x."""
    system = _case_system("tp1-sphere", "new", 2, 4)
    with pytest.raises(RuntimeError, match=r"solver failure: relative "
                       r"residual \S+ exceeds 1\.0e-300"):
        solve(system, tol=1e-300)


def test_other_factor_errors_pass_through(monkeypatch):
    """A factor error other than singularity passes through from either
    factor: the float32 factor is made singular to reach the float64 one."""
    error = RuntimeError("out of memory")
    for failing in (np.float32, np.float64):

        def failing_splu(A, **kwargs):
            if A.dtype == failing:
                raise error
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(linsolve, "splu", failing_splu)
        with pytest.raises(RuntimeError) as info:
            solve(_wrap(np.eye(2), [1.0, 1.0]))
        assert info.value is error


def test_new_method_system_matches_dense_lu_oracle():
    surf = Ellipsoid(np.array([0.6, 0.8, 1.0]))
    mesh = generate_octant_mesh(4, (0.6, 0.8, 1.0))
    cls = classify_boundary(mesh, surf)
    system = assemble_new_method(
        mesh, cls, surf, 2, lambda p: 1.0 + p[..., 0] * p[..., 1], lambda p: 0.0
    )
    rep = solve(system)
    dense = np.linalg.solve(system.A.toarray(), system.b)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(rep.x - dense)) <= 1e-9 * scale
    assert rep.relative_residual <= 1e-12


@pytest.mark.parametrize("method", ["polyhedral", "nonconforming"])
def test_baseline_systems_match_dense_lu_oracle(method):
    system = _case_system("tp1-sphere", method, 2, 4)
    rep = solve(system)
    dense = np.linalg.solve(system.A.toarray(), system.b)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(rep.x - dense)) <= 1e-9 * scale
    assert rep.relative_residual <= 1e-12


def test_solve_is_bit_identical_when_repeated():
    system = _case_system("tp1-sphere", "new", 2, 4)
    np.testing.assert_array_equal(solve(system).x, solve(system).x)


@pytest.mark.parametrize("case_name,method,degree,param", [
    ("tp1-sphere", "new", 2, 4),
    ("tp1-sphere", "new", 3, 4),
    ("tp1-sphere", "polyhedral", 2, 4),
    ("tp1-sphere", "nonconforming", 2, 4),
    ("tp2-ellipsoid", "nonconforming", 2, 4),
    ("tp3-torus", "new", 2, 4),
])
def test_system_patterns_are_symmetric(case_name, method, degree, param):
    """The premise of the A + Aᵀ ordering: the stored entries of A, explicit
    zeros included, are those of Aᵀ."""
    A = _case_system(case_name, method, degree, param).A
    pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), A.shape)
    assert (pattern != pattern.T).nnz == 0


def test_ordering_reduces_fill_below_colamd():
    system = _case_system("tp1-sphere", "nonconforming", 2, 8)
    colamd = splu(system.A.tocsc())
    assert solve(system).fill < colamd.nnz


def test_dimension_grows_cubically():
    dims = []
    for J in (4, 8, 16):
        mesh = generate_octant_mesh(J)
        surf = Ellipsoid(np.array([1.0, 1.0, 1.0]))
        cls = classify_boundary(mesh, surf)
        nodes = build_lagrange_nodes(mesh, 2)
        dims.append(np.count_nonzero(~nodes.layout.gamma_mask(cls)))
    for small, big in zip(dims, dims[1:]):
        assert 5.0 <= big / small <= 9.0


def test_factor_stores_no_relaxed_supernode_padding(monkeypatch):
    """With relaxed supernodes off, the stored factor is exactly L + U of
    the same ordering; SuperLU's default relaxation pads the torus factor
    with about 60 % more entries than that.  Its 3,960 equations are
    above the switch, so the LU path is forced."""
    _force_path(monkeypatch, "lu")
    system = _case_system("tp3-torus", "new", 2, 8)
    ref = splu(system.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
               options=dict(SymmetricMode=True))
    fill = solve(system).fill
    assert fill == ref.L.nnz + ref.U.nnz
    assert fill < ref.nnz


@pytest.mark.parametrize("method,fill", [("new", 98_416),
                                         ("nonconforming", 181_624)])
def test_fill_stays_at_its_measured_count(method, fill):
    """The stored LU fill of tp1 J=8, against the counts measured when the
    DOF numbering and the scatter were last changed: a change to either
    that moves the fill shows here, not only in the benchmark's memory."""
    rep = solve(_case_system("tp1-sphere", method, 2, 8))
    assert rep.path == "lu"
    assert rep.fill <= 1.02 * fill


def _float64_lu_solve(system):
    lu = splu(system.A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
              options=dict(SymmetricMode=True))
    return lu.solve(system.b)


@pytest.mark.parametrize("case_name,method,degree,param", [
    ("tp1-sphere", "new", 2, 8),
    ("tp1-sphere", "polyhedral", 2, 8),
    ("tp1-sphere", "nonconforming", 2, 8),
    ("tp3-torus", "new", 2, 4),
    ("tp1-sphere", "new", 3, 4),
])
def test_refined_float32_solve_matches_float64_lu(case_name, method, degree,
                                                   param):
    """Refining until the residual stalls brings the float32 factor's x to
    within rounding of the float64 factor's, in a few steps."""
    system = _case_system(case_name, method, degree, param)
    rep = solve(system)
    assert rep.path == "lu"
    assert rep.precision == "float32"
    assert 1 <= rep.refinement_steps <= 5
    ref = _float64_lu_solve(system)
    assert np.max(np.abs(rep.x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert rep.relative_residual <= 1e-12


def test_forced_float64_path_matches_float32_path(monkeypatch):
    system = _case_system("tp1-sphere", "nonconforming", 2, 4)
    refined = solve(system)

    def splu_singular_in_float32(A, **kwargs):
        if A.dtype == np.float32:
            raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(linsolve, "splu", splu_singular_in_float32)
    direct = solve(system)
    assert (refined.precision, direct.precision) == ("float32", "float64")
    assert direct.refinement_steps == 0
    assert direct.fill == refined.fill
    np.testing.assert_array_equal(direct.x, _float64_lu_solve(system))
    assert (np.max(np.abs(refined.x - direct.x))
            <= 1e-12 * np.max(np.abs(direct.x)))


def test_singular_in_float32_takes_the_float64_path():
    """1 + 1e-9 rounds to 1 in float32, so that factor is exactly
    singular; the float64 factor is not."""
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    assert linsolve._factor(sp.csc_matrix(A, dtype=np.float32)) is None
    rep = solve(_wrap(A, [2.0, 2.0 + 1e-9]))
    assert (rep.precision, rep.refinement_steps) == ("float64", 0)
    assert rep.relative_residual <= 1e-12
    np.testing.assert_allclose(rep.x, [1.0, 1.0], rtol=1e-6)


def test_stalled_refinement_takes_the_float64_path():
    """cond(H_8) ≈ 3e10 is beyond what a float32 factor can refine: the
    residual stalls far above the contract, and the float64 factor meets
    it."""
    H = hilbert(8)
    assert 1e10 <= np.linalg.cond(H, 1) <= 1e11
    b = H @ np.ones(8)
    lu = linsolve._factor(sp.csc_matrix(H, dtype=np.float32))
    x, steps = linsolve._refine(sp.csr_matrix(H), b, lu)
    assert steps < linsolve.MAX_REFINEMENT_STEPS
    assert np.linalg.norm(H @ x - b) > 1e-12 * np.linalg.norm(b)
    rep = solve(_wrap(H, b))
    assert (rep.precision, rep.refinement_steps) == ("float64", 0)
    assert rep.relative_residual <= 1e-12


@pytest.mark.parametrize("case_name,method,degree,param", [
    ("tp1-sphere", "new", 2, 8),
    ("tp1-sphere", "polyhedral", 2, 8),
    ("tp1-sphere", "nonconforming", 2, 8),
    ("tp3-torus", "new", 2, 4),
    ("tp1-sphere", "new", 3, 4),
])
def test_pmg_path_matches_lu_path(case_name, method, degree, param,
                                  monkeypatch):
    """The multigrid GMRES solution and its errors agree with the LU
    path's to 1e-10 relative (measured: 4e-13 on x, 1e-14 on the errors)."""
    case = get_case(case_name)
    runs = {}
    for path in ("lu", "pmg"):
        _force_path(monkeypatch, path)
        rep, _, _, sol = run_single(case, method, degree, param,
                                    record_time=False)
        assert sol.path == path
        runs[path] = rep, sol
    (rep_lu, lu), (rep_pmg, pmg) = runs["lu"], runs["pmg"]
    assert (pmg.precision, pmg.refinement_steps) == ("float64", 0)
    assert 1 <= pmg.iterations <= 30
    assert pmg.relative_residual <= 1e-12
    assert np.max(np.abs(pmg.x - lu.x)) <= 1e-10 * np.max(np.abs(lu.x))
    for err in ("err_h1_broken", "err_l2"):
        ref = getattr(rep_lu, err)
        assert abs(getattr(rep_pmg, err) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("method,low,high", [("new", 12, 20),
                                             ("nonconforming", 18, 28)])
def test_pmg_iterations_do_not_grow_with_h(method, low, high, monkeypatch):
    """Two-level p-multigrid converges independently of h: J=8 and J=16
    differ by at most 3 iterations (measured 15/16 for new and 22/24 for
    nonconforming).  J=16 is above the switch by default, and the cycle
    stores a tenth of the LU factor's entries or less."""
    j16 = solve(_case_system("tp1-sphere", method, 2, 16))
    _force_path(monkeypatch, "pmg")
    j8 = solve(_case_system("tp1-sphere", method, 2, 8))
    assert (j8.path, j16.path) == ("pmg", "pmg")
    assert low <= j8.iterations <= high and low <= j16.iterations <= high
    assert abs(j16.iterations - j8.iterations) <= 3
    assert j16.fill <= 0.15 * {"new": 2_316_528,
                               "nonconforming": 4_692_672}[method]


@pytest.mark.filterwarnings("error")
def test_pmg_zero_right_hand_side_is_zero(monkeypatch):
    """b = 0 gives x = 0 before the first Arnoldi step: no division by
    the zero norm of b."""
    _force_path(monkeypatch, "pmg")
    system = _case_system("tp1-sphere", "new", 2, 4)
    rep = solve(dataclasses.replace(system, b=np.zeros_like(system.b)))
    assert (rep.path, rep.iterations, rep.relative_residual) == ("pmg", 0, 0.0)
    np.testing.assert_array_equal(rep.x, 0.0)


@pytest.mark.filterwarnings("error")
def test_pmg_happy_breakdown_ends_the_cycle(monkeypatch):
    """On A = 2I with one P1 tet the Gauss-Seidel sweep inverts A, so the
    first Arnoldi vector spans an invariant space: H[1, 0] is exactly 0,
    and the cycle ends with the exact x instead of dividing by it."""
    _force_path(monkeypatch, "pmg")
    system = dataclasses.replace(
        _wrap(2.0 * np.eye(4), [1.0, 0.0, 0.0, 0.0]),
        cells=np.arange(4)[None], gamma_mask=np.zeros(4, dtype=bool),
        tets=np.arange(4)[None], coarse_weights=np.eye(4))
    rep = solve(system)
    assert (rep.path, rep.iterations) == ("pmg", 1)
    np.testing.assert_array_equal(rep.x, [0.5, 0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_gmres_stops_where_the_preconditioned_operator_is_singular():
    """A M v = 0 for the first Arnoldi vector: no Givens rotation exists,
    and GMRES returns without dividing by zero, for LU to decide."""
    x, iterations = linsolve._gmres(sp.csr_matrix((2, 2)), np.array([1.0, 0.0]),
                                    lambda r: r, 1e-13, 10)
    assert iterations == 0
    np.testing.assert_array_equal(x, 0.0)


def test_gmres_over_its_cap_falls_back_to_lu(monkeypatch):
    """GMRES capped at one iteration misses the contract, and the LU path
    then gives exactly the x it gives when forced."""
    system = _case_system("tp1-sphere", "nonconforming", 2, 8)
    _force_path(monkeypatch, "lu")
    forced = solve(system)
    _force_path(monkeypatch, "pmg")
    monkeypatch.setattr(linsolve, "MAX_GMRES_ITERATIONS", 1)
    rep = solve(system)
    assert (rep.path, rep.iterations, rep.fill) == ("lu", 0, forced.fill)
    np.testing.assert_array_equal(rep.x, forced.x)
