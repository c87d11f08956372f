import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import hilbert
from scipy.sparse.linalg import LinearOperator, eigs, splu
from scipy.special import eval_chebyt

from shiftfem.analysis import run_single
from shiftfem.assembly import System, assemble_new_method, assemble_polyhedral
from shiftfem.cases import get_case
from shiftfem import linsolve
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.linsolve import solve
from shiftfem.meshgen import classify_boundary, generate_octant_mesh
from shiftfem.nonconforming import nc_assemble
from shiftfem.surfaces import Ellipsoid

from meshes import fresh_python, traced_peak

BUILDERS = {"new": assemble_new_method, "polyhedral": assemble_polyhedral,
            "nonconforming": nc_assemble}


def _case_system(case_name, method, degree, param):
    case = get_case(case_name)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    return BUILDERS[method](mesh, cls, case.surface, degree, case.f, case.g)


def _force_path(monkeypatch, path):
    """Every system that carries a prolongation takes `path`, "lu" or
    "pmg", at any size: the switch moves to infinity or to 0."""
    monkeypatch.setattr(linsolve, "PMG_MIN_EQUATIONS",
                        np.inf if path == "lu" else 0)


def _wrap(A, b):
    return System(
        A=sp.csr_matrix(A), b=np.asarray(b, dtype=float), cells=None,
        gamma_mask=None, dirichlet=None, basis=None, T=None,
    )


def test_identity_system():
    rep = solve(_wrap(np.eye(3), [1.0, 0.0, 0.0]))
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
    """A factor error other than singularity passes through the LU path."""
    error = RuntimeError("out of memory")

    def failing_splu(A, **kwargs):
        raise error

    monkeypatch.setattr(linsolve, "splu", failing_splu)
    with pytest.raises(RuntimeError) as info:
        solve(_wrap(np.eye(2), [1.0, 1.0]))
    assert info.value is error


def test_first_solve_reads_the_clock_after_loading_the_sparse_solver():
    """In a fresh interpreter, where the package loads SciPy's sparse
    solvers on first use, every clock read of the first `solve` comes
    after `scipy.sparse.linalg` is loaded: its `seconds` and the first
    row's solve_seconds hold no import."""
    reads = fresh_python(
        "import sys, time\n"
        "from shiftfem import linsolve\n"
        "from shiftfem.analysis import run_single\n"
        "from shiftfem.cases import get_case\n"
        "clock, reads = time.perf_counter, []\n"
        "def perf_counter():\n"
        "    if sys._getframe(1).f_code is linsolve.solve.__code__:\n"
        "        reads.append('scipy.sparse.linalg' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = perf_counter\n"
        "run_single(get_case('tp1-sphere'), 'new', 2, 8)\n"
        "print(reads)\n")
    assert reads.strip() == "[True, True]"


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
def test_lu_path_matches_independent_splu(case_name, method, degree, param):
    """Below the switch x is the one solve with the float64 factor of the
    pinned ordering, symmetric mode and relax=1, bit for bit."""
    system = _case_system(case_name, method, degree, param)
    rep = solve(system)
    assert rep.path == "lu"
    np.testing.assert_array_equal(rep.x, _float64_lu_solve(system))
    assert rep.relative_residual <= 1e-12


@pytest.mark.parametrize("A", [
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]),
    hilbert(8),
], ids=["near-singular-2x2", "hilbert-8"])
def test_ill_conditioned_systems_meet_the_contract(A):
    """A pivot of 1e-9 and cond(H_8) ≈ 3e10 still leave the float64 LU
    solve within the 1e-12 residual contract, and x within cond·eps of
    the exact ones."""
    b = A @ np.ones(len(A))
    rep = solve(_wrap(A, b))
    assert rep.path == "lu"
    assert rep.relative_residual <= 1e-12
    np.testing.assert_allclose(rep.x, 1.0, rtol=1e-5)


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
    assert 1 <= pmg.iterations <= 30
    assert pmg.relative_residual <= 1e-12
    assert np.max(np.abs(pmg.x - lu.x)) <= 1e-10 * np.max(np.abs(lu.x))
    for err in ("err_h1_broken", "err_l2"):
        ref = getattr(rep_lu, err)
        assert abs(getattr(rep_pmg, err) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_pmg_iterations_do_not_grow_with_h(method, monkeypatch):
    """Two-level p-multigrid converges independently of h: J=8 and J=16
    differ by at most 3 iterations (measured 10/11 for new and 15/16 for
    nonconforming).  J=16 is above the switch by default.  The cycle
    stores the coarse factor and nothing else, a tenth of the LU
    factor's entries or less."""
    low, high = {"new": (8, 14), "nonconforming": (12, 20)}[method]
    system = _case_system("tp1-sphere", method, 2, 16)
    j16 = solve(system)
    _force_path(monkeypatch, "pmg")
    j8 = solve(_case_system("tp1-sphere", method, 2, 8))
    assert (j8.path, j16.path) == ("pmg", "pmg")
    assert low <= j8.iterations <= high and low <= j16.iterations <= high
    assert abs(j16.iterations - j8.iterations) <= 3
    P = system.P
    assert j16.fill == splu((P.T @ system.A @ P).tocsc(),
                            **linsolve._LU_OPTIONS).nnz
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
    """On A = 2I with P = I the coarse correction inverts A, so the first
    Arnoldi vector spans an invariant space: the Arnoldi steps stop after
    one and GMRES returns the exact x, without a division by the zero
    next Arnoldi vector."""
    _force_path(monkeypatch, "pmg")
    system = dataclasses.replace(
        _wrap(2.0 * np.eye(4), [1.0, 0.0, 0.0, 0.0]),
        P=sp.identity(4, format="csr"))
    rep = solve(system)
    assert (rep.path, rep.iterations) == ("pmg", 1)
    np.testing.assert_array_equal(rep.x, [0.5, 0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_gmres_stops_where_the_preconditioned_operator_is_singular():
    """A M v = 0 for the first Arnoldi vector: the Arnoldi steps stop
    after that one, without a division by zero, and y = 0 gives x = 0,
    whose residual misses the contract, so the LU path decides."""
    x, iterations = linsolve._gmres(sp.csr_matrix((2, 2)), np.array([1.0, 0.0]),
                                    lambda r: r, 1e-13, 10)
    assert iterations == 1
    np.testing.assert_array_equal(x, 0.0)


def test_arnoldi_basis_is_orthonormal_and_spans_the_operator():
    """On a nonsymmetric upper-triangular 8×8 matrix: V is orthonormal and
    op(V[:m]) is H's combination of V[:m+1], to 1e-12; a start vector in
    the span of the first three eigenvectors stops the steps after 3, and
    `done` stops them once it holds."""
    A = np.triu(np.random.default_rng(3).standard_normal((8, 8)))
    A += np.diag(np.arange(1.0, 9.0))

    def op(v):
        return A @ v

    V, H = linsolve._arnoldi(op, np.ones(8), 5)
    assert (len(V), H.shape) == (6, (6, 5))
    V = np.array(V)
    assert np.max(np.abs(V @ V.T - np.eye(6))) <= 1e-12
    AV = A @ V[:5].T
    assert np.max(np.abs(AV - V.T @ H)) <= 1e-12 * np.max(np.abs(AV))
    V, H = linsolve._arnoldi(op, np.r_[1.0, 2.0, 3.0, np.zeros(5)], 5)
    assert (len(V), H.shape) == (3, (4, 3))
    shapes = []
    V, H = linsolve._arnoldi(op, np.ones(8), 5,
                             lambda H: shapes.append(H.shape) or len(H) == 3)
    assert shapes == [(2, 1), (3, 2)]
    assert (len(V), H.shape) == (2, (3, 2))


def test_krylov_basis_holds_only_the_vectors_its_steps_write():
    """The multigrid GMRES solve of tp1 nonconforming J=16 (13,616
    equations, 16 steps) peaks, as tracemalloc counts it, at most at 1.6
    times the bytes of A: its Krylov basis holds only the vectors the
    steps write (measured 0.99; 2.29 while the basis of
    `MAX_GMRES_ITERATIONS` + 1 vectors was reserved up front)."""
    system = _case_system("tp1-sphere", "nonconforming", 2, 16)
    A = system.A
    rep, peak = traced_peak(solve, system)
    assert rep.path == "pmg"
    assert peak <= 1.6 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


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


def _splu_failing_for_the_coarse_matrix(error, n):
    """`splu` that raises `error` for the coarse matrix, the only one with
    fewer than `n` equations, and factors everything else."""

    def fake(A, **kwargs):
        if A.shape[0] < n:
            raise error
        return splu(A, **kwargs)

    return fake


def test_singular_coarse_factor_falls_back_to_lu(monkeypatch):
    """A singular coarse factor sends the system to the LU path, which
    gives exactly the x it gives when forced."""
    system = _case_system("tp1-sphere", "new", 2, 4)
    _force_path(monkeypatch, "lu")
    forced = solve(system)
    _force_path(monkeypatch, "pmg")
    monkeypatch.setattr(linsolve, "splu", _splu_failing_for_the_coarse_matrix(
        RuntimeError("Factor is exactly singular"), len(system.b)))
    rep = solve(system)
    assert (rep.path, rep.iterations, rep.fill) == ("lu", 0, forced.fill)
    np.testing.assert_array_equal(rep.x, forced.x)


def test_other_coarse_factor_errors_pass_through(monkeypatch):
    """A coarse factor error other than singularity is not hidden by the
    LU fallback."""
    error = RuntimeError("out of memory")
    system = _case_system("tp1-sphere", "new", 2, 4)
    _force_path(monkeypatch, "pmg")
    monkeypatch.setattr(linsolve, "splu", _splu_failing_for_the_coarse_matrix(
        error, len(system.b)))
    with pytest.raises(RuntimeError) as info:
        solve(system)
    assert info.value is error


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_diagonal_not_strictly_positive_falls_back_to_lu(scale, monkeypatch):
    """A diagonal entry that is zero or negative leaves the Chebyshev
    smoother on D⁻¹A undefined: the system takes the LU path, which gives
    exactly the x it gives when forced."""
    system = _case_system("tp1-sphere", "new", 2, 4)
    A = system.A.copy()
    diagonal = A.diagonal()
    diagonal[7] *= scale
    A.setdiag(diagonal)
    system = dataclasses.replace(system, A=A)
    _force_path(monkeypatch, "lu")
    forced = solve(system)
    _force_path(monkeypatch, "pmg")
    rep = solve(system)
    assert (rep.path, rep.iterations, rep.fill) == ("lu", 0, forced.fill)
    np.testing.assert_array_equal(rep.x, forced.x)


def test_chebyshev_error_propagator_on_a_diagonal_matrix():
    """On A = diag(λ) with D = I the smoother's error propagator is
    diagonal, with entries T₃((θ - λ)/δ) / T₃(θ/δ) for the interval
    [θ - δ, θ + δ] = [λ̂/10, λ̂]; λ runs over [0, λ̂] and past it."""
    upper = 2.0
    lam = np.concatenate([np.linspace(0.0, upper, 41), [2.1, 2.5]])
    smooth = linsolve._chebyshev(sp.diags(lam, format="csr"),
                                 np.ones(len(lam)), upper)
    error = 1.0 - smooth(lam)  # (I - S A) applied to the ones vector
    theta, delta = 0.55 * upper, 0.45 * upper
    ref = eval_chebyt(3, (theta - lam) / delta) / eval_chebyt(3, theta / delta)
    assert np.max(np.abs(error - ref)) <= 1e-13


@pytest.mark.parametrize("case_name,method,degree,param", [
    ("tp1-sphere", "new", 2, 4),
    ("tp1-sphere", "new", 2, 8),
    ("tp1-sphere", "new", 3, 4),
    ("tp1-sphere", "new", 3, 8),
    ("tp1-sphere", "nonconforming", 2, 8),
    ("tp3-torus", "new", 2, 4),
])
def test_largest_eigenvalue_estimate_bounds_the_spectrum(case_name, method,
                                                         degree, param):
    """λ̂ lies within [1.0, 1.2] of ARPACK's largest |λ| of D⁻¹A (measured
    1.088-1.100), so the smoother's interval covers the spectrum's top,
    and the estimate is the same on a second call."""
    A = _case_system(case_name, method, degree, param).A
    dinv = 1.0 / A.diagonal()
    estimate = linsolve._largest_eigenvalue(A, dinv)
    op = LinearOperator(A.shape, matvec=lambda v: dinv * (A @ v), dtype=float)
    top, = np.abs(eigs(op, k=1, which="LM", v0=np.ones(A.shape[0]),
                       return_eigenvectors=False))
    assert 1.0 <= estimate / top <= 1.2
    assert linsolve._largest_eigenvalue(A, dinv) == estimate


class _CountedFactor:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.nnz, self.solves = lu, lu.nnz, 0

    def solve(self, r):
        self.solves += 1
        return self.lu.solve(r)


def test_cycle_runs_once_per_arnoldi_step_and_once_for_x(monkeypatch):
    """The V-cycle runs once per Arnoldi step and once more for
    x = M V y.  Counted by the solves of the coarse factor, the only
    factor of the cycle."""
    system = _case_system("tp1-sphere", "nonconforming", 2, 8)
    factored = []

    def counting(A, **kwargs):
        factored.append(_CountedFactor(splu(A, **kwargs)))
        return factored[-1]

    _force_path(monkeypatch, "pmg")
    monkeypatch.setattr(linsolve, "splu", counting)
    rep = solve(system)
    coarse, = factored
    assert rep.path == "pmg" and rep.iterations > 1
    assert coarse.solves == rep.iterations + 1


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_coarse_matrix_forms_without_a_copy_of_a(method, monkeypatch):
    """The coarse matrix handed to the factor is Pᵀ A P, equal to the dense
    product to 1e-14 of its largest entry, and forming it peaks at most at
    the bytes of A, as tracemalloc counts it from the start of `solve`
    (measured 0.59 for new and 0.58 for nonconforming; 1.41 and 1.38 while
    P.T @ A converted A to CSC).  tp1 J=8 with the pMG path forced."""
    system = _case_system("tp1-sphere", method, 2, 8)
    A, P = system.A, system.P
    coarse = []

    def recording(M, **kwargs):
        if M.shape[0] < A.shape[0]:
            coarse.append((M, tracemalloc.get_traced_memory()[1]))
        return splu(M, **kwargs)

    _force_path(monkeypatch, "pmg")
    monkeypatch.setattr(linsolve, "splu", recording)
    rep, _ = traced_peak(solve, system)
    (matrix, peak), = coarse
    assert rep.path == "pmg"
    assert peak <= A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    dense = P.toarray().T @ A.toarray() @ P.toarray()
    assert (np.max(np.abs(matrix.toarray() - dense))
            <= 1e-14 * np.max(np.abs(dense)))
