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
from shiftfem import analysis, linsolve
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


def _lu(system):
    """The report of the LU fallback on the system, SuperLU called as
    `solve` calls it when GMRES misses the contract; `seconds` is 0."""
    return linsolve.SolveReport(seconds=0.0, path="lu",
                                **linsolve._lu_solve(system.A, system.b))


def _coarsest(monkeypatch, n):
    """The hierarchy solves only levels of at most `n` unknowns densely, so
    that the cycle runs on a small system."""
    monkeypatch.setattr(linsolve, "COARSEST", n)


def _wrap(A, b):
    """A raw system with the identity prolongation: at most `COARSEST`
    unknowns, it is its own coarsest level."""
    return System(
        A=sp.csr_matrix(A), b=np.asarray(b, dtype=float), cells=None,
        gamma_mask=None, dirichlet=None, basis=None, T=None,
        P=sp.identity(len(b), format="csr"),
    )


def test_identity_system():
    rep = solve(_wrap(np.eye(3), [1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(rep.x, [1, 0, 0])
    assert rep.relative_residual <= 1e-12


def test_two_by_two():
    """Its pattern is not symmetric: symmetric mode still solves it."""
    rep = _lu(_wrap([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
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
    """A factor error other than singularity passes through the LU path,
    which the singular coarsest matrix of this system sends it to."""
    error = RuntimeError("out of memory")

    def failing_splu(A, **kwargs):
        raise error

    monkeypatch.setattr(linsolve, "splu", failing_splu)
    with pytest.raises(RuntimeError) as info:
        solve(_wrap([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]))
    assert info.value is error


def test_first_solve_reads_the_clock_after_loading_the_sparse_solver():
    """In a fresh interpreter, where the package loads SciPy's sparse
    solvers on first use: the multigrid solve of a run reads the clock
    twice and never loads `scipy.sparse.linalg`, and the first fallback to
    LU, forced by capping GMRES at one step, loads it between the two
    reads, so that its `seconds` holds the import."""
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
        "_, _, system, _ = run_single(get_case('tp1-sphere'), 'new', 2, 8)\n"
        "print(reads)\n"
        "reads.clear()\n"
        "linsolve.MAX_GMRES_ITERATIONS = 1\n"
        "print(linsolve.solve(system).path)\n"
        "print(reads)\n")
    assert reads.split("\n")[:3] == ["[False, False]", "lu", "[False, True]"]


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
    assert _lu(system).fill < colamd.nnz


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


def test_factor_stores_no_relaxed_supernode_padding():
    """With relaxed supernodes off, the stored factor is exactly L + U of
    the same ordering; SuperLU's default relaxation pads the torus factor
    with about 60 % more entries than that, on the 3,960 equations of the
    system."""
    system = _case_system("tp3-torus", "new", 2, 8)
    ref = splu(system.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
               options=dict(SymmetricMode=True))
    fill = _lu(system).fill
    assert fill == ref.L.nnz + ref.U.nnz
    assert fill < ref.nnz


@pytest.mark.parametrize("method,fill", [("new", 98_416),
                                         ("nonconforming", 205_890)])
def test_fill_stays_at_its_measured_count(method, fill):
    """The stored LU fill of tp1 J=8, against the counts measured when the
    DOF numbering and the scatter were last changed: a change to either
    that moves the fill shows here, not only in the benchmark's memory."""
    rep = _lu(_case_system("tp1-sphere", method, 2, 8))
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
    """On the LU path x is the one solve with the float64 factor of the
    pinned ordering, symmetric mode and relax=1, bit for bit."""
    system = _case_system(case_name, method, degree, param)
    rep = _lu(system)
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
    rep = _lu(_wrap(A, b))
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
    """The multigrid GMRES solution and its errors agree with those of the
    LU path on the same system to 1e-10 relative (measured: 2.4e-14 on x,
    1.6e-13 on the errors)."""
    case = get_case(case_name)
    rep_pmg, _, _, pmg = run_single(case, method, degree, param,
                                    record_time=False)
    monkeypatch.setattr(analysis, "solve",
                        lambda system, tol: _lu(system))
    rep_lu, _, _, lu = run_single(case, method, degree, param,
                                  record_time=False)
    assert (pmg.path, lu.path) == ("pmg", "lu")
    assert 1 <= pmg.iterations <= 30
    assert pmg.relative_residual <= 1e-12
    assert np.max(np.abs(pmg.x - lu.x)) <= 1e-10 * np.max(np.abs(lu.x))
    for err in ("err_h1_broken", "err_l2"):
        ref = getattr(rep_lu, err)
        assert abs(getattr(rep_pmg, err) - ref) <= 1e-10 * ref


def test_restart_brings_x_to_the_lu_solution(monkeypatch):
    """tp3 new k=3 I=4 (1,650 equations): the first GMRES cycle leaves a
    float64 residual of about 5e-13, at which err_h1 misses its 1e-12
    bound in `test_orders`.  The restart from that residual lowers
    it by more than ten times (measured 4.8e-13 → 1.6e-14), and x then lies
    within 1e-12 relative (max norm) of the LU path's."""
    system = _case_system("tp3-torus", "new", 3, 4)
    residuals = []
    gmres = linsolve._gmres

    def recording(A, b, *args):
        x, steps = gmres(A, b, *args)
        residuals.append(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
        return x, steps

    monkeypatch.setattr(linsolve, "_gmres", recording)
    rep = solve(system)
    lu = _lu(system)
    assert (rep.path, len(residuals)) == ("pmg", 2)
    assert 1 <= rep.restart_iterations <= 2
    assert rep.relative_residual <= residuals[0] / 10
    assert np.max(np.abs(rep.x - lu.x)) <= 1e-12 * np.max(np.abs(lu.x))


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_pmg_iterations_do_not_grow_with_h(method, monkeypatch):
    """Multigrid GMRES converges independently of h: with `COARSEST` at
    100, J=8 and J=16 both get a smoothed-aggregation level below P1, and
    their first GMRES cycles differ by at most 3 Arnoldi steps (measured
    11/13 for new and 16/18 for nonconforming).  The hierarchy stores its
    coarse matrices and the dense coarsest inverse: at most 2 % of the
    entries of A's LU factor (measured 1.0 and 0.6 %; for nonconforming,
    2 % of the 4,692,672 entries of the factor of its faces-first
    numbering, 8 % fewer than the 5,088,980 of today's), and the coarse
    matrices add at most a fifth to the entries of A (measured 13 and
    8 %)."""
    low, high = {"new": (8, 14), "nonconforming": (12, 20)}[method]
    _coarsest(monkeypatch, 100)
    system = _case_system("tp1-sphere", method, 2, 16)
    j16 = solve(system)
    j8 = solve(_case_system("tp1-sphere", method, 2, 8))
    assert (j8.path, j16.path) == ("pmg", "pmg")
    assert len(j8.levels) == 3 and len(j16.levels) >= 3
    assert low <= j8.iterations <= high and low <= j16.iterations <= high
    assert abs(j16.iterations - j8.iterations) <= 3
    assert j16.fill == j16.levels[-1] ** 2
    assert j16.operator_complexity <= 1.2
    coarse = round((j16.operator_complexity - 1.0) * system.A.nnz)
    assert coarse + j16.fill <= 0.02 * {"new": 2_316_528,
                                        "nonconforming": 4_692_672}[method]


def test_small_system_is_its_own_coarsest_level():
    """tp3 new k=2 I=2 has 54 equations, fewer than `COARSEST`: its dense
    inverse preconditions GMRES, which ends after one step, and the
    restart takes one more."""
    rep = solve(_case_system("tp3-torus", "new", 2, 2))
    assert (rep.path, rep.levels, rep.fill) == ("pmg", (54,), 54 ** 2)
    assert (rep.iterations, rep.restart_iterations) == (1, 1)
    assert rep.operator_complexity == 1.0
    assert rep.relative_residual <= 1e-14


def test_aggregation_groups_strong_neighbours_in_index_order():
    """On a path of six unknowns, pass one groups {0, 1} and {2, 3, 4}, and
    pass two joins 5 to the aggregate of its neighbour 4.  A connection
    below 0.08·√(a_ii a_jj) is not one: with 2-3 that weak, pass one
    groups {0, 1} and {3, 4}, and pass two joins 2 to the first and 5 to
    the second."""
    path = sp.diags([-np.ones(5), 2.0 * np.ones(6), -np.ones(5)],
                    [-1, 0, 1], format="lil")
    T = linsolve._aggregate(path.tocsr())
    assert T.shape == (6, 2)
    np.testing.assert_array_equal(T.toarray(), np.eye(2)[[0, 0, 1, 1, 1, 1]])
    path[2, 3] = path[3, 2] = -0.1
    T = linsolve._aggregate(path.tocsr())
    np.testing.assert_array_equal(T.indices, [0, 0, 0, 1, 1, 1])


def test_smoothed_aggregation_level_is_the_galerkin_product(monkeypatch):
    """Below P1 each prolongation is (I - ω D⁻¹A) T, with T the aggregates
    and ω = 4/(3λ̂), and each coarse matrix is Pᵀ A P, to 1e-14 of the
    dense products' largest entries (tp1 new J=8 with `COARSEST` at
    100: 816 → 165 → 25 unknowns)."""
    _coarsest(monkeypatch, 100)
    system = _case_system("tp1-sphere", "new", 2, 8)
    levels, coarsest, _ = linsolve._hierarchy(system.A, system.P)
    sizes = [level.A.shape[0] for level in levels] + [coarsest.shape[0]]
    assert sizes == [816, 165, 25]
    A = levels[1].A
    dinv = 1.0 / A.diagonal()
    omega = 4.0 / (3.0 * linsolve._largest_eigenvalue(A, dinv))
    T = linsolve._aggregate(A).toarray()
    P = T - omega * dinv[:, None] * (A.toarray() @ T)
    assert (np.max(np.abs(levels[1].P.toarray() - P))
            <= 1e-14 * np.max(np.abs(P)))
    for fine, coarse in zip(levels, [level.A for level in levels[1:]]
                            + [coarsest]):
        dense = fine.P.toarray().T @ fine.A.toarray() @ fine.P.toarray()
        assert (np.max(np.abs(coarse.toarray() - dense))
                <= 1e-14 * np.max(np.abs(dense)))


@pytest.mark.filterwarnings("error")
def test_pmg_zero_right_hand_side_is_zero(monkeypatch):
    """b = 0 gives x = 0 before the first Arnoldi step: no division by
    the zero norm of b."""
    _coarsest(monkeypatch, 50)
    system = _case_system("tp1-sphere", "new", 2, 4)
    rep = solve(dataclasses.replace(system, b=np.zeros_like(system.b)))
    assert (rep.path, rep.iterations, rep.restart_iterations,
            rep.relative_residual) == ("pmg", 0, 0, 0.0)
    np.testing.assert_array_equal(rep.x, 0.0)


@pytest.mark.filterwarnings("error")
def test_pmg_happy_breakdown_ends_the_cycle(monkeypatch):
    """On A = 2I with P = I the coarse correction inverts A, so the first
    Arnoldi vector spans an invariant space: the Arnoldi steps stop after
    one and GMRES returns the exact x, without a division by the zero
    next Arnoldi vector; its residual is 0, so the restart takes no step.
    With `COARSEST` at 2 the cycle runs on the 4 unknowns."""
    _coarsest(monkeypatch, 2)
    rep = solve(_wrap(2.0 * np.eye(4), [1.0, 0.0, 0.0, 0.0]))
    assert (rep.path, rep.iterations, rep.restart_iterations,
            rep.levels) == ("pmg", 1, 0, (4, 4))
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
    then gives exactly the x of SuperLU on the system."""
    system = _case_system("tp1-sphere", "nonconforming", 2, 8)
    forced = _lu(system)
    monkeypatch.setattr(linsolve, "MAX_GMRES_ITERATIONS", 1)
    rep = solve(system)
    assert (rep.path, rep.iterations, rep.fill) == ("lu", 0, forced.fill)
    np.testing.assert_array_equal(rep.x, forced.x)


def test_singular_coarse_factor_falls_back_to_lu(monkeypatch):
    """A singular coarsest matrix sends the system to the LU path, which
    gives exactly the x of SuperLU on the system.  A zero P makes the P1
    level, the coarsest with `COARSEST` at 50, all zeros."""
    system = _case_system("tp1-sphere", "new", 2, 4)
    forced = _lu(system)
    _coarsest(monkeypatch, 50)
    rep = solve(dataclasses.replace(system, P=0.0 * system.P))
    assert (rep.path, rep.iterations, rep.fill) == ("lu", 0, forced.fill)
    np.testing.assert_array_equal(rep.x, forced.x)


def test_other_coarse_factor_errors_pass_through(monkeypatch):
    """An error of the dense coarsest inverse other than singularity is not
    hidden by the LU fallback."""
    error = MemoryError("out of memory")

    def failing_inv(M):
        raise error

    system = _case_system("tp1-sphere", "new", 2, 4)
    _coarsest(monkeypatch, 50)
    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    with pytest.raises(MemoryError) as info:
        solve(system)
    assert info.value is error


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_diagonal_not_strictly_positive_falls_back_to_lu(scale, monkeypatch):
    """A diagonal entry that is zero or negative leaves the Chebyshev
    smoother on D⁻¹A undefined: the system takes the LU path, which gives
    exactly the x of SuperLU on the system.  With `COARSEST` at 50 the
    fine level is smoothed."""
    system = _case_system("tp1-sphere", "new", 2, 4)
    A = system.A.copy()
    diagonal = A.diagonal()
    diagonal[7] *= scale
    A.setdiag(diagonal)
    system = dataclasses.replace(system, A=A)
    forced = _lu(system)
    _coarsest(monkeypatch, 50)
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


def test_cycle_runs_once_per_arnoldi_step_and_once_for_x(monkeypatch):
    """The V-cycle runs once per Arnoldi step and once more for
    x = M V y, in the first GMRES cycle and in the restart."""
    system = _case_system("tp1-sphere", "nonconforming", 2, 8)
    runs = []
    v_cycle = linsolve._v_cycle

    def counting(levels, inverse):
        cycle = v_cycle(levels, inverse)
        return lambda r: runs.append(1) or cycle(r)

    monkeypatch.setattr(linsolve, "_v_cycle", counting)
    rep = solve(system)
    assert rep.path == "pmg" and rep.iterations > 1
    assert rep.restart_iterations >= 1
    assert len(runs) == rep.iterations + rep.restart_iterations + 2


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_coarse_matrix_forms_without_a_copy_of_a(method, monkeypatch):
    """The coarse matrix handed to the dense inverse, tp1 J=8's P1 level,
    is Pᵀ A P, equal to the dense product to 1e-14 of its largest entry,
    and forming it peaks at most at the bytes of A, as tracemalloc counts
    it from the start of `solve` (measured 0.64 for new and 0.75 for
    nonconforming; 1.41 and 1.38 while P.T @ A converted A to CSC)."""
    system = _case_system("tp1-sphere", method, 2, 8)
    A, P = system.A, system.P
    coarse = []
    dense_inverse = linsolve._dense_inverse

    def recording(M):
        coarse.append((M, tracemalloc.get_traced_memory()[1]))
        return dense_inverse(M)

    monkeypatch.setattr(linsolve, "_dense_inverse", recording)
    rep, _ = traced_peak(solve, system)
    (matrix, peak), = coarse
    assert rep.path == "pmg" and rep.levels == (A.shape[0], P.shape[1])
    assert peak <= A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    dense = P.toarray().T @ A.toarray() @ P.toarray()
    assert (np.max(np.abs(matrix.toarray() - dense))
            <= 1e-14 * np.max(np.abs(dense)))
