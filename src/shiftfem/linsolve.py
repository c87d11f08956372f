"""Deterministic solution of the assembled sparse systems: by multigrid-
preconditioned GMRES, and by sparse LU when GMRES misses the contract.

Multigrid GMRES, for every system.  `assembly` gives each system the
prolongation P from P1 on the same mesh, `System.P`.
The solver builds a hierarchy of levels below the fine one, each holding
its matrix A, the prolongation P to it from the next coarser level, a
CSR copy of Pᵀ, the product A·P and a Chebyshev smoother:
  * the first coarse space is P1, through `System.P` (p-multigrid:
    Rønquist & Patera, J. Sci. Comput. 1987; Helenbrook, Mavriplis &
    Atkins, AIAA 2003);
  * below it, smoothed aggregation (Vaněk, Mandel & Brezina, Computing
    56, 1996): the unknowns strongly connected in (A + Aᵀ)/2,
    |a_ij| >= `_STRENGTH`·√|a_ii a_jj|, are grouped greedily in index order
    in two passes, and the piecewise-constant prolongation T of the groups
    is smoothed once, P = (I - ω D⁻¹A) T with ω = 4/(3λ̂);
  * each coarse matrix is Pᵀ(AP), through the CSR Pᵀ (P.T @ A would
    convert A to CSC, a copy of A).  A·P is kept: the cycle reads it;
  * the hierarchy ends at the first level with at most `COARSEST`
    unknowns, or that aggregation no longer coarsens, whose inverse is
    formed densely by NumPy.  A system that small is its own coarsest
    level.  On tp1 new k=2 J=16 the levels are 5,984 → 969 → 125.
One V-cycle is one fixed linear operator: at each level a pre-smooth z,
its residual r₁ = r - A z, the coarse correction e from the next level on
Pᵀ r₁, z += P e, and a post-smooth of r₁ - (AP) e, which saves one product
with A.  Each smooth is three steps of Chebyshev iteration on D⁻¹A,
D = diag A (Saad, *Iterative Methods for Sparse Linear Systems*, 2003,
§12.1; as a multigrid smoother: Adams, Brezina, Hu & Tuminaro,
J. Comput. Phys. 188, 2003), whose error propagator is
T₃((θ - λ)/δ) / T₃(θ/δ) on the eigenvalues λ of D⁻¹A, with the interval
[θ - δ, θ + δ] = [λ̂/10, λ̂], PETSc's default.  λ̂ is 1.1 times the
largest modulus of the Ritz values of 15 Arnoldi steps on D⁻¹A, started
from the fixed vector cos(i), so that the estimate is a function of the
input alone; on ten sphere, ellipsoid and torus systems it lies within
1.088-1.100 of ARPACK's largest |λ|.
GMRES runs the same Arnoldi loop on A M from b and least squares on
their Hessenberg matrix H (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
1986): x = M V y, where y minimises ‖βe₁ - H y‖, β = ‖b‖.  That is right
preconditioning (Saad 2003, ch. 9).  It stops at tol relative, where
its least-squares residual, not yet checked on x, meets the contract.
GMRES then restarts once from the float64 residual r = b - A x, to a
tenth of ‖r‖, and x + d is kept if it lowers the residual (one step of
defect correction).  The restart takes 1-2 Arnoldi steps and lowers the
residual 9-48 times on the J=8 and J=16 sphere and I=4 and I=8 torus
systems, to 1.0e-14-5.1e-14: on tp3 new k=3 I=4, where GMRES to tol/2
alone left err_h1 at 2.4e-12 against its test's 1e-12, it goes from
4.8e-13 to 1.6e-14, and x to within 1.0e-14 (max norm, relative) of the
LU path's.  Stopping the first cycle at tol rather than tol/2 saves one
step on some systems (tp1 J=16, tp3 I=4).  The contract is then checked
in float64 on x, as on the LU path.
When GMRES has not met the contract within `MAX_GMRES_ITERATIONS` steps,
the dense coarsest matrix is singular or the diagonal of a smoothed level
is not strictly positive (D⁻¹A is then undefined, or its spectrum off the
smoother's positive interval), the LU path runs instead.  Which path runs
depends on the input alone, never on timing, so the output stays
deterministic.

Sparse LU, the fallback.
Every system matrix of the three methods has a structurally symmetric
pattern (two equations couple exactly when their DOFs share a tet), so
SuperLU orders the columns by minimum degree on the pattern of A + Aᵀ and
runs in symmetric mode, which prefers the diagonal pivot.  On the sphere
systems that stores a quarter to a half fewer factor entries than the
default COLAMD column ordering.  Threshold partial pivoting stays on, so a
matrix with an unsymmetric pattern is still solved.
Relaxed supernodes are turned off (``relax=1``).  SuperLU's default
(relax = 10) merges small subtrees of the elimination tree into dense
supernodes and stores their zeros: on the tp3 torus at I = 8 that pads a
factor whose L + U holds 933,976 nonzeros to 1,511,350 stored entries and
about doubles the factor time.  On the sphere systems it pads by 0-2 %
and the time does not change.  Without relaxation the stored factor is
exactly L + U.

The multigrid path needs only `scipy.sparse`; `scipy.sparse.linalg`, and
the `scipy.linalg` it pulls in, load only on the first fallback to LU.
`splu` is a module-level function that forwards to SciPy's, so that
`_factor` reads it through this module, where a test can patch it."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy

from .assembly import System

#: the largest level that the hierarchy inverts densely, and so the largest
#: system that is its own coarsest level.  Best of 5 solves, one thread:
#: from 150 to 300 the times barely move (tp1 new J=16 27.9-29.9 ms); at
#: 100 the J=8 systems get an aggregation level and a step more (tp1 new
#: 5.7 → 6.6 ms, nonconforming 9.1 → 10.7 ms), and at 400 tp1 new J=6
#: (364 equations) is its own coarsest level, 10.5 ms against 3.1
COARSEST = 200
#: Arnoldi steps of each GMRES cycle before the LU fallback runs: the
#: first cycles of the systems up to J=32 take 8-19 and the restarts 1-2,
#: and the basis holds only the vectors they write
MAX_GMRES_ITERATIONS = 50
#: the residual tolerance of `solve`, of the analysis runs and of `--tol`
DEFAULT_TOL = 1e-12
_LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", relax=1,
                   options=dict(SymmetricMode=True))
#: the smoother: Chebyshev steps per smooth, the lower end of its interval
#: as a fraction of the upper end λ̂, and the Arnoldi steps on D⁻¹A and the
#: safety factor of the estimate λ̂
_CHEBYSHEV_DEGREE = 3
_CHEBYSHEV_LOWER = 0.1
_ARNOLDI_STEPS = 15
_ESTIMATE_SAFETY = 1.1
#: smoothed aggregation's strength of connection threshold
_STRENGTH = 0.08


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the hierarchy, the factors and GMRES only
    # entries stored by the path's one direct factor: L + U of SuperLU's
    # factor of A on the LU path, read without copying the factor into
    # lu.L and lu.U, or the n_c² entries of the dense coarsest inverse
    fill: int
    path: str  # "lu" or "pmg" (multigrid-preconditioned GMRES)
    iterations: int  # Arnoldi steps of the first GMRES cycle; 0 on LU
    restart_iterations: int  # Arnoldi steps of the restart; 0 on LU
    levels: tuple  # the unknowns of each level, the fine one first
    # the stored entries of the matrices of all levels over those of A
    operator_complexity: float


@dataclass
class _Level:
    """One level of the hierarchy above the coarsest: its matrix, the
    prolongation from the next level, its CSR transpose, A·P and the
    level's smoother."""

    A: scipy.sparse.csr_matrix
    P: scipy.sparse.csr_matrix
    Pt: scipy.sparse.csr_matrix
    AP: scipy.sparse.csr_matrix
    smooth: object


def check_tol(tol):
    """Raise unless the residual tolerance `tol` lies in (0, 1e-6]."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("tol: solver tolerance must be in (0, 1e-6], "
                         "not %r" % tol)


def splu(A, **options):
    """SuperLU factor of the CSC matrix A (`scipy.sparse.linalg.splu`)."""
    import scipy.sparse.linalg
    return scipy.sparse.linalg.splu(A, **options)


def _factor(A):
    """SuperLU factor of A with the LU path's options, or None when it is
    exactly singular; any other factor error passes through."""
    try:
        return splu(A, **_LU_OPTIONS)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _report(x, r, b, fill, matrices, iterations=0, restart_iterations=0):
    """The `SolveReport` fields that a path fills in, from x, its residual
    r, b, the factor's stored entries and the matrices of the levels; the
    relative residual is ‖r‖/‖b‖, or ‖r‖ when b = 0."""
    res, bnorm = np.linalg.norm(r), np.linalg.norm(b)
    return dict(x=x, relative_residual=float(res / bnorm if bnorm else res),
                fill=fill, iterations=iterations,
                restart_iterations=restart_iterations,
                levels=tuple(M.shape[0] for M in matrices),
                operator_complexity=sum(M.nnz for M in matrices)
                / matrices[0].nnz)


def _lu_solve(A, b):
    """The report fields of x by the one sparse LU factor of A."""
    lu = _factor(A.tocsc())
    if lu is None:
        raise RuntimeError(
            "solver failure: sparse LU factor of the %d×%d system is "
            "exactly singular" % A.shape)
    x = lu.solve(b)
    return _report(x, b - A @ x, b, lu.nnz, [A])


def _aggregate(A):
    """The tentative prolongation of smoothed aggregation on A: the
    (n, n_aggregates) 0/1 matrix of a greedy two-pass aggregation of the
    strength graph, in index order.  Pass one makes each unknown whose
    strong neighbours are all free an aggregate with them; pass two joins
    each unknown left to the aggregate of the first of its strong
    neighbours that pass one took, and it has one, or pass one would
    have taken it."""
    S = ((A + A.T) * 0.5).tocsr()
    d = np.abs(S.diagonal())
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    strong = (rows != S.indices) & (
        np.abs(S.data) >= _STRENGTH * np.sqrt(d[rows] * d[S.indices]))
    indptr = np.concatenate([[0], np.cumsum(
        np.bincount(rows[strong], minlength=S.shape[0]))]).tolist()
    indices = S.indices[strong].tolist()
    n = len(indptr) - 1
    first = [-1] * n
    count = 0
    for i in range(n):
        if first[i] < 0:
            neighbours = indices[indptr[i]:indptr[i + 1]]
            if all(first[j] < 0 for j in neighbours):
                first[i] = count
                for j in neighbours:
                    first[j] = count
                count += 1
    aggregate = first.copy()
    for i in range(n):
        if aggregate[i] < 0:
            aggregate[i] = next(first[j] for j in
                                indices[indptr[i]:indptr[i + 1]]
                                if first[j] >= 0)
    return scipy.sparse.csr_matrix(
        (np.ones(n), aggregate, np.arange(n + 1)), shape=(n, count))


def _hierarchy(A, P):
    """The levels above the coarsest, the coarsest matrix and its dense
    inverse; None when a smoothed level's diagonal is not strictly
    positive or the coarsest matrix is singular.  P is the fine level's
    prolongation."""
    levels = []
    while A.shape[0] > COARSEST:
        diagonal = A.diagonal()
        if not np.all(diagonal > 0.0):
            return None
        dinv = 1.0 / diagonal
        upper = _largest_eigenvalue(A, dinv)
        if P is None:
            T = _aggregate(A)
            if T.shape[1] == A.shape[0]:
                break
            AT = A @ T
            AT.data *= np.repeat(4.0 / (3.0 * upper) * dinv,
                                 np.diff(AT.indptr))
            P = (T - AT).tocsr()
        Pt = P.T.tocsr()  # P.T @ A would convert A to CSC: a copy of A
        AP = A @ P
        levels.append(_Level(A, P, Pt, AP, _chebyshev(A, dinv, upper)))
        A, P = Pt @ AP, None
    inverse = _dense_inverse(A)
    return None if inverse is None else (levels, A, inverse)


def _dense_inverse(A):
    """NumPy's dense inverse of the sparse coarsest matrix A, or None when
    A is singular; any other error passes through."""
    try:
        return np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError:
        return None


def _v_cycle(levels, inverse):
    """The preconditioner r ↦ z: one V-cycle over `levels`, ending in the
    dense `inverse` of the coarsest matrix."""

    def cycle(r, i=0):
        if i == len(levels):
            return inverse @ r
        level = levels[i]
        z = level.smooth(r)
        r = r - level.A @ z
        e = cycle(level.Pt @ r, i + 1)
        z += level.P @ e
        return z + level.smooth(r - level.AP @ e)

    return cycle


def _pmg_solve(A, b, P, tol):
    """The report fields of x by GMRES with the multigrid cycle and one
    restart; None when the hierarchy cannot be built or x misses the
    contract."""
    hierarchy = _hierarchy(A, P)
    if hierarchy is None:
        return None
    levels, coarsest, inverse = hierarchy
    cycle = _v_cycle(levels, inverse)
    x, iterations = _gmres(A, b, cycle, tol, MAX_GMRES_ITERATIONS)
    r = b - A @ x
    d, more = _gmres(A, r, cycle, 0.1, MAX_GMRES_ITERATIONS)
    corrected = x + d
    r_corrected = b - A @ corrected
    if np.linalg.norm(r_corrected) < np.linalg.norm(r):
        x, r = corrected, r_corrected
    found = _report(x, r, b, inverse.size,
                    [level.A for level in levels] + [coarsest],
                    iterations, more)
    return found if found["relative_residual"] <= tol else None


def _arnoldi(op, v, steps, done=lambda H: False):
    """At most `steps`, and at most len(v), Arnoldi steps of `op` from v by
    modified Gram-Schmidt: the unit vectors written, V[0] = v/‖v‖ first,
    and H (m+1, m) with op(V[j]) = Σ_i H[i, j] V[i] for the m steps run;
    they stop early on an invariant Krylov space or once `done(H)` holds."""
    V = [v / np.linalg.norm(v)]
    H = np.zeros((steps + 1, steps))
    for j in range(min(steps, len(v))):
        w = op(V[j])
        w_norm = np.linalg.norm(w)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] <= 1e-12 * w_norm or done(H[:j + 2, :j + 1]):
            break
        V.append(w / H[j + 1, j])
    return V, H[:j + 2, :j + 1]


def _largest_eigenvalue(A, dinv):
    """λ̂: `_ESTIMATE_SAFETY` times the largest modulus of the Ritz values
    of `_ARNOLDI_STEPS` Arnoldi steps on D⁻¹A from the fixed vector
    cos(i); on an invariant Krylov space they are eigenvalues."""
    _, H = _arnoldi(lambda v: dinv * (A @ v), np.cos(np.arange(len(dinv))),
                    _ARNOLDI_STEPS)
    return _ESTIMATE_SAFETY * np.max(np.abs(np.linalg.eigvals(H[:-1])))


def _chebyshev(A, dinv, upper):
    """The smoother r ↦ z: `_CHEBYSHEV_DEGREE` steps of Chebyshev iteration
    from z = 0 for A z = r, preconditioned by D⁻¹ = diag(dinv), on the
    interval [`_CHEBYSHEV_LOWER`·upper, upper] (Saad 2003, Algorithm
    12.1).  The error r ↦ A⁻¹r - z is p(D⁻¹A) A⁻¹r with
    p(λ) = T_m((θ - λ)/δ) / T_m(θ/δ), θ and δ the interval's centre and
    half-width and m the degree."""
    theta = (1.0 + _CHEBYSHEV_LOWER) / 2.0 * upper
    delta = (1.0 - _CHEBYSHEV_LOWER) / 2.0 * upper
    sigma = theta / delta

    def smooth(r):
        d = dinv * r / theta
        z = d.copy()
        rho = 1.0 / sigma
        for _ in range(_CHEBYSHEV_DEGREE - 1):
            r = r - A @ d
            rho, rho_prev = 1.0 / (2.0 * sigma - rho), rho
            d = rho * rho_prev * d + 2.0 * rho / delta * (dinv * r)
            z += d
        return z

    return smooth


def _gmres(A, b, precondition, tol, max_iterations):
    """One GMRES cycle from x = 0 on A M, of at most `max_iterations`
    Arnoldi steps, which stop once min‖βe₁ - H y‖, β = ‖b‖, is at most
    tol·β: x = M V y, one V-cycle more than the steps, and the steps run.
    The minimum is β/‖u‖ for the u with uᵀH = 0 and u₀ = 1, which spans
    the complement of H's range; u gains one entry per step, so that the
    stopping test needs no least-squares solve."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    u = [1.0]

    def converged(H):
        u.append(-np.dot(u, H[:-1, -1]) / H[-1, -1])
        return np.linalg.norm(u) * tol >= 1.0

    V, H = _arnoldi(lambda v: A @ precondition(v), b, max_iterations,
                    converged)
    y = np.linalg.lstsq(H, np.r_[beta, np.zeros(len(H) - 1)])[0]  # βe₁
    return precondition(sum(yi * vi for yi, vi in zip(y, V))), len(y)


def solve(system: System, tol: float = DEFAULT_TOL) -> SolveReport:
    """A x = b to the residual contract ‖A x - b‖ <= tol·‖b‖, checked in
    float64 on x: by multigrid GMRES, and by sparse LU when GMRES misses
    the contract (see the module docstring).

    `seconds` holds the solve alone on both paths.  The multigrid path
    never loads `scipy.sparse.linalg`, so the first fallback to LU of the
    process loads it inside the clock."""
    check_tol(tol)
    A, b = system.A, system.b
    t0 = time.perf_counter()
    pmg = _pmg_solve(A, b, system.P, tol)
    found = pmg or _lu_solve(A, b)
    seconds = time.perf_counter() - t0
    rel = found["relative_residual"]
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(seconds=seconds, path="lu" if pmg is None else "pmg",
                       **found)
