"""Deterministic solution of the assembled sparse systems, by sparse LU or,
above a fixed size, by p-multigrid-preconditioned GMRES.

Sparse LU, at or below the switch and as the fallback.
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

Two-level p-multigrid GMRES, above the switch.
The LU factor's stored entries grow about as n^1.7, so systems with more
than `PMG_MIN_EQUATIONS` equations that carry a prolongation `System.P`
from a coarse space (P1 on the same mesh, built by `assembly`) are solved
by one GMRES cycle of at most `MAX_GMRES_ITERATIONS` steps, preconditioned
on the right with a two-level p-multigrid V-cycle (Rønquist & Patera,
J. Sci. Comput. 1987; Helenbrook, Mavriplis & Atkins, AIAA 2003):
  * the coarse matrix Pᵀ A P (969 unknowns on tp1 J=16) is formed as
    Pᵀ(AP) through a CSR copy of Pᵀ, made once per solve (P.T @ A would
    convert A to CSC, a copy of A; AP holds about 0.3 times its bytes at
    k=2), and factored with the LU path's options.  The coarse correction
    z += P (Pᵀ A P)⁻¹ Pᵀ (r - A z) runs between a pre- and a post-smooth;
  * each smooth is three steps of Chebyshev iteration on D⁻¹A, D = diag A
    (Saad, *Iterative Methods for Sparse Linear Systems*, 2003, §12.1;
    as a multigrid smoother: Adams, Brezina, Hu & Tuminaro, J. Comput.
    Phys. 188, 2003).  It needs only products with A and D⁻¹.  Its error
    propagator is T₃((θ - λ)/δ) / T₃(θ/δ) on the eigenvalues λ of D⁻¹A,
    with the interval [θ - δ, θ + δ] = [λ̂/10, λ̂], PETSc's default;
  * λ̂ is 1.1 times the largest modulus of the Ritz values of 15 Arnoldi
    steps on D⁻¹A, started from the fixed vector cos(i), so that the
    estimate is a function of the input alone.  On ten sphere, ellipsoid
    and torus systems λ̂ lies within 1.088-1.100 of ARPACK's largest |λ|.
The cycle is one fixed linear operator, and it stores only the coarse
factor.  A diagonal that is not strictly positive leaves D⁻¹A undefined,
or its spectrum off the smoother's positive interval, and sends the
system to the LU path.
GMRES runs the same Arnoldi loop on A M from b and least squares on
their Hessenberg matrix H (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
1986): x = M V y, where y minimises ‖βe₁ - H y‖, β = ‖b‖, the residual
norm of A x = b.  That is right preconditioning (Saad 2003, ch. 9).
GMRES stops at tol/2 relative: 5e-13 at the default tolerance, above its
attainable accuracy of about 1.3e-13 and below the 1e-12 contract, which
is then checked in float64 on x as on the LU path.  The sphere and torus
systems take 9-18 Arnoldi steps independently of h, and x lies within
1e-12 relative of the LU path's.
When GMRES has not met the contract within `MAX_GMRES_ITERATIONS`, the
coarse factor is singular or the diagonal is not strictly positive, the
LU path runs instead.  Which path runs depends on the input alone, never
on timing, so the output stays deterministic.

SciPy's sparse modules load on first use, not on import: importing the
package, meshing and classifying a case never pay for them.  `solve`
touches `scipy.sparse.linalg` before it reads the clock, so that the
first solve's `seconds` holds the solve alone, not the import.  `splu` is
a module-level function that forwards to SciPy's, so that `_factor` reads
it through this module, where a test can patch it."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy

from .assembly import System

#: systems with more equations than this, and a coarse space, take the
#: p-multigrid GMRES path.  Best of 5 solves with each path forced, LU /
#: pMG-GMRES, one thread, GMRES to tol/2: tp3 I=4 (476 eq) 1.8 / 2.9 ms,
#: tp1 nonconforming J=6 (776) 2.6 / 4.3 ms and J=8 (1,784) 7.9 / 7.1 ms,
#: new J=8 (816) 4.6 / 3.9 ms, tp3 I=8 (3,960) 45 / 13 ms, nonconforming
#: J=16 (13,616) 338 / 47 ms: the paths cross between 476 and 816
#: equations for the Lagrange systems, 776 and 1,784 for the nonconforming
#: ones.  The switch stays at 2,000 for accuracy: GMRES to tol/2 leaves
#: tp3 new k=3 I=4 (1,650 eq) at err_h1 2.4e-12 (LU: 1.4e-14, its test's
#: bound 1e-12), and to tol/10 raises sphere-p2's peak RSS by 2.8 MB.
#: The J=8 systems, on which the LU path is tested, keep taking it.
PMG_MIN_EQUATIONS = 2000
#: Arnoldi steps of the one GMRES cycle before the LU fallback runs: the
#: systems take 9-18, and the basis holds only the vectors they write
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


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the factorization, estimate, solves and GMRES only
    # entries SuperLU stores for the one factor of the path that produced
    # x: L and U of the LU factor of A, or of the cycle's coarse factor of
    # Pᵀ A P (the smoother stores none); with relaxed supernodes off, their
    # nonzero count, read without copying the factor into lu.L and lu.U
    fill: int
    path: str  # "lu" or "pmg" (multigrid-preconditioned GMRES)
    iterations: int  # GMRES Arnoldi steps; 0 on the LU path


def check_tol(tol):
    """Raise unless the residual tolerance `tol` lies in (0, 1e-6]."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("tol: solver tolerance must be in (0, 1e-6], "
                         "not %r" % tol)


def splu(A, **options):
    """SuperLU factor of the CSC matrix A (`scipy.sparse.linalg.splu`)."""
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


def _relative_residual(A, b, x):
    res = np.linalg.norm(A @ x - b)
    bnorm = np.linalg.norm(b)
    return res / bnorm if bnorm > 0.0 else res


def _lu_solve(A, b):
    """x by the one sparse LU factor of A: x, its relative residual, the
    entries the factor stores and 0 GMRES iterations."""
    lu = _factor(A.tocsc())
    if lu is None:
        raise RuntimeError(
            "solver failure: sparse LU factor of the %d×%d system is "
            "exactly singular" % A.shape)
    x = lu.solve(b)
    return x, _relative_residual(A, b, x), lu.nnz, 0


def _pmg_solve(A, b, P, tol):
    """x by GMRES with the two-level cycle of prolongation P, its relative
    residual, the entries the coarse factor stores and the iterations;
    None when the diagonal of A is not strictly positive, the coarse
    factor is singular or x misses the contract."""
    diagonal = A.diagonal()
    if not np.all(diagonal > 0.0):
        return None
    dinv = 1.0 / diagonal
    Pt = P.T.tocsr()  # P.T @ A would convert A to CSC: a copy of A
    coarse = _factor((Pt @ (A @ P)).tocsc())
    if coarse is None:
        return None
    smooth = _chebyshev(A, dinv, _largest_eigenvalue(A, dinv))

    def cycle(r):
        z = smooth(r)
        z += P @ coarse.solve(Pt @ (r - A @ z))
        return z + smooth(r - A @ z)

    x, iterations = _gmres(A, b, cycle, tol / 2, MAX_GMRES_ITERATIONS)
    rel = _relative_residual(A, b, x)
    if not rel <= tol:
        return None
    return x, rel, coarse.nnz, iterations


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
    tol·β: x = M V y, one V-cycle more than the steps, and the steps run."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0

    def least_squares(H):
        rhs = np.r_[beta, np.zeros(len(H) - 1)]  # βe₁
        y = np.linalg.lstsq(H, rhs)[0]
        return y, np.linalg.norm(rhs - H @ y)

    V, H = _arnoldi(lambda v: A @ precondition(v), b, max_iterations,
                    lambda H: least_squares(H)[1] <= tol * beta)
    y, _ = least_squares(H)
    return precondition(sum(yi * vi for yi, vi in zip(y, V))), len(y)


def solve(system: System, tol: float = DEFAULT_TOL) -> SolveReport:
    """A x = b to the residual contract ‖A x - b‖ <= tol·‖b‖, checked in
    float64 on x: by p-multigrid GMRES above `PMG_MIN_EQUATIONS` when the
    system carries a prolongation, and by sparse LU otherwise or when
    GMRES misses the contract (see the module docstring)."""
    check_tol(tol)
    import scipy.sparse.linalg  # loaded before the clock starts
    t0 = time.perf_counter()
    A, b, P = system.A, system.b, system.P
    pmg = None
    if P is not None and A.shape[0] > PMG_MIN_EQUATIONS:
        pmg = _pmg_solve(A, b, P, tol)
    x, rel, fill, iterations = pmg or _lu_solve(A, b)
    path = "lu" if pmg is None else "pmg"
    seconds = time.perf_counter() - t0
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(x=x, relative_residual=float(rel), seconds=seconds,
                       fill=fill, path=path, iterations=iterations)
