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

The factor is computed in single precision and the solution refined in
double precision (mixed-precision iterative refinement: Buttari, Dongarra
et al., ACM TOMS 2008; Carson & Higham, SIAM J. Sci. Comput. 2018).  The
float32 factor of ``A.astype(np.float32)``, with the same ordering and
options, stores the same entries at half the bytes and is computed about a
third faster.  Each step forms r = b - A x in float64, scales r by its
max-norm so that nothing underflows in float32, solves with the float32
factor and adds the correction to x in float64.  The steps go on while
each one at least halves the residual norm, at most
`MAX_REFINEMENT_STEPS` times after the first solve, and the x with the
smallest residual is kept.  Refining until the residual stalls, rather
than until it meets the tolerance, brings x to within rounding of the
float64 factor's solution: on the sphere and torus systems, 3 steps (the
last one stalls) leave x within 1e-14 relative of it.

Refinement converges only while cond(A)·2⁻²⁴ < 1, and the conditioning
guard of `trialspace` admits element matrices up to cond 1e8.  So when
the float32 factor is exactly singular, or the refined x misses the
residual contract, the float64 factor runs as the only factor would.
Which one runs depends on the input alone, never on timing, so the
output stays deterministic.

Two-level p-multigrid GMRES, above the switch.
The LU factor's stored entries grow about as n^1.7, so systems with more
than `PMG_MIN_EQUATIONS` equations whose builder supplies a coarse space
(`System.tets` and `System.coarse_weights`) are solved by restarted
GMRES(`GMRES_RESTART`), preconditioned on the right with a two-level
p-multigrid V-cycle (Rønquist & Patera, J. Sci. Comput. 1987;
Helenbrook, Mavriplis & Atkins, AIAA 2003):
  * the coarse space is P1 on the same mesh, for every element: the
    prolongation P gives each free DOF the value its DOF functional takes
    on the P1 hats, over the vertices that some free DOF reads;
  * the coarse matrix Pᵀ A P (969 unknowns on tp1 J=16) is factored in
    float64 with the LU path's options;
  * one forward Gauss-Seidel sweep runs before the coarse correction and
    one backward sweep after it.  Each sweep is a SuperLU factor of a
    triangle of A in the natural order with the diagonal pivot, which
    stores the triangle without fill; a solve with it costs about a
    tenth of `spsolve_triangular`, which checks and copies the matrix on
    every call.
GMRES is written here, with modified Gram-Schmidt and Givens rotations
(Saad, *Iterative Methods for Sparse Linear Systems*, 2003, ch. 6 and
9), because right preconditioning makes its stopping test read the true
residual, not the preconditioned one.  It stops at tol/2 relative: 5e-13
at the default tolerance, above its attainable accuracy of about 1.3e-13
and below the 1e-12 contract, which is then checked in float64 on x as
on the LU path.  The sphere and torus systems take 14-26 iterations
independently of h, and x lies within 1e-12 relative of the LU path's.
When GMRES has not met the contract within `MAX_GMRES_ITERATIONS`, or a
factor of the cycle is singular, the LU path runs instead; the path too
depends on the input alone."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .assembly import System

#: most refinement steps after the first solve with the float32 factor
MAX_REFINEMENT_STEPS = 10
#: systems with more equations than this, and a coarse space, take the
#: p-multigrid GMRES path.  Best of 5 solves, LU / pMG-GMRES, one thread:
#: tp1 new J=8 (816 eq) 7.9 / 11.6 ms, nonconforming J=8 (1,784) 14.0 /
#: 21.0 ms, new J=10 (1,540) 17.3 / 17.8 ms, tp3 I=6 (1,650) 18.3 /
#: 18.0 ms, new J=12 (2,600) 41 / 29 ms, new k=3 J=8 (2,600) 30 / 32 ms,
#: nonconforming J=10 (3,420) 33 / 36 ms and J=12 (5,836) 54 / 41 ms,
#: tp3 I=8 (3,960) 43 / 28 ms, new J=16 (5,984) 113 / 45 ms,
#: nonconforming J=16 (13,616) 385 / 128 ms.  The paths cross between
#: 1,800 and 3,500 equations, and the gap grows with n above that.
PMG_MIN_EQUATIONS = 2000
#: GMRES iterations, over all restarts, before the LU fallback runs; the
#: sphere and torus systems take 14-26
MAX_GMRES_ITERATIONS = 200
#: Krylov vectors per GMRES cycle before it restarts
GMRES_RESTART = 100
_LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", relax=1,
                   options=dict(SymmetricMode=True))
#: a Gauss-Seidel sweep's factor of a triangle of A: in the natural order
#: with the diagonal pivot, SuperLU stores the triangle without fill
_SWEEP_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1)


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the factorizations, solves, refinement and GMRES only
    # entries SuperLU stores for every factor of the path that produced x:
    # L and U of the one LU factor, or of the coarse factor and the two
    # sweep factors of the multigrid cycle; with relaxed supernodes off
    # this is their nonzero count, read without materialising lu.L and
    # lu.U, which would copy the whole factor
    fill: int
    precision: str  # the factor that produced x: "float32" (refined) or "float64"
    # float64 corrections after the first float32 solve; 0 on the other paths
    refinement_steps: int
    path: str  # "lu" or "pmg" (multigrid-preconditioned GMRES)
    iterations: int  # GMRES iterations; 0 on the LU path


def _factor(A, **options):
    """SuperLU factor of A in A's precision, or None when it is exactly
    singular; any other factor error passes through.  The options default
    to those of the LU path."""
    try:
        return splu(A, **(options or _LU_OPTIONS))
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _refine(A, b, lu):
    """x solved with the float32 factor `lu` of A and refined in float64
    until a step no longer halves the residual norm: the x of smallest
    residual, and the number of steps after the first solve."""
    x = np.zeros_like(b)
    r = b
    rnorm = np.linalg.norm(r)
    best, best_norm = x, rnorm
    for step in range(MAX_REFINEMENT_STEPS + 1):
        scale = np.max(np.abs(r))
        if not scale > 0.0:  # solved exactly, or NaN
            break
        x = x + scale * lu.solve((r / scale).astype(np.float32)).astype(np.float64)
        r = b - A @ x
        prev, rnorm = rnorm, np.linalg.norm(r)
        if rnorm < best_norm:
            best, best_norm = x, rnorm
        if not rnorm <= 0.5 * prev:
            break
    return best, step


def _relative_residual(A, b, x):
    res = np.linalg.norm(A @ x - b)
    bnorm = np.linalg.norm(b)
    return res / bnorm if bnorm > 0.0 else res


def _lu_solve(A, b, tol):
    """x by the float32 factor and refinement, or by the float64 factor
    when that one is singular or misses the contract: x, its relative
    residual, the entries the factor stores, its precision and the
    refinement steps."""
    A_csc = A.tocsc()
    lu = _factor(A_csc.astype(np.float32))
    if lu is not None:
        x, steps = _refine(A, b, lu)
        precision = "float32"
        rel = _relative_residual(A, b, x)
    if lu is None or not rel <= tol:
        lu = None  # free the float32 factor first
        lu = _factor(A_csc)
        if lu is None:
            raise RuntimeError(
                "solver failure: sparse LU factor of the %d×%d system is "
                "exactly singular" % A.shape)
        x, steps, precision = lu.solve(b), 0, "float64"
        rel = _relative_residual(A, b, x)
    return x, rel, lu.nnz, precision, steps


def _prolongation(system: System):
    """P (n_eq × n_coarse): each free DOF's functional applied to the P1
    hats, read through the first tet that holds the DOF, over the vertices
    that some free DOF reads."""
    cells, gamma = system.cells, system.gamma_mask
    ids, first = np.unique(cells, return_index=True)
    tet, local = np.divmod(first, cells.shape[1])
    free = ~gamma[ids]
    rows = np.repeat((np.cumsum(~gamma) - 1)[ids[free]], 4)
    cols = system.tets[tet[free]].ravel()
    vals = system.coarse_weights[local[free]].ravel()
    read = vals != 0.0
    vertices, cols = np.unique(cols[read], return_inverse=True)
    return sp.csr_matrix((vals[read], (rows[read], cols)),
                         shape=(system.A.shape[0], vertices.size))


def _pmg_solve(system: System, tol):
    """x by GMRES preconditioned with the two-level cycle, its relative
    residual, the entries the cycle's three factors store and the
    iterations; None when a factor is singular or x misses the contract."""
    A, b = system.A, system.b
    P = _prolongation(system)
    factors = [_factor((P.T @ A @ P).tocsc()),
               _factor(sp.tril(A, format="csc"), **_SWEEP_OPTIONS),
               _factor(sp.triu(A, format="csc"), **_SWEEP_OPTIONS)]
    if any(lu is None for lu in factors):
        return None
    coarse, lower, upper = factors

    def cycle(r):
        z = lower.solve(r)  # forward Gauss-Seidel
        z += P @ coarse.solve(P.T @ (r - A @ z))
        return z + upper.solve(r - A @ z)  # backward Gauss-Seidel

    x, iterations = _gmres(A, b, cycle, tol / 2, MAX_GMRES_ITERATIONS)
    rel = _relative_residual(A, b, x)
    if not rel <= tol:
        return None
    return x, rel, sum(lu.nnz for lu in factors), iterations


def _gmres(A, b, precondition, tol, max_iterations):
    """Restarted GMRES, right-preconditioned, from x = 0: Arnoldi with
    modified Gram-Schmidt and Givens rotations (Saad, ch. 6 and 9).  It
    stops once the residual norm of A x = b falls to tol·‖b‖, or after
    `max_iterations` in all: x and the iterations run."""
    x = np.zeros_like(b)
    target = tol * np.linalg.norm(b)
    r, iterations = b, 0
    while iterations < max_iterations:
        beta = np.linalg.norm(r)
        if not beta > target:  # met, or b = 0
            break
        m = min(GMRES_RESTART, max_iterations - iterations)
        V, H = [r / beta], np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            w = A @ precondition(V[j])
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            h = np.linalg.norm(w)
            for i in range(j):
                H[i:i + 2, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                 cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            d = np.hypot(H[j, j], h)
            if d == 0.0:  # A M singular on the Krylov space: LU decides
                return x, iterations
            cs[j], sn[j] = H[j, j] / d, h / d
            H[j, j], g[j + 1], g[j] = d, -sn[j] * g[j], cs[j] * g[j]
            iterations += 1
            # a happy breakdown, h = 0, leaves g[j + 1] = 0 and ends here
            if abs(g[j + 1]) <= target:
                break
            V.append(w / h)
        y = solve_triangular(H[:j + 1, :j + 1], g[:j + 1])
        x += precondition(sum(yi * v for yi, v in zip(y, V)))
        r = b - A @ x
    return x, iterations


def solve(system: System, tol: float = 1e-12) -> SolveReport:
    """A x = b to the residual contract ‖A x - b‖ <= tol·‖b‖, checked in
    float64 on x: by p-multigrid GMRES above `PMG_MIN_EQUATIONS` when the
    system carries a coarse space, and by sparse LU otherwise or when
    GMRES misses the contract (see the module docstring)."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("solver tolerance must be in (0, 1e-6]")
    t0 = time.perf_counter()
    A, b = system.A, system.b
    pmg = None
    if (system.coarse_weights is not None
            and A.shape[0] > PMG_MIN_EQUATIONS):
        pmg = _pmg_solve(system, tol)
    if pmg is not None:
        x, rel, fill, iterations = pmg
        path, precision, steps = "pmg", "float64", 0
    else:
        x, rel, fill, precision, steps = _lu_solve(A, b, tol)
        path, iterations = "lu", 0
    seconds = time.perf_counter() - t0
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(x=x, relative_residual=float(rel), seconds=seconds,
                       fill=fill, precision=precision,
                       refinement_steps=steps, path=path,
                       iterations=iterations)
