"""Deterministic direct solution of the assembled sparse systems.

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
output stays deterministic."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import System

#: most refinement steps after the first solve with the float32 factor
MAX_REFINEMENT_STEPS = 10


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the factorizations, solves and refinement only
    # entries SuperLU stores for L and U of the factor that produced x;
    # with relaxed supernodes off this is the nonzero count of L + U, read
    # without materialising lu.L and lu.U, which would copy the whole factor
    fill: int
    precision: str  # the factor that produced x: "float32" (refined) or "float64"
    # float64 corrections after the first float32 solve; 0 on the float64 path
    refinement_steps: int


def _factor(A):
    """SuperLU factor of A in A's precision, or None when it is exactly
    singular; any other factor error passes through."""
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", relax=1,
                    options=dict(SymmetricMode=True))
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


def solve(system: System, tol: float = 1e-12) -> SolveReport:
    """Sparse LU with a minimum-degree ordering of A + Aᵀ in symmetric
    mode, with threshold partial pivoting and no relaxed supernodes,
    factored in float32 and refined in float64; the float64 factor runs
    when the float32 one is singular or misses the residual contract,
    which is then checked on x."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("solver tolerance must be in (0, 1e-6]")
    t0 = time.perf_counter()
    A, b = system.A, system.b
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
    seconds = time.perf_counter() - t0
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(x=x, relative_residual=float(rel), seconds=seconds,
                       fill=lu.nnz, precision=precision,
                       refinement_steps=steps)
