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
  * the coarse matrix Pᵀ A P (969 unknowns on tp1 J=16) is factored
    with the LU path's options;
  * one forward Gauss-Seidel sweep runs before the coarse correction and
    one backward sweep after it.  Each sweep is a SuperLU factor of a
    lower triangle in the natural order with the diagonal pivot, which
    stores the triangle without fill; a solve with it costs about a
    tenth of `spsolve_triangular`, which checks and copies the matrix on
    every call.  The forward sweep factors tril(A).  The backward sweep
    factors triu(A)ᵀ, whose CSC arrays are those of triu(A) in CSR, and
    solves with the transpose: SuperLU factors an upper triangle two to
    three times as slowly as a lower one (tp1 nonconforming J=16: 23
    against 14 ms).
SciPy's `gmres` is given the operator A M and no preconditioner of its
own.  That is right preconditioning (Saad, *Iterative Methods for Sparse
Linear Systems*, 2003, ch. 9): its inner stopping test reads the
residual of A x = b, not a preconditioned one, and x = M y.  GMRES stops
at tol/2 relative: 5e-13 at the default tolerance, above its attainable
accuracy of about 1.3e-13 and below the 1e-12 contract, which is then
checked in float64 on x as on the LU path.  The sphere and torus systems
take 14-29 Arnoldi steps independently of h, and x lies within 1e-12
relative of the LU path's.
When GMRES has not met the contract within `MAX_GMRES_ITERATIONS`, or a
factor of the cycle is singular, the LU path runs instead.  Which path
runs depends on the input alone, never on timing, so the output stays
deterministic."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .assembly import System

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
#: Arnoldi steps of the one GMRES cycle before the LU fallback runs: the
#: systems take 14-29, and SciPy allocates cap + 1 Krylov vectors up front
MAX_GMRES_ITERATIONS = 50
_LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", relax=1,
                   options=dict(SymmetricMode=True))
#: a Gauss-Seidel sweep's factor of a triangle of A: in the natural order
#: with the diagonal pivot, SuperLU stores the triangle without fill
_SWEEP_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1)


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the factorizations, solves and GMRES only
    # entries SuperLU stores for every factor of the path that produced x:
    # L and U of the one LU factor, or of the coarse factor and the two
    # sweep factors of the multigrid cycle; with relaxed supernodes off
    # this is their nonzero count, read without materialising lu.L and
    # lu.U, which would copy the whole factor
    fill: int
    path: str  # "lu" or "pmg" (multigrid-preconditioned GMRES)
    iterations: int  # GMRES Arnoldi steps; 0 on the LU path


def check_tol(tol):
    """Raise unless the residual tolerance `tol` lies in (0, 1e-6]."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("tol: solver tolerance must be in (0, 1e-6], "
                         "not %r" % tol)


def _factor(A, **options):
    """SuperLU factor of A, or None when it is exactly singular; any other
    factor error passes through.  The options default to those of the LU
    path."""
    try:
        return splu(A, **(options or _LU_OPTIONS))
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
    residual, the entries the cycle's three factors store and the
    iterations; None when a factor is singular or x misses the contract."""
    factors = [_factor((P.T @ A @ P).tocsc()),
               _factor(sp.tril(A, format="csc"), **_SWEEP_OPTIONS),
               _factor(sp.triu(A, format="csr").T, **_SWEEP_OPTIONS)]
    if any(lu is None for lu in factors):
        return None
    coarse, lower, upper = factors

    def cycle(r):
        z = lower.solve(r)  # forward Gauss-Seidel
        z += P @ coarse.solve(P.T @ (r - A @ z))
        # backward Gauss-Seidel
        return z + upper.solve(r - A @ z, trans="T")

    x, iterations = _gmres(A, b, cycle, tol / 2, MAX_GMRES_ITERATIONS)
    rel = _relative_residual(A, b, x)
    if not rel <= tol:
        return None
    return x, rel, sum(lu.nnz for lu in factors), iterations


def _gmres(A, b, precondition, tol, max_iterations):
    """One cycle of SciPy's GMRES from x = 0 on the right-preconditioned
    operator A M, of at most `max_iterations` Arnoldi steps: it stops once
    the residual norm of A x = b falls to tol·‖b‖.  x = M y and the
    Arnoldi steps run."""
    steps = []
    # an explicit dtype, or LinearOperator probes matvec: one more V-cycle
    AM = LinearOperator(A.shape, matvec=lambda v: A @ precondition(v),
                        dtype=float)
    y, _ = gmres(AM, b, rtol=tol, atol=0.0, restart=max_iterations,
                 maxiter=1, callback=steps.append, callback_type="pr_norm")
    return precondition(y), len(steps)


def solve(system: System, tol: float = 1e-12) -> SolveReport:
    """A x = b to the residual contract ‖A x - b‖ <= tol·‖b‖, checked in
    float64 on x: by p-multigrid GMRES above `PMG_MIN_EQUATIONS` when the
    system carries a prolongation, and by sparse LU otherwise or when
    GMRES misses the contract (see the module docstring)."""
    check_tol(tol)
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
