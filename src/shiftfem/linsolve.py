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
exactly L + U."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import System


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    seconds: float  # the factorization and solve only
    # entries SuperLU stores for L and U; with relaxed supernodes off this
    # is the nonzero count of L + U, read without materialising lu.L and
    # lu.U, which would copy the whole factor
    fill: int


def solve(system: System, tol: float = 1e-12) -> SolveReport:
    """Sparse LU with a minimum-degree ordering of A + Aᵀ in symmetric
    mode, with threshold partial pivoting and no relaxed supernodes;
    checks the residual contract."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("solver tolerance must be in (0, 1e-6]")
    t0 = time.perf_counter()
    A = system.A.tocsc()
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", relax=1,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise RuntimeError(
            "solver failure: sparse LU factor of the %d×%d system is "
            "exactly singular" % A.shape
        ) from exc
    x = lu.solve(system.b)
    seconds = time.perf_counter() - t0
    res = np.linalg.norm(system.A @ x - system.b)
    bnorm = np.linalg.norm(system.b)
    rel = res / bnorm if bnorm > 0.0 else res
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(x=x, relative_residual=float(rel), seconds=seconds,
                       fill=lu.nnz)
