"""Deterministic direct solution of the assembled sparse systems."""
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


def solve(system: System, tol: float = 1e-12) -> SolveReport:
    """Sparse LU with partial pivoting; checks the residual contract."""
    if not 0.0 < tol <= 1e-6:
        raise ValueError("solver tolerance must be in (0, 1e-6]")
    t0 = time.perf_counter()
    lu = splu(system.A.tocsc())
    x = lu.solve(system.b)
    seconds = time.perf_counter() - t0
    res = np.linalg.norm(system.A @ x - system.b)
    bnorm = np.linalg.norm(system.b)
    rel = res / bnorm if bnorm > 0.0 else res
    if not np.isfinite(rel) or rel > tol:
        raise RuntimeError(
            "solver failure: relative residual %.3e exceeds %.1e" % (rel, tol)
        )
    return SolveReport(x=x, relative_residual=float(rel), seconds=seconds)
