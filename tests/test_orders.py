"""Orders of convergence beyond the acceptance gate: Dirichlet data g ≠ 0,
and tp1 at J=16,32, where the EOCs are near their asymptotic values.  No
acceptance threshold moves.

The g ≠ 0 cases live on the tp1 sphere octant, outside the `cases`
registry, whose cases all have g = 0.  Each u is even in x, y and z, so
the symmetry planes' natural condition holds, and u = g on the sphere."""
import dataclasses

import numpy as np
import pytest

from shiftfem.analysis import run_convergence, run_single
from shiftfem.cases import get_case


def _tp1_case(name, u, grad_u, f, g):
    return dataclasses.replace(get_case("tp1-sphere"), name=name, u=u,
                               grad_u=grad_u, f=f, g=g)


def _quadratic_case():
    """u = 2 − y² − z², g = 1 + x²: in every trial space of degree 2."""

    def u(p):
        return 2.0 - p[..., 1] ** 2 - p[..., 2] ** 2

    def grad_u(p):
        return np.stack([np.zeros(p.shape[:-1]), -2.0 * p[..., 1],
                         -2.0 * p[..., 2]], axis=-1)

    return _tp1_case("tp1-quadratic-g", u, grad_u, lambda p: 4.0,
                     lambda p: 1.0 + p[..., 0] ** 2)


def _cos_case():
    """u = cos x cos y cos z + 1 − r², g = cos x cos y cos z, which differs
    from u off the sphere."""

    def g(p):
        return np.prod(np.cos(p), axis=-1)

    def u(p):
        return g(p) + 1.0 - np.sum(p * p, axis=-1)

    def grad_u(p):
        c, s = np.cos(p), np.sin(p)
        return -np.stack([s[..., 0] * c[..., 1] * c[..., 2],
                          c[..., 0] * s[..., 1] * c[..., 2],
                          c[..., 0] * c[..., 1] * s[..., 2]], axis=-1) - 2.0 * p

    return _tp1_case("tp1-cos-g", u, grad_u, lambda p: 3.0 * g(p) + 6.0, g)


@pytest.mark.parametrize("method,degree", [("new", 2), ("new", 3),
                                           ("nonconforming", 2)])
def test_nonhomogeneous_quadratic_reproduced(method, degree):
    """The quadratic lies in the trial space, so g read by the shifted
    Γ_h DOFs reproduces it (measured ≤1.8e-12 at J=4,8)."""
    for J in (4, 8):
        rep, *_ = run_single(_quadratic_case(), method, degree, J,
                             record_time=False)
        assert max(rep.err_h1_broken, rep.err_l2, rep.err_nodal_max) <= 1e-10


@pytest.mark.parametrize("method,degree,h1,l2", [
    # criterion 2's bands; measured 1.92 / 3.00
    ("new", 2, (1.8, 2.1), (2.7, 3.1)),
    # ±0.15 of 3 / 4; measured 2.90 / 3.94
    ("new", 3, (2.85, 3.15), (3.85, 4.15)),
    # criterion 5's bands, below the optimal ones; measured 1.47 / 2.00
    ("polyhedral", 2, (1.35, 1.65), (1.8, 2.2)),
    # measured 1.94 / 2.97
    ("nonconforming", 2, (1.8, 2.1), (2.7, 3.15)),
])
def test_nonhomogeneous_orders(method, degree, h1, l2):
    """The cos case from J=8 to J=16: g read at the wrong points, or a
    wrong sign in the Dirichlet lift, costs the shifted methods their
    order."""
    table = run_convergence(_cos_case(), method, degree, [8, 16],
                            record_time=False)
    assert h1[0] <= table.eoc_h1[-1] <= h1[1]
    assert l2[0] <= table.eoc_l2[-1] <= l2[1]


@pytest.mark.parametrize("method,degree,h1,l2", [
    ("new", 2, 2.0, 3.0),  # measured 1.97 / 3.01
    ("new", 3, 3.0, 4.0),  # measured 2.98 / 4.00
    ("polyhedral", 2, 1.5, 2.0),  # measured 1.46 / 2.00
    ("nonconforming", 2, 2.0, 3.0),  # measured 1.98 / 2.98
])
def test_asymptotic_orders(method, degree, h1, l2):
    """tp1 (g = 0) from J=16 to J=32: the EOCs lie within 0.1 of the
    asymptotic orders."""
    table = run_convergence(get_case("tp1-sphere"), method, degree, [16, 32],
                            record_time=False)
    assert abs(table.eoc_h1[-1] - h1) <= 0.1
    assert abs(table.eoc_l2[-1] - l2) <= 0.1
