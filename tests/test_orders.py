"""Orders of convergence beyond the acceptance gate: Dirichlet data g ≠ 0,
and tp1 at J=16,32, where the EOCs are near their asymptotic values.  No
acceptance threshold moves.

The g ≠ 0 cases live outside the `cases` registry, whose cases all have
g = 0, on the tp1 sphere octant and on the tp3 torus sector.  On the
octant each u is even in x, y and z; on the sector each u is even in z
and symmetric across the planes θ = 0 and θ = π/4.  So the symmetry
planes' natural condition holds, and u = g on the curved surface."""
import dataclasses

import numpy as np
import pytest

from shiftfem.analysis import run_convergence, run_single
from shiftfem.cases import get_case


def _with_data(case_name, name, u, grad_u, f, g):
    return dataclasses.replace(get_case(case_name), name=name, u=u,
                               grad_u=grad_u, f=f, g=g)


def _quadratic_case():
    """u = 2 − y² − z², g = 1 + x²: in every trial space of degree 2."""

    def u(p):
        return 2.0 - p[..., 1] ** 2 - p[..., 2] ** 2

    def grad_u(p):
        return np.stack([np.zeros(p.shape[:-1]), -2.0 * p[..., 1],
                         -2.0 * p[..., 2]], axis=-1)

    return _with_data("tp1-sphere", "tp1-quadratic-g", u, grad_u,
                      lambda p: 4.0, lambda p: 1.0 + p[..., 0] ** 2)


def _cos(p):
    return np.prod(np.cos(p), axis=-1)


def _grad_cos(p):
    c, s = np.cos(p), np.sin(p)
    return -np.stack([s[..., 0] * c[..., 1] * c[..., 2],
                      c[..., 0] * s[..., 1] * c[..., 2],
                      c[..., 0] * c[..., 1] * s[..., 2]], axis=-1)


def _cos_case():
    """u = cos x cos y cos z + 1 − r², g = cos x cos y cos z, which differs
    from u off the sphere."""

    def u(p):
        return _cos(p) + 1.0 - np.sum(p * p, axis=-1)

    def grad_u(p):
        return _grad_cos(p) - 2.0 * p

    return _with_data("tp1-sphere", "tp1-cos-g", u, grad_u,
                      lambda p: 3.0 * _cos(p) + 6.0, _cos)


def _torus_quadratic_case():
    """u = g = 2 − r², radial and so symmetric across every plane of the
    sector: in every trial space of degree 2.  tp1's 2 − y² − z² is not
    symmetric across θ = π/4."""

    def u(p):
        return 2.0 - np.sum(p * p, axis=-1)

    return _with_data("tp3-torus", "tp3-quadratic-g", u, lambda p: -2.0 * p,
                      lambda p: 6.0, u)


def _torus_cos_case():
    """u = cos x cos y cos z + u_tp3, g = cos x cos y cos z: u_tp3 vanishes
    on the torus, so g differs from u off it."""
    tp3 = get_case("tp3-torus")
    return _with_data("tp3-torus", "tp3-cos-g",
                      lambda p: _cos(p) + tp3.u(p),
                      lambda p: _grad_cos(p) + tp3.grad_u(p),
                      lambda p: 3.0 * _cos(p) + tp3.f(p), _cos)


@pytest.mark.parametrize("method,degree", [("new", 2), ("new", 3),
                                           ("nonconforming", 2)])
def test_nonhomogeneous_quadratic_reproduced(method, degree):
    """The quadratic lies in the trial space, so g read by the shifted
    Γ_h DOFs reproduces it (measured ≤1.8e-12 at J=4,8)."""
    for J in (4, 8):
        rep, *_ = run_single(_quadratic_case(), method, degree, J,
                             record_time=False)
        assert max(rep.err_h1_broken, rep.err_l2, rep.err_nodal_max) <= 1e-10


@pytest.mark.parametrize("method,degree", [("new", 2), ("new", 3),
                                           ("nonconforming", 2)])
def test_nonhomogeneous_quadratic_reproduced_on_the_torus(method, degree):
    """The radial quadratic on the torus sector (measured ≤1.2e-13 at
    I=2,4 by multigrid GMRES, ≤1.4e-14 when every level took sparse LU;
    tp3 new k=3 I=4 reached 2.4e-12 before GMRES restarted once)."""
    for I in (2, 4):
        rep, *_ = run_single(_torus_quadratic_case(), method, degree, I,
                             record_time=False)
        assert max(rep.err_h1_broken, rep.err_l2, rep.err_nodal_max) <= 1e-12


#: EOC bands of the cos cases; measured EOC(H1) / EOC(L2) on tp1 from J=8
#: to J=16, and on tp3 from I=4 to I=8
COS_BANDS = [
    # criterion 2's bands; measured 1.92 / 3.00 and 1.974 / 2.983
    ("new", 2, (1.8, 2.1), (2.7, 3.1)),
    # ±0.15 of 3 / 4; measured 2.90 / 3.94 and 2.969 / 4.000
    ("new", 3, (2.85, 3.15), (3.85, 4.15)),
    # criterion 5's bands, below the optimal ones; measured 1.47 / 2.00
    # and 1.459 / 2.061
    ("polyhedral", 2, (1.35, 1.65), (1.8, 2.2)),
    # measured 1.94 / 2.97 and 1.974 / 2.980
    ("nonconforming", 2, (1.8, 2.1), (2.7, 3.15)),
]


@pytest.mark.parametrize("method,degree,h1,l2", COS_BANDS)
def test_nonhomogeneous_orders(method, degree, h1, l2):
    """The cos case from J=8 to J=16: g read at the wrong points, or a
    wrong sign in the Dirichlet lift, costs the shifted methods their
    order."""
    table = run_convergence(_cos_case(), method, degree, [8, 16],
                            record_time=False)
    assert h1[0] <= table.eoc_h1[-1] <= h1[1]
    assert l2[0] <= table.eoc_l2[-1] <= l2[1]


@pytest.mark.parametrize("method,degree,h1,l2", COS_BANDS)
def test_nonhomogeneous_orders_on_the_torus(method, degree, h1, l2):
    """The torus cos case from I=4 to I=8: g ≠ 0 on the nonconvex surface,
    read at shifted points that the torus quartic gives."""
    table = run_convergence(_torus_cos_case(), method, degree, [4, 8],
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
