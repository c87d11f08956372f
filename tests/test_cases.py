import numpy as np
import pytest
from hypothesis import given
from hypothesis.extra.numpy import arrays
from hypothesis.strategies import floats, integers

from shiftfem.cases import case_registry, get_case

from test_surfaces import sample_surface_points


def fd_laplacian(u, p, h=5e-3):
    """Fourth-order central finite-difference Laplacian."""
    total = 0.0
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        total += (
            -u(p + 2 * step)
            + 16 * u(p + step)
            - 30 * u(p)
            + 16 * u(p - step)
            - u(p - 2 * step)
        ) / (12 * h * h)
    return total


def fd_gradient(u, p, h=1e-6):
    g = np.zeros(3)
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        g[d] = (u(p + step) - u(p - step)) / (2 * h)
    return g


def _interior_points(case, rng, n):
    """Random points strictly inside the domain, away from singular axes."""
    pts = []
    while len(pts) < n:
        p0 = sample_surface_points(case.surface, 1, rng)[0]
        p = p0 * rng.uniform(0.3, 0.9) if case.name != "tp3-torus" else None
        if case.name == "tp3-torus":
            # shrink toward the tube center circle
            x, y, z = p0
            rho = np.hypot(x, y)
            cx, cy = (5.0 / 6.0) * x / rho, (5.0 / 6.0) * y / rho
            lam = rng.uniform(0.0, 0.7)
            p = np.array([cx, cy, 0.0]) + lam * (p0 - [cx, cy, 0.0])
        if case.surface.value(p) < -1e-6:
            pts.append(p)
    return pts


@pytest.mark.parametrize("name", sorted(case_registry()))
def test_pde_consistency(name):
    """-laplace(u) = f at random interior points (finite differences)."""
    case = get_case(name)
    rng = np.random.default_rng(11)
    for p in _interior_points(case, rng, 1000):
        assert abs(-fd_laplacian(case.u, p) - case.f(p)) <= 1e-8 * max(
            1.0, abs(case.f(p))
        )


@pytest.mark.parametrize("name", sorted(case_registry()))
def test_gradient_consistency(name):
    case = get_case(name)
    rng = np.random.default_rng(13)
    for p in _interior_points(case, rng, 100):
        np.testing.assert_allclose(
            case.grad_u(p), fd_gradient(case.u, p), atol=1e-7
        )


@pytest.mark.parametrize("name", sorted(case_registry()))
def test_solution_vanishes_on_boundary(name):
    case = get_case(name)
    rng = np.random.default_rng(17)
    for p in sample_surface_points(case.surface, 200, rng):
        assert abs(case.u(p)) <= 1e-10
        assert case.g(p) == 0.0


def test_registry_contents():
    names = sorted(case_registry())
    assert names == [
        "quadratic-ellipsoid", "tp1-sphere", "tp2-ellipsoid", "tp3-torus",
    ]
    with pytest.raises(KeyError):
        get_case("nope")


def test_reference_h_conventions():
    assert get_case("tp1-sphere").h_of_param(4) == pytest.approx(0.25)
    assert get_case("tp3-torus").h_of_param(2) == pytest.approx(np.pi / 16)


@pytest.mark.parametrize("name", sorted(case_registry()))
@given(integers(1, 20).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=floats(0.0, 1.0))))
def test_callables_on_point_arrays_equal_per_point_calls(name, unit):
    """u, grad_u and f on an (n, 3) array equal the per-point calls.  The
    points fill a cylinder that keeps off the torus axis, where grad_u and
    f of tp3 are singular."""
    case = get_case(name)
    rho, theta = 0.1 + 1.1 * unit[:, 0], 2.0 * np.pi * unit[:, 1]
    pts = np.column_stack([rho * np.cos(theta), rho * np.sin(theta),
                           2.4 * unit[:, 2] - 1.2])
    for fn, shape in ((case.u, ()), (case.grad_u, (3,)), (case.f, ())):
        batched = np.broadcast_to(fn(pts), (len(pts),) + shape)
        single = np.array([np.broadcast_to(fn(p), shape) for p in pts])
        np.testing.assert_allclose(batched, single, rtol=1e-15, atol=1e-15)
