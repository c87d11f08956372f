import numpy as np
import pytest
from scipy.optimize import brentq

from shiftfem.surfaces import Ellipsoid, Sphere, Torus

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))
TORUS = Torus(5.0 / 6.0, 1.0 / 6.0)


def sample_surface_points(surface, n, rng):
    """Parametric samples on each supported surface."""
    th = rng.uniform(0.0, 2 * np.pi, n)
    ph = rng.uniform(0.05, np.pi - 0.05, n)
    if isinstance(surface, Sphere):
        r = surface.radius
        return np.column_stack(
            [r * np.sin(ph) * np.cos(th), r * np.sin(ph) * np.sin(th),
             r * np.cos(ph)]
        ) + surface.center
    if isinstance(surface, Ellipsoid):
        a, b, c = surface.semi_axes
        return np.column_stack(
            [a * np.sin(ph) * np.cos(th), b * np.sin(ph) * np.sin(th),
             c * np.cos(ph)]
        )
    if isinstance(surface, Torus):
        R, r = surface.major_radius, surface.minor_radius
        rho = R + r * np.cos(ph)
        return np.column_stack(
            [rho * np.cos(th), rho * np.sin(th), r * np.sin(ph)]
        )
    raise TypeError(surface)


def test_implicit_values_on_reference_points():
    assert SPHERE.value((1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert ELLIPSOID.value((0.0, 0.0, 0.0)) == pytest.approx(-1.0)
    assert TORUS.value((1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    # inside/outside signs
    assert SPHERE.value((0.5, 0.0, 0.0)) < 0.0 < SPHERE.value((2.0, 0.0, 0.0))
    assert TORUS.value((5.0 / 6.0, 0.0, 0.0)) < 0.0
    assert TORUS.value((0.0, 0.0, 0.0)) > 0.0  # hole of the torus


def test_normals_at_axis_points():
    np.testing.assert_allclose(SPHERE.unit_normal((0.0, 0.0, 1.0)), [0, 0, 1])
    np.testing.assert_allclose(TORUS.unit_normal((1.0, 0.0, 0.0)), [1, 0, 0])
    np.testing.assert_allclose(
        ELLIPSOID.unit_normal((0.6, 0.0, 0.0)), [1, 0, 0]
    )


@pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID, TORUS])
def test_surface_points_and_normal_consistency(surface):
    rng = np.random.default_rng(42)
    pts = sample_surface_points(surface, 1000, rng)
    for p in pts:
        assert abs(surface.value(p)) <= 1e-12 * surface.scale
        n = surface.unit_normal(p)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
        eps = 1e-6
        assert surface.value(p + eps * n) > 0.0
        assert surface.value(p - eps * n) < 0.0


def test_nearest_line_intersection_radial_cases():
    p, t = SPHERE.nearest_line_intersection((0.9, 0, 0), (1.0, 0, 0), 1.0)
    np.testing.assert_allclose(p, [1, 0, 0], atol=1e-14)
    p, t = ELLIPSOID.nearest_line_intersection((0, 0, 0.95), (0, 0, 1.0), 1.0)
    np.testing.assert_allclose(p, [0, 0, 1], atol=1e-14)


def test_nearest_line_intersection_prefers_smallest_t():
    # origin near the north pole: the nearest of the two sphere hits wins
    p, t = SPHERE.nearest_line_intersection((0, 0, 0.9), (0, 0, 1.0), 4.0)
    np.testing.assert_allclose(p, [0, 0, 1], atol=1e-14)
    assert t == pytest.approx(0.1)


def test_no_intersection_raises():
    with pytest.raises(ValueError, match="no surface intersection"):
        SPHERE.nearest_line_intersection((0, 0, 0.5), (1.0, 0, 0), 0.1)


def _check_against_bisection_oracle(surface, seed):
    rng = np.random.default_rng(seed)
    h_ref = 0.05
    checked = 0
    while checked < 50:
        p0 = sample_surface_points(surface, 1, rng)[0]
        p = p0 + rng.uniform(-0.02, 0.02, 3)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        # keep directions that are not nearly tangential
        if abs(d @ surface.unit_normal(p0)) < 0.3:
            continue

        def f(t):
            return surface.value(p + t * d)

        # dense scan oracle
        ts = np.linspace(-4 * h_ref, 4 * h_ref, 4001)
        vals = np.array([f(t) for t in ts])
        roots = [
            brentq(f, ts[i], ts[i + 1])
            for i in range(len(ts) - 1)
            if vals[i] * vals[i + 1] < 0
        ]
        if not roots:
            continue
        best = min(roots, key=abs)
        q, t = surface.nearest_line_intersection(p, d, 4 * h_ref)
        assert abs(t - best) <= 1e-10
        checked += 1


def test_torus_intersection_matches_bisection_oracle():
    _check_against_bisection_oracle(TORUS, 5)


@pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID,
                                     Sphere(np.array([0.3, -0.2, 0.1]), 0.7)])
def test_quadric_intersection_matches_bisection_oracle(surface):
    """The shared quadratic solve, fed with the scaled origin and direction."""
    _check_against_bisection_oracle(surface, 6)


@pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID, TORUS])
def test_closest_point_matches_dense_sampling_oracle(surface):
    rng = np.random.default_rng(9)
    samples = sample_surface_points(surface, 10**6, rng)
    for _ in range(20):
        p0 = sample_surface_points(surface, 1, rng)[0]
        p = p0 + rng.uniform(-0.05, 0.05, 3) * surface.scale
        q = surface.closest_point(p)
        assert abs(surface.value(q)) <= 1e-10 * surface.scale
        d_opt = np.linalg.norm(p - q)
        d_samples = np.min(np.linalg.norm(samples - p, axis=1))
        assert d_opt <= d_samples + 1e-4


def test_closest_point_fixed_points():
    np.testing.assert_allclose(
        SPHERE.closest_point((0.5, 0, 0)), [1, 0, 0], atol=1e-14
    )
    np.testing.assert_allclose(
        SPHERE.closest_point((0, 0, 1.0)), [0, 0, 1], atol=1e-14
    )
    # ellipsoid projection is a true minimizer compared with nearby points
    q = ELLIPSOID.closest_point((0.3, 0.2, 0.4))
    assert abs(ELLIPSOID.value(q)) <= 1e-12
