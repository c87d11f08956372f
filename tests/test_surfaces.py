import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from shiftfem.surfaces import Ellipsoid, Sphere, Torus

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))
TORUS = Torus(5.0 / 6.0, 1.0 / 6.0)
SMALL_SPHERE = Sphere(np.zeros(3), 0.7)


def sample_surface_points(surface, n, rng):
    """Parametric samples on each supported surface."""
    th = rng.uniform(0.0, 2 * np.pi, n)
    ph = rng.uniform(0.05, np.pi - 0.05, n)
    return surface_points(surface, th, ph)


def surface_points(surface, th, ph):
    """The points of each supported surface at parameters (th, ph)."""
    if isinstance(surface, Sphere):
        r = surface.radius
        return np.column_stack(
            [r * np.sin(ph) * np.cos(th), r * np.sin(ph) * np.sin(th),
             r * np.cos(ph)]
        )
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


def unit_normals(surface, p):
    """Unit normals (..., 3) of `surface` at points (..., 3): the central
    difference of its level set, normalized, so outward."""
    steps = 1e-6 * surface.scale * np.eye(3)
    g = np.stack([surface.value(p + e) - surface.value(p - e) for e in steps],
                 axis=-1)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def test_implicit_values_on_reference_points():
    assert SPHERE.value((1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert ELLIPSOID.value((0.0, 0.0, 0.0)) == pytest.approx(-1.0)
    assert TORUS.value((1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    # inside/outside signs
    assert SPHERE.value((0.5, 0.0, 0.0)) < 0.0 < SPHERE.value((2.0, 0.0, 0.0))
    assert TORUS.value((5.0 / 6.0, 0.0, 0.0)) < 0.0
    assert TORUS.value((0.0, 0.0, 0.0)) > 0.0  # hole of the torus


@pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID, TORUS])
def test_surface_points_and_normal_consistency(surface):
    rng = np.random.default_rng(42)
    pts = sample_surface_points(surface, 1000, rng)
    assert np.all(np.abs(surface.value(pts)) <= 1e-12 * surface.scale)
    # F increases outward through every point
    n = unit_normals(surface, pts)
    eps = 1e-6
    assert np.all(surface.value(pts + eps * n) > 0.0)
    assert np.all(surface.value(pts - eps * n) < 0.0)


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
        if abs(d @ unit_normals(surface, p0)) < 0.3:
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


@pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID, SMALL_SPHERE])
def test_quadric_intersection_matches_bisection_oracle(surface):
    """The shared quadratic solve, fed with the scaled origin and direction."""
    _check_against_bisection_oracle(surface, 6)


def dense_scan_nearest_root(surface, p, d, bracket):
    """Oracle: the root of smallest |t| among the samples of F(p + t d)
    on 4001 points of [-bracket, bracket] where F vanishes and the sign
    changes between them, each polished by brentq; None when there is
    neither."""

    def f(t):
        return surface.value(p + t * d)

    ts = np.linspace(-bracket, bracket, 4001)
    vals = surface.value(p + ts[:, None] * d)
    roots = list(ts[np.abs(vals) <= 1e-14 * surface.scale])
    roots += [brentq(f, ts[i], ts[i + 1])
              for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
    return min(roots, key=abs) if roots else None


@st.composite
def near_surface_lines(draw, surface, max_lines=8):
    """Origins within 0.02 per coordinate of a surface point and unit
    directions whose angle to the normal there is at most 1.25 rad, so
    that |d . n| >= 0.3."""
    n = draw(st.integers(1, max_lines))
    u = draw(arrays(np.float64, (n, 4), elements=st.floats(0.0, 1.0)))
    offset = draw(arrays(np.float64, (n, 3), elements=st.floats(-0.02, 0.02)))
    sign = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    p0 = surface_points(surface, 2 * np.pi * u[:, 0],
                        0.05 + (np.pi - 0.1) * u[:, 1])
    normal = unit_normals(surface, p0)
    # an orthonormal tangent frame (t1, t2) at p0
    axis = np.where(np.abs(normal[:, :1]) > 0.9, [[0.0, 1.0, 0.0]],
                    [[1.0, 0.0, 0.0]])
    t1 = np.cross(normal, axis)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normal, t1)
    alpha = 1.25 * (2.0 * u[:, 2:3] - 1.0)
    beta = 2 * np.pi * u[:, 3:4]
    tangent = np.cos(beta) * t1 + np.sin(beta) * t2
    d = sign[:, None] * (np.cos(alpha) * normal + np.sin(alpha) * tangent)
    return p0 + offset, d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "surface", [SPHERE, ELLIPSOID, SMALL_SPHERE, TORUS],
    ids=["sphere", "ellipsoid", "small-sphere", "torus"])
@given(data=st.data())
def test_line_intersections_land_and_are_nearest(surface, data):
    """Line intersections land on F = 0 and are the nearest root, and the
    batched query equals per-point calls bit for bit."""
    bracket = 0.2
    origins, directions = data.draw(near_surface_lines(surface))
    oracle = [dense_scan_nearest_root(surface, p, d, bracket)
              for p, d in zip(origins, directions)]
    keep = [i for i, t in enumerate(oracle) if t is not None]
    assume(keep)
    origins, directions = origins[keep], directions[keep]
    points, t = surface.nearest_line_intersection(origins, directions, bracket)
    assert points.shape == origins.shape and t.shape == (len(keep),)
    for i, (p, d) in enumerate(zip(origins, directions)):
        q_i, t_i = surface.nearest_line_intersection(p, d, bracket)
        assert np.array_equal(q_i, points[i]) and t_i == t[i]
    assert np.all(np.abs(surface.value(points)) <= 1e-12 * surface.scale)
    np.testing.assert_allclose(t, [oracle[i] for i in keep], rtol=0, atol=1e-10)


def test_value_takes_point_arrays():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, (4, 5, 3))
    for surface in (SPHERE, ELLIPSOID, SMALL_SPHERE, TORUS):
        vals = surface.value(pts)
        assert vals.shape == (4, 5)
        assert np.array_equal(
            vals, [[surface.value(p) for p in row] for row in pts])


def test_batched_query_names_the_origin_without_intersection():
    origins = np.array([[0.0, 0.0, 0.9], [0.9, 0.0, 0.0],
                        [0.0, 0.0, 0.5], [0.0, 0.95, 0.0]])
    directions = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    brackets = np.array([0.2, 0.2, 0.1, 0.2])
    with pytest.raises(ValueError, match="no surface intersection") as info:
        SPHERE.nearest_line_intersection(origins, directions, brackets)
    assert "origin 2 of 4" in str(info.value)
    assert str(origins[2]) in str(info.value)
    # the other three lines are fine on their own
    keep = [0, 1, 3]
    p, t = SPHERE.nearest_line_intersection(origins[keep], directions[keep],
                                            brackets[keep])
    np.testing.assert_allclose(t, [0.1, 0.1, 0.05], atol=1e-15)


def test_batched_query_names_the_origin_that_misses_the_surface():
    class SkewedRoots(Sphere):
        """A sphere whose second line's roots are off by 1e-3."""

        def line_roots(self, origin, direction):
            roots = super().line_roots(origin, direction)
            roots[1] += 1e-3
            return roots

    surface = SkewedRoots(np.zeros(3), 1.0)
    origins = np.array([[0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.9]])
    with pytest.raises(ValueError, match=r"failed to land .* \|F\| = 0\.002") as info:
        surface.nearest_line_intersection(origins, origins / 0.9, 0.5)
    assert "origin 1 of 3" in str(info.value)
    assert str(origins[1]) in str(info.value)


@pytest.mark.parametrize("radii", [(0.2, 0.3), (0.3, 0.3),
                                   (float("inf"), 1.0)])
def test_torus_needs_major_radius_above_minor(radii):
    with pytest.raises(ValueError, match=r"R = %g, r = %g" % radii):
        Torus(*radii)


@pytest.mark.parametrize("make", [
    lambda: Ellipsoid([0.6, 0.8, -1.0]),
    lambda: Ellipsoid([0.6, 0.0, 1.0]),
    lambda: Ellipsoid([0.6, np.nan, 1.0]),
    lambda: Ellipsoid([np.inf, 0.8, 1.0]),
    lambda: Sphere(np.zeros(3), 0.0),
], ids=["negative", "zero", "nan", "inf", "sphere-zero"])
def test_ellipsoid_needs_finite_positive_semi_axes(make):
    with pytest.raises(ValueError, match=r"finite semi-axes > 0, got "
                       r"semi_axes = \["):
        make()


@pytest.mark.parametrize("center", [
    [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.3, -0.2, 0.1],
], ids=["nan", "inf", "off-origin"])
def test_sphere_needs_its_center_at_the_origin(center):
    """Every surface is centred at the origin, where the mesh generators'
    symmetry planes meet; `Sphere` keeps its center argument only to
    reject any other, a NaN one included."""
    with pytest.raises(ValueError, match=r"center at the origin, got "
                       r"center = \["):
        Sphere(center, 1.0)


def test_torus_roots_are_polished_to_round_off():
    """The Newton steps on F take the eigenvalue roots of the quartic from
    about 2e-15 * scale to round-off."""
    rng = np.random.default_rng(1)
    p0 = sample_surface_points(TORUS, 2000, rng)
    normal = unit_normals(TORUS, p0)
    origins = p0 - 0.01 * normal + rng.uniform(-0.005, 0.005, p0.shape)
    d = normal + 0.5 * rng.standard_normal(p0.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    points, _ = TORUS.nearest_line_intersection(origins, d, 2.0)
    assert np.max(np.abs(TORUS.value(points))) <= 1e-15 * TORUS.scale
