import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from shiftfem.elements import (
    EDGES,
    FACES,
    REF_VERTICES,
    AffineMap,
    _red_refine,
    barycentric,
    reference_nodes,
    refined_quadrature,
    shape_gradients,
    shape_values,
    tet_quadrature,
)


@st.composite
def well_shaped_tets(draw, max_tets=6):
    """Stacks (n, 4, 3) of positively oriented tets: the reference tet with
    every vertex moved by at most 0.15 per coordinate (so B = I + E with
    |E| <= 0.9 and cond(B) <= 19), scaled and translated."""
    n = draw(st.integers(1, max_tets))
    jitter = draw(arrays(np.float64, (n, 4, 3), elements=st.floats(-0.15, 0.15)))
    scale = draw(st.floats(0.05, 20.0))
    shift = draw(arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)))
    return scale * (REF_VERTICES + jitter) + shift


def exact_monomial(a, b, c):
    """Integral of x^a y^b z^c over the reference tet."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def random_ref_points(rng, n):
    pts = []
    while len(pts) < n:
        p = rng.random(3)
        if p.sum() <= 1.0:
            pts.append(p)
    return np.array(pts)


def test_node_counts_and_derived_counts():
    assert len(reference_nodes(2)) == 10
    assert len(reference_nodes(3)) == 20
    for k, n_k in ((2, 10), (3, 20)):
        assert len(reference_nodes(k)) == n_k
        m_k = k * (k + 2) * (k + 1) // 6
        p_k = n_k - (k + 1)
        assert (m_k, p_k) == {2: (4, 7), 3: (10, 16)}[k]
    with pytest.raises(ValueError):
        reference_nodes(4)


def test_delta_property_and_partition_of_unity():
    rng = np.random.default_rng(0)
    for k in (2, 3):
        nodes = reference_nodes(k)
        V = shape_values(k, nodes)
        assert np.max(np.abs(V - np.eye(len(nodes)))) <= 1e-12
        pts = random_ref_points(rng, 100)
        assert np.max(np.abs(shape_values(k, pts).sum(axis=1) - 1)) <= 1e-12
        assert np.max(np.abs(shape_gradients(k, pts).sum(axis=1))) <= 1e-12


def test_gradients_vs_finite_differences():
    rng = np.random.default_rng(1)
    eps = 1e-6
    for k in (2, 3):
        pts = random_ref_points(rng, 100)
        grads = shape_gradients(k, pts)
        for d in range(3):
            step = np.zeros(3)
            step[d] = eps
            fd = (
                shape_values(k, pts + step) - shape_values(k, pts - step)
            ) / (2 * eps)
            assert np.max(np.abs(fd - grads[:, :, d])) <= 1e-6


def test_barycentric():
    lam = barycentric([[0.2, 0.3, 0.1]])
    np.testing.assert_allclose(lam, [[0.4, 0.2, 0.3, 0.1]])


def test_quadrature_trivia():
    quad = tet_quadrature(5)
    assert len(quad.weights) == 15
    assert np.all(quad.weights > 0)
    assert float(quad.weights.sum()) == pytest.approx(1 / 6, abs=1e-15)
    assert float(quad.weights @ quad.points[:, 0]) == pytest.approx(
        1 / 24, abs=1e-15
    )


def test_quadrature_monomial_exactness():
    quad = tet_quadrature(5)
    for a in range(6):
        for b in range(6 - a):
            for c in range(6 - a - b):
                num = float(
                    quad.weights
                    @ (
                        quad.points[:, 0] ** a
                        * quad.points[:, 1] ** b
                        * quad.points[:, 2] ** c
                    )
                )
                exact = exact_monomial(a, b, c)
                assert abs(num - exact) <= 1e-13 * max(1.0, exact)
    # the documented spot value
    assert float(
        quad.weights
        @ (quad.points[:, 0] ** 2 * quad.points[:, 1] * quad.points[:, 2] ** 2)
    ) == pytest.approx(4 / math.factorial(8), abs=1e-15)


def test_low_order_rule():
    quad = tet_quadrature(2)
    for a in range(3):
        for b in range(3 - a):
            for c in range(3 - a - b):
                num = float(
                    quad.weights
                    @ (
                        quad.points[:, 0] ** a
                        * quad.points[:, 1] ** b
                        * quad.points[:, 2] ** c
                    )
                )
                assert abs(num - exact_monomial(a, b, c)) <= 1e-14
    with pytest.raises(ValueError):
        tet_quadrature(6)


def test_refined_quadrature_is_consistent():
    quad = refined_quadrature(5, 2)
    assert float(quad.weights.sum()) == pytest.approx(1 / 6, abs=1e-14)
    # still exact for degree-5 monomials
    num = float(
        quad.weights
        @ (quad.points[:, 0] ** 2 * quad.points[:, 1] ** 2 * quad.points[:, 2])
    )
    assert num == pytest.approx(exact_monomial(2, 2, 1), abs=1e-15)
    # and much more accurate than the base rule on a non-polynomial
    base = tet_quadrature(5)

    def integrate(q):
        return float(q.weights @ np.exp(3 * q.points.sum(axis=1)))

    # reference from an even finer rule
    ref = float(
        refined_quadrature(5, 4).weights
        @ np.exp(3 * refined_quadrature(5, 4).points.sum(axis=1))
    )
    assert abs(integrate(quad) - ref) < abs(integrate(base) - ref)


def test_red_refinement_of_the_reference_tet_is_positive():
    """The 8 red sub-tets of the reference tet are positively oriented,
    each with an eighth of its volume, so those of any positive tet (their
    affine images) are positive too."""
    sub = _red_refine(REF_VERTICES)
    det = np.linalg.det(sub[:, 1:] - sub[:, :1])
    assert sub.shape == (8, 4, 3)
    np.testing.assert_allclose(det, 0.125, rtol=1e-15)


def test_affine_map_roundtrip_and_volume():
    rng = np.random.default_rng(2)
    for _ in range(10):
        verts = rng.standard_normal((4, 3))
        B = (verts[1:] - verts[0]).T
        if np.linalg.det(B) < 0:
            verts[[2, 3]] = verts[[3, 2]]
        amap = AffineMap.from_vertices(verts)
        pts = random_ref_points(rng, 100)
        back = amap.to_reference(amap.to_physical(pts))
        assert np.max(np.abs(back - pts)) <= 1e-12
        assert amap.detB / 6 == pytest.approx(abs(np.linalg.det(B)) / 6)


def test_affine_map_rejects_degenerate():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        AffineMap.from_vertices(verts)
    # a stack names its first bad tet
    stack = np.array([REF_VERTICES, REF_VERTICES, verts, REF_VERTICES[[1, 0, 2, 3]]])
    with pytest.raises(ValueError, match="tetrahedron 2 is degenerate"):
        AffineMap.from_vertices(stack)


@given(well_shaped_tets(), st.integers(0, 2**32 - 1))
def test_stacked_affine_map_round_trips(verts, seed):
    """The stacked map holds the single-tet maps and maps reference points
    of every tet there and back."""
    amap = AffineMap.from_vertices(verts)
    pts = random_ref_points(np.random.default_rng(seed), 7)
    phys = amap.to_physical(pts)
    assert phys.shape == (len(verts), 7, 3)
    back = amap.to_reference(phys)
    np.testing.assert_allclose(back, np.broadcast_to(pts, back.shape), rtol=0, atol=1e-12)
    for t, v in enumerate(verts):
        one = AffineMap.from_vertices(v)
        np.testing.assert_allclose(amap.B[t], one.B, rtol=1e-14, atol=0)
        np.testing.assert_allclose(amap.Binv[t], one.Binv, rtol=1e-13, atol=0)
        assert amap.detB[t] == pytest.approx(one.detB, rel=1e-14)
        np.testing.assert_allclose(phys[t], one.to_physical(pts),
                                   rtol=1e-14, atol=1e-14)


@given(well_shaped_tets())
def test_closed_form_map_matches_lapack(verts):
    """The adjugate over the triple product gives LAPACK's inverse and
    determinant up to rounding (measured: 3e-16 and 2e-15 on 4,096 tets)."""
    amap = AffineMap.from_vertices(verts)
    B = np.swapaxes(verts[:, 1:] - verts[:, :1], -1, -2)
    inv = np.linalg.inv(B)
    scale = np.max(np.abs(inv), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(amap.Binv - inv) <= 1e-13 * scale)
    np.testing.assert_allclose(amap.detB, np.linalg.det(B), rtol=1e-14, atol=0)


def test_closed_form_map_inverts_a_sliver():
    """A tet of height 1e-8 over its base (cond B ≈ 1.3e8) still gives
    B B⁻¹ = I to the eps·cond(B) of a backward-stable inverse, and
    B⁻¹ B = I to rounding, as LAPACK does (both measured 2e-9 and 2e-17)."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.0, 0.0],
                      [0.4, 0.2, 1e-8]])
    amap = AffineMap.from_vertices(verts)
    assert amap.detB == pytest.approx(1e-8, rel=1e-12)
    cond = np.linalg.cond(amap.B)
    eps = np.finfo(float).eps
    assert np.max(np.abs(amap.B @ amap.Binv - np.eye(3))) <= 10 * eps * cond
    assert np.max(np.abs(amap.Binv @ amap.B - np.eye(3))) <= 1e-15


def test_affine_map_rejects_nan_vertices():
    """A NaN vertex makes det B NaN, which the check rejects."""
    stack = np.array([REF_VERTICES, REF_VERTICES])
    stack[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="tetrahedron 1 is degenerate"):
        AffineMap.from_vertices(stack)


def _closed_form_basis(k, lam):
    """The explicit degree-2 and degree-3 Lagrange functions and their
    derivatives in the four barycentric coordinates, in the frozen order:
    values (n, n_k) and d/dlam (n, n_k, 4)."""
    vals, dlam = [], []

    def add(value, partials):
        d = np.zeros((len(lam), 4))
        for i, v in partials.items():
            d[:, i] = v
        vals.append(value)
        dlam.append(d)

    for i in range(4):
        l = lam[:, i]
        if k == 2:
            add(l * (2 * l - 1), {i: 4 * l - 1})
        else:
            add(0.5 * l * (3 * l - 1) * (3 * l - 2), {i: 13.5 * l * l - 9 * l + 1})
    for a, b in EDGES:
        la, lb = lam[:, a], lam[:, b]
        if k == 2:
            add(4 * la * lb, {a: 4 * lb, b: 4 * la})
        else:
            add(4.5 * la * lb * (3 * la - 1),
                {a: 4.5 * lb * (6 * la - 1), b: 4.5 * la * (3 * la - 1)})
            add(4.5 * la * lb * (3 * lb - 1),
                {a: 4.5 * lb * (3 * lb - 1), b: 4.5 * la * (6 * lb - 1)})
    if k == 3:
        for a, b, c in FACES:
            la, lb, lc = lam[:, a], lam[:, b], lam[:, c]
            add(27 * la * lb * lc, {a: 27 * lb * lc, b: 27 * la * lc, c: 27 * la * lb})
    return np.stack(vals, axis=1), np.stack(dlam, axis=1)


def _closed_form_nodes(k):
    v = REF_VERTICES
    nodes = list(v)
    for a, b in EDGES:
        if k == 2:
            nodes.append((v[a] + v[b]) / 2)
        else:
            nodes += [(2 * v[a] + v[b]) / 3, (v[a] + 2 * v[b]) / 3]
    if k == 3:
        nodes += [v[list(f)].mean(axis=0) for f in FACES]
    return np.array(nodes)


@pytest.mark.parametrize("k", [2, 3])
def test_shape_functions_match_closed_forms(k):
    """The multi-index formula reproduces the explicit k=2, 3 formulas
    (lam(2 lam - 1), 4 la lb, 4.5 la lb (3 la - 1), 27 la lb lc, ...)."""
    pts = random_ref_points(np.random.default_rng(4), 200)
    vals, dlam = _closed_form_basis(k, barycentric(pts))
    # d lam / d(x, y, z): lam0 = 1 - x - y - z, lam_i = x_i
    grads = dlam @ np.vstack([-np.ones(3), np.eye(3)])
    assert np.max(np.abs(shape_values(k, pts) - vals)) <= 1e-13
    assert np.max(np.abs(shape_gradients(k, pts) - grads)) <= 1e-13
    assert np.max(np.abs(reference_nodes(k) - _closed_form_nodes(k))) <= 1e-13
    assert len(reference_nodes(k)) == len(_closed_form_nodes(k))


def test_gradient_chain_rule_on_mapped_element():
    rng = np.random.default_rng(3)
    verts = np.array(
        [[0.1, 0.2, 0.0], [1.1, 0.3, 0.1], [0.2, 1.4, 0.2], [0.3, 0.1, 1.2]]
    )
    amap = AffineMap.from_vertices(verts)
    pts = random_ref_points(rng, 20)
    grads = shape_gradients(2, pts) @ amap.Binv  # physical gradients
    eps = 1e-6
    phys = amap.to_physical(pts)
    for d in range(3):
        step = np.zeros(3)
        step[d] = eps
        fd = (
            shape_values(2, amap.to_reference(phys + step))
            - shape_values(2, amap.to_reference(phys - step))
        ) / (2 * eps)
        assert np.max(np.abs(fd - grads[:, :, d])) <= 1e-6
