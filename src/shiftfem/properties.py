"""Built-in property suite, runnable via `shiftfem check` (or pytest).

Fast self-contained checks of the numerical kernels: quadrature
exactness, shape-function identities, modified-basis polynomial
reproduction, gradients against finite differences, mesh validity, and
the nonconforming patch test.
"""
from __future__ import annotations

import math

import numpy as np

from .dofs import build_lagrange_nodes
from .elements import (
    AffineMap,
    reference_nodes,
    shape_gradients,
    shape_values,
    tet_quadrature,
)
from .meshgen import (
    classify_boundary,
    generate_octant_mesh,
    generate_torus_sector_mesh,
)
from .nonconforming import _apply_reference_dofs, nc_reference_matrix
from .surfaces import Ellipsoid, Sphere, Torus
from .trialspace import build_modified_basis, build_shifted_node_table


def _random_ref_points(rng, n):
    """Uniform points in the reference tet by rejection."""
    pts = []
    while len(pts) < n:
        p = rng.random(3)
        if p.sum() <= 1.0:
            pts.append(p)
    return np.array(pts)


def exact_monomial_integral(a, b, c):
    """Integral of x^a y^b z^c over the reference tet (factorial formula)."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def test_quadrature_exactness_degree5():
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
                exact = exact_monomial_integral(a, b, c)
                assert abs(num - exact) <= 1e-13 * max(1.0, abs(exact)), (
                    a, b, c, num, exact,
                )


def test_quadrature_exactness_degree2():
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
                exact = exact_monomial_integral(a, b, c)
                assert abs(num - exact) <= 1e-14


def test_shape_delta_and_partition_of_unity():
    rng = np.random.default_rng(7)
    for k in (2, 3):
        nodes = reference_nodes(k)
        V = shape_values(k, nodes)
        assert np.max(np.abs(V - np.eye(len(nodes)))) <= 1e-12
        pts = _random_ref_points(rng, 50)
        assert np.max(np.abs(shape_values(k, pts).sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(shape_gradients(k, pts).sum(axis=1))) <= 1e-12


def test_shape_gradients_vs_finite_differences():
    rng = np.random.default_rng(11)
    eps = 1e-6
    for k in (2, 3):
        pts = _random_ref_points(rng, 100)
        grads = shape_gradients(k, pts)
        for d in range(3):
            step = np.zeros(3)
            step[d] = eps
            fd = (shape_values(k, pts + step) - shape_values(k, pts - step)) / (
                2 * eps
            )
            assert np.max(np.abs(fd - grads[:, :, d])) <= 1e-6


def test_modified_basis_reproduces_polynomials():
    rng = np.random.default_rng(3)
    for k, J in ((2, 3), (3, 3)):
        mesh = generate_octant_mesh(J, (1.0, 1.0, 1.0))
        surf = Sphere(np.zeros(3), 1.0)
        cls = classify_boundary(mesh, surf)
        nodes = build_lagrange_nodes(mesh, k)
        table = build_shifted_node_table(mesh, cls, surf, nodes)

        # random polynomial of degree k
        coefs = rng.standard_normal(10 if k == 2 else 20)

        def poly(p):
            x, y, z = p
            terms = [1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z]
            if k == 3:
                terms += [x**3, y**3, z**3, x * x * y, x * x * z, y * y * x,
                          y * y * z, z * z * x, z * z * y, x * y * z]
            return float(np.dot(coefs, terms))

        basis = build_modified_basis(mesh, nodes, table, cls.o_tets[:6])
        for t, C in zip(basis.tets, basis.C):
            cell = nodes.cell_nodes(t)
            vals = np.array([poly(p) for p in table.points[cell]])
            a = C @ vals  # Lagrange coefficients of the interpolant
            amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
            pts = amap.to_physical(_random_ref_points(rng, 20))
            interp = shape_values(k, amap.to_reference(pts)) @ a
            exact = np.array([poly(p) for p in pts])
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(interp - exact)) <= 1e-9 * scale


def test_modified_basis_delta_and_partition_of_unity():
    surf = Sphere(np.zeros(3), 1.0)
    mesh = generate_octant_mesh(3, (1.0, 1.0, 1.0))
    cls = classify_boundary(mesh, surf)
    nodes = build_lagrange_nodes(mesh, 2)
    table = build_shifted_node_table(mesh, cls, surf, nodes)
    quad = tet_quadrature(5)
    basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
    for t, C in zip(basis.tets, basis.C):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        cell = nodes.cell_nodes(t)
        # delta property at the shifted nodes
        refs = amap.to_reference(table.points[cell])
        psi = shape_values(2, refs) @ C
        assert np.max(np.abs(psi - np.eye(len(cell)))) <= 1e-10
        # partition of unity at quadrature points
        pou = shape_values(2, quad.points) @ C @ np.ones(len(cell))
        assert np.max(np.abs(pou - 1.0)) <= 1e-10


def test_mesh_validity():
    surf_sphere = Sphere(np.zeros(3), 1.0)
    surf_ell = Ellipsoid(np.array([0.6, 0.8, 1.0]))
    surf_torus = Torus(5.0 / 6.0, 1.0 / 6.0)
    setups = [
        (generate_octant_mesh(4, (1.0, 1.0, 1.0)), surf_sphere, 64),
        (generate_octant_mesh(4, (0.6, 0.8, 1.0)), surf_ell, 64),
        (generate_torus_sector_mesh(2, 5.0 / 6.0, 1.0 / 6.0), surf_torus, 48),
    ]
    for mesh, surf, n_expect in setups:
        assert mesh.n_tets == n_expect
        assert np.min(mesh.tet_volumes()) > 0.0
        cls = classify_boundary(mesh, surf)
        assert not cls.violations
        for v in cls.gamma_vertices:
            assert abs(surf.value(mesh.vertices[v])) <= 1e-12 * surf.scale


def test_nc_patch_test_functional_jumps():
    """For a global quadratic, the face/edge functionals computed from the
    two sides of every interior face agree exactly (single-valued DOFs
    evaluated from the same global function)."""
    rng = np.random.default_rng(23)
    mesh = generate_octant_mesh(2, (1.0, 1.0, 1.0))
    R = nc_reference_matrix()
    coefs = rng.standard_normal(10)

    def quadratic(p):
        x, y, z = p
        return float(
            np.dot(coefs, [1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])
        )

    # interpolate the quadratic on each element via its 10 DOFs and check
    # that adjacent elements produce the same trace functionals
    face_records = {}
    for t in range(mesh.n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])

        def val(ref_p):
            return quadratic(amap.to_physical(ref_p)[0])

        dofs = _apply_reference_dofs(val)
        a = R @ dofs  # Lagrange coefficients of the interpolant
        # reconstruct the physical face functionals from the interpolant
        for f in mesh.topology.tet_faces[t]:
            pts = mesh.vertices[mesh.topology.face_vertices[f]]
            centroid = pts.mean(axis=0)
            mu = float(shape_values(2, amap.to_reference(centroid))[0] @ a)
            face_records.setdefault(int(f), []).append(mu)
    for values in face_records.values():
        if len(values) == 2:
            assert abs(values[0] - values[1]) <= 1e-11


def test_nc_reference_basis_delta():
    R = nc_reference_matrix()

    def basis_vals(p):
        return shape_values(2, p)[0] @ R

    D = np.stack(
        [_apply_reference_dofs(lambda p, j=j: basis_vals(p)[j]) for j in range(10)],
        axis=1,
    )
    assert np.max(np.abs(D - np.eye(10))) <= 1e-12
