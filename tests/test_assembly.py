import numpy as np
import pytest
import sympy as sp

from shiftfem.assembly import (
    assemble_new_method,
    assemble_polyhedral,
    element_load,
    element_stiffness,
    element_phi_coefficients,
    write_matrix_market,
)
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import AffineMap, REF_VERTICES, tet_quadrature
from shiftfem.linsolve import solve
from shiftfem.meshgen import (
    classify_boundary,
    generate_box_tet_mesh,
    generate_octant_mesh,
)
from shiftfem.nonconforming import (
    _shifted_edge_points,
    build_nc_modified_basis,
    nc_assemble,
    nc_reference_matrix,
)
from shiftfem.surfaces import Ellipsoid, Sphere
from shiftfem.trialspace import build_modified_basis, build_shifted_node_table

ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))
SPHERE = Sphere(np.zeros(3), 1.0)


def test_single_tet_stiffness_kernel():
    amap = AffineMap.from_vertices(REF_VERTICES)
    quad = tet_quadrature(5)
    S = element_stiffness(amap, 2, quad)
    assert S.shape == (10, 10)
    np.testing.assert_allclose(S @ np.ones(10), 0.0, atol=1e-14)
    np.testing.assert_allclose(S, S.T, atol=1e-14)
    w, _ = np.linalg.eigh(S)
    assert abs(w[0]) <= 1e-13  # constants in the kernel
    assert w[1] > 1e-3  # and only constants


def test_stiffness_against_symbolic_oracle():
    """Exact symbolic integration of grad(phi_i).grad(phi_j) on the
    reference tet for a sample of entries."""
    x, y, z = sp.symbols("x y z")
    lam = [1 - x - y - z, x, y, z]
    phis = [l * (2 * l - 1) for l in lam]
    from shiftfem.elements import EDGES

    phis += [4 * lam[a] * lam[b] for a, b in EDGES]

    amap = AffineMap.from_vertices(REF_VERTICES)
    S = element_stiffness(amap, 2, tet_quadrature(5))

    def exact_entry(i, j):
        integrand = sum(
            sp.diff(phis[i], v) * sp.diff(phis[j], v) for v in (x, y, z)
        )
        return float(
            sp.integrate(
                sp.integrate(
                    sp.integrate(integrand, (z, 0, 1 - x - y)), (y, 0, 1 - x)
                ),
                (x, 0, 1),
            )
        )

    for i, j in [(0, 0), (0, 4), (4, 4), (4, 5), (9, 9), (1, 7), (3, 6)]:
        assert abs(S[i, j] - exact_entry(i, j)) <= 1e-13


def test_load_constant_sums_to_volume():
    verts = np.array(
        [[0.0, 0, 0], [0.5, 0, 0], [0, 0.7, 0], [0, 0, 0.9]]
    )
    amap = AffineMap.from_vertices(verts)
    quad = tet_quadrature(5)
    for k in (2, 3):
        b = element_load(amap, k, quad, lambda p: 1.0)
        assert float(b.sum()) == pytest.approx(amap.volume, rel=1e-13)


def test_dofmap_census():
    """System dimension = #Lagrangian nodes - #Gamma_h nodes, checked by a
    brute-force census of node positions."""
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    for degree in (2, 3):
        nodes = build_lagrange_nodes(mesh, degree)
        system = assemble_new_method(
            mesh, cls, SPHERE, degree, lambda p: 1.0, lambda p: 0.0
        )
        on_gamma = 0
        for n in range(nodes.n_nodes):
            kind, key = nodes.entity_kind[n], nodes.entity_key[n]
            if kind == "vertex":
                on_gamma += key in cls.gamma_vertices
            elif kind == "edge":
                on_gamma += key in cls.gamma_edges
            else:
                on_gamma += key in cls.gamma_faces
        assert system.dofmap.n_eq == nodes.n_nodes - on_gamma
        assert system.A.shape == (system.dofmap.n_eq, system.dofmap.n_eq)


def test_methods_coincide_without_curved_boundary():
    """On a box mesh no face lies on the surface, so the shifted method
    reduces to the plain Galerkin assembly."""
    mesh = generate_box_tet_mesh(2, 2, 2)
    far_surface = Sphere(np.zeros(3), 10.0)
    cls = classify_boundary(mesh, far_surface)
    assert not cls.gamma_faces

    def f(p):
        return 1.0 + p[0]

    g = lambda p: 0.0
    sys_new = assemble_new_method(mesh, cls, far_surface, 2, f, g)
    sys_poly = assemble_polyhedral(mesh, cls, far_surface, 2, f, g)
    assert (sys_new.A - sys_poly.A).nnz == 0 or np.max(
        np.abs((sys_new.A - sys_poly.A).data)
    ) == 0.0
    np.testing.assert_array_equal(sys_new.b, sys_poly.b)


def test_baseline_system_is_symmetric():
    mesh = generate_octant_mesh(3, (0.6, 0.8, 1.0))
    cls = classify_boundary(mesh, ELLIPSOID)
    system = assemble_polyhedral(
        mesh, cls, ELLIPSOID, 2, lambda p: 1.0, lambda p: 0.0
    )
    assert system.symmetric
    diff = (system.A - system.A.T).tocoo()
    scale = np.max(np.abs(system.A.data))
    assert (diff.nnz == 0) or np.max(np.abs(diff.data)) <= 1e-12 * scale


def test_new_method_system_is_not_symmetric():
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    system = assemble_new_method(
        mesh, cls, SPHERE, 2, lambda p: 1.0, lambda p: 0.0
    )
    assert not system.symmetric
    diff = (system.A - system.A.T).tocoo()
    assert np.max(np.abs(diff.data)) > 1e-8


def test_quadratic_solution_reproduced_at_nodes():
    """With the constant source of the quadratic ellipsoid case the new
    method returns the exact nodal values of 1 - p."""
    a, b = 0.6, 0.8
    const_f = 2.0 * (a**-2 + b**-2 + 1.0)

    def u(p):
        return 1.0 - ((p[0] / a) ** 2 + (p[1] / b) ** 2 + p[2] ** 2)

    mesh = generate_octant_mesh(2, (a, b, 1.0))
    cls = classify_boundary(mesh, ELLIPSOID)
    system = assemble_new_method(
        mesh, cls, ELLIPSOID, 2, lambda p: const_f, lambda p: 0.0
    )
    rep = solve(system)
    nodes = build_lagrange_nodes(mesh, 2)
    for n in range(nodes.n_nodes):
        e = system.dofmap.eq[n]
        if e >= 0:
            assert abs(rep.x[e] - u(nodes.coords[n])) <= 1e-10


def test_dirichlet_rhs_zero_for_homogeneous_data():
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    sys0 = assemble_polyhedral(
        mesh, cls, SPHERE, 2, lambda p: 0.0, lambda p: 0.0
    )
    np.testing.assert_array_equal(sys0.b, np.zeros(sys0.dofmap.n_eq))


def test_assembly_is_deterministic():
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)

    def build():
        return assemble_new_method(
            mesh, cls, SPHERE, 2, lambda p: float(np.sin(p[0])), lambda p: 0.0
        )

    s1, s2 = build(), build()
    assert s1.A.data.tobytes() == s2.A.data.tobytes()
    assert s1.A.indices.tobytes() == s2.A.indices.tobytes()
    assert s1.b.tobytes() == s2.b.tobytes()


def test_matrix_market_dump(tmp_path):
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    system = assemble_polyhedral(
        mesh, cls, SPHERE, 2, lambda p: 1.0, lambda p: 0.0
    )
    out = tmp_path / "system.mtx"
    write_matrix_market(system, out)
    text = out.read_text()
    assert text.startswith("%%MatrixMarket")


@pytest.mark.parametrize(
    "method,degree",
    [("new", 2), ("new", 3), ("polyhedral", 2), ("nonconforming", 2)],
)
def test_pipeline_matches_dense_reference_assembly(method, degree):
    """A and b of every method equal a dense assembly over all DOFs that
    forms T_test^T S T_trial with the explicit products (T_test = I or R,
    T_trial = T_test or T_test C) and then lifts the Dirichlet values."""
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    quad = tet_quadrature(5)

    def f(p):
        return 1.0 + p[0] * p[1]

    def g(p):
        return 1.0 + p[2]

    if method == "nonconforming":
        system = nc_assemble(mesh, cls, SPHERE, 2, f, lambda p: 0.0)
        shifts = _shifted_edge_points(mesh, cls, SPHERE)
        C = {t: build_nc_modified_basis(mesh, cls, SPHERE, t, shifts).C
             for t in cls.o_tets}
        T = nc_reference_matrix()
        g_dofs = np.zeros(system.dofmap.n_dofs)
    else:
        nodes = build_lagrange_nodes(mesh, degree)
        table = build_shifted_node_table(mesh, cls, SPHERE, nodes)
        T = np.eye(nodes.cell_nodes_table.shape[1])
        g_dofs = np.zeros(nodes.n_nodes)
        if method == "new":
            system = assemble_new_method(mesh, cls, SPHERE, degree, f, g)
            C = {t: build_modified_basis(mesh, nodes, table, t).C
                 for t in cls.o_tets}
            for n in np.nonzero(table.gamma_mask)[0]:
                g_dofs[n] = g(table.shifted_point(int(n)))
        else:
            system = assemble_polyhedral(mesh, cls, SPHERE, degree, f, g)
            C = {}
            for n in np.nonzero(table.gamma_mask)[0]:
                g_dofs[n] = g(SPHERE.closest_point(nodes.coords[n]))

    dofmap = system.dofmap
    K = np.zeros((dofmap.n_dofs, dofmap.n_dofs))
    F = np.zeros(dofmap.n_dofs)
    for t in range(mesh.n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        trial = T @ C[t] if t in C else T
        cell = dofmap.cells[t]
        K[np.ix_(cell, cell)] += T.T @ element_stiffness(amap, degree, quad) @ trial
        F[cell] += T.T @ element_load(amap, degree, quad, f)
    free, gamma = ~dofmap.gamma_mask, dofmap.gamma_mask
    A_ref = K[np.ix_(free, free)]
    b_ref = F[free] - K[np.ix_(free, gamma)] @ g_dofs[gamma]

    A = system.A.toarray()
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(system.b - b_ref)) <= 1e-12 * np.max(np.abs(b_ref))
