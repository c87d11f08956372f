import numpy as np
import pytest

from shiftfem.elements import AffineMap, EDGES, FACES, shape_values
from shiftfem.meshgen import (
    classify_boundary,
    generate_box_tet_mesh,
    generate_octant_mesh,
)
from shiftfem.assembly import element_phi_coefficients
from shiftfem.nonconforming import (
    _apply_reference_dofs,
    _shifted_edge_points,
    build_nc_modified_basis,
    nc_assemble,
    nc_dofmap,
    nc_edge_functional,
    nc_reference_matrix,
)
from shiftfem.linsolve import solve
from shiftfem.surfaces import Ellipsoid, Sphere

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))


def _zero(p):
    return 0.0


def test_edge_functional_values():
    assert nc_edge_functional(1.0, 1.0, 1.0) == pytest.approx(1.0)
    # v = x on the unit edge [0,1]
    assert nc_edge_functional(0.0, 0.5, 1.0) == pytest.approx(0.5)
    # v = x^2
    assert nc_edge_functional(0.0, 0.25, 1.0) == pytest.approx(0.4)


def test_reference_basis_delta_property():
    R = nc_reference_matrix()

    def basis_vals(p):
        return shape_values(2, p)[0] @ R

    D = np.stack(
        [
            _apply_reference_dofs(lambda p, j=j: basis_vals(p)[j])
            for j in range(10)
        ],
        axis=1,
    )
    assert np.max(np.abs(D - np.eye(10))) <= 1e-12


def test_reference_basis_constants():
    R = nc_reference_matrix()
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(4), size=50)[:, 1:]
    vals = shape_values(2, pts) @ R
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-12


def test_p2_interpolation_via_dofs():
    rng = np.random.default_rng(1)
    R = nc_reference_matrix()
    coefs = rng.standard_normal(10)

    def p2(p):
        x, y, z = np.atleast_2d(p)[0]
        return float(
            np.dot(coefs, [1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])
        )

    dofs = _apply_reference_dofs(p2)
    a = R @ dofs
    pts = rng.dirichlet(np.ones(4), size=30)[:, 1:]
    vals = shape_values(2, pts) @ a
    exact = np.array([p2(p) for p in pts])
    assert np.max(np.abs(vals - exact)) <= 1e-10


def test_dof_census():
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    dofmap = nc_dofmap(mesh, cls)
    n_free_faces = len(mesh.faces()) - len(cls.gamma_faces)
    n_free_edges = len(mesh.edges()) - len(cls.gamma_edges)
    assert dofmap.n_eq == n_free_faces + n_free_edges


def test_cube_domain_gives_symmetric_system():
    mesh = generate_box_tet_mesh(2, 2, 2)
    far = Sphere(np.zeros(3), 10.0)
    cls = classify_boundary(mesh, far)
    system = nc_assemble(mesh, cls, far, 2, lambda p: 1.0, _zero)
    assert system.symmetric
    diff = (system.A - system.A.T).tocoo()
    scale = np.max(np.abs(system.A.data))
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) <= 1e-12 * scale


def test_patch_test_functional_jumps_vanish():
    """DOF functionals of the interpolant of a global quadratic agree from
    both sides of every interior face."""
    rng = np.random.default_rng(2)
    mesh = generate_octant_mesh(2)
    R = nc_reference_matrix()
    coefs = rng.standard_normal(10)

    def quadratic(p):
        x, y, z = p
        return float(
            np.dot(coefs, [1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])
        )

    mu_records, nu_records = {}, {}
    for t in range(mesh.n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        dofs = _apply_reference_dofs(
            lambda rp: quadratic(amap.to_physical(rp)[0])
        )
        a = R @ dofs

        def trace(phys):
            return float(shape_values(2, amap.to_reference(phys))[0] @ a)

        tet = mesh.tets[t]
        for f in FACES:
            tri = tuple(sorted(int(tet[i]) for i in f))
            centroid = mesh.vertices[list(tri)].mean(axis=0)
            mu_records.setdefault(tri, []).append(trace(centroid))
        for a_, b_ in EDGES:
            key = tuple(sorted((int(tet[a_]), int(tet[b_]))))
            pa, pb = mesh.vertices[key[0]], mesh.vertices[key[1]]
            nu = nc_edge_functional(
                trace(pa), trace(0.5 * (pa + pb)), trace(pb)
            )
            nu_records.setdefault(key, []).append(nu)
    for rec in (mu_records, nu_records):
        for values in rec.values():
            assert np.max(np.abs(np.array(values) - values[0])) <= 1e-11


def test_shifted_dof_matrix_perturbation_rate():
    devs = {}
    for J in (4, 8):
        mesh = generate_octant_mesh(J)
        cls = classify_boundary(mesh, SPHERE)
        shifts = _shifted_edge_points(mesh, cls, SPHERE)
        devs[J] = max(
            build_nc_modified_basis(mesh, cls, SPHERE, t, shifts)
            .deviation_from_identity
            for t in cls.o_tets
        )
    assert 1.6 <= devs[4] / devs[8] <= 2.4


def test_quadratic_consistency():
    a, b = 0.6, 0.8
    const_f = 2.0 * (a**-2 + b**-2 + 1.0)

    def u(p):
        return 1.0 - ((p[0] / a) ** 2 + (p[1] / b) ** 2 + p[2] ** 2)

    mesh = generate_octant_mesh(3, (a, b, 1.0))
    cls = classify_boundary(mesh, ELLIPSOID)
    system = nc_assemble(mesh, cls, ELLIPSOID, 2, lambda p: const_f, _zero)
    rep = solve(system)
    coeffs = element_phi_coefficients(system, rep.x)
    # compare against the exact solution at random points per element
    rng = np.random.default_rng(3)
    for t in range(mesh.n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        pts = rng.dirichlet(np.ones(4), size=5)[:, 1:]
        uh = shape_values(2, pts) @ coeffs[t]
        exact = np.array([u(p) for p in amap.to_physical(pts)])
        assert np.max(np.abs(uh - exact)) <= 1e-9


def test_violation_rejected():
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    cls.violations.append("synthetic violation")
    with pytest.raises(ValueError, match="one-face-or-one-edge"):
        nc_assemble(mesh, cls, SPHERE, 2, lambda p: 1.0, _zero)


def test_inhomogeneous_data_rejected():
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    with pytest.raises(ValueError, match="homogeneous"):
        nc_assemble(mesh, cls, SPHERE, 2, lambda p: 1.0, lambda p: 1.0)


def test_nc_mesh_too_coarse_raises():
    """A shifted edge point far off the element trips the same
    conditioning guard as the Lagrange basis, naming the condition."""
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    shifts = _shifted_edge_points(mesh, cls, SPHERE)
    t = cls.r_tets[0] if cls.r_tets else cls.s_tets[0]
    tet = [int(v) for v in mesh.tets[t]]
    key = next(e for e in sorted(cls.gamma_edges) if set(e) <= set(tet))
    shifts[key] = shifts[key] * 1e5
    with pytest.raises(ValueError, match=r"too coarse .*condition"):
        build_nc_modified_basis(mesh, cls, SPHERE, t, shifts)
