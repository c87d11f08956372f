import numpy as np
import pytest

from meshes import generate_box_tet_mesh, traced_peak
from shiftfem.cases import get_case
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import AffineMap, EDGES, FACES, shape_values
from shiftfem.meshgen import classify_boundary, generate_octant_mesh
from shiftfem.assembly import element_phi_coefficients
from shiftfem.nonconforming import (
    _REF_BARY,
    _WEIGHTS,
    _shifted_edge_points,
    _shifted_face_points,
    build_nc_modified_basis,
    nc_assemble,
    nc_edge_functional,
    nc_layout,
    nc_reference_matrix,
)
from shiftfem.linsolve import solve
from shiftfem import nonconforming
from shiftfem.surfaces import Ellipsoid, Sphere
from shiftfem.trialspace import build_shifted_node_table

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))


def _zero(p):
    return 0.0


def _apply_reference_dofs(values_at):
    """The 10 DOFs of the function `values_at(point)` on the reference
    tet, from the element's reference points and weights."""
    return _WEIGHTS @ np.array([values_at(p) for p in _REF_BARY[:, 1:]])


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
    gamma_mask = nc_layout(mesh).gamma_mask(cls)
    n_free_faces = mesh.topology.n_faces - len(cls.gamma_faces)
    n_free_edges = mesh.topology.n_edges - len(cls.gamma_edges)
    assert np.count_nonzero(~gamma_mask) == n_free_faces + n_free_edges


def test_dof_table_is_edges_then_faces():
    """The edge DOFs are 0..n_edges-1 and the face DOFs follow them, in
    entity id order; each tet's row is its edge ids, then its n_edges +
    face ids, in the element's local order; the mask marks exactly the
    Gamma_h edges and faces."""
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    top = mesh.topology
    layout = nc_layout(mesh)
    np.testing.assert_array_equal(layout.ids(1, np.arange(top.n_edges)),
                                  np.arange(top.n_edges)[:, None])
    np.testing.assert_array_equal(layout.ids(2, np.arange(top.n_faces)),
                                  top.n_edges + np.arange(top.n_faces)[:, None])
    np.testing.assert_array_equal(
        layout.cells(), np.hstack([top.tet_edges, top.n_edges + top.tet_faces]))
    np.testing.assert_array_equal(layout.gamma_mask(cls), np.concatenate([
        np.isin(np.arange(top.n_edges), cls.gamma_edges),
        np.isin(np.arange(top.n_faces), cls.gamma_faces)]))


def test_cube_domain_gives_symmetric_system():
    mesh = generate_box_tet_mesh(2, 2, 2)
    far = Sphere(np.zeros(3), 10.0)
    cls = classify_boundary(mesh, far)
    system = nc_assemble(mesh, cls, far, 2, lambda p: 1.0, _zero)
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


def _p2_table_edge_points(mesh, cls, surface):
    """The oracle of `_shifted_edge_points`: the k=2 Lagrange edge nodes
    of the whole P2 shift table, read one per edge."""
    nodes = build_lagrange_nodes(mesh, 2)
    points = build_shifted_node_table(mesh, cls, surface, nodes).points
    return points[nodes.layout.ids(1, np.arange(mesh.topology.n_edges))[:, 0]]


@pytest.mark.parametrize("name, param", [
    ("tp1-sphere", 4), ("tp1-sphere", 8), ("tp1-sphere", 16),
    ("tp2-ellipsoid", 4), ("tp3-torus", 4)])
def test_shifted_edge_points_are_the_p2_edge_nodes(name, param):
    """Q_e is where the Gamma_h edge rule moves the k=2 Lagrange edge
    node, bit for bit, and every other edge keeps its midpoint; on the
    torus the line roots come from a quartic's companion matrix."""
    case = get_case(name)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    got = _shifted_edge_points(mesh, cls, case.surface)
    want = _p2_table_edge_points(mesh, cls, case.surface)
    assert got.tobytes() == want.tobytes()
    assert got.shape == (mesh.topology.n_edges, 3)


def test_shifted_edge_points_peak_is_bounded():
    """On tp1 J=16 (5,576 edges, 408 on Gamma_h) the shifted edge points
    peak at most 1 MB, as tracemalloc counts it: 0.51 MB measured, 1.67 MB
    while a whole P2 node set and its shift table were built for them."""
    mesh = generate_octant_mesh(16)
    cls = classify_boundary(mesh, SPHERE)
    points, peak = traced_peak(_shifted_edge_points, mesh, cls, SPHERE)
    assert points.shape == (mesh.topology.n_edges, 3)
    assert peak <= 2**20, peak


@pytest.mark.parametrize("name, param", [("tp1-sphere", 8), ("tp3-torus", 4)])
def test_unshifted_points_pull_back_to_the_reference_points(name, param,
                                                            monkeypatch):
    """With every point unshifted, each point that the builder hands
    `shifted_dof_matrices` pulls back, through its tet's affine map, to
    the `_REF_BARY` row its weights read: the edge ends in the tet's local
    edge order, not in the mesh's sorted one."""
    case = get_case(name)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    top = mesh.topology
    handed = {}

    def capture(mesh, tets, points, *args):
        handed["points"] = points

    monkeypatch.setattr(nonconforming, "shifted_dof_matrices", capture)
    tets = np.arange(mesh.n_tets)
    build_nc_modified_basis(mesh, cls, tets,
                            mesh.vertices[top.edge_vertices].mean(axis=1),
                            mesh.vertices[top.face_vertices].mean(axis=1))
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets], tets)
    ref = amap.to_reference(handed["points"])
    assert ref.shape == (mesh.n_tets, len(_REF_BARY), 3)
    wrong = np.abs(ref - _REF_BARY[:, 1:]).max(axis=(1, 2)) > 1e-12
    assert np.count_nonzero(wrong) == 0


def test_nc_modified_basis_peak_is_bounded():
    """On tp1 J=16 (496 o_tets) the batched modified basis peaks at most
    3.2 MB, as tracemalloc counts it: 2.65 MB measured over 14 distinct
    points per tet, 3.79 MB over 22 that repeated every vertex."""
    mesh = generate_octant_mesh(16)
    cls = classify_boundary(mesh, SPHERE)
    edge_shifts = _shifted_edge_points(mesh, cls, SPHERE)
    face_shifts = _shifted_face_points(mesh, cls, SPHERE)
    basis, peak = traced_peak(build_nc_modified_basis, mesh, cls, cls.o_tets,
                              edge_shifts, face_shifts)
    assert basis.C.shape == (cls.o_tets.size, 10, 10)
    assert peak <= 3.2e6, peak


def test_shifted_dof_matrix_perturbation_rate():
    devs = {}
    for J in (4, 8):
        mesh = generate_octant_mesh(J)
        cls = classify_boundary(mesh, SPHERE)
        shifts = _shifted_edge_points(mesh, cls, SPHERE)
        face_shifts = _shifted_face_points(mesh, cls, SPHERE)
        devs[J] = max(
            build_nc_modified_basis(mesh, cls, t, shifts, face_shifts)
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


def test_scalar_dirichlet_data():
    """g = 1 returned as a scalar, with f = 0: every Gamma_h DOF carries
    its functional of g, 1, and u = 1 makes every free DOF 1."""
    mesh = generate_octant_mesh(4)
    cls = classify_boundary(mesh, SPHERE)
    system = nc_assemble(mesh, cls, SPHERE, 2, lambda p: 0.0, lambda p: 1.0)
    np.testing.assert_array_equal(system.dirichlet[system.gamma_mask], 1.0)
    np.testing.assert_allclose(solve(system).x, 1.0, rtol=0.0, atol=1e-12)


def test_nc_mesh_too_coarse_raises():
    """A shifted edge point far off the element trips the same
    conditioning guard as the Lagrange basis, naming the condition."""
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    shifts = _shifted_edge_points(mesh, cls, SPHERE)
    t = cls.r_tets[0] if cls.r_tets.size else cls.s_tets[0]
    key = next(e for e in mesh.topology.tet_edges[t] if e in cls.gamma_edges)
    shifts[key] = shifts[key] * 1e5
    with pytest.raises(ValueError, match=r"too coarse .*condition"):
        build_nc_modified_basis(mesh, cls, t, shifts,
                                _shifted_face_points(mesh, cls, SPHERE))
    # the batched call names the first failing tet of the stack
    first = next(u for u in cls.o_tets if key in mesh.topology.tet_edges[u])
    with pytest.raises(ValueError, match="on tet %d" % first):
        build_nc_modified_basis(mesh, cls, cls.o_tets, shifts,
                                _shifted_face_points(mesh, cls, SPHERE))
