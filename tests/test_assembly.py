import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sp
from hypothesis import given
from scipy.io import mmread, mmwrite

from meshes import generate_box_tet_mesh
from shiftfem import assembly, nonconforming
from shiftfem.assembly import (
    assemble_new_method,
    assemble_polyhedral,
    element_load,
    element_stiffness,
)
from shiftfem.cases import get_case
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import AffineMap, REF_VERTICES, tet_quadrature
from shiftfem.linsolve import solve
from shiftfem.meshgen import (
    classify_boundary,
    generate_octant_mesh,
)
from shiftfem.nonconforming import (
    _shifted_edge_points,
    _shifted_face_points,
    build_nc_modified_basis,
    nc_assemble,
    nc_reference_matrix,
)
from shiftfem.surfaces import Ellipsoid, Sphere
from shiftfem.trialspace import build_modified_basis, build_shifted_node_table

from test_elements import well_shaped_tets

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
        assert float(b.sum()) == pytest.approx(amap.detB / 6, rel=1e-13)


@given(well_shaped_tets())
def test_batched_kernels_equal_per_tet_calls(verts):
    """The kernels on a stack of tets equal a loop of single-tet calls."""
    quad = tet_quadrature(5)

    def f(p):
        return 1.0 + p[..., 0] * p[..., 1] - np.sin(p[..., 2])

    amap = AffineMap.from_vertices(verts)
    for k in (2, 3):
        S = element_stiffness(amap, k, quad)
        b = element_load(amap, k, quad, f)
        S_ref = np.array([element_stiffness(AffineMap.from_vertices(v), k, quad)
                          for v in verts])
        b_ref = np.array([element_load(AffineMap.from_vertices(v), k, quad, f)
                          for v in verts])
        assert S.shape == S_ref.shape and b.shape == b_ref.shape
        assert np.max(np.abs(S - S_ref)) <= 1e-13 * np.max(np.abs(S_ref))
        assert np.max(np.abs(b - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))


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
        # node ids: vertices, then k-1 nodes per edge id, then face ids
        n_v, per_edge = mesh.n_vertices, degree - 1
        first_face = n_v + per_edge * mesh.topology.n_edges
        on_gamma = 0
        for n in range(nodes.n_nodes):
            if n < n_v:
                on_gamma += n in cls.gamma_vertices
            elif n < first_face:
                on_gamma += (n - n_v) // per_edge in cls.gamma_edges
            else:
                on_gamma += n - first_face in cls.gamma_faces
        n_eq = np.count_nonzero(~system.gamma_mask)
        assert n_eq == nodes.n_nodes - on_gamma
        assert system.A.shape == (n_eq, n_eq)


def test_methods_coincide_without_curved_boundary():
    """On a box mesh no face lies on the surface, so the shifted method
    reduces to the plain Galerkin assembly."""
    mesh = generate_box_tet_mesh(2, 2, 2)
    far_surface = Sphere(np.zeros(3), 10.0)
    cls = classify_boundary(mesh, far_surface)
    assert not cls.gamma_faces.size

    def f(p):
        return 1.0 + p[..., 0]

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
    diff = (system.A - system.A.T).tocoo()
    scale = np.max(np.abs(system.A.data))
    assert (diff.nnz == 0) or np.max(np.abs(diff.data)) <= 1e-12 * scale


def test_new_method_system_is_not_symmetric():
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)
    system = assemble_new_method(
        mesh, cls, SPHERE, 2, lambda p: 1.0, lambda p: 0.0
    )
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
    free = np.flatnonzero(~system.gamma_mask)
    for e, n in enumerate(free):
        assert abs(rep.x[e] - u(nodes.coords[n])) <= 1e-10


def test_dirichlet_rhs_zero_for_homogeneous_data():
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    sys0 = assemble_polyhedral(
        mesh, cls, SPHERE, 2, lambda p: 0.0, lambda p: 0.0
    )
    np.testing.assert_array_equal(
        sys0.b, np.zeros(np.count_nonzero(~sys0.gamma_mask)))


def test_assembly_is_deterministic():
    mesh = generate_octant_mesh(3)
    cls = classify_boundary(mesh, SPHERE)

    def build():
        return assemble_new_method(
            mesh, cls, SPHERE, 2, lambda p: np.sin(p[..., 0]), lambda p: 0.0
        )

    s1, s2 = build(), build()
    assert s1.A.data.tobytes() == s2.A.data.tobytes()
    assert s1.A.indices.tobytes() == s2.A.indices.tobytes()
    assert s1.b.tobytes() == s2.b.tobytes()


def test_matrix_market_dump(tmp_path):
    # The CLI's --dump-matrix writes system.A with scipy's mmwrite; the
    # assembled matrix must survive the round trip unchanged.
    mesh = generate_octant_mesh(2)
    cls = classify_boundary(mesh, SPHERE)
    system = assemble_polyhedral(
        mesh, cls, SPHERE, 2, lambda p: 1.0, lambda p: 0.0
    )
    out = tmp_path / "system.mtx"
    mmwrite(str(out), system.A)
    text = out.read_text()
    assert text.startswith("%%MatrixMarket")
    back = mmread(str(out)).tocsr()
    assert back.shape == system.A.shape
    assert abs(back - system.A).max() == 0.0


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
        return 1.0 + p[..., 0] * p[..., 1]

    def g(p):
        return 1.0 + p[..., 2]

    if method == "nonconforming":
        system = nc_assemble(mesh, cls, SPHERE, 2, f, lambda p: 0.0)
        shifts = _shifted_edge_points(mesh, cls, SPHERE)
        face_shifts = _shifted_face_points(mesh, cls, SPHERE)
        basis = build_nc_modified_basis(mesh, cls, cls.o_tets, shifts,
                                        face_shifts)
        C = dict(zip(basis.tets.tolist(), basis.C))
        T = nc_reference_matrix()
        g_dofs = np.zeros(system.gamma_mask.size)
    else:
        nodes = build_lagrange_nodes(mesh, degree)
        table = build_shifted_node_table(mesh, cls, SPHERE, nodes)
        T = np.eye(nodes.cell_nodes_table.shape[1])
        g_dofs = np.zeros(nodes.n_nodes)
        if method == "new":
            system = assemble_new_method(mesh, cls, SPHERE, degree, f, g)
            basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
            C = dict(zip(basis.tets.tolist(), basis.C))
            for n in np.nonzero(nodes.layout.gamma_mask(cls))[0]:
                g_dofs[n] = g(table.points[n])
        else:
            system = assemble_polyhedral(mesh, cls, SPHERE, degree, f, g)
            C = {}
            for n in np.nonzero(nodes.layout.gamma_mask(cls))[0]:
                g_dofs[n] = g(nodes.coords[n])

    n_dofs = system.gamma_mask.size
    K = np.zeros((n_dofs, n_dofs))
    F = np.zeros(n_dofs)
    for t in range(mesh.n_tets):
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        trial = T @ C[t] if t in C else T
        cell = system.cells[t]
        K[np.ix_(cell, cell)] += T.T @ element_stiffness(amap, degree, quad) @ trial
        F[cell] += T.T @ element_load(amap, degree, quad, f)
    free, gamma = ~system.gamma_mask, system.gamma_mask
    A_ref = K[np.ix_(free, free)]
    b_ref = F[free] - K[np.ix_(free, gamma)] @ g_dofs[gamma]

    A = system.A.toarray()
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(system.b - b_ref)) <= 1e-12 * np.max(np.abs(b_ref))


def _full_matrix_assemble(mesh, degree, cells, gamma_mask, dirichlet, basis,
                          R, f, coarse_weights=None):
    """`assemble` with its scatter written the long way: the full matrix
    over all DOFs, its free rows, then their free and Gamma_h columns, and
    the lift b -= A[free, Gamma_h] @ g.  The oracle of the one scatter;
    the coarse weights only ride along to the solver, so it reads none."""
    quad = tet_quadrature(5)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    S_all = element_stiffness(amap, degree, quad)
    b_all = element_load(amap, degree, quad, f)
    if R is not None:
        S_all = R.T @ S_all @ R
        b_all = b_all @ R
    if basis is not None:
        S_all[basis.tets] = S_all[basis.tets] @ basis.C
    n, n_loc = gamma_mask.size, cells.shape[1]
    rows = np.repeat(cells, n_loc, axis=1).ravel()
    cols = np.tile(cells, n_loc).ravel()
    full = sps.coo_matrix((S_all.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    free = ~gamma_mask
    load = np.bincount(cells.ravel(), weights=b_all.ravel(), minlength=n)
    A_free = full[free]
    b = load[free] - A_free[:, gamma_mask] @ dirichlet[gamma_mask]
    return A_free[:, free].tocsr(), b


def _traced(fn, args):
    """fn(*args) and the peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_one_scatter_matches_full_matrix_oracle_in_less_memory(method,
                                                               monkeypatch):
    """On tp1 J=16 the scatter into the equations only gives the pattern of
    the full matrix's free block, its values to rounding and the lifted b
    (g != 0 for the new method), and peaks well below the full matrix
    and its slices (0.69 and 0.56 of it when measured)."""
    case = get_case("tp1-sphere")
    mesh = case.mesh(16)
    cls = classify_boundary(mesh, case.surface)
    if method == "new":
        build, module, g = assemble_new_method, assembly, lambda p: 1.0 + p[..., 2]
    else:
        build, module, g = nc_assemble, nonconforming, case.g
    args = []
    monkeypatch.setattr(module, "assemble", lambda *a: args.extend(a))
    build(mesh, cls, case.surface, 2, case.f, g)
    monkeypatch.undo()
    assert np.any(args[4] != 0.0) == (method == "new")

    system, peak = _traced(assembly.assemble, args)
    (A_ref, b_ref), peak_ref = _traced(_full_matrix_assemble, args)
    A = system.A
    for M in (A, A_ref):
        M.sort_indices()
    np.testing.assert_array_equal(A.indptr, A_ref.indptr)
    np.testing.assert_array_equal(A.indices, A_ref.indices)
    scale = np.max(np.abs(A_ref.data))
    assert np.max(np.abs(A.data - A_ref.data)) <= 1e-15 * scale
    assert (np.max(np.abs(system.b - b_ref))
            <= 1e-14 * np.max(np.abs(b_ref)))
    assert peak <= 0.85 * peak_ref, (peak, peak_ref)
