import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sp
from hypothesis import given
from scipy.io import mmread, mmwrite

from meshes import flipped, generate_box_tet_mesh, traced_peak
from shiftfem import assembly, elements, nonconforming
from shiftfem.assembly import (
    assemble_new_method,
    assemble_polyhedral,
    element_load,
    element_stiffness,
)
from shiftfem.cases import get_case
from shiftfem.dofs import DofLayout, build_lagrange_nodes
from shiftfem.elements import (AffineMap, EDGES, FACES, REF_VERTICES,
                               multi_indices, reference_nodes)
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
from shiftfem.trialspace import (ModifiedElementBasis, build_modified_basis,
                                 build_shifted_node_table)

from test_elements import well_shaped_tets

ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))
SPHERE = Sphere(np.zeros(3), 1.0)


def test_single_tet_stiffness_kernel():
    amap = AffineMap.from_vertices(REF_VERTICES)
    S = element_stiffness(amap, 2)
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
    S = element_stiffness(amap, 2)

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
    for k in (2, 3):
        b = element_load(amap, k, lambda p: 1.0)
        assert float(b.sum()) == pytest.approx(amap.detB / 6, rel=1e-13)


@given(well_shaped_tets())
def test_batched_kernels_equal_per_tet_calls(verts):
    """The kernels on a stack of tets equal a loop of single-tet calls."""
    def f(p):
        return 1.0 + p[..., 0] * p[..., 1] - np.sin(p[..., 2])

    amap = AffineMap.from_vertices(verts)
    for k in (2, 3):
        S = element_stiffness(amap, k)
        b = element_load(amap, k, f)
        S_ref = np.array([element_stiffness(AffineMap.from_vertices(v), k)
                          for v in verts])
        b_ref = np.array([element_load(AffineMap.from_vertices(v), k, f)
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


@pytest.mark.parametrize("case_name,param,degree", [
    ("tp1-sphere", 4, 2), ("tp1-sphere", 4, 3), ("tp3-torus", 2, 2)])
def test_baseline_basis_is_empty(case_name, param, degree):
    """The polyhedral baseline is the new method with nothing shifted: its
    system carries a modified basis like every other, over no tets, whose
    condition and deviation from the identity read 0."""
    case = get_case(case_name)
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    basis = assemble_polyhedral(mesh, cls, case.surface, degree, case.f,
                                case.g).basis
    assert isinstance(basis, ModifiedElementBasis)
    assert basis.tets.size == 0 and cls.o_tets.size > 0
    n_k = multi_indices(degree).shape[0]
    assert basis.C.shape == (0, n_k, n_k)
    assert basis.condition == basis.deviation_from_identity == 0.0


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
        K[np.ix_(cell, cell)] += T.T @ element_stiffness(amap, degree) @ trial
        F[cell] += T.T @ element_load(amap, degree, f)
    free, gamma = ~system.gamma_mask, system.gamma_mask
    A_ref = K[np.ix_(free, free)]
    b_ref = F[free] - K[np.ix_(free, gamma)] @ g_dofs[gamma]

    A = system.A.toarray()
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(system.b - b_ref)) <= 1e-12 * np.max(np.abs(b_ref))


def _full_matrix_assemble(mesh, degree, cells, gamma_mask, dirichlet, basis,
                          R, f, hats):
    """`assemble` with its scatter written the long way: the full matrix
    over all DOFs, its free rows, then their free and Gamma_h columns, and
    the lift b -= A[free, Gamma_h] @ g.  The oracle of the one scatter;
    it builds no prolongation, so it reads no hat weights."""
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    S_all = element_stiffness(amap, degree)
    b_all = element_load(amap, degree, f)
    if R is not None:
        S_all = R.T @ S_all @ R
        b_all = b_all @ R
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


def _local_weights(build, degree):
    """(n_loc, 4): each local DOF's functional applied to the four P1
    hats, the exact weights the builders give `DofLayout.hats`."""
    if build is nc_assemble:
        return nonconforming._WEIGHTS @ nonconforming._REF_BARY
    return multi_indices(degree) / degree


def _first_tet_prolongation(mesh, cells, gamma_mask, weights):
    """The prolongation with each free DOF read through its first tet,
    found by sorting `cells` (`np.unique`), with the local `weights` of
    `_local_weights`: the oracle of the one read per entity."""
    n, n_loc = np.count_nonzero(~gamma_mask), cells.shape[1]
    eq = np.where(gamma_mask, n, np.cumsum(~gamma_mask) - 1).astype(np.int32)
    eq = eq[cells]
    first = np.unique(cells, return_index=True)[1]
    first = first[eq.ravel()[first] < n]
    tet, local = np.divmod(first, n_loc)
    rows = np.repeat(eq.ravel()[first], 4)
    vals = weights[local].ravel()
    read = vals != 0.0
    vertices, cols = np.unique(mesh.tets[tet].ravel()[read],
                               return_inverse=True)
    return sps.csr_matrix((vals[read], (rows[read], cols)),
                          shape=(n, vertices.size))


def _assemble_args(monkeypatch, build, case, param, degree, g=None):
    """The arguments with which `build` calls `assemble` on the case's
    mesh, with Dirichlet data `g` (default: the case's)."""
    mesh = case.mesh(param)
    cls = classify_boundary(mesh, case.surface)
    module = nonconforming if build is nc_assemble else assembly
    args = []
    with monkeypatch.context() as patch:
        patch.setattr(module, "assemble", lambda *a: args.extend(a))
        build(mesh, cls, case.surface, degree, case.f,
              case.g if g is None else g)
    return args


def _renumbering(old, new):
    """(n_dofs,): the id in layout `new` of each DOF id of layout `old`,
    the same entity's DOF under the other block order."""
    top = old.mesh.topology
    to = np.empty(old.sizes.sum(), dtype=np.int64)
    for d, n in enumerate((old.mesh.n_vertices, top.n_edges, top.n_faces)):
        to[old.ids(d, np.arange(n))] = new.ids(d, np.arange(n))
    return to


@pytest.mark.parametrize("method,order", [
    ("nonconforming", (1, 2, 0)), ("new-3", (2, 1, 0)), ("new-3", (1, 0, 2))],
    ids=["nonconforming-edges-first", "new-3-faces-first",
         "new-3-edges-first"])
def test_block_order_only_renumbers_the_system(method, order, monkeypatch):
    """A layout with its blocks in another order gives the same system
    renumbered: its DOF table is the old one's ids renumbered column for
    column, its Gamma_h mask the old one's, and A and b are Π A Πᵀ and
    Π b to 1e-14.  The block order numbers the global DOFs only; each
    tet's local order stays the element's.  While the DOF table came in
    the block order, the edges-first nonconforming layout on tp1 J=8 gave
    a matrix off by 0.97 max|A| here, with no error."""
    case = get_case("tp1-sphere")
    if method == "nonconforming":
        mesh = case.mesh(8)
        cls = classify_boundary(mesh, case.surface)
        ref_layout = nonconforming.nc_layout(mesh)
        ref = nc_assemble(mesh, cls, case.surface, 2, case.f, case.g)
        layout = DofLayout(mesh, ref_layout.counts, order)
        monkeypatch.setattr(nonconforming, "nc_layout", lambda mesh: layout)
        got = nc_assemble(mesh, cls, case.surface, 2, case.f, case.g)
        to = _renumbering(ref_layout, layout)
    else:
        args = _assemble_args(monkeypatch, assemble_new_method, case, 4, 3)
        ref = assembly.assemble(*args)
        mesh = args[0]
        ref_layout = build_lagrange_nodes(mesh, 3).layout
        layout = DofLayout(mesh, ref_layout.counts, order)
        to = _renumbering(ref_layout, layout)
        dirichlet = np.empty_like(args[4])
        dirichlet[to] = args[4]
        got = assembly.assemble(
            mesh, 3, layout.cells(),
            layout.gamma_mask(classify_boundary(mesh, case.surface)),
            dirichlet, *args[5:8], layout.hats(multi_indices(3) / 3))
    np.testing.assert_array_equal(got.cells, to[ref.cells])
    np.testing.assert_array_equal(got.gamma_mask[to], ref.gamma_mask)
    eq = np.argsort(to[~ref.gamma_mask])  # the old equation of each new one
    A, b = ref.A[eq][:, eq], ref.b[eq]
    scale = np.max(np.abs(ref.A.data))
    assert np.max(np.abs((got.A - A).data), initial=0.0) <= 1e-14 * scale
    assert np.max(np.abs(got.b - b)) <= 1e-14 * np.max(np.abs(b))


def _same_bytes(M, N):
    return all(getattr(M, a).tobytes() == getattr(N, a).tobytes()
               for a in ("indptr", "indices", "data"))


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_one_scatter_matches_full_matrix_oracle_in_less_memory(method,
                                                               monkeypatch):
    """On tp1 J=16 the scatter into the equations only gives the pattern of
    the full matrix's free block, its values to rounding and the lifted b
    (g != 0 for the new method), and peaks well below the full matrix
    and its slices (0.33 and 0.41 of it when measured; 0.69 and 0.56
    when all stiffness matrices were scattered at once through COO
    arrays)."""
    if method == "new":
        args = _assemble_args(monkeypatch, assemble_new_method,
                              get_case("tp1-sphere"), 16, 2,
                              lambda p: 1.0 + p[..., 2])
    else:
        args = _assemble_args(monkeypatch, nc_assemble,
                              get_case("tp1-sphere"), 16, 2)
    assert np.any(args[4] != 0.0) == (method == "new")

    system, peak = traced_peak(assembly.assemble, *args)
    (A_ref, b_ref), peak_ref = traced_peak(_full_matrix_assemble, *args)
    A = system.A
    for M in (A, A_ref):
        M.sort_indices()
    np.testing.assert_array_equal(A.indptr, A_ref.indptr)
    np.testing.assert_array_equal(A.indices, A_ref.indices)
    scale = np.max(np.abs(A_ref.data))
    assert np.max(np.abs(A.data - A_ref.data)) <= 1e-15 * scale
    assert (np.max(np.abs(system.b - b_ref))
            <= 1e-14 * np.max(np.abs(b_ref)))
    assert peak <= 0.5 * peak_ref, (peak, peak_ref)


def test_assembly_peak_is_a_small_multiple_of_the_matrix(monkeypatch):
    """On tp1 new k=2 J=32 (32,768 tets, 15 MB of A) `assemble` peaks at
    most 2.5 times the bytes of A (measured 1.8; 7.9 when the stiffness
    matrices of all tets were stacked and scattered through COO arrays):
    beside A it holds one block of tets and each entry's position."""
    args = _assemble_args(monkeypatch, assemble_new_method,
                          get_case("tp1-sphere"), 32, 2)
    system, peak = traced_peak(assembly.assemble, *args)
    A = system.A
    matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 2.5 * matrix, (peak, matrix)


def test_k3_assembly_peak_is_below_twice_the_matrix(monkeypatch):
    """On tp1 new k=3 J=16 (4,096 tets, 10.4 MB of A) `assemble` peaks at
    most 2 times the bytes of A (measured 1.59; 2.99 when every block held
    1,024 tets whatever the degree): a block holds a fixed number of
    element matrix entries, so fewer tets of the larger k=3 matrices."""
    args = _assemble_args(monkeypatch, assemble_new_method,
                          get_case("tp1-sphere"), 16, 3)
    system, peak = traced_peak(assembly.assemble, *args)
    A = system.A
    matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 2.0 * matrix, (peak, matrix)


def test_degenerate_tet_is_named_by_its_mesh_id():
    """A tet turned inside out is reported by its id in the mesh, not by
    its index in the block of tets that found it."""
    case = get_case("tp1-sphere")
    mesh = flipped(case.mesh(16), 3000)
    cls = classify_boundary(mesh, case.surface)
    with pytest.raises(ValueError, match="tetrahedron 3000 is degenerate"):
        assemble_polyhedral(mesh, cls, case.surface, 2, case.f, case.g)


BUILDERS = pytest.mark.parametrize("build,degree", [
    (assemble_new_method, 2), (assemble_new_method, 3),
    (assemble_polyhedral, 2), (nc_assemble, 2),
], ids=["new-2", "new-3", "polyhedral-2", "nonconforming-2"])


@pytest.mark.parametrize("case_name,param", [("tp1-sphere", 8),
                                             ("tp3-torus", 4)])
@BUILDERS
def test_chunks_of_tets_match_one_chunk(case_name, param, build, degree,
                                        monkeypatch):
    """Blocks of 7 tets (a prime, so the last block is short and the tets
    with a Gamma_h DOF fall into many blocks) give A and b within 1e-15 of
    one block of all tets, and the same P to the bit."""
    args = _assemble_args(monkeypatch, build, get_case(case_name), param,
                          degree)
    n_tets, on_gamma = args[0].n_tets, args[3][args[2]].any(axis=1)
    assert n_tets % 7 and np.unique(np.flatnonzero(on_gamma) // 7).size > 1
    matrix = args[2].shape[1] ** 2  # entries of one element matrix
    monkeypatch.setattr(elements, "_BLOCK_ENTRIES", n_tets * matrix)
    one = assembly.assemble(*args)
    monkeypatch.setattr(elements, "_BLOCK_ENTRIES", 7 * matrix)
    many = assembly.assemble(*args)
    np.testing.assert_array_equal(many.A.indptr, one.A.indptr)
    np.testing.assert_array_equal(many.A.indices, one.A.indices)
    scale = np.max(np.abs(one.A.data))
    assert np.max(np.abs(many.A.data - one.A.data)) <= 1e-15 * scale
    assert (np.max(np.abs(many.b - one.b))
            <= 1e-15 * np.max(np.abs(one.b)))
    assert _same_bytes(many.P, one.P)


@pytest.mark.parametrize("case_name,param", [("tp1-sphere", 4),
                                             ("tp3-torus", 2)])
@BUILDERS
def test_prolongation_matches_sorted_cells_oracle(case_name, param, build,
                                                  degree, monkeypatch):
    """P read per entity off the layout's W equals, to the bit, P with each
    free DOF read through its first tet in the DOF table: the exact local
    weights give every tet that holds a DOF the same row.  For the
    Lagrange builders it is also, to the bit, the free rows of the W that
    placed the nodes, over the columns they read."""
    args = _assemble_args(monkeypatch, build, get_case(case_name), param,
                          degree)
    P = assembly.assemble(*args).P
    P_ref = _first_tet_prolongation(args[0], args[2], args[3],
                                    _local_weights(build, degree))
    assert _same_bytes(P, P_ref)
    if build is not nc_assemble:
        W = build_lagrange_nodes(args[0], degree).hats[~args[3]]
        assert _same_bytes(P, W[:, np.flatnonzero(W.getnnz(axis=0))])


@pytest.mark.parametrize("case_name,param", [("tp1-sphere", 4),
                                             ("tp3-torus", 2)])
@BUILDERS
def test_prolongation_reproduces_constants(case_name, param, build, degree):
    """Every row of the prolongation sums to 1 (measured: exactly 1), so
    the P1 coarse space reproduces the constants, and no column of it is
    empty, which would make the coarse matrix Pᵀ A P singular.  It
    reproduces an affine l too: P @ l(coarse vertices) is each free DOF's
    functional of l, which is l at the node (Lagrange), at the face
    centroid or at the edge midpoint (nonconforming), in every tet that
    holds the DOF."""
    case = get_case(case_name)
    mesh = case.mesh(param)
    system = build(mesh, classify_boundary(mesh, case.surface), case.surface,
                   degree, case.f, case.g)
    P = system.P
    assert P.shape[0] == system.A.shape[0]
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-14
    assert np.all(abs(P).sum(axis=0) > 0.0)

    def ell(x):
        return 0.25 + x @ [0.5, -0.75, 0.125]

    gamma, cells = system.gamma_mask, system.cells
    free = ~gamma[cells]
    # the coarse vertices: those some free DOF's functional reads
    read = free[..., None] & (_local_weights(build, degree) != 0.0)
    tets = np.broadcast_to(mesh.tets[:, None], read.shape)
    coarse = np.unique(tets[read])
    if build is nc_assemble:  # edges first, then faces
        ref = np.vstack([REF_VERTICES[list(EDGES)].mean(axis=1),
                         REF_VERTICES[list(FACES)].mean(axis=1)])
    else:
        ref = reference_nodes(degree)
    points = AffineMap.from_vertices(mesh.vertices[mesh.tets]).to_physical(ref)
    eq = (np.cumsum(~gamma) - 1)[cells]
    Pl = P @ ell(mesh.vertices[coarse])
    np.testing.assert_allclose(Pl[eq[free]], ell(points[free]), rtol=0.0,
                               atol=1e-14)
