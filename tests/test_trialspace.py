import collections
import copy
import tracemalloc

import numpy as np
import pytest

from meshes import flipped, traced_peak
from shiftfem.assembly import assemble_new_method
from shiftfem.cases import get_case
from shiftfem.dofs import DofLayout, build_lagrange_nodes
from shiftfem.elements import (
    EDGES,
    AffineMap,
    reference_nodes,
    shape_values,
    tet_quadrature,
)
from shiftfem.meshgen import Mesh, classify_boundary, generate_octant_mesh
from shiftfem.nonconforming import _REF_BARY, _WEIGHTS, nc_assemble, nc_layout
from shiftfem.surfaces import Ellipsoid, Sphere
from shiftfem.trialspace import (
    build_modified_basis,
    build_shifted_node_table,
    shift_from_entities,
)

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))


def _setup(J, degree, surface=SPHERE, axes=(1.0, 1.0, 1.0)):
    mesh = generate_octant_mesh(J, axes)
    cls = classify_boundary(mesh, surface)
    nodes = build_lagrange_nodes(mesh, degree)
    table = build_shifted_node_table(mesh, cls, surface, nodes)
    return mesh, cls, nodes, table


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("mesh", [generate_octant_mesh(3),
                                  get_case("tp3-torus").mesh(2)],
                         ids=["octant-J3", "torus-I2"])
def test_node_table_matches_mapped_reference_nodes(mesh, degree):
    """Global node j of tet t sits where the tet's affine map puts
    reference node j: this pins the entity-block numbering, the frozen
    local order and the flip of the k=3 edge nodes."""
    nodes = build_lagrange_nodes(mesh, degree)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    scale = np.max(np.abs(mesh.vertices))
    np.testing.assert_allclose(nodes.coords[nodes.cell_nodes_table],
                               amap.to_physical(reference_nodes(degree)),
                               rtol=0.0, atol=1e-14 * scale)


@pytest.mark.parametrize("degree", [2, 3])
def test_vertex_no_tet_holds_moves_no_node(degree):
    """A vertex that no tet uses holds a DOF that no tet holds: its node
    is read off the vertex, as every vertex node is, so it keeps the
    vertex's own coordinates, and every node a tet holds keeps its
    coordinates to the bit."""
    mesh = get_case("tp1-sphere").mesh(2)
    extra = Mesh(np.vstack([mesh.vertices, [[5.0, 6.0, 7.0]]]), mesh.tets)
    nodes = build_lagrange_nodes(mesh, degree)
    padded = build_lagrange_nodes(extra, degree)
    assert padded.n_nodes == nodes.n_nodes + 1
    np.testing.assert_array_equal(padded.coords[mesh.n_vertices],
                                  [5.0, 6.0, 7.0])
    np.testing.assert_array_equal(padded.coords[padded.cell_nodes_table],
                                  nodes.coords[nodes.cell_nodes_table])


def test_node_placement_peak_is_bounded():
    """On tp1 k=2 J=32 (32,768 tets) placing the nodes peaks at most 2.5
    times the bytes of the node table and coordinates it returns (measured
    1.8; 3.4 when each node was placed through the first tet that holds
    it, found by sorting the table)."""
    mesh = get_case("tp1-sphere").mesh(32)
    mesh.topology  # built by the classification before any node set
    nodes, peak = traced_peak(build_lagrange_nodes, mesh, 2)
    out = nodes.coords.nbytes + nodes.cell_nodes_table.nbytes
    assert peak <= 2.5 * out, (peak, out)


@pytest.mark.parametrize("layout", [lambda mesh: DofLayout(mesh, (1, 1, 0)),
                                    nc_layout], ids=["k2", "nonconforming"])
def test_dof_table_peak_is_bounded(layout):
    """On tp1 J=32 (32,768 tets) the per-tet DOF table of the k=2 and the
    nonconforming layouts peaks at most 1.5 times its own bytes, as
    tracemalloc counts it (measured 1.31 for both; 2.60 while each block
    was formed whole, flipped by a copy and stacked): it is filled one
    local entity at a time."""
    mesh = get_case("tp1-sphere").mesh(32)
    mesh.topology  # built by the classification before any layout
    cells, peak = traced_peak(layout(mesh).cells)
    assert cells.shape == (mesh.n_tets, 10)
    assert peak <= 1.5 * cells.nbytes, (peak, cells.nbytes)


def _lagrange_layout(degree):
    def layout_and_hats(mesh):
        nodes = build_lagrange_nodes(mesh, degree)
        return nodes.layout, nodes.hats
    return layout_and_hats


def _nc_layout_and_hats(mesh):
    layout = nc_layout(mesh)
    return layout, layout.hats(_WEIGHTS @ _REF_BARY)


@pytest.mark.parametrize("layout_and_hats", [
    _lagrange_layout(2), _lagrange_layout(3), _nc_layout_and_hats],
    ids=["k2", "k3", "nonconforming"])
def test_dofs_are_numbered_vertices_then_edges_then_faces(layout_and_hats):
    """On tp1 J=4 every layout numbers its DOFs in one contiguous block per
    entity kind, the vertices, then the edges, then the faces, each block
    in entity id order; each tet's row holds the ids of its local
    entities in the element's order, an edge's DOFs running from its
    smaller vertex id; and row i of W reads only the vertices of the
    entity of DOF i."""
    mesh = get_case("tp1-sphere").mesh(4)
    layout, W = layout_and_hats(mesh)
    top, tets = mesh.topology, mesh.tets
    entities = (np.arange(mesh.n_vertices)[:, None], top.edge_vertices,
                top.face_vertices)
    start, owners, expected = 0, [], []
    for d, local in enumerate((tets, top.tet_edges, top.tet_faces)):
        c, n = layout.counts[d], len(entities[d])
        first = start + c * np.arange(n)  # each entity's first DOF
        np.testing.assert_array_equal(layout.ids(d, np.arange(n)),
                                      first[:, None] + np.arange(c))
        for i in range(local.shape[1]):
            ids = first[local[:, i], None] + np.arange(c)
            if d == 1:
                a, b = EDGES[i]
                ids = np.where((tets[:, a] < tets[:, b])[:, None], ids,
                               ids[:, ::-1])
            expected.append(ids)
        owner = np.full((n, 3), -1)
        owner[:, :d + 1] = entities[d]
        owners.append(np.repeat(owner, c, axis=0))
        start += c * n
    assert start == layout.sizes.sum() == W.shape[0]
    np.testing.assert_array_equal(layout.cells(), np.hstack(expected))
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    owner = np.concatenate(owners)[rows]
    assert np.all(np.any(W.indices[:, None] == owner, axis=1))


@pytest.mark.parametrize("degree", [2, 3])
def test_shifted_points_lie_on_surface(degree):
    mesh, cls, nodes, table = _setup(4, degree)
    assert table.shifts.size  # nonempty
    for p in table.points[table.shifts]:
        assert abs(SPHERE.value(p)) <= 1e-12 * SPHERE.scale


def test_shift_magnitude_is_second_order():
    """max |M - Q| over edge nodes drops like h^2 when J doubles."""
    maxima = {}
    for J in (4, 8):
        mesh, cls, nodes, table = _setup(
            J, 2, surface=ELLIPSOID, axes=(0.6, 0.8, 1.0)
        )
        maxima[J] = max(
            float(np.linalg.norm(nodes.coords[n] - table.points[n]))
            for n in table.shifts
        )
    assert 3.4 <= maxima[4] / maxima[8] <= 4.6


def test_face_node_shift_is_radial_for_corner_tet():
    """On the J=1 sphere octant the opposite vertex is the origin, so the
    k=3 face node moves radially: P = M/|M|."""
    mesh, cls, nodes, table = _setup(1, 3)
    # face nodes follow the vertex nodes and the k-1 nodes of every edge
    first_face_node = mesh.n_vertices + 2 * mesh.topology.n_edges
    face_nodes = [n for n in table.shifts if n >= first_face_node]
    assert len(face_nodes) == 1
    M = nodes.coords[face_nodes[0]]
    P = table.points[face_nodes[0]]
    np.testing.assert_allclose(P, M / np.linalg.norm(M), atol=1e-12)


def test_single_valuedness_across_elements():
    mesh, cls, nodes, table = _setup(4, 2)
    gamma_mask = nodes.layout.gamma_mask(cls)
    # every Gamma_h node appears once in the global table; elements sharing
    # the entity see the same point by construction
    seen = {}
    for t in cls.o_tets:
        for g in nodes.cell_nodes_table[t]:
            g = int(g)
            if gamma_mask[g]:
                p = table.points[g]
                if g in seen:
                    np.testing.assert_array_equal(seen[g], p)
                seen[g] = p


@pytest.mark.parametrize("degree", [2, 3])
def test_modified_basis_delta_and_free_counts(degree):
    mesh, cls, nodes, table = _setup(3, degree)
    n_k = 10 if degree == 2 else 20
    m_k = degree * (degree + 2) * (degree + 1) // 6
    p_k = n_k - (degree + 1)
    gamma_mask = nodes.layout.gamma_mask(cls)
    for t in cls.o_tets:
        basis = build_modified_basis(mesh, nodes, table, t)
        # psi_j(shifted node i) = delta_ij
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        cell = nodes.cell_nodes_table[t]
        refs = amap.to_reference(table.points[cell])
        psi = shape_values(degree, refs) @ basis.C
        assert np.max(np.abs(psi - np.eye(n_k))) <= 1e-10
        n_free = np.count_nonzero(~gamma_mask[cell])
        if t in cls.s_tets:
            assert n_free == m_k
        else:
            assert n_free == p_k


def test_interior_element_has_identity_matrix():
    mesh, cls, nodes, table = _setup(3, 2)
    interior = [t for t in range(mesh.n_tets) if t not in set(cls.o_tets)]
    t = interior[0]
    basis = build_modified_basis(mesh, nodes, table, t)
    np.testing.assert_array_equal(basis.C, np.eye(10))
    assert basis.deviations == 0.0 and basis.conditions == 1.0


def test_partition_of_unity_of_modified_basis():
    mesh, cls, nodes, table = _setup(3, 2)
    quad = tet_quadrature(5)
    for t in cls.o_tets:
        basis = build_modified_basis(mesh, nodes, table, t)
        pou = shape_values(2, quad.points) @ basis.C @ np.ones(10)
        assert np.max(np.abs(pou - 1.0)) <= 1e-10


def test_perturbation_shrinks_linearly_with_h():
    devs = {}
    for J in (4, 8):
        mesh, cls, nodes, table = _setup(J, 2)
        devs[J] = max(
            build_modified_basis(mesh, nodes, table, t).deviation_from_identity
            for t in cls.o_tets
        )
    assert 1.6 <= devs[4] / devs[8] <= 2.4


def test_dirichlet_values():
    mesh, cls, nodes, table = _setup(3, 2)
    gamma_mask = nodes.layout.gamma_mask(cls)

    def system(g):
        return assemble_new_method(mesh, cls, SPHERE, 2, lambda p: 0.0, g)

    zeros = system(lambda p: 0.0)
    assert np.array_equal(zeros.gamma_mask, gamma_mask)
    assert zeros.dirichlet.shape == gamma_mask.shape
    assert np.all(zeros.dirichlet == 0.0)
    # a linear g is evaluated at the shifted points, and only on Gamma_h
    vals = system(lambda p: p[..., 0] + 2.0).dirichlet
    assert np.all(vals[~gamma_mask] == 0.0)
    for n in np.nonzero(gamma_mask)[0]:
        assert vals[n] == pytest.approx(table.points[n][0] + 2.0)


def test_mesh_too_coarse_raises():
    """A huge perturbation (sphere much larger than the element) must trip
    the conditioning guard rather than silently produce garbage."""
    mesh = generate_octant_mesh(2)
    surf = SPHERE
    cls = classify_boundary(mesh, surf)
    nodes = build_lagrange_nodes(mesh, 2)
    table = build_shifted_node_table(mesh, cls, surf, nodes)
    # corrupt the table: collapse one shifted point onto a vertex of its
    # element, which makes two rows of the node matrix coincide
    nid = table.shifts[0]
    bad = [t for t in cls.o_tets if nid in map(int, nodes.cell_nodes_table[t])][0]
    table.points[nid] = mesh.vertices[mesh.tets[bad][0]].copy()
    with pytest.raises(ValueError, match="too coarse"):
        build_modified_basis(mesh, nodes, table, bad)
    # the batched call names the first failing tet of the stack
    with pytest.raises(ValueError, match="on tet %d" % bad):
        build_modified_basis(mesh, nodes, table, cls.o_tets)


def test_degenerate_boundary_tet_is_named_by_its_mesh_id():
    """A boundary tet turned inside out is reported by its id in the mesh,
    not by its index in the stack of boundary tets."""
    case = get_case("tp1-sphere")
    mesh = flipped(case.mesh(16), 3509)
    cls = classify_boundary(mesh, case.surface)
    assert 3509 in cls.o_tets and cls.o_tets[0] != 3509
    nodes = build_lagrange_nodes(mesh, 2)
    table = build_shifted_node_table(mesh, cls, case.surface, nodes)
    with pytest.raises(ValueError, match="tetrahedron 3509 is degenerate"):
        build_modified_basis(mesh, nodes, table, cls.o_tets)


@pytest.mark.parametrize("degree", [2, 3])
def test_conditions_come_from_the_one_inverse(degree):
    """The stack is inverted once; its condition numbers are NumPy's
    cond(K, 1) bit for bit, and C its inv(K), for K rebuilt here from the
    shape functions at the shifted points of each tet; the deviations are
    the row sums of |K - I|."""
    mesh, cls, nodes, table = _setup(4, degree)
    basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
    cell = nodes.cell_nodes_table[cls.o_tets]
    shifted = np.isin(cell, table.shifts)
    refs = AffineMap.from_vertices(mesh.vertices[mesh.tets[cls.o_tets]]
                                   ).to_reference(table.points[cell])
    n, n_k = cell.shape
    values = shape_values(degree, refs.reshape(-1, 3)).reshape(n, n_k, n_k)
    K = np.where(shifted[..., None], values, np.eye(n_k))
    np.testing.assert_array_equal(basis.conditions, np.linalg.cond(K, 1))
    np.testing.assert_array_equal(basis.C, np.linalg.inv(K))
    np.testing.assert_array_equal(
        basis.deviations, np.abs(K - np.eye(n_k)).sum(axis=-1).max(axis=-1))


def test_basis_keeps_little_beside_c():
    """The stack keeps C and one condition and one deviation per tet, not
    K: on tp3 I=8 (960 boundary tets) the basis holds at most 1.25 times
    the bytes of C, as tracemalloc counts them (2.0 times while K was
    kept)."""
    case = get_case("tp3-torus")
    mesh = case.mesh(8)
    cls = classify_boundary(mesh, case.surface)
    nodes = build_lagrange_nodes(mesh, 2)
    table = build_shifted_node_table(mesh, cls, case.surface, nodes)
    tets = cls.o_tets
    tracemalloc.start()
    try:
        basis = build_modified_basis(mesh, nodes, table, tets)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert basis.tets is tets and len(tets) == 960
    assert kept <= 1.25 * basis.C.nbytes, (kept, basis.C.nbytes)


def _counted(surface):
    """A copy of `surface` whose value and line-intersection queries are
    counted, as the benchmark's tracer counts them, and the counter."""
    surface = copy.copy(surface)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    surface.value = counted("value", surface.value)
    surface.nearest_line_intersection = counted(
        "intersection", surface.nearest_line_intersection)
    return surface, calls


@pytest.mark.parametrize("degree", [2, 3])
def test_shift_table_queries_the_surface_a_constant_number_of_times(degree):
    """One batched line query per entity dimension, whatever the mesh
    size: no scan along the lines.  At k=2 the face query runs on no
    points."""
    case = get_case("tp3-torus")
    mesh = case.mesh(4)
    cls = classify_boundary(mesh, case.surface)
    surface, calls = _counted(case.surface)
    table = build_shifted_node_table(
        mesh, cls, surface, build_lagrange_nodes(mesh, degree))
    assert len(table.shifts) >= 100
    assert calls["intersection"] == 2
    assert calls["value"] <= 2 * (degree - 1)
    calls.clear()
    assert np.array_equal(classify_boundary(mesh, surface).gamma_faces,
                          cls.gamma_faces)
    assert calls["value"] == 1


def test_nc_assembly_queries_the_surface_twice():
    """The nonconforming builder casts one batch of lines from the Gamma_h
    edges and one from the Gamma_h faces."""
    case = get_case("tp3-torus")
    mesh = case.mesh(4)
    cls = classify_boundary(mesh, case.surface)
    surface, calls = _counted(case.surface)
    nc_assemble(mesh, cls, surface, 2, case.f, case.g)
    assert len(cls.gamma_edges) >= 100 and len(cls.gamma_faces) >= 100
    assert calls["intersection"] == 2


class _CapMissingSphere(Sphere):
    """The unit sphere, except that every line cast from above z = 0.5
    misses it."""

    def line_roots(self, origin, direction):
        roots = super().line_roots(origin, direction)
        roots[origin[:, 2] > 0.5] = np.nan
        return roots


@pytest.mark.parametrize("method, degree",
                         [("new", 2), ("new", 3), ("nonconforming", 2)])
def test_shift_failure_names_the_gamma_h_edge(method, degree):
    """A line that misses the surface is reported by the sorted vertex ids
    of its Gamma_h edge, the edge of the first failing line of the batch,
    not only by its index in the flattened batch."""
    case = get_case("tp1-sphere")
    mesh = case.mesh(4)
    cls = classify_boundary(mesh, case.surface)
    surface = _CapMissingSphere(np.zeros(3), 1.0)
    nodes = build_lagrange_nodes(mesh, degree)
    origins = nodes.coords[nodes.layout.ids(1, cls.gamma_edges)]
    failing = np.flatnonzero(origins[..., 2].ravel() > 0.5)[0]
    edge = cls.gamma_edges[failing // (degree - 1)]
    # at k=3 the first failing line is the second node of its edge
    assert failing == {2: 7, 3: 15}[degree]
    expected = "Gamma_h edge %s " % (tuple(mesh.topology.edge_vertices[edge].tolist()),)
    with pytest.raises(ValueError, match="origin %d of " % failing) as info:
        if method == "new":
            build_shifted_node_table(mesh, cls, surface, nodes)
        else:
            nc_assemble(mesh, cls, surface, 2, case.f, case.g)
    assert expected in str(info.value)


class _SecondQueryCapMissingSphere(_CapMissingSphere):
    """The unit sphere, except that on its second line query every line
    cast from above z = 0.5 misses it: the Gamma_h edges of a builder
    shift and its Gamma_h faces fail."""

    queries = 0

    def line_roots(self, origin, direction):
        self.queries += 1
        if self.queries == 2:
            return super().line_roots(origin, direction)
        return Sphere.line_roots(self, origin, direction)


def test_face_shift_failure_names_the_gamma_h_face():
    """The line of a k=3 Lagrange face node, or of a nonconforming face
    functional, is reported by the vertex triple of its Gamma_h face,
    once the builder's Gamma_h edges have shifted."""
    case = get_case("tp1-sphere")
    mesh = case.mesh(4)
    cls = classify_boundary(mesh, case.surface)
    triples = mesh.topology.face_vertices[cls.gamma_faces]
    nodes = build_lagrange_nodes(mesh, 3)
    origins = nodes.coords[nodes.layout.ids(2, cls.gamma_faces)][:, 0]
    np.testing.assert_allclose(origins, mesh.vertices[triples].mean(axis=1),
                               rtol=0.0, atol=1e-15)
    failing = np.flatnonzero(origins[:, 2] > 0.5)[0]
    assert failing > 0
    expected = "Gamma_h face %s " % (tuple(triples[failing].tolist()),)
    for build in (lambda s: build_shifted_node_table(mesh, cls, s, nodes),
                  lambda s: nc_assemble(mesh, cls, s, 2, case.f, case.g)):
        surface = _SecondQueryCapMissingSphere(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="origin %d of %d" %
                           (failing, len(triples))) as info:
            build(surface)
        assert surface.queries == 2
        assert expected in str(info.value)


def _bracket_mesh(r):
    """Vertices around the centre of the unit sphere: 0-2 at distance 2,
    then (0, r, 0) and, nearer than 0.25, three more."""
    return Mesh(np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, -2.0, 0.0],
                          [0.0, r, 0.0], [0.0, -0.2, 0.0], [-0.2, -0.1, 0.0],
                          [0.2, -0.1, 0.0]]), np.zeros((0, 4), dtype=int))


@pytest.mark.parametrize("kind, vertex_ids, origin, failing", [
    ("edge", [[0, 1], [3, 4]], np.zeros((2, 2, 3)), "origin 2 of 4"),
    ("face", [[0, 1, 2], [3, 5, 6]], np.zeros((2, 3)), "origin 1 of 2"),
], ids=["edge", "face"])
def test_bracket_is_four_times_the_farthest_vertex(kind, vertex_ids, origin,
                                                   failing):
    """Each line is searched within 4 times the largest distance from its
    origin to a vertex of its entity.  The lines from the centre of the
    unit sphere along z meet it at t = -1 and 1; the second entity's
    farthest vertex is (0, r, 0), its others nearer than 0.25.  With r just
    above 0.25 every line lands on (0, 0, 1); just below, the second
    entity's first line misses and the error names its vertex ids."""
    vertex_ids, z = np.array(vertex_ids), np.array([0.0, 0.0, 1.0])
    points = shift_from_entities(_bracket_mesh(0.25 * (1 + 1e-9)), SPHERE,
                                 kind, vertex_ids, origin, z)
    np.testing.assert_array_equal(points, np.broadcast_to(z, origin.shape))
    with pytest.raises(ValueError, match=failing) as info:
        shift_from_entities(_bracket_mesh(0.25 * (1 - 1e-9)), SPHERE, kind,
                            vertex_ids, origin, z)
    expected = "Gamma_h %s %s " % (kind, tuple(vertex_ids[1].tolist()))
    assert expected in str(info.value)
