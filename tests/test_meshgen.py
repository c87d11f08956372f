import numpy as np
import pytest

from meshes import generate_box_tet_mesh, traced_peak
from shiftfem import elements, meshgen
from shiftfem.elements import EDGES, AffineMap
from shiftfem.meshgen import (
    _grid_cells,
    classify_boundary,
    generate_octant_mesh,
    generate_torus_sector_mesh,
    skin_directions,
    write_mesh_text,
    write_vtk,
    Mesh,
)
from shiftfem.surfaces import Ellipsoid, Sphere, Torus

SPHERE = Sphere(np.zeros(3), 1.0)
ELLIPSOID = Ellipsoid(np.array([0.6, 0.8, 1.0]))
TORUS = Torus(5.0 / 6.0, 1.0 / 6.0)


def _volumes(mesh):
    """The signed volume of every tet."""
    return AffineMap.from_vertices(mesh.vertices[mesh.tets]).detB / 6.0


def _element_sizes(mesh):
    """The longest edge of every tet."""
    v = mesh.vertices[mesh.tets]
    a, b = np.array(EDGES).T
    return np.linalg.norm(v[:, a] - v[:, b], axis=-1).max(axis=1)


def _triples(mesh, faces):
    """The sorted vertex triples of face ids, as a set."""
    return {tuple(tri) for tri in mesh.topology.face_vertices[faces].tolist()}


@pytest.mark.parametrize("generate,name", [
    (lambda: generate_octant_mesh(0), "J"),
    (lambda: generate_octant_mesh(-2), "J"),
    (lambda: generate_torus_sector_mesh(0, 5.0 / 6.0, 1.0 / 6.0), "I"),
    (lambda: generate_torus_sector_mesh(-2, 5.0 / 6.0, 1.0 / 6.0), "I"),
    (lambda: generate_octant_mesh(2.5), "J"),
    (lambda: generate_torus_sector_mesh(4.7, 5.0 / 6.0, 1.0 / 6.0), "I"),
], ids=["octant-0", "octant-negative", "torus-0", "torus-negative",
        "octant-non-integral", "torus-non-integral"])
def test_generators_reject_sizes_without_a_tet(generate, name):
    """A size that would give an empty mesh, or a non-integral one that
    would be truncated, fails, naming the parameter."""
    with pytest.raises(ValueError, match=r"needs .*\b%s >= " % name):
        generate()


@pytest.mark.parametrize("radii", [(1.0, 2.0), (1.0 / 6.0, 1.0 / 6.0),
                                   (5.0 / 6.0, 0.0), (-1.0, -2.0),
                                   (float("inf"), 1.0)],
                         ids=["r-above-R", "r-equals-R", "r-0", "negative",
                              "R-inf"])
def test_torus_mesh_needs_major_radius_above_minor(radii):
    """The radii the torus rejects, for which the sector would cross the
    axis, have no tube or map its vertices to inf and NaN."""
    with pytest.raises(ValueError, match=r"R = %g, r = %g" % radii):
        generate_torus_sector_mesh(2, *radii)


@pytest.mark.parametrize("semi_axes", [
    (1.0, np.nan, 1.0), (0.6, 0.0, 1.0), (0.6, 0.8, -1.0), (np.inf, 1.0, 1.0),
], ids=["nan", "zero", "negative", "inf"])
def test_octant_mesh_needs_finite_positive_semi_axes(semi_axes):
    """The semi-axes the ellipsoid rejects."""
    with pytest.raises(ValueError, match=r"finite semi-axes > 0, got "
                       r"semi_axes = \["):
        generate_octant_mesh(2, semi_axes)


def test_generators_accept_numpy_integers():
    assert generate_box_tet_mesh(np.int64(1), np.int32(1), 1).n_tets == 6
    assert generate_octant_mesh(np.int64(2)).n_tets == 8
    assert generate_torus_sector_mesh(np.int64(2), 5.0 / 6.0,
                                      1.0 / 6.0).n_tets == 48


def test_box_mesh_counts():
    assert generate_box_tet_mesh(1, 1, 1).n_tets == 6
    assert generate_box_tet_mesh(8, 8, 8).n_tets == 3072
    m = generate_box_tet_mesh(8, 2, 2)
    assert m.n_tets == 6 * 8 * 2 * 2
    assert np.min(_volumes(m)) > 0
    assert float(_volumes(m).sum()) == pytest.approx(1.0)


def test_octant_mesh_counts_and_surface_vertices():
    assert generate_octant_mesh(1).n_tets == 1
    for J in (2, 4):
        m = generate_octant_mesh(J)
        assert m.n_tets == J**3
        assert np.min(_volumes(m)) > 0
        # vertices on the outer shell lie exactly on the sphere
        on_gamma = [
            v for v in m.vertices if abs(np.linalg.norm(v) - 1.0) <= 1e-12
        ]
        assert len(on_gamma) > 0
    # J=1: the corner tetrahedron, 3 vertices on the sphere
    m1 = generate_octant_mesh(1)
    n_on = sum(abs(SPHERE.value(v)) <= 1e-12 for v in m1.vertices)
    assert n_on == 3


@pytest.mark.parametrize("semi_axes", [(1.0, 1.0, 1.0), (0.6, 0.8, 1.0)],
                         ids=["sphere", "ellipsoid"])
def test_octant_mesh_matches_the_full_cube_filter(monkeypatch, semi_axes):
    """Forming the Kuhn tets of the cells with i >= j >= k only, and
    orienting the tets in blocks of 5, gives the vertices and tets, bit
    for bit, of the oracle: all 6 J^3 Kuhn tets of the cube filtered to
    K_J, oriented in one block."""
    with monkeypatch.context() as patch:
        patch.setattr(meshgen, "_kuhn_simplex_cells",
                      lambda J: _grid_cells((J, J, J)))
        oracle = [generate_octant_mesh(J, semi_axes) for J in range(1, 13)]
    monkeypatch.setattr(elements, "_BLOCK_ENTRIES", 5 * 12)
    for J, want in enumerate(oracle, start=1):
        mesh = generate_octant_mesh(J, semi_axes)
        assert mesh.vertices.tobytes() == want.vertices.tobytes(), J
        assert mesh.tets.tobytes() == want.tets.tobytes(), J


def test_octant_mesh_peak_is_bounded():
    """generate_octant_mesh(32) (32,768 tets) peaks at most 12 MB, as
    tracemalloc counts it: 9.4 MB measured, 36.8 MB while all 6 J^3 Kuhn
    tets of the cube were formed and oriented at once."""
    mesh, peak = traced_peak(generate_octant_mesh, 32)
    assert mesh.n_tets == 32**3
    assert peak <= 12 * 2**20, peak


def test_torus_mesh_peak_is_bounded():
    """The torus sector mesh of I=16 (24,576 tets) peaks at most 8 MB:
    5.0 MB measured, 17.1 MB while the tets were oriented at once."""
    mesh, peak = traced_peak(generate_torus_sector_mesh, 16, 5.0 / 6.0,
                             1.0 / 6.0)
    assert mesh.n_tets == 6 * 16**3
    assert peak <= 8 * 2**20, peak


def test_octant_mesh_ellipsoid():
    for J in (4, 8):
        m = generate_octant_mesh(J, (0.6, 0.8, 1.0))
        assert m.n_tets == J**3
        assert np.min(_volumes(m)) > 0
        cls = classify_boundary(m, ELLIPSOID)
        for v in cls.gamma_vertices:
            assert abs(ELLIPSOID.value(m.vertices[v])) <= 1e-12 * ELLIPSOID.scale


def test_octant_volume_converges_at_second_order():
    exact = 4.0 / 3.0 * np.pi * 0.6 * 0.8 / 8.0
    errs = []
    for J in (4, 8):
        m = generate_octant_mesh(J, (0.6, 0.8, 1.0))
        errs.append(exact - float(_volumes(m).sum()))
    assert errs[0] > 0 and errs[1] > 0  # inscribed polyhedron
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_quasi_uniformity():
    for mesh in (
        generate_octant_mesh(8),
        generate_octant_mesh(8, (0.6, 0.8, 1.0)),
        generate_torus_sector_mesh(4, 5.0 / 6.0, 1.0 / 6.0),
    ):
        h = _element_sizes(mesh)
        assert float(h.max() / h.min()) < 6.0


def test_torus_mesh_counts_and_surface_vertices():
    for I, n in ((2, 48), (4, 384)):
        m = generate_torus_sector_mesh(I, 5.0 / 6.0, 1.0 / 6.0)
        assert m.n_tets == n
        assert np.min(_volumes(m)) > 0
        cls = classify_boundary(m, TORUS)
        for v in cls.gamma_vertices:
            assert abs(TORUS.value(m.vertices[v])) <= 1e-12 * TORUS.scale
    with pytest.raises(ValueError, match="even"):
        generate_torus_sector_mesh(3, 5.0 / 6.0, 1.0 / 6.0)


def test_torus_volume_sanity():
    # sector = 1/16 of the full torus (theta span pi/4 of 2*pi, upper half)
    exact = 2 * np.pi**2 * (5.0 / 6.0) * (1.0 / 6.0) ** 2 / 16.0
    vol = float(_volumes(generate_torus_sector_mesh(8, 5.0 / 6.0,
                                                    1.0 / 6.0)).sum())
    assert abs(vol - exact) / exact < 0.02


def test_classification_octant_single_tet():
    m = generate_octant_mesh(1)
    cls = classify_boundary(m, SPHERE)
    assert cls.s_tets.tolist() == [0]
    assert cls.r_tets.tolist() == []
    assert len(cls.gamma_faces) == 1
    assert not cls.violations


def test_classification_census_matches_brute_force():
    m = generate_octant_mesh(4)
    cls = classify_boundary(m, SPHERE)
    # brute force: recompute which tets touch the surface triangulation
    gamma_faces = set()
    for tri in m.boundary_faces().tolist():
        if all(abs(SPHERE.value(m.vertices[v])) <= 1e-9 for v in tri):
            gamma_faces.add(tuple(tri))
    assert gamma_faces == _triples(m, cls.gamma_faces)
    touching = set()
    for t, tet in enumerate(m.tets):
        verts = set(int(v) for v in tet)
        for tri in gamma_faces:
            shared = verts & set(tri)
            if len(shared) >= 2:  # shares an edge or a face
                touching.add(t)
                break
    assert set(cls.s_tets) | set(cls.r_tets) == touching
    assert set(cls.s_tets).isdisjoint(cls.r_tets)
    assert cls.o_tets.tolist() == cls.s_tets.tolist() + cls.r_tets.tolist()
    assert not cls.violations


def test_classification_no_violations_on_all_families():
    """Every family classifies without violations, and its Gamma_h
    vertices lie on the surface."""
    for mesh, surf in (
        (generate_octant_mesh(4), SPHERE),
        (generate_octant_mesh(8), SPHERE),
        (generate_octant_mesh(4, (0.6, 0.8, 1.0)), ELLIPSOID),
        (generate_octant_mesh(8, (0.6, 0.8, 1.0)), ELLIPSOID),
        (generate_torus_sector_mesh(2, 5.0 / 6.0, 1.0 / 6.0), TORUS),
        (generate_torus_sector_mesh(4, 5.0 / 6.0, 1.0 / 6.0), TORUS),
    ):
        cls = classify_boundary(mesh, surf)
        assert not cls.violations
        gamma = mesh.vertices[cls.gamma_vertices]
        assert np.max(np.abs(surf.value(gamma))) <= 1e-12 * surf.scale


def test_torus_gamma_edges_have_two_incident_faces_or_rim():
    m = generate_torus_sector_mesh(2, 5.0 / 6.0, 1.0 / 6.0)
    cls = classify_boundary(m, TORUS)
    # the boundary faces off the surface
    symmetry_faces = np.setdiff1d(m.topology.boundary, cls.gamma_faces)
    for edge in m.topology.edge_vertices[cls.gamma_edges]:
        incident = [
            tri
            for tri in _triples(m, cls.gamma_faces)
            if edge[0] in tri and edge[1] in tri
        ]
        # interior surface edges have 2 incident faces; rim edges (on a
        # symmetry plane) have 1 and a symmetry face closing the fan
        assert len(incident) in (1, 2)
        if len(incident) == 1:
            sym = [
                tri
                for tri in _triples(m, symmetry_faces)
                if edge[0] in tri and edge[1] in tri
            ]
            assert len(sym) == 1


def test_boundary_edge_faces_match_a_scan_of_all_boundary_faces():
    """The edge ids of every boundary face, from which `skin_directions`
    finds the boundary faces of an edge, equal a scan of all boundary
    faces for the edges whose two vertices they contain."""
    m = generate_torus_sector_mesh(4, 5.0 / 6.0, 1.0 / 6.0)
    top = m.topology
    bfaces = m.boundary_faces().tolist()
    face_edges = top.face_edges(top.boundary)
    for e, (a, b) in enumerate(top.edge_vertices.tolist()):
        scanned = [tri for tri in bfaces if a in tri and b in tri]
        assert [bfaces[i] for i in np.nonzero(face_edges == e)[0]] == scanned


def test_classification_stable_under_vertex_permutation():
    m = generate_octant_mesh(3)
    cls = classify_boundary(m, SPHERE)
    rng = np.random.default_rng(4)
    tets = m.tets.copy()
    for t in range(tets.shape[0]):
        tets[t] = tets[t][rng.permutation(4)]
    m2 = Mesh(m.vertices.copy(), tets.copy(), symmetry_planes=m.symmetry_planes)
    # permuting vertices may flip orientation; Mesh construction does not
    # reorder, so classify on the raw connectivity
    cls2 = classify_boundary(m2, SPHERE)
    assert _triples(m, cls.gamma_faces) == _triples(m2, cls2.gamma_faces)
    assert set(cls.s_tets) == set(cls2.s_tets)
    assert set(cls.r_tets) == set(cls2.r_tets)


@pytest.mark.parametrize("generate,surface", [
    (lambda: generate_octant_mesh(4), SPHERE),
    (lambda: generate_octant_mesh(4, (0.6, 0.8, 1.0)), ELLIPSOID),
    (lambda: generate_torus_sector_mesh(2, 5.0 / 6.0, 1.0 / 6.0), TORUS),
    (lambda: generate_torus_sector_mesh(4, 5.0 / 6.0, 1.0 / 6.0), TORUS),
], ids=["octant-4", "ellipsoid-4", "torus-2", "torus-4"])
def test_symmetry_planes_are_unit_normals_through_the_origin(generate,
                                                             surface):
    """Each generator declares its symmetry planes as an (n, 3) array of
    unit normals, and each boundary face off Gamma has all three vertices
    within 1e-12 of one of these planes through the origin."""
    mesh = generate()
    planes = mesh.symmetry_planes
    assert isinstance(planes, np.ndarray) and planes.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(planes, axis=1), 1.0,
                               rtol=0, atol=1e-15)
    cls = classify_boundary(mesh, surface)
    off = np.setdiff1d(mesh.topology.boundary, cls.gamma_faces)
    assert off.size > 0
    pts = mesh.vertices[mesh.topology.face_vertices[off]]  # (n, 3, 3)
    dist = np.abs(np.einsum("fvd,pd->fvp", pts, planes)).max(axis=1)
    assert np.all(dist.min(axis=1) <= 1e-12)


def test_face_off_every_declared_plane_is_named():
    """An octant mesh that does not declare its z = 0 plane: the faces on
    that plane are on neither the surface nor a declared plane."""
    m = generate_octant_mesh(2)
    m2 = Mesh(m.vertices, m.tets, symmetry_planes=m.symmetry_planes[:2])
    with pytest.raises(ValueError, match=r"boundary face \(\d+, \d+, \d+\) is "
                       "neither on the surface nor on a symmetry plane"):
        classify_boundary(m2, SPHERE)


def test_skin_direction_flat_and_ridge():
    # flat plate: two coplanar boundary faces -> skin = common normal
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
            [0, 0, -1], [1, 0, -1], [0, 1, -1], [1, 1, -1],
        ],
        dtype=float,
    )
    tets = [[0, 1, 2, 4], [1, 3, 2, 5], [1, 2, 4, 5], [2, 4, 5, 6],
            [2, 3, 5, 7], [2, 5, 6, 7]]
    from shiftfem.meshgen import _fix_orientation

    mesh = Mesh(verts, _fix_orientation(verts, tets))

    class FlatTop:
        scale = 1.0

        def value(self, p):
            return p[..., 2]

    cls = classify_boundary(mesh, FlatTop())
    edges = mesh.topology.edge_vertices[cls.gamma_edges].tolist()
    assert [1, 2] in edges
    w = skin_directions(mesh, cls)[edges.index([1, 2])]
    np.testing.assert_allclose(w, [0, 0, 1], atol=1e-12)


def test_skin_direction_upright_on_sphere():
    m = generate_octant_mesh(4)
    cls = classify_boundary(m, SPHERE)
    h = float(_element_sizes(m).max())
    edges = m.topology.edge_vertices[cls.gamma_edges]
    for edge, w in zip(edges, skin_directions(m, cls)):
        e = m.vertices[edge[1]] - m.vertices[edge[0]]
        assert abs(w @ e) <= 1e-12 * np.linalg.norm(e)
        M = 0.5 * (m.vertices[edge[0]] + m.vertices[edge[1]])
        P, _ = SPHERE.nearest_line_intersection(M, w, 4 * h)
        n = P / np.linalg.norm(P)  # the unit sphere's normal
        assert abs(w @ n) >= 1.0 - 1.5 * h


def test_mesh_export(tmp_path):
    m = generate_octant_mesh(2)
    vtk = tmp_path / "m.vtk"
    txt = tmp_path / "m.txt"
    write_vtk(m, vtk, point_data={"z": m.vertices[:, 2]})
    write_mesh_text(m, txt)
    content = vtk.read_text()
    assert "POINTS %d double" % m.n_vertices in content
    assert content.count("\n10\n") >= 1  # VTK tet cell type
    assert "CELLS %d" % m.n_tets in content
    lines = txt.read_text().splitlines()
    assert lines[0] == "vertices %d" % m.n_vertices
    assert lines[m.n_vertices + 1] == "tets %d" % m.n_tets


def test_degenerate_tet_error_names_the_first_one():
    from shiftfem.meshgen import _fix_orientation

    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [1, 1, 0], [2, 2, 0]], dtype=float)
    tets = [[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 4, 5], [0, 1, 2, 4]]
    with pytest.raises(ValueError, match="degenerate tetrahedron 2 "):
        _fix_orientation(verts, tets)
    fixed = _fix_orientation(verts, tets[:2])
    assert fixed.tolist() == [[0, 1, 2, 3], [0, 2, 3, 1]]
    # a coordinate that is not finite makes the determinant NaN
    verts[3, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="degenerate tetrahedron 0 "):
            _fix_orientation(verts, tets[:2])


def test_skin_direction_needs_two_boundary_faces_per_edge():
    """Two tets sharing only the edge (0, 1): its four boundary faces
    admit no skin direction, and the error names the edge."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, -1, 0], [0, 0, -1]], dtype=float)

    class FlatPlane:
        scale = 1.0

        def value(self, p):
            return p[..., 2]

    mesh = Mesh(verts, [[0, 1, 2, 3], [0, 1, 4, 5]])
    cls = classify_boundary(mesh, FlatPlane())
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has 4 adjacent"):
        skin_directions(mesh, cls)
