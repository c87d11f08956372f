import numpy as np
import pytest

from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import AffineMap, shape_values, tet_quadrature
from shiftfem.meshgen import classify_boundary, generate_octant_mesh
from shiftfem.surfaces import Ellipsoid, Sphere
from shiftfem.trialspace import (
    build_modified_basis,
    build_shifted_node_table,
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
def test_shifted_points_lie_on_surface(degree):
    mesh, cls, nodes, table = _setup(4, degree)
    assert table.shifts  # nonempty
    for nid, p in table.shifts.items():
        assert abs(SPHERE.value(p)) <= 1e-12 * SPHERE.scale


def test_shift_magnitude_is_second_order():
    """max |M - Q| over edge nodes drops like h^2 when J doubles."""
    maxima = {}
    for J in (4, 8):
        mesh, cls, nodes, table = _setup(
            J, 2, surface=ELLIPSOID, axes=(0.6, 0.8, 1.0)
        )
        maxima[J] = max(
            float(np.linalg.norm(nodes.coords[n] - p))
            for n, p in table.shifts.items()
        )
    assert 3.4 <= maxima[4] / maxima[8] <= 4.6


def test_face_node_shift_is_radial_for_corner_tet():
    """On the J=1 sphere octant the opposite vertex is the origin, so the
    k=3 face node moves radially: P = M/|M|."""
    mesh, cls, nodes, table = _setup(1, 3)
    face_nodes = [
        n for n in table.shifts
        if nodes.entity_kind[n] == "face"
    ]
    assert len(face_nodes) == 1
    M = nodes.coords[face_nodes[0]]
    P = table.shifts[face_nodes[0]]
    np.testing.assert_allclose(P, M / np.linalg.norm(M), atol=1e-12)


def test_single_valuedness_across_elements():
    mesh, cls, nodes, table = _setup(4, 2)
    # every Gamma_h node appears once in the global table; elements sharing
    # the entity see the same point by construction
    seen = {}
    for t in cls.o_tets:
        for g in nodes.cell_nodes(t):
            g = int(g)
            if table.gamma_mask[g]:
                p = table.shifted_point(g)
                if g in seen:
                    np.testing.assert_array_equal(seen[g], p)
                seen[g] = p


@pytest.mark.parametrize("degree", [2, 3])
def test_modified_basis_delta_and_free_counts(degree):
    mesh, cls, nodes, table = _setup(3, degree)
    n_k = 10 if degree == 2 else 20
    m_k = degree * (degree + 2) * (degree + 1) // 6
    p_k = n_k - (degree + 1)
    for t in cls.o_tets:
        basis = build_modified_basis(mesh, nodes, table, t)
        # psi_j(shifted node i) = delta_ij
        amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[t]])
        cell = nodes.cell_nodes(t)
        refs = amap.to_reference(
            np.array([table.shifted_point(int(g)) for g in cell])
        )
        psi = shape_values(degree, refs) @ basis.C
        assert np.max(np.abs(psi - np.eye(n_k))) <= 1e-10
        n_free = np.count_nonzero(~table.gamma_mask[cell])
        if t in cls.s_tets:
            assert n_free == m_k
        else:
            assert n_free == p_k


def test_interior_element_has_identity_matrix():
    mesh, cls, nodes, table = _setup(3, 2)
    interior = [t for t in range(mesh.n_tets) if t not in set(cls.o_tets)]
    t = interior[0]
    basis = build_modified_basis(mesh, nodes, table, t)
    np.testing.assert_array_equal(basis.K, np.eye(10))
    np.testing.assert_array_equal(basis.C, np.eye(10))


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
    zeros = table.dirichlet_values(lambda p: 0.0)
    assert zeros.shape == table.gamma_mask.shape
    assert np.all(zeros == 0.0)
    # a linear g is evaluated at the shifted points, and only on Gamma_h
    vals = table.dirichlet_values(lambda p: p[0] + 2.0)
    assert np.all(vals[~table.gamma_mask] == 0.0)
    for n in np.nonzero(table.gamma_mask)[0]:
        assert vals[n] == pytest.approx(table.shifted_point(int(n))[0] + 2.0)


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
    nid = next(iter(table.shifts))
    bad = [t for t in cls.o_tets if nid in map(int, nodes.cell_nodes(t))][0]
    table.shifts[nid] = mesh.vertices[mesh.tets[bad][0]].copy()
    with pytest.raises(ValueError, match="too coarse"):
        build_modified_basis(mesh, nodes, table, bad)
