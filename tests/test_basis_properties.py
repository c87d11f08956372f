"""Properties of the boundary bases, built in one batch per mesh, on random
meshes: octants of random ellipsoids and torus sectors of random radii,
with the vertices off the boundary jittered.

* The modified Lagrange basis reproduces P_k at the shifted nodes and is
  a partition of unity.
* With every DOF row marked shifted but every point left in place, the
  one DOF-matrix kernel returns C = I, and K's deviation from the
  identity is 0 to rounding, for the Lagrange elements (k = 2, 3) and the
  nonconforming element: each element's DOF points, weights and
  reference transform agree.
* Before the Dirichlet elimination, every row of the stiffness matrix
  sums to zero, element by element and assembled, for the new method
  (k = 2, 3) and the shifted nonconforming element: constants lie in
  every trial space and have zero gradient.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from shiftfem.assembly import assemble, element_stiffness
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import AffineMap, shape_values
from shiftfem.meshgen import (
    classify_boundary,
    generate_octant_mesh,
    generate_torus_sector_mesh,
)
from shiftfem.nonconforming import (
    _REF_BARY,
    _WEIGHTS,
    _shifted_edge_points,
    _shifted_face_points,
    build_nc_modified_basis,
    nc_layout,
    nc_reference_matrix,
)
from shiftfem.surfaces import Ellipsoid, Sphere, Torus
from shiftfem.trialspace import (
    ShiftedNodeTable,
    build_modified_basis,
    build_shifted_node_table,
)

MESHES = st.one_of(
    st.tuples(st.just("octant"), st.integers(1, 5),
              st.tuples(*[st.floats(0.6, 1.0)] * 3)),
    st.tuples(st.just("torus"), st.sampled_from([2, 4]),
              st.tuples(st.floats(0.6, 1.0), st.floats(0.1, 0.3))),
)


def jittered_mesh(family, param, shape, rng):
    """A generated mesh whose vertices on no boundary face are moved by up
    to a tenth of the shortest edge, with its surface."""
    if family == "octant":
        mesh = generate_octant_mesh(param, shape)
        surface = Ellipsoid(np.array(shape))
    else:
        mesh = generate_torus_sector_mesh(param, *shape)
        surface = Torus(*shape)
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_faces())
    ends = mesh.vertices[mesh.topology.edge_vertices]
    shortest = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min()
    step = 0.1 * shortest / np.sqrt(3.0)
    mesh.vertices[free] += rng.uniform(-step, step, size=(free.size, 3))
    return mesh, surface


def random_polynomial(rng, degree):
    """A polynomial of total degree `degree` with random coefficients, as
    a callable on (..., 3) points."""
    exps = [(a, b, c) for a in range(degree + 1) for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]
    coef = rng.standard_normal(len(exps))

    def poly(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return sum(w * x**a * y**b * z**c for w, (a, b, c) in zip(coef, exps))

    return poly


def random_ref_points(rng, n):
    lam = rng.dirichlet(np.ones(4), size=n)
    return lam[:, 1:]


@given(MESHES, st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
@example(("octant", 3, (1.0, 1.0, 1.0)), 2, 0)  # the unit sphere, J = 3
@example(("octant", 3, (1.0, 1.0, 1.0)), 3, 0)
def test_modified_basis_reproduces_pk_and_sums_to_one(spec, degree, seed):
    rng = np.random.default_rng(seed)
    mesh, surface = jittered_mesh(*spec, rng)
    cls = classify_boundary(mesh, surface)
    nodes = build_lagrange_nodes(mesh, degree)
    table = build_shifted_node_table(mesh, cls, surface, nodes)
    basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
    assert basis.C.shape == (cls.o_tets.size,) + (nodes.cell_nodes_table.shape[1],) * 2

    # the interpolant at the shifted nodes, in the P_k Lagrange basis
    poly = random_polynomial(rng, degree)
    cell = nodes.cell_nodes_table[basis.tets]
    coef = np.einsum("tij,tj->ti", basis.C, poly(table.points[cell]))
    ref = random_ref_points(rng, 12)
    phi = shape_values(degree, ref)  # (m, n_k)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[basis.tets]])
    exact = poly(amap.to_physical(ref))  # (n_tets, m)
    scale = max(1.0, float(np.max(np.abs(exact), initial=0.0)))
    assert np.max(np.abs(coef @ phi.T - exact), initial=0.0) <= 1e-9 * scale

    pou = (phi @ basis.C).sum(axis=-1)
    assert np.max(np.abs(pou - 1.0), initial=0.0) <= 1e-10


@pytest.mark.parametrize("element", ["lagrange-2", "lagrange-3",
                                     "nonconforming"])
def test_unshifted_points_give_identity_dof_matrices(element):
    mesh = generate_octant_mesh(3)
    tets = np.arange(mesh.n_tets)
    if element == "nonconforming":
        top = mesh.topology
        cls = classify_boundary(mesh, Sphere(np.zeros(3), 1.0))
        every = dataclasses.replace(cls, gamma_faces=np.arange(top.n_faces),
                                    gamma_edges=np.arange(top.n_edges))
        basis = build_nc_modified_basis(
            mesh, every, tets, mesh.vertices[top.edge_vertices].mean(axis=1),
            mesh.vertices[top.face_vertices].mean(axis=1))
    else:
        nodes = build_lagrange_nodes(mesh, int(element[-1]))
        table = ShiftedNodeTable(shifts=np.arange(nodes.n_nodes),
                                 points=nodes.coords)
        basis = build_modified_basis(mesh, nodes, table, tets)
    assert basis.C.shape[0] == mesh.n_tets
    assert np.max(np.abs(basis.C - np.eye(basis.C.shape[-1]))) <= 1e-13
    assert np.max(basis.deviations) <= 1e-13


@given(MESHES, st.sampled_from([("new", 2), ("new", 3), ("nonconforming", 2)]),
       st.integers(0, 2**32 - 1))
def test_stiffness_rows_sum_to_zero_before_elimination(spec, method, seed):
    name, degree = method
    mesh, surface = jittered_mesh(*spec, np.random.default_rng(seed))
    cls = classify_boundary(mesh, surface)
    if name == "new":
        nodes = build_lagrange_nodes(mesh, degree)
        table = build_shifted_node_table(mesh, cls, surface, nodes)
        basis = build_modified_basis(mesh, nodes, table, cls.o_tets)
        cells, R, T = nodes.cell_nodes_table, None, np.eye(basis.C.shape[-1])
        hats = nodes.hats
    else:
        basis = build_nc_modified_basis(
            mesh, cls, cls.o_tets, _shifted_edge_points(mesh, cls, surface),
            _shifted_face_points(mesh, cls, surface))
        layout = nc_layout(mesh)
        cells, R = layout.cells(), nc_reference_matrix()
        T = R
        hats = layout.hats(_WEIGHTS @ _REF_BARY)

    # element by element: T_test^T S T_test C on the boundary tets
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets[basis.tets]])
    S = T.T @ element_stiffness(amap, degree) @ T @ basis.C
    rows = S.sum(axis=-1)
    assert np.max(np.abs(rows), initial=0.0) <= 1e-12 * np.max(np.abs(S))

    # assembled, with no DOF eliminated
    n = int(cells.max()) + 1
    A = assemble(mesh, degree, cells, np.zeros(n, dtype=bool), np.zeros(n),
                 basis, R, lambda p: 0.0, hats).A
    assert A.shape == (n, n)
    assert np.max(np.abs(A @ np.ones(n))) <= 1e-12 * np.max(np.abs(A.data))
