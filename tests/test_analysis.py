import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftfem import elements
from shiftfem.analysis import (
    CSV_HEADER,
    ConvergenceTable,
    eoc,
    error_norms,
    run_convergence,
    run_single,
)
from shiftfem.assembly import element_phi_coefficients
from shiftfem.cases import get_case
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import (
    AffineMap,
    reference_nodes,
    refined_quadrature,
    shape_gradients,
    shape_values,
    tet_quadrature,
)
from meshes import flipped, generate_box_tet_mesh, traced_peak

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def test_eoc_trivia():
    assert eoc(4.0, 1.0, 1.0, 0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        eoc(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        eoc(-1.0, 1.0, 1.0, 0.5)


def test_eoc_reference_pairs():
    # energy-norm error pairs measured at h = 1/4 and 1/8
    assert eoc(0.0187649, 0.00499091, 0.25, 0.125) == pytest.approx(
        1.911, abs=5e-4
    )
    assert eoc(0.0257134, 0.0091791, 0.25, 0.125) == pytest.approx(
        1.486, abs=5e-4
    )


def test_eoc_invariant_under_h_scaling():
    v1 = eoc(3e-3, 1e-3, 0.25, 0.125)
    v2 = eoc(3e-3, 1e-3, 0.25 * 7.3, 0.125 * 7.3)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_error_norms_exact_interpolant_on_box():
    """A global quadratic interpolated on a cube mesh is reproduced; all
    three errors vanish."""
    mesh = generate_box_tet_mesh(2, 2, 2)
    nodes = build_lagrange_nodes(mesh, 2)

    def u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return 1.0 + x - 2 * y + 0.5 * z + x * y - z * z + 0.25 * x * z

    def grad_u(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return np.stack([1 + y + 0.25 * z, -2 + x, 0.5 - 2 * z + 0.25 * x],
                        axis=-1)

    coeffs = np.array(
        [[u(nodes.coords[n]) for n in nodes.cell_nodes_table[t]]
         for t in range(mesh.n_tets)]
    )
    h1, l2, nodal = error_norms(mesh, 2, coeffs, u, grad_u)
    assert h1 <= 1e-12 and l2 <= 1e-12 and nodal <= 1e-12


def test_error_norms_constant_offset():
    """u_h = c against exact 0 on the unit cube: L2 error = c."""
    mesh = generate_box_tet_mesh(2, 2, 2)
    c = 0.37
    coeffs = np.full((mesh.n_tets, 10), c)
    h1, l2, nodal = error_norms(
        mesh, 2, coeffs, lambda p: 0.0, lambda p: np.zeros(3)
    )
    assert l2 == pytest.approx(c, rel=1e-12)
    assert h1 <= 1e-12
    assert nodal == pytest.approx(c)


def test_error_norms_match_refined_oracle():
    """The production norm quadrature is compared against successively
    refined composite oracles.  Note the quadrature bias of any fixed-order
    rule scales at the same h-order as the L2 error norm itself (both
    integrand and error behave like h^{2(k+1)} locally), so the production
    rule keeps a small constant relative offset (~0.2%) from a converged
    oracle; the oracle sequence itself contracts by ~2^-6 per level."""
    case = get_case("tp1-sphere")
    rep, mesh, system, sr = run_single(case, "new", 2, 4)
    coeffs = element_phi_coefficients(system, sr.x)
    h1_a, l2_a, _ = error_norms(
        mesh, 2, coeffs, case.u, case.grad_u, refined_quadrature(5, 2)
    )
    h1_b, l2_b, _ = error_norms(
        mesh, 2, coeffs, case.u, case.grad_u, refined_quadrature(5, 3)
    )
    # production rule close to the converged value
    assert rep.err_h1_broken == pytest.approx(h1_b, rel=1e-4)
    assert rep.err_l2 == pytest.approx(l2_b, rel=5e-3)
    # oracle sequence has converged well past the reported digits
    assert h1_a == pytest.approx(h1_b, rel=1e-5)
    assert l2_a == pytest.approx(l2_b, rel=1e-4)


def per_point_error_norms(mesh, degree, phi_coeffs, u, grad_u, quad):
    """Reference loop for `error_norms`: one quadrature point at a time on
    all tets, each (n_tets,) term accumulated in rule order."""
    vals = shape_values(degree, quad.points)
    grads = shape_gradients(degree, quad.points)
    amap = AffineMap.from_vertices(mesh.vertices[mesh.tets])
    h1_sq = np.zeros(mesh.n_tets)
    l2_sq = np.zeros(mesh.n_tets)
    for q, w in enumerate(quad.weights):
        pts = amap.to_physical(quad.points[q])[:, 0]
        uh = phi_coeffs @ vals[q]
        guh = np.einsum("td,tde->te", phi_coeffs @ grads[q], amap.Binv)
        l2_sq += w * (uh - u(pts)) ** 2
        h1_sq += w * ((guh - grad_u(pts)) ** 2).sum(axis=-1)
    nodal = phi_coeffs - u(amap.to_physical(reference_nodes(degree)))
    return (float(np.sqrt(h1_sq @ amap.detB)), float(np.sqrt(l2_sq @ amap.detB)),
            float(np.max(np.abs(nodal))))


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("case_name,param", [("tp1-sphere", 4),
                                             ("tp3-torus", 2)])
def test_blocked_error_norms_match_per_point_loop(case_name, param, degree):
    """The tet blocks give the per-point loop's norms, on rules of 15
    points, whose blocks hold every tet of these meshes, and of 120 and
    960 points, whose blocks of 91 and 11 tets leave a shorter last one,
    and with `u`/`grad_u` returning constants, as the case contract
    allows."""
    case = get_case(case_name)
    _rep, mesh, system, sol = run_single(case, "new", degree, param)
    coeffs = element_phi_coefficients(system, sol.x)
    callables = [(case.u, case.grad_u),
                 (lambda p: 0.25, lambda p: np.array([0.5, -1.0, 2.0]))]
    for quad in (tet_quadrature(5), refined_quadrature(5, 1),
                 refined_quadrature(5, 2)):
        for u, grad_u in callables:
            np.testing.assert_allclose(
                error_norms(mesh, degree, coeffs, u, grad_u, quad),
                per_point_error_norms(mesh, degree, coeffs, u, grad_u, quad),
                rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case_name,param", [("tp1-sphere", 8),
                                             ("tp3-torus", 4)])
def test_blocks_of_tets_match_one_block(case_name, param, monkeypatch):
    """Blocks of one tet give the norms of one block of all tets within
    1e-14: only the grouping of the sums differs."""
    case = get_case(case_name)
    _rep, mesh, system, sol = run_single(case, "new", 2, param)
    coeffs = element_phi_coefficients(system, sol.x)
    per_tet = 3 * refined_quadrature(5, 1).weights.size
    norms = []
    for tets in (mesh.n_tets, 1):
        monkeypatch.setattr(elements, "_BLOCK_ENTRIES", tets * per_tet)
        norms.append(error_norms(mesh, 2, coeffs, case.u, case.grad_u))
    np.testing.assert_allclose(norms[1], norms[0], rtol=1e-14, atol=0.0)


def test_error_norms_peak_is_bounded():
    """On tp1 J=16 (4,096 tets) the norms peak at most 2 MB, as tracemalloc
    counts them (measured 1.2 MB; 4.1 MB when each block held 2**15
    quadrature points whatever the arrays per point)."""
    case = get_case("tp1-sphere")
    mesh = case.mesh(16)
    coeffs = np.zeros((mesh.n_tets, 10))
    peak = traced_peak(error_norms, mesh, 2, coeffs, case.u, case.grad_u)[1]
    assert peak <= 2e6, peak


def test_degenerate_tet_is_named_by_its_mesh_id():
    """A tet turned inside out is reported by its id in the mesh, not by
    its index in the block of tets that found it."""
    case = get_case("tp1-sphere")
    mesh = flipped(case.mesh(16), 3000)
    coeffs = np.zeros((mesh.n_tets, 10))
    with pytest.raises(ValueError, match="tetrahedron 3000 is degenerate"):
        error_norms(mesh, 2, coeffs, case.u, case.grad_u)


def test_error_norms_memory_does_not_grow_with_the_rule():
    """Eight times the quadrature points cost at most 1.5x the peak
    memory: the kernel holds one block of tets with a fixed number of
    quadrature points at a time, never the whole rule on every tet."""
    case = get_case("tp1-sphere")
    mesh = case.mesh(8)
    coeffs = np.zeros((mesh.n_tets, 10))
    peaks = []
    for quad in (refined_quadrature(5, 1), refined_quadrature(5, 2)):
        peaks.append(traced_peak(error_norms, mesh, 2, coeffs, case.u,
                                 case.grad_u, quad)[1])
    assert peaks[1] <= 1.5 * peaks[0]


def test_error_norms_memory_does_not_grow_with_the_mesh():
    """Eight times the tets (J=8 to J=16, 4,096 tets) cost at most 1.5x
    the peak memory: each block holds a fixed number of quadrature points
    (measured 1.2 and 1.2 MB; 1.3 and 9.4 MB when each block held 16
    points of every tet)."""
    case = get_case("tp1-sphere")
    peaks = []
    for J in (8, 16):
        mesh = case.mesh(J)
        coeffs = np.zeros((mesh.n_tets, 10))
        peaks.append(traced_peak(error_norms, mesh, 2, coeffs, case.u,
                                 case.grad_u)[1])
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("degree", [1, 4])
def test_unsupported_degree_is_rejected(degree):
    """The one degree check, in `elements.multi_indices`, is what the node
    builder and a full run report."""
    message = "only degrees 2 and 3 are supported"
    with pytest.raises(ValueError, match=message):
        build_lagrange_nodes(generate_box_tet_mesh(1, 1, 1), degree)
    with pytest.raises(ValueError, match=message):
        run_single(get_case("tp1-sphere"), "new", degree, 2)


def test_convergence_table_structure_and_csv():
    case = get_case("tp1-sphere")
    table = run_convergence(case, "new", 2, [4, 8], record_time=False)
    assert len(table.reports) == 2
    assert table.eoc_h1[0] is None and table.eoc_h1[1] is not None
    # the EOCs are derived from the rows, whoever builds the table
    rows = table.reports
    one = ConvergenceTable("c", "new", 2, [4], rows[:1])
    assert one.eoc_h1 == one.eoc_l2 == [None]
    two = ConvergenceTable("c", "new", 2, [4, 8], rows)
    assert two.eoc_h1 == [None, eoc(rows[0].err_h1_broken,
                                    rows[1].err_h1_broken, rows[0].h,
                                    rows[1].h)]
    assert two.eoc_l2 == [None, eoc(rows[0].err_l2, rows[1].err_l2,
                                    rows[0].h, rows[1].h)]
    zero = [rows[0], dataclasses.replace(rows[1], err_l2=0.0)]
    with pytest.raises(ValueError):
        ConvergenceTable("c", "new", 2, [4, 8], zero)
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "tp1-sphere"
    assert first[1] == "new"
    assert first[2] == "2"
    assert first[9] == ""  # no EOC on the first row
    assert first[11] == "0"  # timing zeroed in deterministic mode
    text = table.to_text()
    assert "err_h1_broken" in text


def test_run_convergence_validates_params():
    case = get_case("tp1-sphere")

    def no_mesh(param):
        raise AssertionError("a level was built before the check")

    unbuilt = dataclasses.replace(case, mesh=no_mesh)
    with pytest.raises(ValueError, match="need at least one refinement"):
        run_convergence(unbuilt, "new", 2, [])
    with pytest.raises(ValueError):
        run_convergence(unbuilt, "new", 2, [8, 4])
    for bad in (0, -2, 2.5):
        with pytest.raises(ValueError, match=r"parameter %r is not an "
                           r"integer >= 1" % bad):
            run_convergence(unbuilt, "new", 2, [bad, 4])
    with pytest.raises(ValueError):
        run_single(case, "nonconforming", 3, 4)
    with pytest.raises(ValueError):
        run_single(case, "unknown-method", 2, 4)
    # an error, not the J = 2 mesh reported with h = 0.4
    with pytest.raises(ValueError, match=r"integer J >= 1, got J = 2\.5"):
        run_single(case, "new", 2, 2.5)


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "case,method,k,param,h,n_dofs,err_h1_broken,err_l2,err_nodal_max,"
        "eoc_h1,eoc_l2,solve_seconds"
    )


def test_solve_seconds_is_the_sparse_solve():
    rep, _mesh, _system, sol = run_single(get_case("tp1-sphere"), "new", 2, 4)
    assert rep.solve_seconds == sol.seconds > 0.0


@pytest.fixture(scope="module")
def bench_inputs():
    """The benchmark's jitter rule (bench/inputs.py), loaded read-only."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tp1_orders_on_jittered_meshes(bench_inputs, seed):
    """tp1 new k=2 keeps the orders of acceptance criterion 2 when every
    vertex off the boundary moves by up to 0.15x the shortest edge."""
    case, params = get_case("tp1-sphere"), (4, 8, 16)
    levels = {p: bench_inputs.make_level(case, p, seed) for p in params}
    jittered = dataclasses.replace(
        case, mesh=bench_inputs.jittered_mesh(case.mesh, levels))
    for p in params:
        plain, mesh = case.mesh(p), jittered.mesh(p)
        moved = np.linalg.norm(mesh.vertices - plain.vertices, axis=1)
        shortest = bench_inputs.shortest_edge(plain.vertices, plain.tets)
        assert 0.0 < moved.max() <= bench_inputs.JITTER * shortest
        assert np.all(bench_inputs.tet_volumes(mesh.vertices, mesh.tets) > 0.0)
        assert (bench_inputs.boundary_counts(mesh, case.surface)
                == bench_inputs.boundary_counts(plain, case.surface))
    table = run_convergence(jittered, "new", 2, params, record_time=False)
    assert 1.8 <= table.eoc_h1[-1] <= 2.1
    assert 2.7 <= table.eoc_l2[-1] <= 3.1
