import numpy as np
import pytest

from shiftfem.analysis import (
    CSV_HEADER,
    ConvergenceTable,
    ErrorReport,
    eoc,
    error_norms,
    run_convergence,
    run_single,
)
from shiftfem.assembly import element_phi_coefficients
from shiftfem.cases import get_case
from shiftfem.dofs import build_lagrange_nodes
from shiftfem.elements import refined_quadrature
from shiftfem.meshgen import generate_box_tet_mesh


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
        x, y, z = p
        return 1.0 + x - 2 * y + 0.5 * z + x * y - z * z + 0.25 * x * z

    def grad_u(p):
        x, y, z = p
        return np.array([1 + y + 0.25 * z, -2 + x, 0.5 - 2 * z + 0.25 * x])

    coeffs = np.array(
        [[u(nodes.coords[n]) for n in nodes.cell_nodes(t)]
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


def test_convergence_table_structure_and_csv():
    case = get_case("tp1-sphere")
    table = run_convergence(case, "new", 2, [4, 8], record_time=False)
    assert len(table.reports) == 2
    assert table.eoc_h1[0] is None and table.eoc_h1[1] is not None
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
    with pytest.raises(ValueError):
        run_convergence(case, "new", 2, [8, 4])
    with pytest.raises(ValueError):
        run_single(case, "nonconforming", 3, 4)
    with pytest.raises(ValueError):
        run_single(case, "unknown-method", 2, 4)


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "case,method,k,param,h,n_dofs,err_h1_broken,err_l2,err_nodal_max,"
        "eoc_h1,eoc_l2,solve_seconds"
    )


def test_solve_seconds_is_the_sparse_solve():
    rep, _mesh, _system, sol = run_single(get_case("tp1-sphere"), "new", 2, 4)
    assert rep.solve_seconds == sol.seconds > 0.0
