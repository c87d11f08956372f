"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

The heavy convergence studies are shared between criteria through
module-scoped fixtures, so the whole gate runs in a few minutes.
"""
import subprocess
import sys
import time

import numpy as np
import pytest

from shiftfem.analysis import run_convergence, run_single
from shiftfem.cases import get_case


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(
        "ACCEPTANCE criterion %d [%s]: %s%s"
        % (number, status, description, " -- " + detail if detail else "")
    )
    assert ok, "criterion %d failed: %s (%s)" % (number, description, detail)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tp1_new():
    return _timed(
        lambda: run_convergence(
            get_case("tp1-sphere"), "new", 2, [4, 8, 16], record_time=False
        )
    )


@pytest.fixture(scope="module")
def tp1_poly():
    return run_convergence(
        get_case("tp1-sphere"), "polyhedral", 2, [4, 8, 16], record_time=False
    )


@pytest.fixture(scope="module")
def tp2_new():
    return run_convergence(
        get_case("tp2-ellipsoid"), "new", 2, [2, 4, 8], record_time=False
    )


@pytest.fixture(scope="module")
def tp2_poly():
    return run_convergence(
        get_case("tp2-ellipsoid"), "polyhedral", 2, [2, 4, 8],
        record_time=False,
    )


@pytest.fixture(scope="module")
def tp3_new():
    return run_convergence(
        get_case("tp3-torus"), "new", 2, [2, 4, 8], record_time=False
    )


@pytest.fixture(scope="module")
def tp3_poly():
    return run_convergence(
        get_case("tp3-torus"), "polyhedral", 2, [2, 4, 8], record_time=False
    )


@pytest.fixture(scope="module")
def tp1_nc():
    return run_convergence(
        get_case("tp1-sphere"), "nonconforming", 2, [4, 8, 16],
        record_time=False,
    )


def test_criterion_1_quadratic_consistency():
    case = get_case("quadratic-ellipsoid")

    def runs():
        return [run_single(case, "new", 2, J)[0] for J in (2, 4)]

    reports, seconds = _timed(runs)
    worst_h1 = max(r.err_h1_broken for r in reports)
    worst_nodal = max(r.err_nodal_max for r in reports)
    ok = worst_h1 <= 1e-10 and worst_nodal <= 1e-10 and seconds < 30.0
    _report(
        1,
        "quadratic consistency on the ellipsoid (new method, k=2)",
        ok,
        "max err_h1=%.2e max err_nodal=%.2e runtime=%.1fs"
        % (worst_h1, worst_nodal, seconds),
    )


def test_criterion_2_tp1_sphere_orders(tp1_new):
    table, seconds = tp1_new
    oh, ol = table.eoc_h1[-1], table.eoc_l2[-1]
    ok = 1.8 <= oh <= 2.1 and 2.7 <= ol <= 3.1 and seconds < 600.0
    _report(
        2,
        "sphere convergence orders (new method, J=4,8,16)",
        ok,
        "EOC(H1)=%.3f EOC(L2)=%.3f runtime=%.0fs" % (oh, ol, seconds),
    )


def test_criterion_3_tp2_ellipsoid_orders(tp2_new):
    oh, ol = tp2_new.eoc_h1[-1], tp2_new.eoc_l2[-1]
    ok = 1.8 <= oh <= 2.1 and 2.7 <= ol <= 3.1
    _report(
        3,
        "ellipsoid convergence orders (new method, J=2,4,8)",
        ok,
        "EOC(H1)=%.3f EOC(L2)=%.3f" % (oh, ol),
    )


def test_criterion_4_tp3_torus_orders(tp3_new):
    oh, ol = tp3_new.eoc_h1[-1], tp3_new.eoc_l2[-1]
    ok = 1.8 <= oh <= 2.1 and 2.7 <= ol <= 3.15
    _report(
        4,
        "torus (non-convex) convergence orders (new method, I=2,4,8)",
        ok,
        "EOC(H1)=%.3f EOC(L2)=%.3f" % (oh, ol),
    )


def test_criterion_5_polyhedral_baseline_orders(tp1_poly):
    oh, ol = tp1_poly.eoc_h1[-1], tp1_poly.eoc_l2[-1]
    ok = 1.35 <= oh <= 1.65 and 1.8 <= ol <= 2.2
    _report(
        5,
        "polyhedral baseline orders on the sphere (J=4,8,16)",
        ok,
        "EOC(H1)=%.3f EOC(L2)=%.3f" % (oh, ol),
    )


def test_criterion_6_dominance(tp1_new, tp1_poly, tp2_new, tp2_poly,
                               tp3_new, tp3_poly):
    pairs = [
        ("tp1-sphere", tp1_new[0], tp1_poly),
        ("tp2-ellipsoid", tp2_new, tp2_poly),
        ("tp3-torus", tp3_new, tp3_poly),
    ]
    worst = []
    ok = True
    for name, new_t, poly_t in pairs:
        for rn, rp in zip(new_t.reports, poly_t.reports):
            ok = ok and rn.err_h1_broken < rp.err_h1_broken
            worst.append(
                "%s h=%.3g: %.3e < %.3e"
                % (name, rn.h, rn.err_h1_broken, rp.err_h1_broken)
            )
    _report(
        6,
        "new method beats the polyhedral baseline in broken H1 on every "
        "matched mesh",
        ok,
        "; ".join(worst[:3]) + " ...",
    )


def test_criterion_7_nonconforming(tp1_nc):
    rep, *_ = run_single(get_case("quadratic-ellipsoid"), "nonconforming",
                         2, 4)
    consistent = max(rep.err_h1_broken, rep.err_l2, rep.err_nodal_max) <= 1e-9
    oh = tp1_nc.eoc_h1[-1]
    ok = consistent and 1.8 <= oh <= 2.1
    _report(
        7,
        "nonconforming element: quadratic consistency and sphere orders",
        ok,
        "consistency err=%.2e EOC(H1)=%.3f" % (rep.err_h1_broken, oh),
    )


def test_criterion_8_perturbation_rates():
    from shiftfem.dofs import build_lagrange_nodes
    from shiftfem.meshgen import classify_boundary, generate_octant_mesh
    from shiftfem.nonconforming import (
        _shifted_edge_points,
        _shifted_face_points,
        build_nc_modified_basis,
    )
    from shiftfem.surfaces import Sphere
    from shiftfem.trialspace import (
        build_modified_basis,
        build_shifted_node_table,
    )

    surf = Sphere(np.zeros(3), 1.0)
    dev, dev_nc = {}, {}
    for J in (4, 8, 16):
        mesh = generate_octant_mesh(J)
        cls = classify_boundary(mesh, surf)
        nodes = build_lagrange_nodes(mesh, 2)
        table = build_shifted_node_table(mesh, cls, surf, nodes)
        dev[J] = max(
            build_modified_basis(mesh, nodes, table, t)
            .deviation_from_identity
            for t in cls.o_tets
        )
        shifts = _shifted_edge_points(mesh, cls, surf)
        face_shifts = _shifted_face_points(mesh, cls, surf)
        dev_nc[J] = max(
            build_nc_modified_basis(mesh, cls, t, shifts, face_shifts)
            .deviation_from_identity
            for t in cls.o_tets
        )
    ratios = [dev[4] / dev[8], dev[8] / dev[16],
              dev_nc[4] / dev_nc[8], dev_nc[8] / dev_nc[16]]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    _report(
        8,
        "node-matrix perturbation halves with h (Lagrange and "
        "nonconforming)",
        ok,
        "ratios=" + ", ".join("%.2f" % r for r in ratios),
    )


def test_criterion_9_property_suite_via_check():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "shiftfem.cli", "check"],
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - t0
    ok = proc.returncode == 0 and seconds < 120.0
    _report(
        9,
        "built-in property suite passes via the check command",
        ok,
        "exit=%d runtime=%.1fs" % (proc.returncode, seconds),
    )


def test_criterion_10_determinism(tp1_new):
    table1, _ = tp1_new
    table2 = run_convergence(
        get_case("tp1-sphere"), "new", 2, [4, 8, 16], record_time=False
    )
    ok = table1.to_csv().encode() == table2.to_csv().encode()
    _report(
        10,
        "sequential repeat of the sphere study yields byte-identical CSV",
        ok,
    )
