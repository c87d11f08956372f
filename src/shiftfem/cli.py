"""Batch command-line driver.

Subcommands:
  mesh         generate a case's mesh and export it (VTK + text dump)
  solve        run a single case/refinement and print the error norms
  convergence  run a refinement sequence and emit a CSV + table with EOCs
  check        run the built-in property suite (pytest) for this package

Options may also come from a plain-text config file of key=value lines
(via --config); command-line flags override file entries.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .assembly import element_phi_coefficients, write_matrix_market
from .cases import case_registry, get_case
from .meshgen import classify_boundary, write_mesh_text, write_vtk

_CONFIG_KEYS = {
    "case", "method", "k", "refine", "out", "sequential", "vtk", "tol",
    "dump_matrix",
}


def _load_config(path):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad config line (expected key=value): %r" % raw)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError("unknown config key %r" % key)
        values[key] = val
    return values


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="shiftfem",
        description="Poisson solver on curved domains with boundary-shifted "
        "trial functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    cases = sorted(case_registry())

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--case", choices=cases)
        p.add_argument(
            "--method", choices=("new", "polyhedral", "nonconforming"),
            default=None,
        )
        p.add_argument("--k", type=int, choices=(2, 3), default=None)
        p.add_argument(
            "--refine",
            help="comma-separated refinement parameters (J or I values)",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--sequential", action="store_true",
            help="fully deterministic mode (also zeroes timing columns)",
        )
        p.add_argument("--vtk", action="store_true", help="export VTK files")
        p.add_argument("--tol", type=float, default=None,
                       help="solver residual tolerance (default 1e-12)")
        p.add_argument("--dump-matrix", action="store_true",
                       help="write the system matrix in MatrixMarket format")

    common(sub.add_parser("mesh", help="generate and export a mesh"))
    common(sub.add_parser("solve", help="solve one refinement"))
    common(sub.add_parser("convergence", help="run a refinement study"))
    common(sub.add_parser("check", help="run the built-in property suite"))
    return ap


def _resolve(args):
    cfg = _load_config(args.config) if args.config else {}

    def flag(name):
        return getattr(args, name) or cfg.get(name, "0") in ("1", "true")

    case = args.case or cfg.get("case")
    if case is None:
        raise ValueError("--case is required")
    refine = args.refine or cfg.get("refine")
    return argparse.Namespace(
        case=case,
        method=args.method or cfg.get("method", "new"),
        k=args.k if args.k is not None else int(cfg.get("k", 2)),
        params=[int(s) for s in str(refine).split(",") if s.strip()]
        if refine else None,
        out=Path(cfg.get("out", args.out) if args.out == "." else args.out),
        sequential=flag("sequential"),
        vtk=flag("vtk"),
        dump_matrix=flag("dump_matrix"),
        tol=args.tol if args.tol is not None else float(cfg.get("tol", 1e-12)),
    )


def _default_params(case):
    return list(get_case(case).default_params)


def cmd_mesh(args):
    run = _resolve(args)
    c = get_case(run.case)
    run.out.mkdir(parents=True, exist_ok=True)
    for p in run.params or _default_params(run.case)[:1]:
        mesh = c.mesh(p)
        cls = classify_boundary(mesh, c.surface)
        stem = run.out / ("%s-%d" % (run.case, p))
        write_vtk(mesh, stem.with_suffix(".vtk"))
        write_mesh_text(mesh, stem.with_suffix(".txt"))
        print(
            "%s param=%d: %d vertices, %d tets, %d surface faces, "
            "|S_h|=%d |R_h|=%d%s"
            % (
                run.case, p, mesh.n_vertices, mesh.n_tets,
                len(cls.gamma_faces), len(cls.s_tets), len(cls.r_tets),
                "  VIOLATIONS: %d" % len(cls.violations) if cls.violations
                else "",
            )
        )
        print("wrote %s and %s" % (stem.with_suffix(".vtk"),
                                   stem.with_suffix(".txt")))


def cmd_solve(args):
    run = _resolve(args)
    if run.params is None or len(run.params) != 1:
        raise ValueError("solve needs exactly one --refine value")
    param = run.params[0]
    rep, mesh, system, solve_report = analysis.run_single(
        get_case(run.case), run.method, run.k, param,
        record_time=not run.sequential, tol=run.tol,
    )
    print(
        "%s %s k=%d param=%d: h=%.5e n_dofs=%d" % (run.case, run.method, run.k,
                                                   param, rep.h, rep.n_dofs)
    )
    print("  err_h1_broken = %.6e" % rep.err_h1_broken)
    print("  err_l2        = %.6e" % rep.err_l2)
    print("  err_nodal_max = %.6e" % rep.err_nodal_max)
    run.out.mkdir(parents=True, exist_ok=True)
    table = analysis.ConvergenceTable(
        case=run.case, method=run.method, degree=run.k, params=run.params,
        reports=[rep], eoc_h1=[None], eoc_l2=[None],
    )
    csv_path = run.out / ("%s-%s-k%d.csv" % (run.case, run.method, run.k))
    csv_path.write_text(table.to_csv())
    print("wrote %s" % csv_path)
    stem = "%s-%s-k%d-%d" % (run.case, run.method, run.k, param)
    if run.dump_matrix:
        mm = run.out / (stem + ".mtx")
        write_matrix_market(system, mm)
        print("wrote %s" % mm)
    if run.vtk:
        path = run.out / (stem + "-solution.vtk")
        u = _vertex_values(mesh, system, solve_report.x)
        write_vtk(mesh, path, point_data={"u": u})
        print("wrote %s" % path)


def _vertex_values(mesh, system, x):
    """The solution at the mesh vertices: each tet's vertex coefficients,
    averaged over the tets sharing the vertex (they agree except for the
    nonconforming element)."""
    coef = element_phi_coefficients(system, x)[:, :4]
    tets = mesh.tets.ravel()
    total = np.bincount(tets, weights=coef.ravel(), minlength=mesh.n_vertices)
    return total / np.bincount(tets, minlength=mesh.n_vertices)


def cmd_convergence(args):
    run = _resolve(args)
    params = run.params or _default_params(run.case)
    if len(params) < 2:
        raise ValueError("convergence needs at least two --refine values")
    table = analysis.run_convergence(get_case(run.case), run.method, run.k,
                                     params, record_time=not run.sequential,
                                     tol=run.tol)
    print(table.to_text())
    run.out.mkdir(parents=True, exist_ok=True)
    stem = "%s-%s-k%d" % (run.case, run.method, run.k)
    csv_path = run.out / (stem + ".csv")
    csv_path.write_text(table.to_csv())
    txt_path = run.out / (stem + ".txt")
    txt_path.write_text(table.to_text())
    print("wrote %s and %s" % (csv_path, txt_path))


def cmd_check(_args):
    import subprocess

    tests = Path(__file__).resolve().parent / "properties.py"
    rc = subprocess.call([sys.executable, "-m", "pytest", "-q", str(tests)])
    if rc != 0:
        raise SystemExit(rc)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "mesh": cmd_mesh,
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "check": cmd_check,
    }
    try:
        handlers[args.command](args)
    except (ValueError, KeyError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
