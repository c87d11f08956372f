"""Batch command-line driver.

Subcommands:
  mesh         generate a case's mesh and export it (VTK + text dump)
  solve        run a single case/refinement and print the error norms
  convergence  run a refinement sequence and emit a CSV + table with EOCs
  check        run the invariant tests of a source checkout (pytest)

Each takes only the options it reads: `solve` all of them, `convergence`
all but --vtk and --dump-matrix, `mesh` --config, --case, --refine and
--out, and `check` none.  `check` runs the modules named in CHECK_MODULES
from the `tests/` directory next to `src/` (the editable install of a
checkout) and needs the `test` extra; without that directory it is an
error.

Options may also come from a plain-text config file of key=value lines
(via --config), whose keys are the subcommand's options.  The subcommand's
own parser reads each entry as the flag it stands for, so a value is
accepted exactly when the flag accepts it; command-line flags override
file entries.  Every run is deterministic: --sequential only writes 0 in
the solve_seconds column.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .assembly import element_phi_coefficients
from .cases import case_registry, get_case
from .elements import DEGREES
from .linsolve import DEFAULT_TOL, check_tol
from .meshgen import classify_boundary, write_mesh_text, write_vtk

_BOOLEANS = {"0": False, "false": False, "1": True, "true": True}
#: the tier-1 modules that assert the method's invariants: quadrature and
#: shape functions, P_k reproduction of the shifted basis, mesh validity,
#: the nonconforming patch test, and the sparse solve against dense LU
CHECK_MODULES = (
    "test_elements.py",
    "test_basis_properties.py",
    "test_trialspace.py",
    "test_assembly.py",
    "test_nonconforming.py",
    "test_meshgen.py",
    "test_solver.py",
)


def _load_config(path, keys):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("bad config line (expected key=value): %r" % raw)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ValueError("unknown config key %r" % key)
        values[key] = val
    return values


def _build_parser():
    """The top-level parser and its subcommands' parsers by name."""
    ap = argparse.ArgumentParser(
        prog="shiftfem",
        description="Poisson solver on curved domains with boundary-shifted "
        "trial functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    options = {
        "config": dict(help="key=value config file"),
        "case": dict(choices=sorted(case_registry())),
        "method": dict(choices=("new", "polyhedral", "nonconforming"),
                       default="new"),
        "k": dict(type=int, choices=DEGREES, default=2),
        "refine": dict(help="comma-separated refinement parameters "
                       "(J or I values)"),
        "out": dict(type=Path, default=".",
                    help="output directory (default %(default)s)"),
        "sequential": dict(action="store_true",
                           help="write 0 in the solve_seconds column"),
        "tol": dict(type=float, default=DEFAULT_TOL, help="solver residual "
                    "tolerance (default %(default)s)"),
        "vtk": dict(action="store_true", help="export VTK files"),
        "dump_matrix": dict(action="store_true", help="write the system "
                            "matrix in MatrixMarket format"),
    }
    for command, handler, text, names in (
        ("mesh", cmd_mesh, "generate and export a mesh",
         ("config", "case", "refine", "out")),
        ("solve", cmd_solve, "solve one refinement", tuple(options)),
        # every option but vtk and dump_matrix
        ("convergence", cmd_convergence, "run a refinement study",
         tuple(options)[:-2]),
        ("check", cmd_check, "run the invariant tests of a source checkout "
         "(needs the test extra)", ()),
    ):
        p = sub.add_parser(command, help=text)
        p.set_defaults(handler=handler)
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **options[name])
    return ap, sub.choices


def _refinement(text):
    """The comma-separated refinement parameters, each an integer >= 1."""
    items = [s.strip() for s in (text or "").split(",") if s.strip()]
    bad = [s for s in items if not (s.isdecimal() and int(s) >= 1)]
    if bad:
        raise ValueError("refine: %r is not an integer >= 1" % bad[0])
    return [int(s) for s in items]


def _resolve(parser, args, argv):
    """The options of a run: the config file's entries, parsed as the flags
    they stand for by the subcommand's `parser`, then the command line
    `argv` on top; argparse's defaults fill what neither sets."""
    keys = set(vars(args)) - {"command", "config", "handler"}
    config = getattr(args, "config", None)
    # the command line has passed this parser: a value it rejects now is
    # the config file's, an error of the run (exit 1)
    parser.exit_on_error = False
    run = argparse.Namespace()
    for key, value in (_load_config(config, keys) if config else {}).items():
        flag = "--" + key.replace("_", "-")
        if isinstance(parser.get_default(key), bool):
            if value not in _BOOLEANS:
                raise ValueError("config key %s: %r is not one of %s"
                                 % (key, value, ", ".join(_BOOLEANS)))
            flags = [flag] if _BOOLEANS[value] else []
        else:
            flags = [flag + "=" + value]
        try:
            parser.parse_args(flags, namespace=run)
        except argparse.ArgumentError as exc:
            raise ValueError("config key %s: %r: %s"
                             % (key, value, exc.message)) from None
    parser.parse_args(argv, namespace=run)
    if "case" in keys and run.case is None:
        raise ValueError("--case is required")
    if "tol" in keys:  # before any work is done
        check_tol(run.tol)
    return run


def cmd_mesh(run):
    c = get_case(run.case)
    # build every level first, so that a bad one leaves no partial output
    params = _refinement(run.refine) or c.default_params[:1]
    meshes = [c.mesh(p) for p in params]
    classes = [classify_boundary(mesh, c.surface) for mesh in meshes]
    run.out.mkdir(parents=True, exist_ok=True)
    for p, mesh, cls in zip(params, meshes, classes):
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


def cmd_solve(run):
    params = _refinement(run.refine)
    if len(params) != 1:
        raise ValueError("solve needs exactly one --refine value")
    param = params[0]
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
        case=run.case, method=run.method, degree=run.k, params=params,
        reports=[rep])
    csv_path = run.out / ("%s-%s-k%d.csv" % (run.case, run.method, run.k))
    csv_path.write_text(table.to_csv())
    print("wrote %s" % csv_path)
    stem = "%s-%s-k%d-%d" % (run.case, run.method, run.k, param)
    if run.dump_matrix:
        from scipy.io import mmwrite

        mm = run.out / (stem + ".mtx")
        mmwrite(str(mm), system.A)
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


def cmd_convergence(run):
    case = get_case(run.case)
    params = _refinement(run.refine) or case.default_params
    if len(params) < 2:
        raise ValueError("convergence needs at least two --refine values")
    table = analysis.run_convergence(case, run.method, run.k, params,
                                     record_time=not run.sequential,
                                     tol=run.tol)
    print(table.to_text())
    run.out.mkdir(parents=True, exist_ok=True)
    stem = "%s-%s-k%d" % (run.case, run.method, run.k)
    csv_path = run.out / (stem + ".csv")
    csv_path.write_text(table.to_csv())
    txt_path = run.out / (stem + ".txt")
    txt_path.write_text(table.to_text())
    print("wrote %s and %s" % (csv_path, txt_path))


def cmd_check(_run):
    import subprocess

    tests = Path(__file__).resolve().parents[2] / "tests"
    if not tests.is_dir():
        raise RuntimeError("check needs the tests of a source checkout; "
                           "no directory %s" % tests)
    rc = subprocess.call([sys.executable, "-m", "pytest", "-q"]
                         + [str(tests / name) for name in CHECK_MODULES])
    if rc != 0:
        raise SystemExit(rc)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap, parsers = _build_parser()
    args = ap.parse_args(argv)
    try:
        args.handler(_resolve(parsers[args.command], args, argv[1:]))
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
