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
(via --config), whose keys are the subcommand's options; command-line
flags override file entries.  Every run is deterministic: --sequential
only writes 0 in the solve_seconds column.
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

_METHODS = ("new", "polyhedral", "nonconforming")
_DEGREES = (2, 3)
_BOOLEANS = {"0": False, "false": False, "1": True, "true": True}
#: the tier-1 modules that assert the method's invariants: quadrature and
#: shape functions, P_k reproduction of the shifted basis, mesh validity,
#: the nonconforming patch test, and the sparse solve against dense LU
CHECK_MODULES = (
    "test_elements.py",
    "test_basis_properties.py",
    "test_trialspace.py",
    "test_nonconforming.py",
    "test_meshgen.py",
    "test_solver.py",
)


def _load_config(path, keys):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad config line (expected key=value): %r" % raw)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in keys:
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
    options = {
        "config": dict(help="key=value config file"),
        "case": dict(choices=sorted(case_registry())),
        "method": dict(choices=_METHODS),
        "k": dict(type=int, choices=_DEGREES),
        "refine": dict(help="comma-separated refinement parameters "
                       "(J or I values)"),
        "out": dict(help="output directory (default .)"),
        "sequential": dict(action="store_true",
                           help="write 0 in the solve_seconds column"),
        "tol": dict(type=float, help="solver residual tolerance "
                    "(default 1e-12)"),
        "vtk": dict(action="store_true", help="export VTK files"),
        "dump_matrix": dict(action="store_true", help="write the system "
                            "matrix in MatrixMarket format"),
    }
    for command, text, names in (
        ("mesh", "generate and export a mesh", ("config", "case", "refine", "out")),
        ("solve", "solve one refinement", tuple(options)),
        # every option but vtk and dump_matrix
        ("convergence", "run a refinement study", tuple(options)[:-2]),
        ("check", "run the invariant tests of a source checkout (needs the "
         "test extra)", ()),
    ):
        p = sub.add_parser(command, help=text)
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **options[name])
    return ap


def _checked(key, value, choices):
    """A config value, rejected unless it is one of the flag's choices."""
    if value not in choices:
        raise ValueError("config key %s: %r is not one of %s"
                         % (key, value, ", ".join(map(str, choices))))
    return value


def _refinement(text):
    """The comma-separated refinement parameters, each an integer >= 1."""
    items = [s.strip() for s in str(text).split(",") if s.strip()]
    bad = [s for s in items if not (s.isdecimal() and int(s) >= 1)]
    if bad:
        raise ValueError("refine: %r is not an integer >= 1" % bad[0])
    return [int(s) for s in items]


def _resolve(args):
    keys = set(vars(args)) - {"command", "config"}
    cfg = _load_config(args.config, keys) if args.config else {}

    def opt(name, default):
        """The flag's value, else the config file's, else the default."""
        value = getattr(args, name, None)
        return cfg.get(name, default) if value is None else value

    def flag(name):
        value = _checked(name, cfg.get(name, "0"), _BOOLEANS)
        return getattr(args, name, False) or _BOOLEANS[value]

    case, refine, tol = opt("case", None), opt("refine", None), opt("tol", 1e-12)
    if case is None:
        raise ValueError("--case is required")
    try:
        tol = float(tol)
    except ValueError:
        raise ValueError("config key tol: %r is not a number" % tol) from None
    return argparse.Namespace(
        case=_checked("case", case, sorted(case_registry())),
        method=_checked("method", opt("method", "new"), _METHODS),
        k=int(_checked("k", str(opt("k", 2)), [str(k) for k in _DEGREES])),
        params=_refinement(refine) if refine else None,
        out=Path(opt("out", ".")),
        sequential=flag("sequential"),
        vtk=flag("vtk"),
        dump_matrix=flag("dump_matrix"),
        tol=tol,
    )


def _default_params(case):
    return list(get_case(case).default_params)


def cmd_mesh(args):
    run = _resolve(args)
    c = get_case(run.case)
    # build every level first, so that a bad one leaves no partial output
    params = run.params or _default_params(run.case)[:1]
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

    tests = Path(__file__).resolve().parents[2] / "tests"
    if not tests.is_dir():
        raise RuntimeError("check needs the tests of a source checkout; "
                           "no directory %s" % tests)
    rc = subprocess.call([sys.executable, "-m", "pytest", "-q"]
                         + [str(tests / name) for name in CHECK_MODULES])
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
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
