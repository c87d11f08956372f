import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftfem
from shiftfem import analysis, cases, trialspace
from shiftfem.analysis import run_single
from shiftfem.cases import get_case
from shiftfem.cli import CHECK_MODULES, main
from shiftfem.meshgen import classify_boundary

from meshes import fresh_python

TESTS = Path(__file__).resolve().parent


def test_mesh_command(tmp_path, capsys):
    rc = main(["mesh", "--case", "tp1-sphere", "--refine", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "64 tets" in out
    vtk = tmp_path / "tp1-sphere-4.vtk"
    assert vtk.exists()
    assert "CELLS 64" in vtk.read_text()
    assert (tmp_path / "tp1-sphere-4.txt").exists()


def test_mesh_command_torus(tmp_path, capsys):
    rc = main(["mesh", "--case", "tp3-torus", "--refine", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "48 tets" in capsys.readouterr().out


def test_mesh_rejects_odd_torus_parameter(tmp_path, capsys):
    rc = main(["mesh", "--case", "tp3-torus", "--refine", "3",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "even" in capsys.readouterr().err


def test_mesh_bad_later_level_writes_nothing(tmp_path, capsys):
    """Every level is built before the output directory is made."""
    out = tmp_path / "o"
    rc = main(["mesh", "--case", "tp3-torus", "--refine", "2,3",
               "--out", str(out)])
    assert rc == 1
    assert "I = 3" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,name", [
    (["solve", "--config"], "missing.cfg"),
    (["mesh", "--case", "tp1-sphere", "--refine", "2", "--out"], "afile"),
], ids=["missing-config", "out-is-a-file"])
def test_os_errors_are_one_line_naming_the_path(tmp_path, capsys, argv, name):
    """A file that cannot be read or written is an error, not a traceback."""
    (tmp_path / "afile").write_text("")
    path = tmp_path / name
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv", [
    ["mesh", "--case", "tp1-sphere", "--refine", "0"],
    ["solve", "--case", "tp1-sphere", "--refine", "0"],
    ["solve", "--case", "tp1-sphere", "--refine=-2"],
    ["convergence", "--case", "tp1-sphere", "--refine", "0,4"],
], ids=["mesh-0", "solve-0", "solve-negative", "convergence-0"])
def test_refinement_below_one_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: refine: '-?\d' is not an integer >= 1\n", err)
    assert not out.exists()


@pytest.mark.parametrize("argv,config,named", [
    (["--refine", "4,x"], "", "refine: 'x'"),
    ([], "refine=2,x\n", "refine: 'x'"),
    (["--refine", "4"], "tol=abc\n", "config key tol: 'abc'"),
], ids=["refine-flag", "refine-config", "tol-config"])
def test_conversion_errors_name_the_option(tmp_path, capsys, argv, config,
                                           named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\n" + config)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)] + argv)
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,config,message", [
    (["solve"], "case tp1-sphere\n", "bad config line"),
    (["solve", "--refine", "4,8"], "", "exactly one --refine value"),
    (["convergence", "--refine", "4"], "", "at least two --refine values"),
], ids=["config-line-without-equals", "solve-two-levels",
        "convergence-one-level"])
def test_usage_errors_are_one_line_and_write_nothing(tmp_path, capsys, argv,
                                                     config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    rc = main(argv + ["--case", "tp1-sphere", "--config", str(cfg),
                      "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_solve_consistency_case(tmp_path, capsys):
    rc = main([
        "solve", "--case", "quadratic-ellipsoid", "--method", "new",
        "--k", "2", "--refine", "4", "--out", str(tmp_path), "--vtk",
        "--dump-matrix",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    err_line = [l for l in out.splitlines() if "err_h1_broken" in l][0]
    assert float(err_line.split("=")[1]) <= 1e-10
    assert (tmp_path / "quadratic-ellipsoid-new-k2.csv").exists()
    mtx = (tmp_path / "quadratic-ellipsoid-new-k2-4.mtx").read_text()
    assert mtx.startswith("%%MatrixMarket")
    assert (tmp_path / "quadratic-ellipsoid-new-k2-4-solution.vtk").exists()


def test_solve_smoke_row_written(tmp_path):
    rc = main(["solve", "--case", "tp1-sphere", "--method", "new",
               "--refine", "4", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "tp1-sphere-new-k2.csv").read_text().splitlines()
    assert len(csv) == 2
    fields = csv[1].split(",")
    assert all(np.isfinite(float(fields[i])) for i in (6, 7, 8))


def test_nonconforming_k3_rejected(tmp_path, capsys):
    rc = main(["solve", "--case", "tp1-sphere", "--method", "nonconforming",
               "--k", "3", "--refine", "4", "--out", str(tmp_path)])
    assert rc == 1
    assert "nonconforming" in capsys.readouterr().err


def test_convergence_rows_and_eocs(tmp_path, capsys):
    rc = main(["convergence", "--case", "tp1-sphere", "--method", "new",
               "--refine", "4,8", "--out", str(tmp_path), "--sequential"])
    assert rc == 0
    csv = (tmp_path / "tp1-sphere-new-k2.csv").read_text().splitlines()
    assert len(csv) == 3
    assert csv[1].split(",")[9] == ""
    assert csv[2].split(",")[9] != ""


def test_config_file_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp3-torus\nrefine=2\nsequential=1\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("case=tp1-sphere\nfrobnicate=1\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_comment_is_a_whole_line(tmp_path, capsys):
    """Only a line whose first non-blank character is '#' is a comment; a
    '#' inside a value is kept, as it is in the matching flag."""
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text("# output of one level\n  # indented comment\n"
                   "case=tp1-sphere\nrefine=2\nout=%s\n" % (tmp_path / "run#1"))
    assert main(["mesh", "--config", str(cfg)]) == 0
    assert (tmp_path / "run#1" / "tp1-sphere-2.vtk").exists()
    assert not (tmp_path / "run").exists()


def test_config_key_must_be_an_option_of_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4,8\nvtk=1\n")
    rc = main(["convergence", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown config key 'vtk'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv,ignored", [
    (["mesh", "--case", "tp1-sphere"], ["--k", "3"]),
    (["convergence", "--case", "tp1-sphere"], ["--vtk"]),
    (["check"], ["--tol", "7"]),
], ids=["mesh", "convergence", "check"])
def test_subcommand_rejects_options_it_does_not_read(argv, ignored, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ignored)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % " ".join(ignored) in err


def test_missing_case_is_an_error(tmp_path, capsys):
    rc = main(["solve", "--refine", "4", "--out", str(tmp_path)])
    assert rc == 1


def _vtk_point_values(path):
    lines = path.read_text().splitlines()
    start = lines.index("LOOKUP_TABLE default") + 1
    return np.array([float(v) for v in lines[start:]])


def test_solution_vtk_vertex_values(tmp_path):
    """The nonconforming file holds the solution, not zeros; the new
    method's vertex values are its nodal solution values."""
    for method in ("new", "nonconforming"):
        rc = main(["solve", "--case", "tp1-sphere", "--method", method,
                   "--refine", "4", "--out", str(tmp_path), "--vtk"])
        assert rc == 0
    case = get_case("tp1-sphere")
    _, mesh, system, sol = run_single(case, "new", 2, 4)
    values = system.dirichlet.copy()
    values[~system.gamma_mask] = sol.x
    nodal = values[:mesh.n_vertices]
    u_new = _vtk_point_values(tmp_path / "tp1-sphere-new-k2-4-solution.vtk")
    np.testing.assert_allclose(u_new, nodal, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(nodal)))

    u_nc = _vtk_point_values(
        tmp_path / "tp1-sphere-nonconforming-k2-4-solution.vtk")
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[list(classify_boundary(mesh, case.surface).gamma_vertices)] = False
    exact = np.array([case.u(p) for p in mesh.vertices])
    assert np.max(np.abs(u_nc[interior])) > 0.0
    assert np.max(np.abs(u_nc - exact)) <= 0.1 * np.max(np.abs(exact))


def test_tol_reaches_the_solver(tmp_path, capsys, monkeypatch):
    """A tol in (0, 1e-6] reaches `solve`; one outside it, from the command
    line or a config file, is an error naming `tol` before any mesh is
    built."""
    solve, tols = analysis.solve, []
    monkeypatch.setattr(analysis, "solve", lambda system, tol:
                        tols.append(tol) or solve(system, tol))
    assert main(["solve", "--case", "tp1-sphere", "--refine", "4",
                 "--out", str(tmp_path), "--tol", "1e-8"]) == 0
    assert tols == [1e-8]
    meshes = []
    monkeypatch.setattr(cases, "generate_octant_mesh",
                        lambda *args: meshes.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\ntol=1e-3\n")
    for argv in (["solve", "--case", "tp1-sphere", "--refine", "4",
                  "--tol", "1e-3"],
                 ["convergence", "--case", "tp1-sphere", "--refine", "4,8",
                  "--tol", "0"],
                 ["solve", "--config", str(cfg)]):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert ("tol: solver tolerance must be in"
                in capsys.readouterr().err)
    assert meshes == []


def test_config_dump_matrix(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\ndump_matrix=1\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "tp1-sphere-new-k2-4.mtx").exists()


@pytest.mark.parametrize("line", [
    "case=tp4-cube", "method=Polyhedral", "k=4", "sequential=yes",
    "sequential=True", "vtk=yes", "dump_matrix=on",
])
def test_config_values_are_checked(tmp_path, capsys, line):
    """A config value that the matching flag would reject fails before the
    run, naming its key; a boolean outside 0/1/true/false is not read as
    false."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\n%s\n" % line)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config key %s:" % line.split("=")[0] in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key,value", [
    ("k", "03"), ("k", "+3"), ("k", "4"), ("tol", "1E-9"), ("tol", "abc"),
    ("method", "Polyhedral"), ("case", "tp4-cube"),
])
def test_config_entry_is_accepted_exactly_when_its_flag_is(tmp_path, capsys,
                                                          key, value):
    """The subcommand's parser reads both: an entry the flag accepts gives
    the same CSV, and one it rejects fails naming the key."""
    entries = {"case": "tp1-sphere", "refine": "4", key: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s=%s\n" % item for item in entries.items()))
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    file_rc = main(["solve", "--config", str(cfg), "--out", str(by_file),
                    "--sequential"])
    err = capsys.readouterr().err
    try:
        flag_rc = main(["solve", "--out", str(by_flag), "--sequential"]
                       + ["--%s=%s" % item for item in entries.items()])
    except SystemExit as exc:
        flag_rc = exc.code
    assert (file_rc == 0) == (flag_rc == 0)
    if file_rc:
        assert file_rc == 1 and flag_rc == 2
        assert err.startswith("error: config key %s: %r" % (key, value))
    else:
        [csv] = by_file.glob("*.csv")
        assert csv.read_text() == (by_flag / csv.name).read_text()


def test_flags_override_config_entries(tmp_path):
    """Each kind of option set in the file is overridden by its flag: a
    choice, an int, a float, a path, a boolean and the refinement."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp2-ellipsoid\nmethod=polyhedral\nk=3\ntol=1e-3\n"
                   "out=%s\nsequential=false\nrefine=8\n" % (tmp_path / "file"))
    out = tmp_path / "flag"
    rc = main(["solve", "--config", str(cfg), "--case", "tp1-sphere",
               "--method", "new", "--k", "2", "--tol", "1e-12", "--out",
               str(out), "--sequential", "--refine", "4"])
    # the file's tol alone would fail the solver
    assert rc == 0
    assert not (tmp_path / "file").exists()
    row = (out / "tp1-sphere-new-k2.csv").read_text().splitlines()[1]
    fields = row.split(",")
    assert fields[3] == "4" and fields[11] == "0"


@pytest.mark.parametrize("value,zeroed", [("true", True), ("false", False)])
def test_config_boolean_words(tmp_path, value, zeroed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\nsequential=%s\n" % value)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    row = (tmp_path / "tp1-sphere-new-k2.csv").read_text().splitlines()[1]
    assert (row.split(",")[11] == "0") is zeroed


def test_check_modules_exist_and_do_not_recurse():
    """`check` runs tier-1 modules that exist, and none that runs `check`
    itself."""
    assert CHECK_MODULES
    for name in CHECK_MODULES:
        assert (TESTS / name).is_file(), name
    assert "test_acceptance.py" not in CHECK_MODULES
    assert "test_cli.py" not in CHECK_MODULES


def test_check_outside_a_checkout_names_the_missing_tests(tmp_path):
    """An installed copy of the package with no tests/ beside its source
    directory fails with an error that names the path it looked for."""
    site = tmp_path / "site"
    shutil.copytree(Path(shiftfem.__file__).parent, site / "shiftfem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "shiftfem.cli", "check"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(site)), capture_output=True,
        text=True)
    assert proc.returncode == 1
    assert str(tmp_path.resolve() / "tests") in proc.stderr


@pytest.mark.parametrize("method", ["new", "nonconforming"])
def test_conditioning_guard_fails_the_run(tmp_path, capsys, monkeypatch,
                                          method):
    """A DOF matrix over the condition limit stops a full run with exit 1,
    an error naming a boundary tet, and no output file."""
    monkeypatch.setattr(trialspace, "COND_LIMIT", 1.0)
    rc = main(["solve", "--case", "tp1-sphere", "--method", method,
               "--refine", "4", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    match = re.search(r"mesh too coarse for shifted basis \(DOF matrix "
                      r"condition (\S+) on tet (\d+)\)", err)
    assert match, err
    assert float(match.group(1)) > 1.0
    case = get_case("tp1-sphere")
    cls = classify_boundary(case.mesh(4), case.surface)
    assert int(match.group(2)) in cls.o_tets
    assert not list(tmp_path.iterdir())


#: SciPy modules that importing the package and meshing do not load
LAZY_SCIPY = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
              "scipy.optimize", "scipy.io")


def test_cli_import_and_meshing_leave_out_scipy():
    """Starting the command line and meshing and classifying every case
    load none of SciPy's sparse stack, `scipy.optimize` or `scipy.io`; the
    first solve loads `scipy.sparse`."""
    out = fresh_python(
        "import sys, shiftfem.cli\n"
        "from shiftfem.analysis import run_single\n"
        "from shiftfem.cases import case_registry, get_case\n"
        "from shiftfem.meshgen import classify_boundary\n"
        "print(shiftfem.cli.__file__)\n"
        "for case in case_registry().values():\n"
        "    classify_boundary(case.mesh(2), case.surface)\n"
        "print(','.join(m for m in %r if m in sys.modules) or '-')\n"
        "run_single(get_case('tp1-sphere'), 'new', 2, 2)\n"
        "print('scipy.sparse' in sys.modules)\n" % (LAZY_SCIPY,))
    path, loaded, solved = out.split()
    assert Path(path).resolve() == Path(shiftfem.cli.__file__).resolve()
    assert loaded == "-"
    assert solved == "True"


def test_multigrid_runs_leave_out_scipy_linalg():
    """The runs of the benchmark's levels, tp1 new, polyhedral and
    nonconforming k=2 J=8 and tp3 new I=2 and 4, all take the multigrid
    path and load neither `scipy.sparse.linalg` nor `scipy.linalg`; a
    fallback to LU, forced by capping GMRES at one step, loads both."""
    out = fresh_python(
        "import sys\n"
        "from shiftfem import linsolve\n"
        "from shiftfem.analysis import run_single\n"
        "from shiftfem.cases import get_case\n"
        "def loaded():\n"
        "    return [m in sys.modules for m in "
        "('scipy.sparse.linalg', 'scipy.linalg')]\n"
        "for method in ('new', 'polyhedral', 'nonconforming'):\n"
        "    print(run_single(get_case('tp1-sphere'), method, 2, 8)[3].path)\n"
        "for param in (2, 4):\n"
        "    _, _, system, report = run_single(get_case('tp3-torus'), 'new',"
        " 2, param)\n"
        "    print(report.path)\n"
        "print(loaded())\n"
        "linsolve.MAX_GMRES_ITERATIONS = 1\n"
        "print(linsolve.solve(system).path)\n"
        "print(loaded())\n")
    assert out.splitlines() == ["pmg"] * 5 + ["[False, False]", "lu",
                                              "[True, True]"]


def test_mesh_command_leaves_out_scipy_sparse(tmp_path):
    """`shiftfem mesh` writes its files without loading `scipy.sparse`."""
    out = fresh_python(
        "import sys\nfrom shiftfem.cli import main\n"
        "main(['mesh', '--case', 'tp1-sphere', '--refine', '2', "
        "'--out', %r])\nprint('scipy.sparse' in sys.modules)\n"
        % str(tmp_path))
    assert out.splitlines()[-1] == "False"
    for suffix in (".vtk", ".txt"):
        assert (tmp_path / ("tp1-sphere-2" + suffix)).stat().st_size > 0


def test_convergence_csv_is_byte_identical_across_processes(tmp_path):
    """Two fresh interpreters write the same CSV bytes for a study whose
    J=16 level takes the multigrid GMRES path: no step of the solve draws
    on state that differs between processes, such as global random state.
    Acceptance criterion 10 repeats a study within one process only."""
    site = Path(shiftfem.__file__).resolve().parents[1]
    csvs = []
    for run in ("first", "second"):
        subprocess.run(
            [sys.executable, "-m", "shiftfem.cli", "convergence", "--case",
             "tp1-sphere", "--method", "nonconforming", "--refine", "8,16",
             "--sequential", "--out", str(tmp_path / run)],
            env=dict(os.environ, PYTHONPATH=str(site)), capture_output=True,
            check=True)
        csvs.append((tmp_path / run / "tp1-sphere-nonconforming-k2.csv")
                    .read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 3
