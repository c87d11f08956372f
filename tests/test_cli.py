import numpy as np

from shiftfem.analysis import run_single
from shiftfem.cases import get_case
from shiftfem.cli import main
from shiftfem.meshgen import classify_boundary


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
    assert (tmp_path / "quadratic-ellipsoid-new-k2-4.mtx").exists()
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
    eq = system.dofmap.eq[:mesh.n_vertices]
    nodal = np.where(eq >= 0, sol.x[np.maximum(eq, 0)],
                     system.dirichlet[:mesh.n_vertices])
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


def test_tol_reaches_the_solver(tmp_path, capsys):
    rc = main(["solve", "--case", "tp1-sphere", "--refine", "4",
               "--out", str(tmp_path), "--tol", "1e-3"])
    assert rc == 1
    assert "solver tolerance must be in" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\ntol=1e-3\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "solver tolerance must be in" in capsys.readouterr().err


def test_config_dump_matrix(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case=tp1-sphere\nrefine=4\ndump_matrix=1\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "tp1-sphere-new-k2-4.mtx").exists()
