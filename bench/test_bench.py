"""Tests of the benchmark itself: seeded inputs repeat, tracing does not
perturb results, counts repeat, and the printed metrics are the declared
ones.  Run with ``python3 -m pytest bench -q`` (about a minute)."""
import json
import subprocess
import sys

import numpy as np
import pytest

import run  # first: it puts the package's src/ on sys.path
import inputs
import tracing
from shiftfem import linsolve
from shiftfem.cases import get_case

# small studies that still pass through every layer the workloads load
SMALL = {
    "sphere-p2": run.Workload("tp1-sphere", 2, ("new", "polyhedral", "nonconforming"),
                              (4,)),
    "torus-p2": run.Workload("tp3-torus", 2, ("new",), (2, 4)),
}


def _levels(wl, seed):
    case = get_case(wl.case)
    return case, {p: inputs.make_level(case, p, seed) for p in wl.params}


def _traced_study(wl, case, levels):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        study = run.run_study(wl, case, levels, tracer)
    return study, tracer


def test_same_seed_gives_identical_meshes():
    case = get_case("tp1-sphere")
    a, b = (inputs.make_level(case, 8, 7) for _ in range(2))
    other = inputs.make_level(case, 8, 8)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, other.vertices)
    plain = case.mesh(8)
    moved = np.any(a.disp != 0.0, axis=1)
    assert moved.any()
    boundary = np.unique(np.array(list(plain.boundary_faces())))
    assert not moved[boundary].any()


def test_jitter_stays_within_its_bound():
    case = get_case("tp1-sphere")
    plain = case.mesh(8)
    level = inputs.make_level(case, 8, 3)
    limit = inputs.JITTER * inputs.shortest_edge(plain.vertices, plain.tets)
    assert np.linalg.norm(level.disp, axis=1).max() <= limit


def test_broken_seed_fails_loudly(monkeypatch):
    monkeypatch.setattr(inputs, "JITTER", 50.0)
    with pytest.raises(inputs.InputError):
        inputs.make_level(get_case("tp1-sphere"), 4, 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_errors(name):
    wl = SMALL[name]
    case, levels = _levels(wl, 5)
    first = run.run_study(wl, case, levels)
    again = run.run_study(wl, *_levels(wl, 5))
    assert first.rows == again.rows
    assert not first.problems


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_perturb_errors(name):
    wl = SMALL[name]
    case, levels = _levels(wl, 2)
    plain = run.run_study(wl, case, levels)
    traced, tracer = _traced_study(wl, case, levels)
    assert traced.rows == plain.rows
    # the wrappers are gone again after the block
    assert run.analysis.solve is linsolve.solve
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_exactly(name):
    wl = SMALL[name]
    case, levels = _levels(wl, 4)
    a = _traced_study(wl, case, levels)[1].layer_metrics()
    b = _traced_study(wl, case, levels)[1].layer_metrics()
    counts = {m["name"] for m in run.benchmark_spec()["per_layer"]
              if m["unit"] == "count"}
    assert counts and counts <= set(a)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["assembly.element_calls"] > 0 and a["cases.u_calls"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    times = tracer.self_times()
    calls, total, own = times["outer"]
    assert calls == 1 and times["inner"][0] == 2
    assert own == pytest.approx(total - times["inner"][1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus-p2", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = run.benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
