"""Benchmark of the curved-domain pipeline: refinement studies on seeded,
jittered meshes, timed end to end (``--trace 0``) or layer by layer
(``--trace 1``), with every study checked for accuracy.

Run from the repository root::

    python3 bench/run.py --workload sphere-p2 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment
and per-study notes go to standard error.  The exit code is non-zero when
any study fails a check.  See bench/README.md.
"""
from __future__ import annotations

import os

# one thread of work: pin the BLAS pools before NumPy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import shiftfem
except ImportError as exc:  # the package is built from this checkout's src/
    sys.exit("cannot import shiftfem from %s: %s" % (SRC, exc))
from shiftfem import analysis  # noqa: E402
from shiftfem.cases import get_case  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    case: str
    degree: int
    #: every method but "polyhedral" is gated on the optimal orders, and
    #: "polyhedral" on staying below them; the end-to-end errors and EOCs
    #: are those of the first method
    methods: tuple
    params: tuple


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sphere-p2": Workload("tp1-sphere", 2, ("new", "polyhedral", "nonconforming"),
                          (8, 16)),
    "torus-p2": Workload("tp3-torus", 2, ("new",), (2, 4, 8)),
}

#: the residual contract of `linsolve.solve` at its default tolerance
SOLVE_TOL = 1e-12
#: accepted last-step EOC (H1, L2) per degree: the optimal orders k, k+1,
#: with the acceptance tests' margins
EOC_BANDS = {2: ((1.8, 2.1), (2.7, 3.15))}
#: relative tolerance on errors against those recorded for the same seed
RTOL_RECORDED = 1e-6
#: relative tolerance against the plain-mesh errors, for seeds not recorded;
#: the jitter moves the errors by about 1-2 %
RTOL_PLAIN = 0.05
SETUP_REPEATS = 3
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"


@dataclasses.dataclass
class Study:
    """One refinement study: every method at every level, timed from the
    first call into the package to the last error norm."""

    wall: float = 0.0
    rows: dict = dataclasses.field(default_factory=dict)  # method -> [(h, err_h1, err_l2)]
    problems: list = dataclasses.field(default_factory=list)


def run_study(wl, case, levels, tracer=None):
    run_single = analysis.run_single
    if tracer is not None:
        run_single = tracer.wrap("analysis.run_single", run_single)
        case = tracer.instrument_case(case)
    case = dataclasses.replace(case, mesh=inputs.jittered_mesh(case.mesh, levels))
    study = Study()
    for method in wl.methods:
        rows = study.rows.setdefault(method, [])
        for p in wl.params:
            t0 = perf_counter()
            rep, mesh, system, sol = run_single(case, method, wl.degree, p,
                                                record_time=False)
            study.wall += perf_counter() - t0
            rows.append((rep.h, rep.err_h1_broken, rep.err_l2))
            where = "%s param %s" % (method, p)
            if not np.array_equal(mesh.vertices, levels[p].vertices):
                study.problems.append("%s: solved mesh differs from the input" % where)
            bnorm = np.linalg.norm(system.b)
            rel = np.linalg.norm(system.A @ sol.x - system.b) / bnorm
            if not rel <= SOLVE_TOL:
                study.problems.append(
                    "%s: relative residual %.3e above %.0e" % (where, rel, SOLVE_TOL))
    return study


def eocs(rows):
    return [
        (analysis.eoc(a[1], b[1], a[0], b[0]), analysis.eoc(a[2], b[2], a[0], b[0]))
        for a, b in zip(rows, rows[1:])
    ]


def check_orders(wl, study):
    """The paper's orders: the last EOCs of every method but the polyhedral
    baseline in the optimal band, and the baseline below it and worse in
    H1 than `new` on every mesh."""
    problems = list(study.problems)
    (h1_lo, h1_hi), (l2_lo, l2_hi) = EOC_BANDS[wl.degree]
    for method, rows in study.rows.items():
        oh, ol = eocs(rows)[-1]
        if method == "polyhedral":
            if not (oh < h1_lo and ol < l2_lo):
                problems.append("polyhedral: EOC (H1, L2) = (%.3f, %.3f) not below "
                                "the optimal band" % (oh, ol))
        elif not (h1_lo <= oh <= h1_hi and l2_lo <= ol <= l2_hi):
            problems.append("%s: EOC (H1, L2) = (%.3f, %.3f) outside [%g, %g] x [%g, %g]"
                            % (method, oh, ol, h1_lo, h1_hi, l2_lo, l2_hi))
    if "polyhedral" in study.rows:
        for (h, e_new, _), (_, e_poly, _) in zip(study.rows["new"],
                                                 study.rows["polyhedral"]):
            if not e_new < e_poly:
                problems.append("h=%.4g: new H1 error %.4e not below polyhedral %.4e"
                                % (h, e_new, e_poly))
    return problems


def check(name, wl, study, reference, seed, first):
    """Everything wrong with a study, as messages; empty when it passes.
    Errors are compared with those recorded for this seed, or, for a seed
    not recorded, with the plain-mesh errors at the jitter's tolerance."""
    problems = check_orders(wl, study)
    ref = reference[name]
    recorded = ref["seeds"].get(str(seed))
    ref_rows, rtol = (recorded, RTOL_RECORDED) if recorded else (ref["plain"], RTOL_PLAIN)
    for method, rows in study.rows.items():
        if len(rows) != len(ref_rows[method]):
            problems.append("%s: %d levels, reference has %d"
                            % (method, len(rows), len(ref_rows[method])))
        for (h, e1, e2), (r1, r2) in zip(rows, ref_rows[method]):
            if not (abs(e1 - r1) <= rtol * r1 and abs(e2 - r2) <= rtol * r2):
                problems.append(
                    "%s h=%.4g: errors (%.10e, %.10e) differ from reference "
                    "(%.10e, %.10e) by more than %g relative"
                    % (method, h, e1, e2, r1, r2, rtol))
    if first is not None and study.rows != first.rows:
        problems.append("errors differ from the first study of this run")
    return problems


def measure_setup(case_name):
    """Median wall time of a fresh interpreter importing the package the
    way the CLI does and building the case: what every CLI call pays."""
    code = ("import sys; sys.path.insert(0, %r); import shiftfem.cli; "
            "from shiftfem.cases import get_case; get_case(%r)" % (str(SRC), case_name))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "measurement": "wall time of this process only; spans from the "
                       "benchmark's own wrappers; no system-wide tracing",
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name, seed, seconds, trace, log=sys.stderr):
    """Run one benchmark invocation; returns the result object."""
    wl = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())
    setup_s = measure_setup(wl.case)
    case = get_case(wl.case)
    levels = {p: inputs.make_level(case, p, seed) for p in wl.params}

    studies, traced, failed, first, peak_rss = [], [], 0, None, None
    t_start = perf_counter()
    while True:
        for tracer in ([tracing.Tracer(), None] if trace else [None]):
            try:
                if tracer is None:
                    study = run_study(wl, case, levels)
                else:
                    with tracing.installed(tracer):
                        study = run_study(wl, case, levels, tracer)
                problems = check(name, wl, study, reference, seed, first)
            except Exception:  # a study that raises is a failed attempt
                traceback.print_exc(file=log)
                study, problems = None, ["study raised"]
            if problems:
                failed += 1
                print("FAIL %s seed %s: %s" % (name, seed, "; ".join(problems)), file=log)
                continue
            first = first or study
            if tracer is None:
                studies.append(study)
                # later studies only add heap fragmentation to the peak
                peak_rss = peak_rss or tracing.maxrss_mb()
            else:
                traced.append((study, tracer))
        elapsed = perf_counter() - t_start
        done = len(studies) + len(traced) + failed
        if elapsed + elapsed / done * (2 if trace else 1) > seconds or not (studies or traced):
            break
    attempted = len(studies) + len(traced) + failed

    values = {}
    if trace and studies and traced:
        per_study = [t.layer_metrics() for _, t in traced]
        values = tracing.median_metrics(per_study)
        t_wall = statistics.median(s.wall for s, _ in traced)
        values["trace.wall_s"] = t_wall
        values["trace.overhead_ratio"] = t_wall / statistics.median(s.wall for s in studies)
        counts = [{k: v for k, v in m.items() if isinstance(v, int)}
                  for m in per_study]
        if any(c != counts[0] for c in counts):
            failed += 1
            print("FAIL %s seed %s: count metrics differ between traced studies"
                  % (name, seed), file=log)
        OUT.mkdir(exist_ok=True)
        study, tracer = traced[0]
        (OUT / ("trace-%s-seed%s.json" % (name, seed))).write_text(json.dumps(
            {"workload": name, "seed": seed, "environment": environment(),
             "untraced_wall_s": [s.wall for s in studies],
             "traced_wall_s": [s.wall for s, _ in traced], **tracer.to_json()}))
        ranking = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
        for span, (calls, total, own) in ranking:
            print("  %-24s calls %7d  total %8.4f s  self %8.4f s"
                  % (span, calls, total, own), file=log)
    elif not trace and studies:
        rows = first.rows[wl.methods[0]]
        oh, ol = eocs(rows)[-1]
        values = {
            "wall_s": statistics.median(s.wall for s in studies),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "err_h1": rows[-1][1],
            "err_l2": rows[-1][2],
            "eoc_h1": oh,
            "eoc_l2": ol,
            "pass_ratio": (attempted - failed) / attempted,
        }

    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}
    if values and set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(values), sorted(units)))
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units
                    if k in values},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(shiftfem.__file__).resolve().parent != (SRC / "shiftfem").resolve():
        sys.exit("shiftfem was imported from %s, not from %s"
                 % (shiftfem.__file__, SRC))
    print(json.dumps({"environment": environment()}), file=sys.stderr)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except inputs.InputError as exc:
        sys.exit("input check failed: %s" % exc)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
