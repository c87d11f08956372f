"""Run the benchmark once per seed on every workload, untraced, and once
traced per workload; write the medians, quartiles and spreads as a
baseline record.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of `statistics.quantiles(values, n=4)`; it must stay below the
metric's bound in BENCHMARK.json, and should stay below a third of it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def invoke(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit("%s seed %s trace %s failed:\n%s"
                 % (workload, seed, trace, proc.stderr[-4000:]))
    env = json.loads(proc.stderr.splitlines()[0])["environment"]
    return env, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(lo, hi + 1):
            env, res = invoke(wl, seed, spec["run_seconds"], 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        end_to_end = {}
        for k, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            end_to_end[k] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bounds[k]}
            print("%-10s %-12s median %-12.6g %-3s spread %.4f (bound %g)"
                  % (wl, k, med, units[k], (q3 - q1) / med, bounds[k]), flush=True)
        _, traced = invoke(wl, lo, spec["run_seconds"], 1)
        record["environment"] = env
        record["workloads"][wl] = {
            "end_to_end": end_to_end,
            "per_layer_seed%d" % lo: {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
