"""Record the errors that the benchmark's accuracy gate compares against:
for every workload, the errors on the plain meshes and on the jittered
meshes of each listed seed.  A study is recorded only if it passes the
residual and convergence-order checks.

    python3 bench/record.py --seeds 0-19

Re-record only when a change is meant to alter the errors, and say so.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
from inputs import make_level
from shiftfem.cases import get_case


def studied_rows(name, seed):
    wl = run.WORKLOADS[name]
    case = get_case(wl.case)
    levels = {p: make_level(case, p, seed) for p in wl.params}
    study = run.run_study(wl, case, levels)
    problems = run.check_orders(wl, study)
    if problems:
        sys.exit("%s seed %s: %s" % (name, seed, "; ".join(problems)))
    return {m: [[e1, e2] for _, e1, e2 in rows] for m, rows in study.rows.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-19", help="inclusive range a-b")
    lo, hi = (int(x) for x in ap.parse_args().seeds.split("-"))
    reference = {}
    for name in run.WORKLOADS:
        reference[name] = {
            "plain": studied_rows(name, None),
            "seeds": {str(s): studied_rows(name, s) for s in range(lo, hi + 1)},
        }
        print("recorded", name, file=sys.stderr, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
