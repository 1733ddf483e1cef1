#!/usr/bin/env python3
"""Deterministic work counts of one benchmark workload.

    python3 scripts/count_work.py --workload w1_pairs --seed 3 --rounds 10

Runs the ops that ``bench/run.py`` times at the same seed, untimed and
unchecked, on this checkout's src/, and prints per W1 route of the gap
integrator (``eval_q`` quantile, ``eval_x`` cdf) its calls, refinement
levels and evaluated points, in all and, under ``family.<family>.``, per
op family of the workload (`Op.family`: dd, dg, gg, hard_* on w1_pairs);
`measures._invert` calls and rows; and `Distribution._level_arr` calls and
points. They depend on the code and the seed alone, so two trees compare
exactly where wall times do not.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import laws  # noqa: E402
import workloads  # noqa: E402
from lorenzkit import measures, wasserstein  # noqa: E402

def counted(counts, name, fn, unit):
    """`fn` counting its calls and the size of its second argument."""
    def wrapper(*args):
        counts[f"{name}.calls"] += 1
        counts[f"{name}.{unit}"] += np.size(args[1])
        return fn(*args)
    return wrapper


def counted_gap_body(counts, body, family):
    """`body` counting its calls, and the levels and points of its
    evaluations, under the name of the route's evaluator, in all and under
    the family of the op in progress, ``family[0]``."""
    def gap_body(edges, evaluate, budget):
        route = f"gap_body.{evaluate.__name__}"
        names = (route, f"family.{family[0]}.{route}")
        for name in names:
            counts[f"{name}.calls"] += 1

        def evaluate_counted(points, br1, br2):
            for name in names:
                counts[f"{name}.levels"] += br1 is not None  # None on the first call
                counts[f"{name}.points"] += points.size
            return evaluate(points, br1, br2)

        return body(edges, evaluate_counted, budget)
    return gap_body


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args()
    counts = Counter({"ops.raised": 0})
    family = [None]
    wasserstein._abs_gap_body = counted_gap_body(counts, wasserstein._abs_gap_body, family)
    measures._invert = counted(counts, "_invert", measures._invert, "rows")
    measures.Distribution._level_arr = counted(counts, "_level_arr", measures.Distribution._level_arr, "points")
    workload = workloads.WORKLOADS[args.workload]
    strata = laws.Strata(args.seed, workload.stream)
    for rnd in range(args.rounds):
        for op in workload.round(args.seed, rnd, strata):
            family[0] = op.family
            counts["ops"] += 1
            try:
                op.call()
            except Exception:  # counted, as bench/run.py counts a failed op
                counts["ops.raised"] += 1
    for name in sorted(counts):
        print(f"{name} {counts[name]}")


if __name__ == "__main__":
    main()
