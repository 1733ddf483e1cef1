#!/usr/bin/env python3
"""Deterministic work counts of one benchmark workload.

    python3 scripts/count_work.py --workload w1_pairs --seed 3 --rounds 10

Runs the ops that ``bench/run.py`` times at the same seed, untimed and
unchecked, on this checkout's src/, and prints per W1 route of the gap
integrator (``eval_q`` quantile, ``eval_x`` cdf) its calls, refinement
levels and evaluated points, in all and, under ``family.<family>.``, per
op family of the workload (`Op.family`: dd, dg, gg, hard_* on w1_pairs);
`measures._invert` calls and rows; the rows that its steps hand to
`measures._bisect` still wider than the tolerance, and the bisection rounds
they cost (``_bisect.wide_rows``, ``_bisect.rounds``), so the steps' stop
rule shows; `Distribution._level_arr` calls and points; the Lorenz
curve's evaluations (`LorenzCurve._eval_sorted` calls and points, the sweep
of `hoover_max` among them); and the batches that `Distribution._prefetch`
runs and their rows (``_prefetch.calls``, ``_prefetch.batches``,
``_prefetch.rows``), counted at its `_quantile_arr` call, so any signature
of `_prefetch` counts alike. It also
prints, in all and per op family, the fixed per-call work beside them:
`_AtomBlock.of` builds and how many of them had no atom
(``_AtomBlock.of.builds``, ``_AtomBlock.of.empty``), ``mass_at`` calls per
component type (``mass_at.<type>.calls``, the pooled `_AtomBlock` among
them) and ``np.unique`` calls. For the uniform and Epanechnikov kernel
estimates it prints, in all and per op family, the calls of
`_CutKernelMixture.quantile` and their rows
(``kernel_quantile.<kernel>.calls``, ``.rows``), the iterations of its one
``range(_MAX_ROUNDS)`` loop, a call's last empty check among them, as the
tests' ``_newton_rounds`` counts them (``.rounds``), and the iterations that
stepped at least one row (``.steps``). They depend on the code and the seed
alone, so two trees compare exactly where wall times do not.
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
from lorenzkit import estimators, measures, wasserstein  # noqa: E402
from lorenzkit.lorenz import LorenzCurve  # noqa: E402

#: the classes whose ``mass_at`` calls are counted, by class name
MASS_AT_TYPES = (
    measures._AtomBlock, measures.Atoms, measures.UniformDensity, measures.Exponential,
    measures.Gamma, measures.Lognormal, measures.QuantileTable, estimators._CutKernelMixture,
)

def counted(counts, name, fn, unit):
    """`fn` counting its calls and the size of its second argument."""
    def wrapper(*args):
        counts[f"{name}.calls"] += 1
        counts[f"{name}.{unit}"] += np.size(args[1])
        return fn(*args)
    return wrapper


def counted_bisect(counts, bisect):
    """`bisect` counting the rows it gets wider than its tolerance and the
    level calls (rounds) it makes."""
    def wrapper(level, y, lo, hi, tol):
        counts["_bisect.wide_rows"] += int(np.count_nonzero(hi - lo > tol))

        def level_counted(t, target):
            counts["_bisect.rounds"] += 1
            return level(t, target)

        return bisect(level_counted, y, lo, hi, tol)
    return wrapper


def bump(counts, family, name, k=1):
    """Add k to `name`, in all and, inside an op, under its family."""
    counts[name] += k
    if family[0] is not None:
        counts[f"family.{family[0]}.{name}"] += k


def tallied(counts, family, name, fn):
    """`fn` counting its calls under `name` (`bump`)."""
    def wrapper(*args, **kwargs):
        bump(counts, family, name)
        return fn(*args, **kwargs)
    return wrapper


def tallied_block_of(counts, family, of):
    """The bound classmethod `of` counting its builds, and those of no atom."""
    def wrapper(cls, locs, masses, whole=False):
        bump(counts, family, "_AtomBlock.of.builds")
        bump(counts, family, "_AtomBlock.of.empty", int(np.size(locs) == 0))
        return of(locs, masses, whole)
    return classmethod(wrapper)


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


def counted_prefetch(counts, prefetch, quantile_arr):
    """`prefetch` counting its calls, and the `quantile_arr` batches it runs
    and their rows, with `quantile_arr` counting only inside it."""
    inside = [False]

    def quantile_counted(self, p):
        if inside[0]:
            counts["_prefetch.batches"] += 1
            counts["_prefetch.rows"] += np.size(p)
        return quantile_arr(self, p)

    def prefetch_counted(self, *args):
        counts["_prefetch.calls"] += 1
        inside[0] = True
        try:
            return prefetch(self, *args)
        finally:
            inside[0] = False

    return prefetch_counted, quantile_counted


def counted_kernel_quantile(counts, family, quantile):
    """`quantile` counting its calls and rows under the kernel's name, with a
    `range` for the `estimators` module that counts, inside it, the rounds
    of its Newton loop, and the steps: the rounds resumed after their body
    ran, which a round that stops the loop never is."""
    name = [None]

    def rounds(*args):
        if name[0] is None or args != (estimators._MAX_ROUNDS,):
            return range(*args)

        def counted_range():
            for i in range(*args):
                bump(counts, family, f"{name[0]}.rounds")
                yield i
                bump(counts, family, f"{name[0]}.steps")

        return counted_range()

    def quantile_counted(self, p):
        name[0] = f"kernel_quantile.{self.kernel.name}"
        for key, k in (("calls", 1), ("rows", int(np.size(p))), ("rounds", 0), ("steps", 0)):
            bump(counts, family, f"{name[0]}.{key}", k)
        try:
            return quantile(self, p)
        finally:
            name[0] = None

    return rounds, quantile_counted


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
    measures._bisect = counted_bisect(counts, measures._bisect)
    measures.Distribution._level_arr = counted(counts, "_level_arr", measures.Distribution._level_arr, "points")
    LorenzCurve._eval_sorted = counted(counts, "_eval_sorted", LorenzCurve._eval_sorted, "points")
    measures.Distribution._prefetch, measures.Distribution._quantile_arr = counted_prefetch(
        counts, measures.Distribution._prefetch, measures.Distribution._quantile_arr
    )
    measures._AtomBlock.of = tallied_block_of(counts, family, measures._AtomBlock.of)
    for cls in MASS_AT_TYPES:
        cls.mass_at = tallied(counts, family, f"mass_at.{cls.__name__}.calls", cls.mass_at)
    np.unique = tallied(counts, family, "np.unique.calls", np.unique)
    estimators.range, estimators._CutKernelMixture.quantile = counted_kernel_quantile(
        counts, family, estimators._CutKernelMixture.quantile
    )
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
            family[0] = None
    for name in sorted(counts):
        print(f"{name} {counts[name]}")


if __name__ == "__main__":
    main()
