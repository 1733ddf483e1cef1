#!/usr/bin/env python3
"""Convergence experiment driver.

Runs the library's diagnostics over a small panel:

* the two built-in mass-escape scenarios (expected verdict: weak_only,
  since quantile probes settle while the mean stays displaced),
* one experiment per estimator scheme against a configurable source
  (expected verdict: w1_convergent at the default ladders).

Writes one TSV per run into --outdir, in the format of
``lorenzkit converge --tsv``, and prints a verdict summary.
This is a driver, not a test; tolerances and verdicts are asserted in
the test suite.
"""

import argparse
import pathlib

from lorenzkit import (
    ExperimentSpec,
    SCENARIOS,
    run_experiment,
    scenario_sequence,
    sequence_diagnostics,
)
from lorenzkit.cli import _tsv_text


def write_tsv(report, path: pathlib.Path) -> None:
    path.write_text(_tsv_text(report.tsv_rows()), encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--source", default="mix(0.3*atom(0),0.7*exp(1))",
                    help="source distribution for the scheme experiments")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--scenario-steps", type=int, default=50)
    ap.add_argument("--outdir", default="convergence_out")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []

    for name in SCENARIOS:
        seq, limit = scenario_sequence(name, args.scenario_steps)
        report = sequence_diagnostics(seq, limit)
        write_tsv(report, outdir / f"{name}.tsv")
        last = report.steps[-1]
        summary.append((name, report.verdict,
                        f"G={last.gini:.6f} H={last.hoover:.6f}"))

    for scheme in ("sampling", "quantile", "quantile_of_sample", "kde", "noise"):
        spec = ExperimentSpec(scheme=scheme, source=args.source,
                              seed=args.seed, steps=args.steps)
        report = run_experiment(spec)
        write_tsv(report, outdir / f"{scheme}.tsv")
        last = report.steps[-1]
        summary.append((f"{scheme}({args.source})", report.verdict,
                        f"final W1={last.w1_to_limit:.3e}"))

    width = max(len(s[0]) for s in summary)
    for name, verdict, detail in summary:
        print(f"{name:<{width}}  {verdict:<14}  {detail}")
    print(f"reports in {outdir}/")


if __name__ == "__main__":
    main()
