"""lorenzkit benchmark: one closed-loop client driving one workload.

    python3 bench/run.py --workload index_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy. One client sends one op at a
time and waits for it (closed loop); BLAS threads are capped at
min(2, nproc). Workloads: ``index_mix``, ``w1_pairs``, ``kde_converge``
(see ``workloads.py``).

``--seconds`` sets the work: the rounds that took that long at the commit
that added the benchmark (see ``rounds_for``). ``--trace 0`` prints the
end-to-end metrics, their timings scaled to reference speed by a yardstick
timed between ops (``speed.py``); ``--trace 1`` runs half as many rounds
once untraced and once under ``tracing.Tracer``, prints the per-layer
metrics plus the tracing overhead, and writes the kept spans to
``bench/out/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; human-readable
lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5

_threads = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _threads


class Deadline(BaseException):
    """Raised into an op that outlives the workload's per-op deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def _import_lorenzkit():
    """Import lorenzkit from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "lorenzkit" / "__init__.py").is_file():
        sys.exit(f"bench: no lorenzkit sources under {src}")
    sys.path.insert(0, str(src))
    import lorenzkit

    if Path(lorenzkit.__file__).resolve().parent != (src / "lorenzkit").resolve():
        sys.exit(f"bench: imported lorenzkit from {lorenzkit.__file__}, not from {src}")
    return lorenzkit


def _failure(ex: Exception) -> str:
    # lorenzkit raises RuntimeError when its own cross-route checks disagree
    return "route_check" if isinstance(ex, RuntimeError) else f"raise:{type(ex).__name__}"


def timed(op, deadline_s: float):
    """(latency seconds, failure reason or None) of one op."""
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Deadline:
        return deadline_s, "deadline"
    except Exception as ex:  # every error is a counted failure, never an abort
        return time.perf_counter() - t0, _failure(ex)
    latency = time.perf_counter() - t0
    return latency, op.check(out)


def drive(workload, seed: int, rounds: int, tracer=None, meter=None):
    """Run `rounds` rounds; returns per-op (family, latency, failure, wall latency).

    With a `meter` (``speed.Meter``), each latency is scaled to reference
    speed by the yardstick readings around it; a deadline hit counts at the
    deadline, unscaled.

    Under a tracer, an op that hits the deadline is left out of the
    per-layer counts: how much a hung loop counts depends only on how fast
    it spins.
    """
    import laws

    strata = laws.Strata(seed, workload.stream)
    runs = []  # (family, wall latency, failure, reading before the op)
    for op in (op for rnd in range(rounds) for op in workload.round(seed, rnd, strata)):
        if tracer is not None:
            tracer.op += 1
            mark = tracer.checkpoint()
        before = meter.mark() if meter is not None else None
        latency, failure = timed(op, workload.deadline_s)
        if tracer is not None and failure == "deadline":
            tracer.rollback(mark)
        if meter is not None:
            meter.after(latency)
        runs.append((op.family, latency, failure, before))
    if meter is not None:
        meter.close()
    return [(f, wall if meter is None or fail == "deadline" else wall * meter.scale(before), fail, wall)
            for f, wall, fail, before in runs]  # fmt: skip


def rounds_for(workload, seconds: float) -> int:
    """Rounds that took about `seconds` of op time at the benchmark's
    commit. A run does a fixed amount of work, so every run meets the same
    ops however fast the machine happens to be at the time.
    """
    return max(1, round(seconds / workload.round_s))


def setup_probe(workload_name: str, seed: int) -> float:
    """Seconds to import lorenzkit and generate the first round's inputs."""
    t0 = time.perf_counter()
    _import_lorenzkit()
    t_import = time.perf_counter() - t0
    import laws
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    t1 = time.perf_counter()
    workload.round(seed, 0, laws.Strata(seed, workload.stream))
    return t_import + time.perf_counter() - t1


def measure_setup(args) -> float:
    """Median setup time over fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]  # fmt: skip
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics. Latencies cluster by law, and a single order statistic
    jumps between clusters from run to run; the weighted mean does not."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum(w * v for w, v in zip(edges[1:] - edges[:-1], x)))


def end_to_end(records, setup_s: float) -> dict:
    latencies = [lat for _, lat, *_ in records]
    passed = sum(1 for _, _, failure, _ in records if failure is None)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(latencies, 0.9), "ms"),
        "pass_ratio": (passed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report(name: str, records, rounds: int, metrics: dict, extra_lines=()) -> None:
    """Print the summary lines, then the JSON result line.

    ``correct`` is false when an op outside the hard slice returned a value
    that lorenzkit's own checks accepted but that misses its independent
    reference: a silently wrong number. Loud failures (errors, route
    residuals, deadline hits) and misses in the hard slice are known defects
    and count in ``failed`` only.
    """
    silent = [f for f, _, fail, _ in records if fail == "reference" and not f.startswith("hard_")]
    failures: dict[str, int] = {}
    for family, _, failure, _ in records:
        if failure is not None:
            key = f"{family}:{failure}"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    print(f"workload {name}: {len(records)} ops in {rounds} rounds, {failed} failed "
          f"(fail_ratio {failed / len(records):.4f})")  # fmt: skip
    for key in sorted(failures):
        print(f"  failed {key}: {failures[key]}")
    for line in extra_lines:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not silent,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))  # fmt: skip


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    _import_lorenzkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    if not args.trace:
        import speed

        setup_s = measure_setup(args)
        rounds = rounds_for(workload, args.seconds)
        meter = speed.Meter(workload.yardstick)
        records = drive(workload, args.seed, rounds, meter=meter)
        wall = end_to_end([(f, w, fail, w) for f, _, fail, w in records], setup_s)
        lines = [f"  speed: {meter.yardstick} yardstick median {1e3 * meter.median_s():.3f} ms over "
                 f"{len(meter.readings)} readings, reference {1e3 * meter.reference_s:.3f} ms",
                 "  unscaled: " + ", ".join(f"{k} = {wall[k][0]:.6g} {wall[k][1]}"
                                            for k in ("ops_per_s", "op_p50_ms", "op_p90_ms"))]  # fmt: skip
        report(workload.name, records, rounds, end_to_end(records, setup_s), lines)
        return 0

    import tracing

    rounds = rounds_for(workload, args.seconds / 2)
    plain = drive(workload, args.seed, rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = drive(workload, args.seed, rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(lat for _, lat, *_ in plain)
    traced_s = sum(lat for _, lat, *_ in traced)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{args.seed}.tsv"
    tracer.write_spans(spans_path)
    lines = [f"  spans: {len(tracer.spans)} kept, written to {spans_path.relative_to(ROOT)}",
             "  span self time (calls, total s, self s):"]  # fmt: skip
    lines += [f"    {n}: {c} {t:.4f} {s:.4f}" for n, c, t, s in tracer.span_table()[:25]]
    report(workload.name, traced, rounds, metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
