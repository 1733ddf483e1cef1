#!/usr/bin/env python3
"""Dump lorenzkit outputs bit for bit, and diff two dumps.

``dump OUT.json`` evaluates a fixed battery through the public API and
writes every value as ``float.hex``: the fields of `index_report`, both
`w1_routes` values, quantiles, cdf and partial-expectation values, Lorenz
values, both `mean_routes` values, the support's end (`sup_support`) and
the Lorenz curve's left derivative at 1, `excess_mean` and `tail_moment` at
the mean times each of `TAIL_MULTIPLES`, the mean's own residues (key
``mean_gap``: partial_expectation(inf) - mean and, for a law with bounded
support, `tail_moment` and `excess_mean` at `sup_support`; the contract is
0), and, for each law whose quantile is float-exact (finite-discrete
laws, mixtures of parts, Gaussian kernel estimates), how many probabilities
of a ladder break the exact Galois pair or the order of Q (key ``galois``;
the contract is 0) and how many of the same probabilities get a quantile
from shuffled chunks that differs from the one batch, each side on a cold
copy of the law (key ``batch``; the contract is 0, the premise of the
quantile memo of `Distribution`). The pair is two-sided where the library
inverts the survival function: a law that inverts from its knot table
(`Distribution._memoized`: a mixture of parts or a Gaussian kernel estimate)
meets sf(Q) <= 1 - p < sf(prev(Q)) for F(x_h) < p <= F(top), x_h the first
knot of its table where F >= 1/2 and top the last, and F(prev(Q)) < p <= F(Q)
elsewhere; a tree without `Distribution._sf_arr` is held to the cdf form
alone. A tree whose Gaussian kernel estimates invert their cdf at every p
(before they took the knot table) is dumped with its own copy of this
script, which holds them to the cdf form. For each single-part kernel
estimate with the uniform or Epanechnikov kernel, whose quantile is a root
of the cdf's polynomial on one knot cell, it counts the probabilities of the
same ladder, and of 1 - 2^-k for k = 41..53 up to nextafter(1, 0), that
break F(Q(p)-) - 4 eps <= p <= F(Q(p)) + 4 eps or the order of Q (key
``sandwich``; the contract is 0), and dumps its survival function at the
`TOP_ULPS` floats just below `sup_support` (key ``sf_top``), where the
Epanechnikov kernel's G(-u) nears 0, and its cdf at the `TOP_ULPS` floats
just above max(x_(1) - h, 0) (key ``cdf_bottom``), where G(u) does, so a
value that loses its digits or its sign there shows;
the same key holds that cdf for the uniform and Epanechnikov estimates of
small lognormal(0, 1) samples whose x_(1) - h > 0 (`CDF_BOTTOM_KDE`),
whose bottom the battery's estimates do not reach. Below the law, key
``component`` holds the own cdf, sf, pe, mass_at and quantile of every
`Atoms` and `QuantileTable` part of the battery's laws, on the part's breakpoints, the
floats beside them and `COMPONENT_STEPS` equal steps up to 1.25 times its
last breakpoint (the quantile at `PS`), so a change below the pooled
block shows; key ``large_sample`` holds `index_report` of the empirical
law of a 10^5-point lognormal(0, 1) sample (`LARGE_SAMPLE`). The battery is
`standard_battery()` plus seeded nested mixtures, atom-rich mixtures (a
density plus tens to hundreds of atoms), mixtures with quantile-table and
kernel-smoothed parts, the heavy-tailed lognormal(0, 2.5) and
lognormal(0, 3), a step quantile table (`STEP_TABLE`), the `reconstruct`
of a four-atom battery law's Lorenz curve on 4,096 equal cells
(`RECONSTRUCTED`), three battery laws rescaled by 1e-12, 1e-6, 1e6 and
1e12 (W1 pairs them within each scale), and single-part kernel estimates
(uniform, Epanechnikov and Gaussian kernel, n = 200, h = 0.03) of one
uniform(0,1) sample plus a Gaussian one (same n and h) of a two-cluster
sample on [0, 0.3] and [2, 3], whose density nearly vanishes between the
clusters, and two Gaussian ones of a lognormal(0, 1) sample
(`lognormal(0, 1).sample(3, n)`) at (n, h) in `GAP_KDE`, whose bandwidth is
far below most of the sample's gaps, each paired with the W1 partners, and
two mixtures of
lognormal(0, 0.5) and uniform(0.5, 1.5) (weights 1/2 and 3/10 on the
uniform) whose computed F and -sf fall by an ulp between some candidate
knots, so their tables keep only the monotone knots; they are paired with
the W1 partners and with each other. It also dumps `lorenz_dominates` and
`fsd_dominates` over every ordered pair of `standard_battery()` laws, and
every field of `sequence_diagnostics` on both built-in scenarios
(`scenario_sequence`, 50 steps). Last, it runs
the command line (`lorenzkit.cli.main`) in-process and records the exit
code, stdout and stderr of every subcommand under each output flag
(`dump_cli`): ``index`` and ``lorenz`` (with and without ``--kendall``) of
every `standard_battery()` name, ``w1`` of each against exp(1) (with and
without ``--verbose``, and with ``--tol`` 0 and 1), ``extremal`` at four
Hoover values (with and without ``--alpha``), and ``converge SCENARIO
--steps 6`` of both built-in scenarios with the JSON and TSV report files
it writes (``--out`` in a temporary directory, masked in stdout), so a
changed byte shows. A call that raises is recorded by its exception type, a
text field (a verdict, a CLI output) as ``text:`` and its value.

``diff A.json B.json`` matches the keys the two dumps share and prints, per
field and per kind (``discrete`` when every law involved is
finite-discrete, else ``general``), how many values are bit-identical and
the largest relative difference (for ``index.max_cross_route_residual``,
each dump's largest residual instead, so a rise shows), and each dump's
totals of Galois, batch and sandwich failures, so a quantile that moved
can be seen to meet the contract still, and how many ``mean_gap`` values
are not 0. For each dump it prints how well
the two W1 routes agree over the general ``w1_routes`` pairs: the median
and the largest |quantile - cdf| / quantile and how many exceed 1e-9, so a
change to the gap integrator is judged by its accuracy as well as by the
keys it moved. It lists as changed outcomes the dominance answers, text
fields and raising calls that differ, then the keys found in one dump
only.

Run each side against its own source tree, for example

    PYTHONPATH=old/src python3 scripts/compare_outputs.py dump old.json
    PYTHONPATH=src python3 scripts/compare_outputs.py dump new.json
    PYTHONPATH=src python3 scripts/compare_outputs.py diff old.json new.json

``counts A B`` compares the work two trees do rather than their numbers. A
and B are saved stdouts of ``bench/run.py --trace 1``; it reads the JSON
last line of each and lists every count metric (a per-layer metric whose
unit is not ``s`` or ``ns``, deterministic at a fixed seed) whose value
differs, with both values, then how many count metrics it compared:

    (cd old && python3 bench/run.py --workload w1_pairs --seed 3 --seconds 0 --trace 1) > old.txt
    python3 bench/run.py --workload w1_pairs --seed 3 --seconds 0 --trace 1 > new.txt
    PYTHONPATH=src python3 scripts/compare_outputs.py counts old.txt new.txt
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import tempfile
from collections import defaultdict

import numpy as np

from lorenzkit import (
    SCENARIOS,
    Distribution,
    atom,
    discrete,
    empirical,
    exponential,
    fsd_dominates,
    gamma_dist,
    index_report,
    kde,
    lognormal,
    lorenz,
    lorenz_dominates,
    mixture,
    quantile_approx,
    quantile_table,
    reconstruct,
    scenario_sequence,
    sequence_diagnostics,
    standard_battery,
    uniform,
    w1_routes,
)
from lorenzkit.cli import main as cli_main
from lorenzkit.measures import TAIL_LEVELS, Atoms, QuantileTable

INDEX_FIELDS = (
    "gini_mean_difference",
    "gini_dorfman",
    "gini_lorenz",
    "hoover_mean_deviation",
    "hoover_cdf",
    "hoover_max",
    "r_share",
    "p_share",
    "max_cross_route_residual",
)
#: the residual field, diffed as each dump's largest value, not a relative difference
RESIDUAL = "index.max_cross_route_residual"
#: prefixes of dumped values that are outcomes, not floats: a change is listed
OUTCOMES = ("raise:", "text:")
PS = np.concatenate([np.arange(1, 64) / 64.0, 1.0 - 2.0 ** -np.arange(7.0, 31.0)])
LORENZ_PS = np.linspace(0.0, 1.0, 33)
#: probabilities of the Galois check: the 257-level ladder, the tail levels 1 - 2^-k and PS
GALOIS_PS = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], TAIL_LEVELS, PS]))
#: chunks the shuffled Galois ladder is split into for the batch check
BATCH_CHUNKS = 17
#: probabilities of the sandwich check: the Galois ladder and 1 - 2^-k up to nextafter(1, 0)
SANDWICH_PS = np.unique(np.concatenate([GALOIS_PS, 1.0 - 2.0 ** -np.arange(41.0, 54.0)]))
#: single-part kernel estimates whose quantile solves the cdf's polynomial (the sandwich check)
COMPACT_KDE = ("kde-uniform", "kde-epanechnikov")
#: floats just below the support's end at which their survival is dumped,
#: and just above max(x_(1) - h, 0) at which their cdf is
TOP_ULPS = 49
#: kernels, sample sizes, bandwidths and seeds of the compact-kernel estimates
#: of small lognormal(0, 1) samples whose cdf is dumped above x_(1) - h > 0
CDF_BOTTOM_KDE = (("uniform", "epanechnikov"), (2, 5, 20), (0.01, 0.3), range(10))
#: battery laws every extra law is paired with for W1
W1_PARTNERS = ("uniform(0,1)", "exp(1)", "mix(0.5*atom(0),0.25*atom(1),0.25*atom(3))",
               "mix(0.3*atom(0),0.7*exp(1))")
#: battery laws dumped again at each of SCALES, so drift across scales shows
SCALED = ("mix(0.4*atom(0.5),0.3*atom(1),0.2*atom(2),0.1*atom(4))", "gamma(2,0.5)",
          "mix(0.3*atom(0),0.7*exp(1))")
SCALES = (1e-12, 1e-6, 1e6, 1e12)
#: log-sd of the heavy-tailed lognormal laws dumped after the seeded ones
HEAVY_SIGMAS = (2.5, 3.0)
#: (grid, values) of the step quantile table dumped after them
STEP_TABLE = ([0.0, 0.2, 0.45, 0.7, 0.9], [0.0, 0.5, 0.5, 1.5, 4.0])
#: the battery law whose Lorenz curve is reconstructed last, on this many
#: equal cells: its long runs of tied atoms set a running sum over every
#: row apart from the sum over its merged atoms, which the mean and pe read
RECONSTRUCTED = "mix(0.4*atom(0.5),0.3*atom(1),0.2*atom(2),0.1*atom(4))"
RECONSTRUCT_CELLS = 4096
#: kernels of the single-part KDE laws, sample size and bandwidth
KDE_KERNELS, KDE_N, KDE_H = ("uniform", "epanechnikov", "gaussian"), 200, 0.03
#: (sample size, bandwidth) of the Gaussian estimates of a lognormal sample
#: whose bandwidth is far below the sample's spacing
GAP_KDE = ((10, 1e-3), (200, 1e-4))
#: multiples of the mean at which `excess_mean` and `tail_moment` are dumped
TAIL_MULTIPLES = (1.0, 4.0, 16.0)
#: the numeric fields of a `sequence_diagnostics` report outside its steps
DIAGNOSTICS_SCALARS = ("alpha_ref", "rel_tol")
#: its text fields, dumped as ``text:`` values
DIAGNOSTICS_TEXT = ("verdict", "deciding_diagnostic", "scheffe_verdict")
#: steps of the built-in scenarios whose ``converge`` report files are dumped
CLI_STEPS = 6
#: the output flags every subcommand but ``extremal`` (no ``--tsv``) is run with
CLI_FORMATS = ([], ["--json"], ["--tsv"])
#: grid cells of the ``lorenz`` tables
CLI_RES = 16
#: the battery law every battery law is paired with by ``w1``
CLI_W1_PARTNER = "exp(1)"
#: Hoover values of the ``extremal`` runs, each also with alpha = (1 + h) / 2
CLI_HOOVER = (0.1, 0.3, 0.5, 0.9)
#: equal steps of the abscissa grid a component's own methods are dumped on
COMPONENT_STEPS = 64
#: (seed, size) of the lognormal(0, 1) sample whose empirical law is dumped
LARGE_SAMPLE = (31, 100_000)


def _density(rng):
    kind = rng.integers(4)
    if kind == 0:
        a = float(rng.uniform(0.0, 2.0))
        return uniform(a, a + float(rng.uniform(0.1, 3.0)))
    if kind == 1:
        return exponential(float(10.0 ** rng.uniform(-1.0, 1.0)))
    if kind == 2:
        return gamma_dist(float(rng.uniform(0.5, 5.0)), float(10.0 ** rng.uniform(-1.0, 1.0)))
    return lognormal(float(rng.normal()), float(rng.uniform(0.2, 1.2)))


def _atoms(rng, n):
    return discrete(rng.lognormal(0.0, float(rng.uniform(0.3, 1.5)), size=n))


def extra_laws():
    """Seeded laws beyond the standard battery, as (name, distribution)."""
    rng = np.random.default_rng(20240)
    laws = []
    for k in range(6):
        parts = [_density(rng), atom(float(rng.uniform(0.0, 4.0))), _atoms(rng, 3 + 4 * k)]
        if k % 2:
            inner = atom(float(rng.uniform(0.0, 4.0)))
            parts.append(mixture([(0.5, _density(rng)), (0.5, inner)]))
        ws = rng.dirichlet(np.ones(len(parts)))
        laws.append((f"nested-{k}", mixture(list(zip(ws, parts)))))
    for k, n in enumerate((40, 120, 300)):
        w = float(rng.uniform(0.2, 0.8))
        laws.append((f"atom_rich-{k}", mixture([(w, _density(rng)), (1.0 - w, _atoms(rng, n))])))
    laws.append(("atoms-200", _atoms(rng, 200)))
    u = uniform(0.0, 2.0)
    step = quantile_approx(u, 8)
    laws.append(("step_table_mix", mixture([(0.6, exponential(1.0)), (0.4, step)])))
    linear = quantile_table([0.0, 0.3, 0.6, 0.9], [0.0, 1.0, 1.0, 3.0], mode="linear")
    laws.append(("linear_table_mix", mixture([(0.5, linear), (0.5, _atoms(rng, 30))])))
    smooth = kde(rng.lognormal(0.0, 0.5, size=40), "epanechnikov", 0.3)
    laws.append(("kde_mix", mixture([(0.7, smooth), (0.3, _atoms(rng, 25))])))
    laws.extend((f"lognormal(0,{s:g})", lognormal(0.0, s)) for s in HEAVY_SIGMAS)
    laws.append(("step_table", quantile_table(*STEP_TABLE)))
    source = dict(standard_battery())[RECONSTRUCTED]
    grid = np.linspace(0.0, 1.0, RECONSTRUCT_CELLS + 1)
    laws.append((f"reconstruct-{RECONSTRUCT_CELLS}({RECONSTRUCTED})",
                 reconstruct(lorenz(source).eval(grid), source.mean, grid)))
    return laws


def kde_laws():
    """Single-part kernel estimates of one uniform(0,1) sample, and
    Gaussian ones of a two-cluster sample and of lognormal samples with a
    bandwidth below their spacing, as (name, distribution)."""
    xs = np.random.default_rng(20241).uniform(0.0, 1.0, size=KDE_N)
    laws = [(f"kde-{k}-{KDE_N}-{KDE_H:g}", kde(xs, k, KDE_H)) for k in KDE_KERNELS]
    half = KDE_N // 2
    gap = np.concatenate([0.3 * np.random.default_rng(4).uniform(0.0, 1.0, size=half),
                          2.0 + np.random.default_rng(5).uniform(0.0, 1.0, size=KDE_N - half)])
    laws.append((f"kde-gaussian-gap-{KDE_N}-{KDE_H:g}", kde(gap, "gaussian", KDE_H)))
    for n, h in GAP_KDE:
        laws.append((f"kde-gaussian-lognormal-{n}-{h:g}", kde(lognormal(0.0, 1.0).sample(3, n), "gaussian", h)))
    return laws


def dented_laws():
    """Mixtures whose knot tables drop the knots where the computed F or
    -sf is below its running maximum, as (name, distribution)."""
    return [(f"mix({1 - w:g}*lognormal(0,0.5),{w:g}*uniform(0.5,1.5))",
             mixture([(1.0 - w, lognormal(0.0, 0.5)), (w, uniform(0.5, 1.5))])) for w in (0.5, 0.3)]


def _attempt(out, key, fn):
    try:
        values = fn()
    except Exception as exc:  # recorded, so both sides can be compared
        out[key + "#0"] = "raise:" + type(exc).__name__
        return
    if isinstance(values, str):
        out[key + "#0"] = "text:" + values
        return
    for i, v in enumerate(np.atleast_1d(np.asarray(values, dtype=float))):
        out[f"{key}#{i}"] = float(v).hex()


def _kind(*ds):
    return "discrete" if all(d.is_finite_discrete for d in ds) else "general"


def dump_dominance(values, battery):
    """`lorenz_dominates` and `fsd_dominates` over every ordered pair of
    distinct battery laws. The `lorenz_dominates` key ends in ``grid 256``,
    the default grid it took before it probed its operands' ladders alone,
    so dumps of trees from either side line up."""
    for a, d1 in battery:
        for b, d2 in battery:
            if a == b:
                continue
            kind = _kind(d1, d2)
            _attempt(values, f"{kind}|lorenz_dominates|{a} vs {b} grid 256", lambda: lorenz_dominates(d1, d2))
            _attempt(values, f"{kind}|fsd_dominates|{a} vs {b}", lambda: fsd_dominates(d1, d2))


def dump_diagnostics(values):
    """Every field of `sequence_diagnostics` on each built-in scenario."""
    for name in SCENARIOS:
        seq, limit = scenario_sequence(name)
        kind = _kind(limit, *seq)
        try:
            report = sequence_diagnostics(seq, limit).to_json_dict()
        except Exception as exc:
            values[f"{kind}|diagnostics|{name}#0"] = "raise:" + type(exc).__name__
            continue
        for col in report["steps"][0]:
            _attempt(values, f"{kind}|diagnostics.{col}|{name}", lambda: [s[col] for s in report["steps"]])
        for field, v in report["limit_summary"].items():
            _attempt(values, f"{kind}|diagnostics.limit_{field}|{name}", lambda: v)
        for field in DIAGNOSTICS_SCALARS:
            _attempt(values, f"{kind}|diagnostics.{field}|{name}", lambda: report[field])
        for field in DIAGNOSTICS_TEXT:
            _attempt(values, f"{kind}|diagnostics.{field}|{name}", lambda: report[field])


def _cli_run(argv):
    """The exit code, stdout and stderr of `lorenzkit.cli.main(argv)`, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"exit {code}\nstdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def dump_cli(values, battery):
    """CLI runs as ``text:`` values, each its exit code, stdout and stderr:
    for each battery law, ``index`` and ``lorenz`` (``--res CLI_RES``, with
    and without ``--kendall``) under each of `CLI_FORMATS`, ``index --tol
    0``, and ``w1`` against `CLI_W1_PARTNER` under each format with and
    without ``--verbose`` and with ``--tol`` 0 and 1, so both outcomes of
    the route check show; ``extremal`` at each of `CLI_HOOVER`, with and
    without ``--alpha`` and ``--json``; and ``converge`` of each built-in
    scenario under each format (``--out`` in a temporary directory, masked
    in stdout) with the report files it writes."""
    partner = dict(battery)[CLI_W1_PARTNER]
    for name, d in battery:
        kind = _kind(d)
        for fmt in CLI_FORMATS:
            tag = "".join(fmt)
            _attempt(values, f"{kind}|cli.index{tag}|{name}", lambda: _cli_run(["index", name, *fmt]))
            for extra in ([], ["--kendall"]):
                argv = ["lorenz", name, "--res", str(CLI_RES), *fmt, *extra]
                _attempt(values, f"{kind}|cli.lorenz{tag}{''.join(extra)}|{name}", lambda: _cli_run(argv))
            for extra in ([], ["--verbose"]):
                argv = ["w1", name, CLI_W1_PARTNER, *fmt, *extra]
                _attempt(values, f"{_kind(d, partner)}|cli.w1{tag}{''.join(extra)}|{name} vs {CLI_W1_PARTNER}",
                         lambda: _cli_run(argv))
        _attempt(values, f"{kind}|cli.index--tol0|{name}", lambda: _cli_run(["index", name, "--tol", "0"]))
        for tol in ("0", "1"):
            _attempt(values, f"{_kind(d, partner)}|cli.w1--tol{tol}|{name} vs {CLI_W1_PARTNER}",
                     lambda: _cli_run(["w1", name, CLI_W1_PARTNER, "--verbose", "--tol", tol]))
    for h in CLI_HOOVER:
        for extra in ([], ["--alpha", f"{(1.0 + h) / 2.0:g}"]):
            for fmt in ([], ["--json"]):
                argv = ["extremal", f"{h:g}", *extra, *fmt]
                _attempt(values, f"discrete|cli.extremal{''.join(extra[:1] + fmt)}|{' '.join(argv[1:])}",
                         lambda: _cli_run(argv))
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            seq, limit = scenario_sequence(name, CLI_STEPS)
            kind = _kind(limit, *seq)
            for fmt in CLI_FORMATS:
                tag, base = "".join(fmt), os.path.join(tmp, name + "".join(fmt))
                argv = ["converge", name, "--steps", str(CLI_STEPS), "--out", base, *fmt]
                _attempt(values, f"{kind}|cli.converge{tag}|{name}",
                         lambda: _cli_run(argv).replace(tmp, "<out>"))
                for ext in ("json", "tsv"):
                    if os.path.exists(f"{base}.{ext}"):
                        _attempt(values, f"{kind}|cli.converge{tag}.{ext}|{name}",
                                 lambda: _read(f"{base}.{ext}"))


def _sf_form(d, ps):
    """Rows of `ps` whose quantile meets the survival form of the pair: those
    above F(x_h) up to F(top), read from the knot table of a law that
    inverts from one (`Distribution._memoized`)."""
    if not hasattr(d, "_sf_arr") or not d._memoized:
        return np.zeros(ps.shape, dtype=bool)
    _, f, _, h = d._knot_values
    return (ps > f[h]) & (ps <= f[-1])


def galois_failures(d, ps=GALOIS_PS):
    """How many p in the sorted `ps` break the exact Galois pair of their
    form, F(prev(Q)) < p <= F(Q) or sf(Q) <= 1 - p < sf(prev(Q)), or see Q
    fall below the previous quantile."""
    q = np.asarray(d.quantile(ps))
    prev = np.nextafter(q, 0.0)
    by_cdf = (ps <= np.asarray(d.cdf(q))) & ((q == 0.0) | (np.asarray(d.cdf(prev)) < ps))
    up = _sf_form(d, ps)
    by_sf = np.zeros_like(up)
    if up.any():
        r = 1.0 - ps[up]
        by_sf[up] = (np.asarray(d.survival(q[up])) <= r) & (
            (q[up] == 0.0) | (np.asarray(d.survival(prev[up])) > r)
        )
    ok = np.where(up, by_sf, by_cdf)
    ok[1:] &= q[1:] >= q[:-1]
    return int(np.sum(~ok))


def batch_failures(d, ps=GALOIS_PS):
    """How many p in `ps` get a quantile from shuffled chunks that differs,
    bit for bit, from the one batch; each side runs on a cold copy of `d`."""
    whole = np.asarray(Distribution(d.parts).quantile(ps))
    cold = Distribution(d.parts)
    chunked = np.empty_like(whole)
    order = np.random.default_rng(0).permutation(ps.size)
    for rows in np.array_split(order, BATCH_CHUNKS):
        chunked[rows] = cold.quantile(ps[rows])
    return int(np.sum(chunked.view(np.uint64) != whole.view(np.uint64)))


def sandwich_failures(d, ps=SANDWICH_PS):
    """How many p in the sorted `ps` break F(Q(p)-) - 4 eps <= p <=
    F(Q(p)) + 4 eps, or see Q fall below the previous quantile."""
    q = np.asarray(d.quantile(ps))
    eps = np.finfo(float).eps
    ok = (np.asarray(d.cdf_left(q)) - 4.0 * eps <= ps) & (ps <= np.asarray(d.cdf(q)) + 4.0 * eps)
    ok[1:] &= q[1:] >= q[:-1]
    return int(np.sum(~ok))


def _below_top(d, count=TOP_ULPS):
    """The `count` floats just below `sup_support`, descending."""
    x, out = d.sup_support(), []
    for _ in range(count):
        x = math.nextafter(x, 0.0)
        out.append(x)
    return out


def _above_bottom(d, count=TOP_ULPS):
    """The `count` floats just above max(x_(1) - h, 0) of a one-part kernel
    estimate, ascending: there the Epanechnikov kernel's G(u) nears 0."""
    (_, part), = d.parts
    x, out = max(float(part.points[0] - part.bandwidth), 0.0), []
    for _ in range(count):
        x = math.nextafter(x, math.inf)
        out.append(x)
    return out


def bottom_laws():
    """The compact-kernel estimates of `CDF_BOTTOM_KDE`, as (name, distribution)."""
    laws = []
    for k, n, h, seed in itertools.product(*CDF_BOTTOM_KDE):
        d = kde(lognormal(0.0, 1.0).sample(seed, n), k, h)
        if d.parts[0][1].points[0] - h > 0.0:
            laws.append((f"kde-{k}-lognormal(0,1)-{n}-{h:g} seed {seed}", d))
    return laws


def _mean_gap(d):
    """pe(inf) - mean, then tail_moment and excess_mean at the support's end
    where it is finite: each 0 when the mean is the sum pe reads."""
    gap = [d.partial_expectation(math.inf) - d.mean]
    top = d.sup_support()
    return gap + [d.tail_moment(top), d.excess_mean(top)] if math.isfinite(top) else gap


def _index_fields(d):
    report = index_report(d)
    return [getattr(report, f) for f in INDEX_FIELDS]


def dump_components(values, laws):
    """The own pointwise methods and quantile of every `Atoms` and
    `QuantileTable` part of `laws`, keyed by the part's class as its kind."""
    for name, d in laws:
        for i, (_, comp) in enumerate(d.parts):
            if not isinstance(comp, (Atoms, QuantileTable)):
                continue
            xb = np.asarray(comp.x_breaks(), dtype=float)
            xs = np.unique(np.concatenate([xb, np.nextafter(xb, 0.0), np.nextafter(xb, np.inf),
                                           np.linspace(0.0, 1.25 * xb[-1], COMPONENT_STEPS + 1)]))
            kind, label = type(comp).__name__, f"{name} part {i}"
            for meth in ("cdf", "sf", "pe", "mass_at"):
                _attempt(values, f"{kind}|component.{meth}|{label}", lambda: getattr(comp, meth)(xs))
            _attempt(values, f"{kind}|component.quantile|{label}", lambda: comp.quantile(PS))


def dump(path):
    base, extra, smooth, dented = standard_battery(), extra_laws(), kde_laws(), dented_laws()
    unit = dict(base)
    scaled = [[(f"{n} x{c:g}", unit[n].rescaled(c)) for n in SCALED] for c in SCALES]
    laws = base + extra + [law for group in scaled for law in group] + smooth + dented
    by_name = dict(laws)
    values = {}
    for name, d in laws:
        kind = _kind(d)
        _attempt(values, f"{kind}|index|{name}", lambda: _index_fields(d))
        _attempt(values, f"{kind}|quantile|{name}", lambda: d.quantile(PS))
        if d.is_finite_discrete or len(d.parts) > 1 or name.startswith("kde-gaussian"):
            _attempt(values, f"{kind}|galois|{name}", lambda: galois_failures(d))
            _attempt(values, f"{kind}|batch|{name}", lambda: batch_failures(d))
        if name.startswith(COMPACT_KDE):
            _attempt(values, f"{kind}|sandwich|{name}", lambda: sandwich_failures(d))
            _attempt(values, f"{kind}|sf_top|{name}", lambda: d.survival(_below_top(d)))
            _attempt(values, f"{kind}|cdf_bottom|{name}", lambda: d.cdf(_above_bottom(d)))
        xs = np.unique(np.concatenate([[0.0], d.quantile(PS)]))
        _attempt(values, f"{kind}|cdf|{name}", lambda: d.cdf(xs))
        _attempt(values, f"{kind}|partial_expectation|{name}", lambda: d.partial_expectation(xs))
        _attempt(values, f"{kind}|lorenz|{name}", lambda: lorenz(d).eval(LORENZ_PS))
        _attempt(values, f"{kind}|mean_routes|{name}", d.mean_routes)
        _attempt(values, f"{kind}|sup_support|{name}", d.sup_support)
        _attempt(values, f"{kind}|lorenz_slope_at_1|{name}", lambda: lorenz(d).left_derivative(1.0))
        _attempt(values, f"{kind}|excess_mean|{name}",
                 lambda: [d.excess_mean(c * d.mean) for c in TAIL_MULTIPLES])
        _attempt(values, f"{kind}|tail_moment|{name}",
                 lambda: [d.tail_moment(c * d.mean) for c in TAIL_MULTIPLES])
        _attempt(values, f"{kind}|mean_gap|{name}", lambda: _mean_gap(d))
    base = [n for n, _ in base]
    extra = [n for n, _ in extra]
    pairs = [(a, b) for i, a in enumerate(base) for b in base[i + 1:]]
    pairs += [(a, b) for a in extra for b in W1_PARTNERS]
    pairs += [(a, b) for i, a in enumerate(extra) for b in extra[i + 1:]]
    pairs += [(a, b) for a, _ in smooth + dented for b in W1_PARTNERS]
    pairs.append((dented[0][0], dented[1][0]))
    for group in scaled:
        pairs += [(a, b) for i, (a, _) in enumerate(group) for b, _ in group[i + 1:]]
    for a, b in pairs:
        d1, d2 = by_name[a], by_name[b]
        _attempt(values, f"{_kind(d1, d2)}|w1_routes|{a} vs {b}", lambda: w1_routes(d1, d2))
    dump_components(values, laws)
    for name, d in bottom_laws():
        _attempt(values, f"general|cdf_bottom|{name}", lambda: d.cdf(_above_bottom(d)))
    seed, n = LARGE_SAMPLE
    _attempt(values, f"discrete|large_sample|lognormal(0,1) n={n}",
             lambda: _index_fields(empirical(lognormal(0.0, 1.0).sample(seed, n))))
    dump_dominance(values, standard_battery())
    dump_diagnostics(values)
    dump_cli(values, standard_battery())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=0, sort_keys=True)
    print(f"{len(values)} values over {len(laws)} laws, {len(pairs)} W1 pairs, the battery's"
          f" dominance pairs, {len(SCENARIOS)} scenarios and the CLI -> {path}")


def _field(key):
    """(kind, field) of a dump key; index values are split per index field,
    and the two-route values per route."""
    kind, field, rest = key.split("|", 2)
    if field in ("index", "large_sample"):
        field += "." + INDEX_FIELDS[int(rest.rsplit("#", 1)[1])]
    elif field == "w1_routes":
        field = "w1_routes." + ("quantile" if rest.endswith("#0") else "cdf")
    elif field == "mean_routes":
        field = "mean_routes." + ("survival" if rest.endswith("#0") else "quantile")
    return kind, field


def _route_gaps(dumped):
    """|quantile - cdf| / quantile of every general `w1_routes` pair of a
    dump whose routes both returned (0 where both read 0)."""
    gaps = []
    for key, vq in dumped.items():
        if not key.startswith("general|w1_routes|") or not key.endswith("#0") or vq.startswith(OUTCOMES):
            continue
        q, f = float.fromhex(vq), float.fromhex(dumped[key[:-1] + "1"])
        gaps.append(abs(q - f) / q if q else (math.inf if f else 0.0))
    return np.array(gaps)


def diff(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    stats = defaultdict(lambda: [0, 0, 0.0])  # values, bit-identical, max relative difference
    worst = defaultdict(lambda: [0.0, 0.0])  # each dump's largest residual, per kind
    changed = []
    for key in sorted(set(a) & set(b)):
        kind, field = _field(key)
        row = stats[kind, field]
        row[0] += 1
        va, vb = a[key], b[key]
        if field == RESIDUAL:
            for i, v in enumerate((va, vb)):
                if not v.startswith("raise"):
                    worst[kind][i] = max(worst[kind][i], float.fromhex(v))
        if va == vb:
            row[1] += 1
            continue
        if va.startswith(OUTCOMES) or vb.startswith(OUTCOMES) or field.endswith("_dominates"):
            changed.append(f"{key}: {va} -> {vb}")
            row[2] = math.inf
            continue
        xa, xb = float.fromhex(va), float.fromhex(vb)
        scale = max(abs(xa), abs(xb))
        row[2] = max(row[2], abs(xa - xb) / scale if scale else 0.0)
    print(f"{'kind':9} {'field':34} {'values':>7} {'identical':>9} {'max_rel_diff':>12}")
    for (kind, field), (n, same, rel) in sorted(stats.items()):
        if field == RESIDUAL:
            # a relative difference of residuals reads ~1 for any fall
            print(f"{kind:9} {field:34} {n:7d} {same:9d}  largest {worst[kind][0]:.3g} -> {worst[kind][1]:.3g}")
        else:
            print(f"{kind:9} {field:34} {n:7d} {same:9d} {rel:12.3g}")
    for check in ("galois", "batch", "sandwich"):
        for path, dumped in ((path_a, a), (path_b, b)):
            tag = f"|{check}|"
            fails = sum(float.fromhex(v) for k, v in dumped.items() if tag in k and not v.startswith("raise"))
            print(f"{check} failures in {path}: {fails:g}")
    for path, dumped in ((path_a, a), (path_b, b)):
        gaps = [v for k, v in dumped.items() if "|mean_gap|" in k]
        off = sum(v.startswith("raise") or float.fromhex(v) != 0.0 for v in gaps)
        print(f"mean_gap values not 0 in {path}: {off} of {len(gaps)}")
    for path, dumped in ((path_a, a), (path_b, b)):
        gaps = _route_gaps(dumped)
        print(f"general w1_routes |quantile - cdf| / quantile in {path}: median {np.median(gaps):.3g},"
              f" max {np.max(gaps):.3g}, {int(np.sum(gaps > 1e-9))} of {gaps.size} above 1e-9")
    total = sum(r[0] for r in stats.values())
    same = sum(r[1] for r in stats.values())
    print(f"total: {same} of {total} values bit-identical")
    for line in changed:
        print("changed outcome:", line)
    for key in sorted(set(a) ^ set(b)):
        print(f"only in {path_a if key in a else path_b}: {key}")


def _count_metrics(path):
    """{name: value} of the count metrics on the JSON last line of a saved
    ``bench/run.py --trace 1`` stdout."""
    with open(path, encoding="utf-8") as fh:
        last = fh.read().strip().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] not in ("s", "ns")}


def counts(path_a, path_b):
    a, b = _count_metrics(path_a), _count_metrics(path_b)
    names = sorted(set(a) | set(b))
    differing = [k for k in names if a.get(k) != b.get(k)]
    for k in differing:
        print(f"{k}: {a.get(k, 'absent')} -> {b.get(k, 'absent')}")
    print(f"{len(differing)} of {len(names)} count metrics differ")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump", help="evaluate the battery and write a dump").add_argument("out")
    d = sub.add_parser("diff", help="compare two dumps")
    d.add_argument("a")
    d.add_argument("b")
    c = sub.add_parser("counts", help="compare the count metrics of two bench/run.py --trace 1 stdouts")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "dump":
        dump(args.out)
    elif args.cmd == "diff":
        diff(args.a, args.b)
    else:
        counts(args.a, args.b)


if __name__ == "__main__":
    main()
