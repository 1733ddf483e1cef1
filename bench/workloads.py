"""The three workloads: seeded rounds of ops, each op timed and checked.

A workload is a fixed sequence of slots per round. Round ``r`` of seed ``s``
is generated from ``numpy.random.default_rng([s, stream, r])`` plus
stratified size parameters (``laws.Strata``), so the same seed gives the
same ops and every round has the same mix of families. The hard slice and
the laws whose cost or hangs would swing a run from seed to seed are drawn
without the seed (``laws.ladder``, ``battery``).

An op is one call into lorenzkit's public API on inputs built before the
clock starts. Its check compares the output with a reference computed by
``refs`` (never by lorenzkit) after the clock stops, and returns None or the
reason the op failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import laws
import lorenzkit as lk

RESIDUAL_TOL = 1e-4  # index routes: the CLI's default --tol
INDEX_TOL = 1e-4  # index value against its reference


@dataclass
class Op:
    family: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _close(values, ref: float, tol: float) -> bool:
    return all(abs(v - ref) <= tol for v in values)


# ---------------------------------------------------------------------------
# index_mix
# ---------------------------------------------------------------------------


def _index_op(family: str, law: tuple, scale: float = 1.0) -> Op:
    d = laws.build(law, scale)

    def check(report) -> str | None:
        import refs

        if not report.max_cross_route_residual <= RESIDUAL_TOL:
            return "residual"
        gini, hoover = refs.gini_hoover(law)
        mean = refs.Flat(law).mean * scale
        ginis = (report.gini_mean_difference, report.gini_dorfman, report.gini_lorenz)
        hoovers = (report.hoover_mean_deviation, report.hoover_cdf, report.hoover_max)
        shares = (report.r_share / mean, report.p_share / mean)
        if not (_close(ginis, gini, INDEX_TOL) and _close(hoovers + shares, hoover, INDEX_TOL)):
            return "reference"
        return None

    return Op(family, lambda: lk.index_report(d), check)


INDEX_SLOTS = (
    "discrete", "nested", "closed", "nested", "atom_rich", "nested",
    "discrete", "nested", "hard_lognormal", "closed", "nested", "atom_rich",
    "discrete", "nested", "closed", "nested", "hard_rescale", "nested",
    "discrete", "atom_rich", "nested", "closed", "nested", "discrete",
    "nested", "closed", "atom_rich", "nested", "nested", "hard_far_atom",
)  # fmt: skip
ATOM_RICH_SIZES = (30, 80, 200, 160)


def battery(family: str, k: int) -> tuple:
    """The k-th nested or atom-rich law of index_mix: the same in every round and run.

    Some of these laws hang lorenzkit: flattened, their float weights sum to
    just below 1, and the quantile inversion never brackets a p above that
    sum. Each hang costs a full deadline, so drawing them per seed would make
    the number of hangs per run, and with it ops_per_s, swing from seed to
    seed. Drawn once from the same generators with seed 0, every run meets
    the same hangs.
    """
    if family == "nested":
        return laws.nested(np.random.default_rng([0, 100 + k]), laws.NESTED_SHAPES[k])
    return laws.atom_rich(np.random.default_rng([0, k]), ATOM_RICH_SIZES[k])


def _regular(rng, family: str, u: float, k: int) -> tuple:
    """The k-th law of a regular family in a round, sized by the stratum u."""
    if family == "discrete":
        return laws.discrete(rng, round(laws.log_uniform(u, 10, 3000)))
    if family == "nested":
        return laws.nested(rng, laws.NESTED_SHAPES[k % len(laws.NESTED_SHAPES)])
    if family == "atom_rich":
        kind = laws.DENSITIES[k % len(laws.DENSITIES)]
        return laws.atom_rich(rng, round(laws.log_uniform(u, 20, 300)), kind)
    return laws.density(rng, laws.DENSITIES[k % len(laws.DENSITIES)])


def _hard_rng(stream: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([stream, 99, rnd])


def index_round(seed: int, rnd: int, strata: laws.Strata) -> list[Op]:
    rng, hard = np.random.default_rng([seed, 1, rnd]), _hard_rng(1, rnd)
    ops, seen = [], {}
    for slot, family in enumerate(INDEX_SLOTS):
        k = seen[family] = seen.get(family, -1) + 1  # k-th slot of this family
        scale = 1.0
        if family in ("nested", "atom_rich"):
            law = battery(family, k)
        elif family == "hard_lognormal":
            law = laws.heavy_lognormal(hard, laws.ladder(slot, rnd))
        elif family == "hard_far_atom":
            law = laws.far_atom(hard, laws.ladder(slot, rnd))
        elif family == "hard_rescale":
            base = ("closed", "nested", "discrete")[rnd % 3]
            law = _regular(hard, base, hard.random(), rnd)
            scale = 10.0 ** laws.rescale_exponent(laws.ladder(slot, rnd))
        else:
            law = _regular(rng, family, strata.u(slot, rnd), k)
        ops.append(_index_op(family, law, scale))
    return ops


# ---------------------------------------------------------------------------
# w1_pairs
# ---------------------------------------------------------------------------

W1_EXACT_TOL = 1e-8  # relative to the sum of means, both laws finite-discrete
W1_TOL = 1e-5  # otherwise


def _w1_op(family: str, law1: tuple, law2: tuple, scale: float = 1.0) -> Op:
    d1, d2 = laws.build(law1, scale), laws.build(law2, scale)

    def check(routes) -> str | None:
        import refs

        ref = scale * refs.w1(law1, law2)
        exact = laws.is_discrete(law1) and laws.is_discrete(law2)
        size = scale * (refs.Flat(law1).mean + refs.Flat(law2).mean)
        if not abs(routes[0] - ref) <= (W1_EXACT_TOL if exact else W1_TOL) * size:
            return "reference"
        return None

    return Op(family, lambda: lk.w1_routes(d1, d2), check)


W1_SLOTS = (
    ("dd",), ("dg", "closed"), ("gg", "closed", "closed"),
    ("dd",), ("dg", "nested"), ("gg", "atom_rich", "closed"),
    ("dd",), ("dg", "closed"), ("gg", "closed", "nested"),
    ("hard_lognormal",),
    ("dd",), ("dg", "atom_rich"), ("gg", "closed", "closed"),
    ("dd",), ("dg", "closed"), ("gg", "nested", "nested"),
    ("dd",), ("dg", "nested"), ("gg", "closed", "nested"),
    ("hard_rescale",),
    ("dd",), ("dg", "closed"), ("gg", "atom_rich", "closed"),
    ("dd",), ("dg", "closed"), ("gg", "closed", "closed"),
    ("dd",), ("dg", "nested"), ("gg", "closed", "closed"),
    ("hard_far_atom",),
)  # fmt: skip


def _w1_regular(rng, slot: tuple, u: float, k: int) -> tuple[tuple, tuple]:
    kind = slot[0]
    if kind == "dd":
        n1, n2 = laws.log_uniform(u, 10, 3000), laws.log_uniform(1.0 - u, 10, 3000)
        return laws.discrete(rng, round(n1)), laws.discrete(rng, round(n2))
    if kind == "dg":
        return laws.discrete(rng, round(laws.log_uniform(u, 10, 3000))), _regular(rng, slot[1], u, k)
    return _regular(rng, slot[1], u, k), _regular(rng, slot[2], 1.0 - u, k + 5)


def w1_round(seed: int, rnd: int, strata: laws.Strata) -> list[Op]:
    rng, hard = np.random.default_rng([seed, 2, rnd]), _hard_rng(2, rnd)
    ops = []
    for i, slot in enumerate(W1_SLOTS):
        kind = slot[0]
        if kind == "hard_lognormal":
            other = laws.discrete(hard, 200) if rnd % 2 else laws.density(hard, laws.DENSITIES[rnd % 4])
            ops.append(_w1_op(kind, laws.heavy_lognormal(hard, laws.ladder(i, rnd)), other))
        elif kind == "hard_far_atom":
            density = laws.density(hard, laws.DENSITIES[rnd % 4])
            ops.append(_w1_op(kind, laws.far_atom(hard, laws.ladder(i, rnd)), density))
        elif kind == "hard_rescale":
            base = (("dd",), ("dg", "closed"), ("gg", "closed", "nested"))[rnd % 3]
            law1, law2 = _w1_regular(hard, base, hard.random(), rnd)
            ops.append(_w1_op(kind, law1, law2, 10.0 ** laws.rescale_exponent(laws.ladder(i, rnd))))
        elif "atom_rich" in slot:
            # half the op time, and one draw can cost 10x another: drawn
            # without the seed, so every run meets the same pairs
            fixed = np.random.default_rng([2, 98, rnd, i])
            ops.append(_w1_op(kind, *_w1_regular(fixed, slot, laws.ladder(i, rnd), i)))
        else:
            ops.append(_w1_op(kind, *_w1_regular(rng, slot, strata.u(i, rnd), i)))
    return ops


# ---------------------------------------------------------------------------
# kde_converge
# ---------------------------------------------------------------------------

KDE_SOURCES = {
    "uniform(0,1)": ("uniform", 0.0, 1.0),
    "mix(0.3*atom(0),0.7*exp(1))": ("mix", ((0.3, ("atom", 0.0)), (0.7, ("exp", 1.0)))),
}
KDE_SLOTS = (
    ("uniform(0,1)", "gaussian"),
    ("mix(0.3*atom(0),0.7*exp(1))", "uniform"),
    ("uniform(0,1)", "epanechnikov"),
    ("mix(0.3*atom(0),0.7*exp(1))", "gaussian"),
    ("uniform(0,1)", "uniform"),
    ("mix(0.3*atom(0),0.7*exp(1))", "epanechnikov"),
)
KDE_SAMPLE_SIZES = (25, 200)
KDE_BANDWIDTHS = (1.0, 0.03)
KDE_REL_TOL = 0.3  # the mix source's n = 200 sample mean has sd 0.067 = 0.1 * its mean
# At these sizes the W1 of the atom-at-zero source is dominated by sampling
# noise in the exponential tail: over 40 seeds its second step came out
# above its first up to 1.7 times, so a decrease there is not a property the
# program owes. The uniform source falls by 3x or more on every seed tried.
KDE_DECREASING = ("uniform(0,1)",)


def _kde_op(source: str, kernel: str, exp_seed: int) -> Op:
    spec = lk.ExperimentSpec(
        scheme="kde",
        source=source,
        kernel=kernel,
        seed=exp_seed,
        sample_sizes=KDE_SAMPLE_SIZES,
        bandwidths=KDE_BANDWIDTHS,
        rel_tol=KDE_REL_TOL,
    )

    def check(report) -> str | None:
        import refs

        if report.verdict != "w1_convergent":
            return "verdict"
        w1s = [s.w1_to_limit for s in report.steps]
        if source in KDE_DECREASING and not all(a > b for a, b in zip(w1s, w1s[1:])):
            return "w1_not_decreasing"
        law = KDE_SOURCES[source]
        gini, hoover = refs.gini_hoover(law)
        limit = report.limit_summary
        if not (
            abs(limit.gini - gini) <= INDEX_TOL
            and abs(limit.hoover - hoover) <= INDEX_TOL
            and math.isclose(limit.mean, refs.Flat(law).mean, rel_tol=1e-12)
        ):
            return "reference"
        return None

    return Op(f"kde_{kernel}", lambda: lk.run_experiment(spec), check)


def kde_round(seed: int, rnd: int, strata: laws.Strata) -> list[Op]:
    rng = np.random.default_rng([seed, 3, rnd])
    seeds = rng.integers(0, 2**31, size=len(KDE_SLOTS))
    return [_kde_op(src, kernel, int(s)) for (src, kernel), s in zip(KDE_SLOTS, seeds)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[int, int, laws.Strata], list[Op]]
    stream: int
    deadline_s: float  # well above the slowest healthy op
    round_s: float  # op time of one round at the commit that added the benchmark
    yardstick: str  # speed.YARDSTICKS entry whose kind of work matches the ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("index_mix", index_round, 1, 3.0, 8.0, "mixed"),
        Workload("w1_pairs", w1_round, 2, 2.0, 0.9, "mixed"),
        Workload("kde_converge", kde_round, 3, 30.0, 15.0, "vectorised"),
    )
}
