"""The quantile memo of `Distribution` changes no value.

A law whose quantile is iterative (a mixture of parts, a Gaussian kernel
estimate) remembers every Q(p) it has inverted. That is invisible only
because a quantile depends on its p alone, not on the other rows of its
batch; these tests compare warm laws with cold copies bit for bit.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple

import numpy as np
import pytest

from lorenzkit import (
    Distribution,
    gini_dorfman,
    gini_lorenz,
    gini_mean_difference,
    hoover_cdf,
    hoover_max,
    hoover_mean_deviation,
    index_report,
    lorenz,
    robin_hood_shares,
    sequence_diagnostics,
)
from lorenzkit.estimators import kde
from lorenzkit.indices import _sweep
from lorenzkit.quadrature import first_nodes
from lorenzkit.measures import (
    QUANTILE_MEMO_CAP,
    TAIL_LEVELS,
    atom,
    discrete,
    exponential,
    lognormal,
    mixture,
    uniform,
)

from test_measures import _creep_laws, _nested_budget_laws


def _memo_laws():
    sample = np.random.default_rng(7).lognormal(0.0, 0.5, size=200)
    return (
        _nested_budget_laws()
        + _creep_laws()
        + [kde(sample, "gaussian", 0.03), mixture([(0.5, lognormal(0.0, 2.0)), (0.5, exponential(1.0))])]
    )


#: the dyadic levels k 2^-10, k = 1..1023
DYADIC = np.arange(1, 1024) / 1024
#: probabilities the comparisons read: a uniform ladder, the dyadic and tail levels
LADDER = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], DYADIC, TAIL_LEVELS]))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _warmed(d: Distribution, rng) -> Distribution:
    """`d` after one random batch of p, some of them on the grids the
    routes read (the shared cells, whose edges and first-round nodes the
    sweep of `hoover_max` reads, and the 2^-10 probe ladder of the
    dominance checks and `sequence_diagnostics`)."""
    cells = d._p_cells[:-1]
    sweep = np.linspace(0.0, 1.0, 1025)[:-1]
    ps = np.concatenate([rng.random(300), rng.choice(cells, cells.size // 2), rng.choice(sweep, 200)])
    d._quantile_arr(rng.permutation(ps))
    return d


def _chunked(d: Distribution, ps: np.ndarray, rng) -> np.ndarray:
    out = np.empty_like(ps)
    for rows in np.array_split(rng.permutation(ps.size), 13):
        out[rows] = d._quantile_arr(ps[rows])
    return out


@pytest.mark.parametrize("i", range(len(_memo_laws())))
def test_warm_memo_matches_cold_law(i):
    rng = np.random.default_rng(i)
    d = _warmed(_memo_laws()[i], rng)
    assert d.__dict__["_quantile_memo"][0].size > 0
    warm, cold = index_report(d), index_report(Distribution(d.parts))
    assert np.array_equal(_bits(astuple(warm)), _bits(astuple(cold)))
    assert np.array_equal(_bits(lorenz(d).eval(DYADIC)), _bits(lorenz(Distribution(d.parts)).eval(DYADIC)))
    one_batch = Distribution(d.parts)._quantile_arr(LADDER)
    assert np.array_equal(_bits(_chunked(d, LADDER, rng)), _bits(one_batch))
    p = np.asarray(0.3)
    q = d._quantile_arr(p)
    assert q.shape == () and _bits(q) == _bits(Distribution(d.parts)._quantile_arr(p))


#: each route of `index_report`, by the report's field names
ROUTES = {
    "gini_mean_difference": gini_mean_difference,
    "gini_dorfman": gini_dorfman,
    "gini_lorenz": gini_lorenz,
    "hoover_mean_deviation": hoover_mean_deviation,
    "hoover_cdf": hoover_cdf,
    "hoover_max": hoover_max,
    "r_share": lambda d: robin_hood_shares(d)[0],
    "p_share": lambda d: robin_hood_shares(d)[1],
}


@pytest.mark.parametrize("i", range(len(_memo_laws())))
def test_report_prefetch_matches_each_route_alone(i):
    # index_report inverts every p its routes' first rounds read in one
    # batch before any route runs; each field must still be the value its
    # route gives alone on a cold law.
    d = _memo_laws()[i]
    report = index_report(Distribution(d.parts))
    for name, route in ROUTES.items():
        assert _bits(getattr(report, name)) == _bits(route(Distribution(d.parts))), name


def test_closed_form_laws_keep_no_memo():
    smooth = kde(np.linspace(0.1, 1.0, 20), "epanechnikov", 0.1)
    for d in (exponential(1.0), mixture([(0.5, atom(1.0)), (0.5, atom(2.0))]), smooth):
        d._quantile_arr(LADDER)
        assert "_quantile_memo" not in d.__dict__


def _sweep_laws():
    nested = _nested_budget_laws()
    sample = np.random.default_rng(7).lognormal(0.0, 0.5, size=200)
    return nested + [nested[0].rescaled(1e12), kde(sample, "gaussian", 0.03)]


@pytest.mark.parametrize("i", range(len(_sweep_laws())))
def test_index_batch_holds_the_gap_sweep(i):
    # The sweep of hoover_max read a 2^-10 ladder of its own, about a
    # quarter of the rows of index_report's batch. It reads the batch: the
    # cell edges, the first-round nodes of every cell and F(mean), and 1.
    d = _sweep_laws()[i]
    p_star = float(d.cdf(d.mean))
    cells = d._p_cells
    batch = np.concatenate([cells, first_nodes(cells), [p_star]])
    batch = np.unique(batch[batch < 1.0])
    assert np.array_equal(_bits(d._first_round_p), _bits(batch))
    sweep = _sweep(d)
    assert np.array_equal(_bits(sweep), _bits(np.append(batch, 1.0)))
    assert p_star in sweep
    assert np.diff(sweep).max() <= 1.7 * 2.0**-10


@pytest.mark.parametrize(
    "d",
    [
        discrete(np.random.default_rng(5).lognormal(0.0, 1.0, size=3_000)),
        discrete([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
        atom(2.0),
    ],
    ids=["3000_atoms", "three_atoms", "one_atom"],
)
def test_finite_discrete_sweep_is_the_cell_edges(d):
    # p - L(p) is linear between the cumulative masses, which are edges of
    # the cells, F(mean) among them, so the edges hold its maximum.
    assert np.array_equal(_bits(_sweep(d)), _bits(d._p_cells))
    assert float(d.cdf(d.mean)) in d._p_cells


def test_memo_stops_at_its_cap():
    d = mixture([(0.5, exponential(1.0)), (0.5, uniform(1.0, 2.0))])
    ps = np.unique(np.random.default_rng(3).random(2 * QUANTILE_MEMO_CAP + 64))[: 2 * QUANTILE_MEMO_CAP]
    assert ps.size == 2 * QUANTILE_MEMO_CAP
    cold = Distribution(d.parts)._quantile_arr(ps)
    first = d._quantile_arr(ps)
    assert d.__dict__["_quantile_memo"][0].size == QUANTILE_MEMO_CAP
    again = d._quantile_arr(ps[::-1])[::-1]
    memo_p, memo_q = d.__dict__["_quantile_memo"]
    assert memo_p.size == QUANTILE_MEMO_CAP
    assert np.all(np.diff(memo_p) > 0.0)
    assert np.array_equal(_bits(first), _bits(cold))
    assert np.array_equal(_bits(again), _bits(cold))
    assert np.array_equal(_bits(memo_q), _bits(cold[np.searchsorted(ps, memo_p)]))


def _atom_rich_law():
    # 2,500 atoms give about 80,000 first-round p, more than the memo holds
    atoms = discrete(np.random.default_rng(1).exponential(size=2_500))
    return mixture([(0.5, atoms), (0.5, exponential(1.0))])


@pytest.mark.parametrize(
    "run",
    [index_report, lambda d: sequence_diagnostics([discrete([0.5, 1.0, 2.0])], d, rel_tol=0.3)],
    ids=["index_report", "sequence_diagnostics"],
)
def test_prefetch_larger_than_the_memo_inverts_no_more_rows(monkeypatch, run):
    # Inverting every first-round p ahead would keep only the smallest
    # QUANTILE_MEMO_CAP of them, and the routes would invert the rest again.
    assert _atom_rich_law()._first_round_p.size > QUANTILE_MEMO_CAP
    rows = []
    invert = Distribution._bisect_quantile

    def counted(self, p, **kwargs):
        rows.append(np.size(p))
        return invert(self, p, **kwargs)

    monkeypatch.setattr(Distribution, "_bisect_quantile", counted)
    run(_atom_rich_law())
    batched = sum(rows)
    rows.clear()
    monkeypatch.setattr(Distribution, "_prefetch", lambda d, *extra: None)
    run(_atom_rich_law())
    assert batched <= sum(rows)


def test_threads_sharing_one_law_read_cold_values(deadline):
    # Merges race by design: a lost one only drops rows from the memo, and
    # every reader sees one whole (p, Q) tuple, so values stay cold values.
    d = mixture([(0.3, lognormal(0.0, 1.0)), (0.3, exponential(2.0)), (0.4, uniform(0.5, 3.0))])
    rng = np.random.default_rng(11)
    batches = [rng.choice(LADDER, 200) for _ in range(32)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(60), ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(d._quantile_arr, batches))
    finally:
        sys.setswitchinterval(interval)
    cold = Distribution(d.parts)._quantile_arr(LADDER)
    for ps, q in zip(batches, got):
        assert np.array_equal(_bits(q), _bits(cold[np.searchsorted(LADDER, ps)]))
    memo_p, memo_q = d.__dict__["_quantile_memo"]
    assert np.all(np.diff(memo_p) > 0.0)
    assert np.array_equal(_bits(memo_q), _bits(cold[np.searchsorted(LADDER, memo_p)]))
