"""Route quantiles and float-exact quantiles.

The index routes, the Lorenz curve and the integrals of Q read a law's
quantiles from its memo, inverted to within tau = `ROUTE_QUANTILE_TOL` times
the mean above Q(p): S(p) is stationary in Q, so it moves by at most tau, and
a cell of the mean-difference diagonal by at most tau w^2 / 2. The public
quantile, draws, and callers that compare quantiles invert cold to the
float and leave the memo alone.
"""

from dataclasses import astuple

import numpy as np
import pytest

from lorenzkit import Distribution, ExperimentSpec, index_report, measures, run_experiment
from lorenzkit.catalog import standard_battery
from lorenzkit.measures import ROUTE_QUANTILE_TOL, atom, exponential, lognormal, mixture

from test_measures import _creep_laws, _nested_budget_laws
from test_quantile_memo import LADDER, _memo_laws


def test_public_quantile_and_draws_leave_no_memo():
    d = mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))])
    assert d._memoized
    d.quantile(LADDER)
    d.sample(0, 1000)
    assert "_quantile_memo" not in d.__dict__


def test_long_sampling_schedule_leaves_the_memo_to_the_limit(monkeypatch):
    # The 131,008 draws filled the 2^16-entry memo, so the limit's batch of
    # fixed p was not run and its reads inverted again: 7 batches.
    invert, batches = Distribution._bisect_quantile, []

    def counted(self, p, **kwargs):
        batches.append(np.size(p))
        return invert(self, p, **kwargs)

    monkeypatch.setattr(Distribution, "_bisect_quantile", counted)
    spec = ExperimentSpec(scheme="sampling", source="mix(0.3*atom(0),0.7*exp(1))", seed=1, steps=11)
    run_experiment(spec)
    assert len(batches) <= 2, batches


@pytest.mark.parametrize("i", range(7))
def test_cold_index_report_level_budget(monkeypatch, i):
    # Route quantiles inverted to the float took 16 to 57 level calls and
    # 11,383 to 14,210 level points per law; to tau, 11 to 31 and 8,822 to
    # 11,511 by Illinois steps, and 6 to 20 and 6,495 to 8,439 by
    # Chandrupatla steps, which stop a row within tau / 4.
    d = (_nested_budget_laws() + _creep_laws())[i]
    level, counts = Distribution._level_arr, [0, 0]

    def counted(self, t, y):
        counts[0] += 1
        counts[1] += np.size(t)
        return level(self, t, y)

    monkeypatch.setattr(Distribution, "_level_arr", counted)
    index_report(d)
    assert 0 < counts[0] <= 25
    assert counts[1] <= 9_500


@pytest.mark.parametrize("i", range(len(_memo_laws())))
def test_route_quantiles_within_tau_of_the_exact_ones(i):
    # A route quantile is the upper end of a bracket whose level clears its
    # target, at most tau above the exact quantile. It may sit a few ulps
    # below it where the computed F or sf is not monotone at the ulp level,
    # since more than one float then meets the Galois pair.
    d = _memo_laws()[i]
    route, exact = d._quantile_arr(LADDER), Distribution(d.parts).quantile(LADDER)
    assert np.all(route - exact <= ROUTE_QUANTILE_TOL * d.mean)
    assert np.all(exact - route <= 8.0 * np.spacing(exact))
    y = d._knot_brackets(LADDER)[4]
    assert np.all(d._level_arr(route, y) >= y)
    assert "_quantile_memo" in d.__dict__


def _index_laws():
    return [d for _, d in standard_battery()] + _memo_laws()


@pytest.mark.parametrize("i", range(len(_index_laws())))
def test_routes_read_the_same_at_tolerance_zero(monkeypatch, i):
    d = _index_laws()[i]
    fields = np.asarray(astuple(index_report(Distribution(d.parts)))[:8])
    monkeypatch.setattr(measures, "ROUTE_QUANTILE_TOL", 0.0)
    exact = np.asarray(astuple(index_report(Distribution(d.parts)))[:8])
    assert np.all(np.abs(fields - exact) <= 1e-13 * np.abs(exact))


def test_route_quantiles_need_no_finite_mean():
    # lognormal(0, 40)'s mean overflows a float; the integral of Q below
    # p = 1 is finite, and its quantile is read at tolerance 0.
    d = mixture([(0.5, lognormal(0.0, 40.0)), (0.5, exponential(1.0))])
    assert d._route_tol == 0.0
    assert d.integral_quantile(0.5) == pytest.approx(0.08144005493942105, rel=1e-12)
