"""Sample-side estimators, kernel smoothing, and experiment drivers."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import ndtr

from lorenzkit import (
    ZeroMeanError,
    atom,
    discrete,
    exponential,
    gini_mean_difference,
    hoover_mean_deviation,
    index_report,
    lognormal,
    lorenz,
    mixture,
    uniform,
    w1,
    w1_routes,
)
from lorenzkit import estimators, measures
from lorenzkit.measures import P_TAIL, TAIL_LEVELS, Distribution
from lorenzkit.estimators import (
    EPANECHNIKOV,
    GAUSSIAN,
    KERNELS,
    ExperimentSpec,
    SampleSet,
    as_sample_set,
    empirical,
    estimate_gini,
    estimate_hoover,
    estimate_lorenz_at,
    kde,
    quantile_approx,
    quantile_of_sample,
    read_sample_csv,
    run_experiment,
    _CutKernelMixture,
)

from galois import assert_galois_pair, sf_form_rows


# ---------------------------------------------------------------------------
# plug-in index estimators
# ---------------------------------------------------------------------------


def test_gini_of_tiny_sample():
    # pairs of (1,2,3): sum |i-j| = 8 over 9 pairs, mean 2, so G = 2/9
    assert estimate_gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_hoover_of_tiny_sample():
    assert estimate_hoover([0.0, 0.0, 1.0, 3.0]) == pytest.approx(0.5, abs=1e-15)


def test_lorenz_values_by_fractional_indexing():
    s = [1.0, 1.0, 2.0]
    assert estimate_lorenz_at(s, 1.0 / 3.0) == pytest.approx(0.25, abs=1e-12)
    assert estimate_lorenz_at(s, 0.5) == pytest.approx(0.375, abs=1e-12)
    assert estimate_lorenz_at(s, 0.0) == 0.0
    assert estimate_lorenz_at(s, 1.0) == 1.0
    vec = estimate_lorenz_at(s, np.array([0.0, 1.0 / 3.0, 1.0]))
    np.testing.assert_allclose(vec, [0.0, 0.25, 1.0], atol=1e-12)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        estimate_lorenz_at(s, 1.5)
    with pytest.raises(ZeroMeanError):
        estimate_lorenz_at([0.0, 0.0], 0.5)


def test_lorenz_value_rejects_nan():
    # a NaN passed both range comparisons as False and came back as nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        estimate_lorenz_at([1.0, 1.0, 2.0], math.nan)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        estimate_lorenz_at([1.0, 1.0, 2.0], np.array([0.5, math.nan]))


def test_estimators_agree_with_empirical_law():
    """The plug-in shortcuts are the exact indices of the atom measure."""
    rng = np.random.default_rng(3)
    s = rng.gamma(2.0, 1.5, size=37)
    d = empirical(s)
    assert estimate_gini(s) == pytest.approx(gini_mean_difference(d), abs=1e-12)
    assert estimate_hoover(s) == pytest.approx(hoover_mean_deviation(d), abs=1e-12)
    curve = lorenz(d)
    ps = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(estimate_lorenz_at(s, ps), curve.eval(ps), atol=1e-12)


# ---------------------------------------------------------------------------
# quantile tables
# ---------------------------------------------------------------------------


def test_quantile_table_of_uniform():
    u = uniform(0.0, 1.0)
    locs, masses = quantile_approx(u, 4).support_atoms()
    np.testing.assert_allclose(locs, [0.0, 0.25, 0.5, 0.75], atol=1e-12)
    np.testing.assert_allclose(masses, [0.25] * 4, atol=1e-15)
    one = quantile_approx(u, 1)
    assert w1(one, atom(0.0)) == 0.0


@pytest.mark.parametrize("ell", [2.5, 4.2, math.nan, math.inf, "4"])
def test_quantile_table_rejects_a_non_integral_size(ell):
    with pytest.raises(ValueError, match="table size must be an integer"):
        quantile_approx(uniform(0.0, 1.0), ell)


def test_quantile_table_takes_an_integral_float_size():
    u = uniform(0.0, 1.0)
    assert quantile_approx(u, 4.0) == quantile_approx(u, 4)


def test_quantile_table_cdf_sandwich():
    # the table's cdf dominates the source cdf by at most one cell of mass
    u = uniform(0.0, 1.0)
    for ell in (1, 2, 4, 16, 64):
        t = quantile_approx(u, ell)
        xs = np.linspace(0.0, 1.0, 257)
        gap = t.cdf(xs) - u.cdf(xs)
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 1.0 / ell + 1e-12)


def test_quantile_table_of_sample_uses_min_convention():
    # empirical cdf of (0,1,2,3) already reaches 1/2 at the point 1, so the
    # p = 1/2 table entry picks 1, not 2
    d = quantile_of_sample([0.0, 1.0, 2.0, 3.0], 2)
    locs, masses = d.support_atoms()
    np.testing.assert_allclose(locs, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(masses, [0.5, 0.5], atol=1e-15)


def test_full_size_table_reproduces_order_statistics():
    d = quantile_of_sample([3.0, 0.0, 2.0, 1.0], 4)
    locs, masses = d.support_atoms()
    np.testing.assert_allclose(locs, [0.0, 1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(masses, [0.5, 0.25, 0.25], atol=1e-15)


# ---------------------------------------------------------------------------
# kernel smoothing
# ---------------------------------------------------------------------------


def test_gaussian_kde_is_a_normal_window_plus_boundary_atom():
    xs = [0.3, 1.0, 2.7]
    h = 0.2
    d = kde(xs, "gaussian", h)
    for x in (0.5, 1.3, 2.0, 4.0):
        window = float(np.mean(ndtr((x - np.asarray(xs)) / h)))
        assert d.cdf(x) == pytest.approx(window, abs=1e-10)
    # mass pushed below zero is swept into an atom at the origin
    single = kde([1.0], "gaussian", 0.5)
    assert single.mass_at(0.0) == pytest.approx(float(ndtr(-2.0)), abs=1e-12)
    phi2 = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
    assert single.mean == pytest.approx(ndtr(2.0) + 0.5 * phi2, abs=1e-10)


def test_uniform_kernel_cdf_and_mean():
    d = kde([1.0, 2.0, 3.0], "uniform", 0.5)
    assert d.cdf(1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert d.cdf(2.0) == pytest.approx(0.5, abs=1e-12)
    assert d.cdf(3.0) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert d.mean == pytest.approx(2.0, abs=1e-10)


def test_epanechnikov_kernel_mean():
    assert kde([2.0], EPANECHNIKOV, 1.0).mean == pytest.approx(2.0, abs=1e-10)


def _below_support_end(d, h):
    """The support's end, the 49 floats below it and 49 evenly spaced
    points in its last 1e-3 h."""
    top = d.sup_support()
    ulps = [top]
    for _ in range(49):
        ulps.append(math.nextafter(ulps[-1], 0.0))
    return np.concatenate([ulps, top - 1e-3 * h * np.arange(1.0, 50.0) / 49.0])


def test_epanechnikov_survival_stays_nonnegative_below_the_support_end():
    # G(-u) = (1 - u)^2 (2 + u) / 4, evaluated as a cubic in -u, rounds below
    # 0 for u just under 1: unfloored, 744 of these 15,840 values read below
    # 0, the lowest -2.8e-17
    for n in (2, 3, 5, 20):
        for h in (0.01, 0.0835, 0.3, 1.0):
            for seed in range(10):
                d = kde(lognormal(0.0, 1.0).sample(seed, n), EPANECHNIKOV, h)
                sf = d.survival(_below_support_end(d, h))
                assert np.all(sf >= 0.0), (n, h, seed, float(sf.min()))


def _above_support_start(d, h):
    """x_(1) - h, the 49 floats above it and 49 evenly spaced points in
    its first 1e-3 h."""
    bottom = float(d.parts[0][1].points[0] - h)
    ulps = [bottom]
    for _ in range(49):
        ulps.append(math.nextafter(ulps[-1], math.inf))
    return np.concatenate([ulps, bottom + 1e-3 * h * np.arange(1.0, 50.0) / 49.0])


def test_epanechnikov_cdf_stays_nonnegative_above_the_support_start():
    # the mirror of the survival case: G(u) rounds below 0 for u just above
    # -1; unfloored, 1,337 of these 10,494 values (106 estimates whose
    # x_(1) - h > 0) read below 0, the lowest -2.8e-17
    probed = 0
    for n in (2, 3, 5, 20):
        for h in (0.01, 0.0835, 0.3, 1.0):
            for seed in range(10):
                d = kde(lognormal(0.0, 1.0).sample(seed, n), EPANECHNIKOV, h)
                if d.parts[0][1].points[0] - h <= 0.0:
                    continue
                probed += 1
                cdf = d.cdf(_above_support_start(d, h))
                assert np.all(cdf >= 0.0), (n, h, seed, float(cdf.min()))
    assert probed == 106


def test_bandwidth_sweep_tightens_the_fit():
    target = lognormal(0.0, 0.5)
    rng = np.random.default_rng(7)
    s = target.sample(rng, 200)
    dists = [w1(kde(s, GAUSSIAN, h), target) for h in (0.4, 0.1, 0.025)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] < 0.2


def test_kernel_lookup_and_validation():
    assert set(KERNELS) == {"epanechnikov", "gaussian", "uniform"}
    with pytest.raises(ValueError, match="unknown kernel 'triweight'"):
        kde([1.0], "triweight", 0.1)
    with pytest.raises(ValueError, match="bandwidth"):
        kde([1.0], "gaussian", 0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        kde([1.0], "gaussian", float("inf"))


def _uniform_sample(n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=n)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kde_values_depend_on_the_abscissa_alone(kernel):
    # Each query sums its own window in a fixed order, so a value computed
    # alone equals the same value computed in a batch, bit for bit.
    d = kde(_uniform_sample(200), kernel, 0.03)
    xs = np.linspace(0.0, 1.2, 300)
    batch_cdf = d.cdf(xs)
    batch_pe = d.partial_expectation(xs)
    for x, f, m in zip(xs, batch_cdf, batch_pe):
        assert d.cdf(x) == f
        assert d.partial_expectation(x) == m


def test_gaussian_kde_quantile_is_float_exact_call_by_call():
    # The batch meets the two-sided pair, F below F(x_h) and sf above, and
    # so does each probability on its own scalar cdf or sf calls.
    d = kde(_uniform_sample(200), GAUSSIAN, 0.03)
    ps = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, size=200))
    assert sf_form_rows(d, ps).any() and not sf_form_rows(d, ps).all()
    q = assert_galois_pair(d, ps)
    for p, qp in zip(ps, q):
        assert assert_galois_pair(d, [p]) == [qp]


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
def test_compact_kde_publishes_every_knot(kernel):
    xs = _uniform_sample(200)
    h = 0.03
    knots = kde(xs, kernel, h).x_breakpoints()
    wanted = np.concatenate([xs - h, xs + h])
    assert np.all(np.isin(wanted[wanted > 0.0], knots))
    assert knots[0] == 0.0


def _knot_sample(source, n):
    if source == "uniform":
        return _uniform_sample(n, n)
    if source == "mix":
        return mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))]).sample(n, n)
    if source == "point":
        return np.full(n, 0.7)
    if source == "tied":
        return np.repeat([0.2, 0.9], n // 2)
    # two clusters 1.7 apart, far more than 2h
    return np.concatenate([0.3 * _uniform_sample(n // 2, 4), 2.0 + _uniform_sample(n - n // 2, 5)])


#: (source, n, h) of the compact-kernel quantile tests
_COMPACT_SOURCES = [
    ("uniform", 25, 0.3), ("mix", 25, 0.3), ("uniform", 200, 0.03), ("mix", 200, 0.03),
    ("gap", 25, 0.1),
]


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
@pytest.mark.parametrize("source,n,h", _COMPACT_SOURCES)
def test_compact_kde_quantile_sandwich(kernel, source, n, h):
    # Q comes from the knot table, the cdf from window sums: within a few
    # eps, F(Q(p)-) <= p <= F(Q(p)), and Q is nondecreasing in p.
    xs = _knot_sample(source, n)
    d = kde(xs, kernel, h)
    eps = np.finfo(float).eps
    levels = d.cdf(d.x_breakpoints())
    ps = np.concatenate(
        [np.linspace(0.0, 1.0, 257), TAIL_LEVELS, levels,
         np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)]
    )
    ps = np.unique(ps[(ps >= 0.0) & (ps < 1.0)])
    q = d.quantile(ps)
    assert np.all(np.diff(q) >= 0.0)
    assert np.all(d.cdf_left(q) - 4.0 * eps <= ps)
    assert np.all(ps <= d.cdf(q) + 4.0 * eps)


def _newton_rounds(monkeypatch):
    """A list that gets the rounds of each compact-kernel `quantile` call's
    Newton loop: it counts the steps of the one `range(_MAX_ROUNDS)` the
    loop iterates, a call that stops early counting its last check too."""
    rounds = []

    def counted(*args):
        if args != (estimators._MAX_ROUNDS,):
            return range(*args)
        rounds.append(0)

        def steps():
            for i in range(*args):
                rounds[-1] += 1
                yield i

        return steps()

    monkeypatch.setattr(estimators, "range", counted, raising=False)
    return rounds


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
@pytest.mark.parametrize("source,n,h", _COMPACT_SOURCES)
def test_compact_kde_quantile_starts_at_its_cells_root(monkeypatch, kernel, source, n, h):
    # Each row starts at the closed-form root of its cell's polynomial, and
    # a row already at the cubic's rounding floor leaves there: a uniform
    # call steps no row and counts only the loop's last check, an
    # Epanechnikov call a Newton round or two for the rows a few ulps off.
    # From the cell's linear guess they counted 2, and 9 to 15. Each row
    # depends on its p alone: one call, one call per p and a shuffled call
    # agree bit for bit.
    d = kde(_knot_sample(source, n), kernel, h)
    ps = _ladder()
    rounds = _newton_rounds(monkeypatch)
    q = d.quantile(ps)
    assert len(rounds) == 1 and rounds[0] <= (1 if kernel == "uniform" else 4)
    np.testing.assert_array_equal([d.quantile(p) for p in ps], q)
    order = np.random.default_rng(0).permutation(ps.size)
    np.testing.assert_array_equal(d.quantile(ps[order]), q[order])


def test_compact_kde_tail_quantile_stops_at_the_float_floor(monkeypatch):
    # Near the top of the last cluster the Epanechnikov cubic has a double
    # root: Newton halves the error, then bounces by an ulp of the target
    # with steps several ulps of Q wide. A row stops once its step stops
    # shrinking at the cubic's rounding floor; with the step test alone
    # p = 1 - 10^-11 ran to the 64-round cap. From the cell's linear guess
    # these rows took 13 rounds at most; from its closed-form root each
    # leaves at the floor.
    d = kde(_knot_sample("mix", 200), EPANECHNIKOV, 0.03)
    ps = np.sort(np.concatenate([1.0 - 10.0 ** -np.arange(1.0, 16.0), [P_TAIL]]))
    rounds = _newton_rounds(monkeypatch)
    q = np.array([d.quantile(p) for p in ps])
    assert len(rounds) == ps.size and max(rounds) <= estimators._MAX_ROUNDS // 2
    rounds.clear()
    np.testing.assert_array_equal(d.quantile(ps), q)
    assert rounds[0] <= estimators._MAX_ROUNDS // 2
    eps = np.finfo(float).eps
    assert np.all(np.diff(q) >= 0.0)
    assert np.all(d.cdf_left(q) - 4.0 * eps <= ps)
    assert np.all(ps <= d.cdf(q) + 4.0 * eps)


def test_compact_kde_double_root_takes_second_order_steps(monkeypatch):
    # The ladder of the test above: near the top of the last cluster Newton
    # halved its error each round from the cell's linear guess, and
    # p = 1 - 10^-k took about 2k rounds, 28 at most. Once its steps halve,
    # a row steps to the root of the cubic's second-order model, exact at a
    # double root: 13 rounds at most, 134 in all. From the closed-form root
    # each call counts one round, its last check.
    d = kde(_knot_sample("mix", 200), EPANECHNIKOV, 0.03)
    ps = np.sort(np.concatenate([1.0 - 10.0 ** -np.arange(1.0, 16.0), [P_TAIL]]))
    rounds = _newton_rounds(monkeypatch)
    q = np.array([d.quantile(p) for p in ps])
    assert len(rounds) == ps.size and max(rounds) <= 16 and sum(rounds) <= 160
    eps = np.finfo(float).eps
    assert np.all(np.diff(q) >= 0.0)
    assert np.all(d.cdf_left(q) - 4.0 * eps <= ps)
    assert np.all(ps <= d.cdf(q) + 4.0 * eps)


def test_compact_kde_tail_ladder_leaves_at_the_closed_form_root(monkeypatch):
    # The ladder of the tests above, one p a call: the closed-form root of
    # each row's cell already sits at the cubic's rounding floor, so a call
    # steps at most once. From the cell's linear guess they took 13 rounds
    # at most and 134 in all.
    d = kde(_knot_sample("mix", 200), EPANECHNIKOV, 0.03)
    ps = np.sort(np.concatenate([1.0 - 10.0 ** -np.arange(1.0, 16.0), [P_TAIL]]))
    rounds = _newton_rounds(monkeypatch)
    for p in ps:
        d.quantile(p)
    assert len(rounds) == ps.size and max(rounds) <= 2 and sum(rounds) <= 32


def test_compact_kde_lone_point_top_takes_second_order_steps(monkeypatch):
    # At h = 1e-3 many points of a lognormal sample are alone in their
    # window. The cell that ends at such a point's x_i + h has one active
    # point, and n F reaches the whole number k there with G'(1) = 0: at
    # p = k / n the cubic has a double root at the cell's end, which the
    # closed form gets only to about half its digits. Those rows step to
    # the root of the cubic's second-order model, and meet the sandwich;
    # from the cell's linear guess the call took 11 rounds, now 8.
    n = 2000
    d = kde(_lognormal_sample(n), EPANECHNIKOV, 1e-3)
    ps = np.arange(1.0, n) / n
    rounds = _newton_rounds(monkeypatch)
    q = d.quantile(ps)
    assert len(rounds) == 1 and 3 <= rounds[0] <= 10
    eps = np.finfo(float).eps
    assert np.all(np.diff(q) >= 0.0)
    assert np.all(d.cdf_left(q) - 4.0 * eps <= ps)
    assert np.all(ps <= d.cdf(q) + 4.0 * eps)


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_compact_kde_quantile_sandwich_on_tiny_samples(kernel, n):
    # A float Q is off by up to an ulp, over which F rises by at most
    # A K(0) ulp(Q) / (n h), A the sample points within h of Q and K(0) <= 3/4
    # the kernel's peak. At n = 200 that stays under the 4 eps of the
    # cubic's rounding; at n <= 5 it does not, and 4 eps alone missed 15 to
    # 83 of these checks per kernel and size, by up to 12 eps. The bound
    # F(Q-) - d <= p <= F(Q) + d, d = 4 eps + A ulp(Q) / (n h), holds.
    src = mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))])
    eps, h = np.finfo(float).eps, 0.03
    ps = _ladder(1.0 - 2.0 ** -np.arange(41.0, 54.0))
    for seed in range(3):
        xs = src.sample(seed, n)
        d = kde(xs, kernel, h)
        q = d.quantile(ps)
        ulp = np.spacing(q)
        near = np.sum(np.abs(xs[None, :] - q[:, None]) <= h + 2.0 * ulp[:, None], axis=1)
        slack = 4.0 * eps + near * ulp / (n * h)
        assert np.all(np.diff(q) >= 0.0)
        assert np.all(d.cdf_left(q) - slack <= ps)
        assert np.all(ps <= d.cdf(q) + slack)


def _ladder(*extra):
    ps = np.concatenate([np.linspace(0.0, 1.0, 257), TAIL_LEVELS, *extra])
    return np.unique(ps[(ps >= 0.0) & (ps < 1.0)])


@pytest.mark.parametrize(
    "n,h,source",
    [(n, h, source) for n, h in [(25, 0.1), (200, 0.03), (2000, 0.03), (25, 0.002), (200, 0.0005)]
     for source in ("uniform", "mix", "gap")]
    + [(1, 0.1, "point"), (10, 0.1, "tied"), (10, 0.03, "tied")],
)
def test_gaussian_kde_quantile_galois_pair(source, n, h):
    # Chandrupatla steps from brackets between kept knots of the law's
    # table, finished by float bisection: F(prev(Q)) < p <= F(Q) holds
    # exactly for the computed cdf up to F(x_h), and sf(Q) <= 1 - p <
    # sf(prev(Q)) for the computed sf above. Levels across [0.3, 2] put Q
    # where the gap sample's density nearly vanishes. 1 - 2^-52 and
    # nextafter(1, 0) need the top knots; the one-point sample has a single
    # point, the tied sample repeats its points. With h below the sample's
    # spacing (n = 25, h = 0.002 and n = 200, h = 0.0005) most neighbours
    # are gaps, and the table holds the ends of every cluster.
    d = kde(_knot_sample(source, n), GAUSSIAN, h)
    levels = d.cdf(np.linspace(0.3, 2.0, 9))
    ps = _ladder(levels, np.nextafter(levels, 1.0), [1.0 - 2.0**-52, np.nextafter(1.0, 0.0)])
    q = assert_galois_pair(d, ps)
    assert np.all((q == 0.0) == (ps <= d.cdf(0.0)))
    assert sf_form_rows(d, ps).any()


def test_gaussian_kde_quantile_keeps_the_monotone_knots(monkeypatch):
    # A searchsorted bracket on a column that is not nondecreasing depends
    # on the other rows of the batch, and so may Q. The law's table keeps
    # only the knots where F and -sf equal their running maximum: here F
    # falls at one knot below x_h and -sf at one knot above, so exactly
    # those two knots go. Each Q depends on its p alone and meets its form
    # of the pair for the computed cdf and sf.
    xs = _uniform_sample(25)
    x0, f0, g0, h0 = kde(xs, GAUSSIAN, 0.1)._knot_values
    low, high = x0[h0 - 3], x0[h0 + 3]
    cdf, sf = _CutKernelMixture.cdf, _CutKernelMixture.sf
    monkeypatch.setattr(
        _CutKernelMixture, "cdf", lambda self, x: np.where(np.equal(x, low), f0[h0 - 5], cdf(self, x))
    )
    monkeypatch.setattr(
        _CutKernelMixture, "sf", lambda self, x: np.where(np.equal(x, high), -g0[h0 + 1], sf(self, x))
    )
    d = kde(xs, GAUSSIAN, 0.1)
    x, f, g, h = d._knot_values
    np.testing.assert_array_equal(x, x0[(x0 != low) & (x0 != high)])
    assert np.all(np.diff(f) >= 0.0) and np.all(np.diff(g) >= 0.0)
    assert x[h] == x0[h0]
    near = np.concatenate([f0[h0 - 5 : h0], 1.0 + g0[h0 + 1 : h0 + 6]])
    ps = _ladder(near, np.nextafter(near, 1.0))
    q = assert_galois_pair(d, ps)
    cold = kde(xs, GAUSSIAN, 0.1)
    assert [cold.quantile(p) for p in ps] == list(q)


@pytest.mark.parametrize("kernel", ["uniform", EPANECHNIKOV])
@pytest.mark.parametrize("other", [exponential(1.0), atom(0.5), uniform(0.5, 2.0)], ids=["exp", "atom", "uniform"])
def test_compact_kernel_estimate_inside_a_mixture(kernel, other):
    # A polynomial kernel's own table already holds every x_i +- h, so the
    # estimate adds no knot candidates to its mixture's table; the mixture
    # inverts from that table and meets the exact pair of each row's form.
    part = kde(lognormal(0.0, 0.5).sample(11, 40), kernel, 0.2)
    assert part.parts[0][1].knot_candidates().size == 0
    d = mixture([(0.6, part), (0.4, other)])
    assert d._memoized
    ps = _ladder()
    assert_galois_pair(d, ps)
    assert sf_form_rows(d, ps).any()
    assert index_report(d).max_cross_route_residual < 1e-11


def _counted_points(monkeypatch):
    """A list that gets the size of every kernel-estimate cdf and sf call."""
    points = []
    for meth in ("cdf", "sf"):
        fn = getattr(_CutKernelMixture, meth)
        monkeypatch.setattr(
            _CutKernelMixture, meth, lambda self, x, fn=fn: points.append(np.size(x)) or fn(self, x)
        )
    return points


def test_gaussian_kde_quantile_cdf_budget(monkeypatch):
    # Points of cdf and sf calls, the knot table's included. Bisection from
    # [0, hi] spent 54.3 cdf points per probability here; the table and
    # Chandrupatla steps on F below x_h and on -sf above spend 11.2, as
    # Illinois steps did.
    points = _counted_points(monkeypatch)
    ps = _ladder()
    kde(_uniform_sample(200), GAUSSIAN, 0.03).quantile(ps)
    assert sum(points) <= 20 * ps.size


def test_gaussian_kde_quantile_kernel_work(monkeypatch):
    # Kernel evaluations of one cold quantile call, the knot table's
    # included: (query, sample point) pairs times the term arrays of each
    # pair. Newton summed the cdf and the density every round, 1,259
    # evaluations per probability here; the law's table and Illinois steps
    # spent 774.0, and Chandrupatla steps, which stop a few ulps short and
    # leave each row to bisection at tol 0, spend 772.8.
    work = []
    pair_sums = _CutKernelMixture._pair_sums

    def counted(self, x, lo, counts, first, terms, count):
        work.append(int(counts.sum()) * count)
        return pair_sums(self, x, lo, counts, first, terms, count)

    monkeypatch.setattr(_CutKernelMixture, "_pair_sums", counted)
    ps = _ladder()
    kde(_uniform_sample(200), GAUSSIAN, 0.03).quantile(ps)
    assert sum(work) <= 800 * ps.size


def test_gaussian_kde_knot_table_does_not_grow_with_n(monkeypatch):
    # The inversion table's candidates are 0, the support's ends, a ladder
    # of eight knots per octave below the top, a far knot, 18 knots past the
    # last sample point, and knots at the ends of gaps between sample points
    # wider than 4h, of which a uniform sample at h = 0.03 has none at
    # either n. A lone cold quantile at a p inside the atom at 0 evaluates
    # the table alone: as many query points at n = 2000 as at n = 200, where
    # a table with a knot per sample point paid 2,004 against 204.
    points = _counted_points(monkeypatch)
    xs = _uniform_sample(2000)
    spent = []
    for n in (200, 2000):
        d = kde(xs[:n], GAUSSIAN, 0.03)
        p = 0.5 * d.cdf(0.0)
        points.clear()
        assert d.quantile(p) == 0.0
        spent.append(sum(points))
    assert spent[1] <= spent[0]


def _gap_abscissae(xs, h):
    """Points across every gap of the sorted sample wider than 4h, 0.5h to
    8h from either end, and as far past its last point."""
    (gap,) = np.nonzero(np.diff(xs) > 4.0 * h)
    offsets = h * np.linspace(0.5, 8.0, 16)[:, None]
    return np.concatenate([(xs[gap] + offsets).ravel(), (xs[gap + 1] - offsets).ravel(), xs[-1] + offsets.ravel()])


@pytest.mark.parametrize("source,budget", [("mix", 15), ("gap", 24)])
def test_gaussian_kde_gap_rows_level_budget(monkeypatch, source, budget):
    # Rows whose quantile falls in a gap between the sample's clusters or
    # past its last point, where F is flat but for Gaussian tails. Between
    # ladder knots 7 to 12h apart Illinois steps crept there: 21.8 (mix) and
    # 33.3 (gap) level points per row inside `_invert`; knots at the
    # clusters' ends and a tail ladder cut that to 12.7 and 19.9, and
    # Chandrupatla steps to 12.1 and 18.9.
    xs = np.sort(_knot_sample(source, 200))
    h = 0.03
    levels = kde(xs, GAUSSIAN, h).cdf(_gap_abscissae(xs, h))
    ps = np.unique(levels[levels < 1.0])
    spent = []
    invert = measures._invert

    def counted(level, y, *rest):
        return invert(lambda t, target: spent.append(np.size(t)) or level(t, target), y, *rest)

    monkeypatch.setattr(measures, "_invert", counted)
    assert_galois_pair(kde(xs, GAUSSIAN, h), ps)
    assert sum(spent) <= budget * ps.size


@pytest.mark.parametrize(
    "source,n,h", [("mix", 200, 0.03), ("gap", 200, 0.03), ("gap", 25, 0.1), ("uniform", 200, 0.003)]
)
def test_gaussian_kde_knot_table_grows_with_the_gaps_alone(monkeypatch, source, n, h):
    # The table adds at most 12 knots per gap wider than 4h (x_i + k h and
    # x_{i+1} - k h, k in {0, 1, 2, 4, 6, 8}) and 18 past the last point;
    # the ends of every gap and the first tail knot are kept.
    xs = np.sort(_knot_sample(source, n))
    (gap,) = np.nonzero(np.diff(xs) > 4.0 * h)
    x = kde(xs, GAUSSIAN, h)._knot_values[0]
    assert np.all(np.isin(np.concatenate([xs[gap], xs[gap + 1], [xs[-1] + 0.5 * h]]), x))
    monkeypatch.setattr(_CutKernelMixture, "knot_candidates", lambda self: np.empty(0))
    bare = kde(xs, GAUSSIAN, h)._knot_values[0]
    assert x.size <= bare.size + 12 * gap.size + 18


@pytest.mark.parametrize("n,h", [(200, 0.03), (2000, 0.003)])
@pytest.mark.parametrize("c", [1.001, 1.1])
def test_gaussian_kde_w1_rescaling_identity(n, h, c):
    # kde(c xs, c h) is the law of c X for X ~ kde(xs, h), so W1 between
    # them is (c - 1) m in closed form. Each route meets it within its own
    # budget of 1e-7 (m1 + m2); both read 8e-16 or less. The bandwidth
    # shrinks with n as along a kde sequence (at n = 2000 and h = 0.03 the
    # c = 1.001 pair takes 12 s: the gap integrator resolves two near-equal
    # laws at 395,000 query points of 1,000 window terms each).
    xs = _uniform_sample(n)
    d1, d2 = kde(xs, GAUSSIAN, h), kde(c * xs, GAUSSIAN, c * h)
    m1, m2 = d1.mean, d2.mean
    for value in w1_routes(d1, d2):
        assert abs(value - (c - 1.0) * m1) <= 1e-7 * (m1 + m2)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kde_is_equal_by_value_for_any_input_order_and_container(kernel):
    # The estimate held its points as a float tuple in input order, so a
    # permuted sample gave an unequal estimate of the same law.
    xs = _uniform_sample(50)
    perm = np.random.default_rng(4).permutation(xs)
    laws = [kde(f(v), kernel, 0.03) for v in (xs, perm) for f in (list, tuple, np.array)]
    for d in laws:
        points = d.parts[0][1].points
        assert not points.flags.writeable and np.all(np.diff(points) >= 0.0)
        assert d == laws[0] and hash(d) == hash(laws[0])
    assert kde(xs, kernel, 0.04) != laws[0] and kde(2.0 * xs, kernel, 0.03) != laws[0]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("c", [1e-6, 0.3, 7.0])
def test_kde_rescaled_is_the_kde_of_the_rescaled_sample(kernel, c):
    xs = _uniform_sample(40)
    d = kde(xs, kernel, 0.03).rescaled(c)
    assert d == kde(c * xs, kernel, c * 0.03)
    assert hash(d) == hash(kde(c * xs, kernel, c * 0.03))


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
def test_compact_kde_at_n_2000_routes_agree(kernel, deadline):
    d = kde(_uniform_sample(2000), kernel, 0.02)
    with deadline(60):
        assert index_report(d).max_cross_route_residual <= 1e-12
        by_quantile, by_cdf = w1_routes(d, uniform(0.0, 1.0))
    assert by_quantile == pytest.approx(by_cdf, abs=1e-5)


def _lognormal_sample(n):
    return lognormal(0.0, 1.0).sample(3, n)


#: Gaussian estimates of lognormal(0, 1) samples whose bandwidth sits below
#: much of the sample's spacing: (n, h) and the bound on the relative
#: error of both `mean_routes`
SMALL_H = [(n, h, 1e-9) for n in (10, 50) for h in (1e-2, 1e-3, 1e-4, 1e-6)] + [
    (200, h, 2e-7) for h in (1e-2, 1e-3, 1e-4)
]


@pytest.mark.parametrize("n,h,mean_tol", SMALL_H)
def test_gaussian_kde_small_bandwidth_routes_agree(n, h, mean_tol):
    # The x-space routes split only at the sample's ends saw none of the
    # spikes between them: residuals up to 1.4e-4 (n = 10), 1.3e-5 (50)
    # and 1.1e-5 (200, h = 1e-3), and mean_routes off by up to 2.3e-5. With
    # breaks in the sample's gaps every route's cells start at them: at
    # most 1.2e-10 here. n = 200 at h = 1e-6 and n = 2,000 at h <= 1e-3
    # still stop refining at the panel limit.
    d = kde(_lognormal_sample(n), GAUSSIAN, h)
    assert index_report(d).max_cross_route_residual <= 2e-10
    for value in d.mean_routes():
        assert value == pytest.approx(d.mean, rel=mean_tol)


@pytest.mark.parametrize("n", [10, 50])
def test_gaussian_kde_tiny_bandwidth_routes_meet_the_discrete_limit(n):
    # At h = 1e-6 the estimate is the empirical law to O(h): each route
    # within 0.1 h of the discrete law's. `hoover_mean_deviation` was off
    # by 142 h (n = 10) and 12.6 h (n = 50), `gini_dorfman` by 0.46 h.
    xs = _lognormal_sample(n)
    h = 1e-6
    report, limit = index_report(kde(xs, GAUSSIAN, h)), index_report(discrete(xs))
    for name in ("gini_mean_difference", "gini_dorfman", "gini_lorenz",
                 "hoover_mean_deviation", "hoover_cdf", "hoover_max"):
        assert getattr(report, name) == pytest.approx(getattr(limit, name), abs=0.1 * h)


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
@pytest.mark.parametrize("n", [10, 50, 200, 2000])
def test_compact_kde_small_bandwidth_routes_agree(kernel, n):
    # Compact kernels list every knot as a break: residual at most 2.7e-12
    # on the same grid.
    xs = _lognormal_sample(n)
    for h in (1e-2, 1e-3, 1e-4, 1e-6):
        assert index_report(kde(xs, kernel, h)).max_cross_route_residual <= 5e-12


def test_gaussian_kde_breaks_are_capped():
    # At n = 10^4 and h = 1e-6 nearly every neighbour is a gap, but only
    # the widest `_BREAK_GAPS` get breaks: 6 each plus 0 and the support's
    # ends, however large n grows.
    xs = _lognormal_sample(10_000)
    comp = kde(xs, GAUSSIAN, 1e-6).parts[0][1]
    assert np.count_nonzero(np.diff(comp.points) > 4e-6) > estimators._BREAK_GAPS
    assert comp.x_breaks().size <= 3 + 6 * estimators._BREAK_GAPS


@pytest.mark.parametrize("source,h", [("mix", 0.03), ("gap", 0.03), ("uniform", 0.003)])
def test_gaussian_kde_breaks_span_every_gap_under_the_cap(source, h):
    # Fewer gaps than the cap: x_i + k h and x_{i+1} - k h, k = 0, 2, 4,
    # for every gap wider than 4h, and nothing but 0 and the ends besides.
    xs = np.sort(_knot_sample(source, 200))
    (gap,) = np.nonzero(np.diff(xs) > 4.0 * h)
    assert 0 < gap.size <= estimators._BREAK_GAPS
    breaks = kde(xs, GAUSSIAN, h).parts[0][1].x_breaks()
    k = h * np.array([0.0, 2.0, 4.0])[:, None]
    assert np.all(np.isin(np.concatenate([(xs[gap] + k).ravel(), (xs[gap + 1] - k).ravel()]), breaks))
    assert breaks.size <= 3 + 6 * gap.size


# ---------------------------------------------------------------------------
# sample containers and file input
# ---------------------------------------------------------------------------


def test_sample_set_validation():
    with pytest.raises(ValueError, match="at least one value"):
        SampleSet((), "t")
    with pytest.raises(ValueError, match="finite and >= 0"):
        SampleSet((-1.0,), "t")
    with pytest.raises(ValueError, match="finite and >= 0"):
        SampleSet((float("nan"),), "t")
    s = as_sample_set([1, 2], "unit test")
    assert s.values == (1.0, 2.0)
    assert s.provenance == "unit test"
    assert as_sample_set(s) is s


@pytest.mark.parametrize(
    "bad,named",
    [((0.5, math.nan, -1.0), "nan"), ((0.5, 2.0, math.inf, math.nan), "inf"), ((0.5, -0.25, math.inf), "-0.25")],
)
def test_sample_set_names_the_first_bad_value(bad, named):
    # One numpy pass checks every value; the message names the first bad
    # one in input order, from any container.
    message = re.escape(f"sample values must be finite and >= 0, got {named}") + "$"
    for values in (bad, list(bad), np.array(bad)):
        with pytest.raises(ValueError, match=message):
            SampleSet(values)
    with pytest.raises(ValueError, match=message):
        kde(np.array(bad), GAUSSIAN, 0.1)


def test_sample_set_keeps_a_float_tuple_and_a_read_only_array():
    s = as_sample_set(np.array([[0.5], [2]]))
    assert s.values == (0.5, 2.0) and all(type(v) is float for v in s.values)
    assert not s.array.flags.writeable and s.array.tolist() == [0.5, 2.0]
    assert s == SampleSet((0.5, 2.0)) and hash(s) == hash(SampleSet([0.5, 2.0]))
    assert repr(s) == "SampleSet(values=(0.5, 2.0), provenance='unspecified')"


def test_read_sample_csv(tmp_path):
    p = tmp_path / "wages.csv"
    p.write_text("# survey extract\n1.5\n\n2.5\n4 # trailing note\n")
    s = read_sample_csv(str(p))
    assert s.values == (1.5, 2.5, 4.0)
    assert s.provenance == f"file:{p}"
    with pytest.raises(OSError):
        read_sample_csv(str(tmp_path / "missing.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\ntwo\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: not a number: 'two'"):
        read_sample_csv(str(bad))


# ---------------------------------------------------------------------------
# experiment specs and drivers
# ---------------------------------------------------------------------------


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        scheme="kde", source="lognormal(0,0.5)", seed=3, steps=4,
        bandwidths=(0.4, 0.2, 0.1, 0.05), kernel="uniform", rel_tol=0.02,
    )
    again = ExperimentSpec.from_json(json.dumps(spec.to_json_dict()))
    assert again == spec


def test_spec_json_is_its_fields_and_round_trips_with_every_field_set():
    spec = ExperimentSpec(
        scheme="quantile_of_sample", source="mix(0.3*atom(0),0.7*exp(1))", seed=5,
        steps=3, sample_size=100, sample_sizes=(10, 20, 40), table_sizes=(2, 4, 8),
        bandwidths=(0.5, 0.25, 0.125), noise_exponents=(1, 2, 3),
        kernel="epanechnikov", rel_tol=0.1, alpha_grid=(0.0, 2.0),
    )
    payload = spec.to_json_dict()
    assert list(payload) == [f.name for f in fields(ExperimentSpec)]
    assert ExperimentSpec.from_json(json.dumps(payload)) == spec


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown experiment keys: \['bogus'\]"):
        ExperimentSpec.from_json('{"scheme": "noise", "source": "atom(1)", "bogus": 3}')


@pytest.mark.parametrize("text, kind", [('"abc"', "str"), ("[1, 2]", "list"), ("5", "int"), ("null", "NoneType")])
def test_spec_from_json_rejects_what_is_no_object(text, kind):
    with pytest.raises(TypeError, match=f"^experiment spec must be a JSON object, got {kind}$"):
        ExperimentSpec.from_json(text)


def test_spec_keeps_the_floats_its_checks_read():
    # rel_tol and the bandwidths were checked as floats but kept as given,
    # so a spec of strings wrote strings and equalled no spec of floats.
    given = ExperimentSpec(
        scheme="kde", source="exp(1)", rel_tol="0.1", bandwidths=("0.5", "0.25"),
        sample_sizes=(10, 20), alpha_grid=["1", 2],
    )
    floats = ExperimentSpec(
        scheme="kde", source="exp(1)", rel_tol=0.1, bandwidths=(0.5, 0.25),
        sample_sizes=(10, 20), alpha_grid=(1.0, 2.0),
    )
    assert given == floats and hash(given) == hash(floats)
    payload = given.to_json_dict()
    assert (payload["rel_tol"], payload["bandwidths"], payload["alpha_grid"]) == (0.1, [0.5, 0.25], [1.0, 2.0])
    assert all(type(v) is float for v in (given.rel_tol, *given.bandwidths, *given.alpha_grid))


def test_spec_scheme_and_pairing_validation():
    with pytest.raises(ValueError, match="unknown scheme 'nope'"):
        run_experiment(ExperimentSpec(scheme="nope", source="atom(1)"))
    with pytest.raises(ValueError, match="table_sizes must pair up"):
        run_experiment(ExperimentSpec(
            scheme="quantile_of_sample", source="atom(1)",
            sample_sizes=(10, 20), table_sizes=(2,),
        ))
    with pytest.raises(ValueError, match="bandwidths must pair up"):
        run_experiment(ExperimentSpec(
            scheme="kde", source="exp(1)",
            sample_sizes=(10, 20), bandwidths=(0.1,),
        ))
    with pytest.raises(ValueError, match="unknown kernel"):
        run_experiment(ExperimentSpec(scheme="kde", source="exp(1)", kernel="nope"))


@pytest.mark.parametrize(
    "fields,match",
    [
        ({"scheme": "quantile_of_sample", "sample_sizes": [10, 20], "table_sizes": [2]}, "table_sizes must pair up"),
        ({"scheme": "quantile_of_sample", "table_sizes": [2, 4]}, "table_sizes must pair up"),
        ({"scheme": "kde", "sample_sizes": [10, 20], "bandwidths": [0.1]}, "bandwidths must pair up"),
        ({"scheme": "kde", "bandwidths": [0.2, 0.02]}, "bandwidths must pair up"),
    ],
)
def test_spec_pairs_its_schedules_when_built(fields, match):
    # Such specs were built, and only run_experiment raised; a default
    # schedule has `steps` = 8 entries.
    data = {"source": "uniform(0,1)", **fields}
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    with pytest.raises(ValueError, match=match):
        ExperimentSpec.from_json(json.dumps(data))
    # a schedule the scheme does not read is not paired
    ExperimentSpec.from_json(json.dumps({**data, "scheme": "sampling"}))
    ExperimentSpec.from_json(json.dumps({**data, "sample_sizes": [10, 20], "table_sizes": [2, 4], "bandwidths": [0.2, 0.02]}))


@pytest.mark.parametrize(
    "bad,match",
    [({"steps": 2.5}, "steps"), ({"sample_size": 25.9}, "sample_size"),
     ({"sample_sizes": (25.9, 40)}, "sample_sizes entry"),
     ({"table_sizes": (2.7, 4.2)}, "table_sizes entry"),
     ({"noise_exponents": (1, 2.5)}, "noise_exponents entry")],
)
def test_spec_rejects_non_integral_sizes(bad, match):
    # a fractional size would be floored by the schedules or fail in range()
    with pytest.raises(ValueError, match=f"{match} must be an integer"):
        ExperimentSpec(scheme="quantile_of_sample", source="uniform(0,1)", **bad)


@pytest.mark.parametrize("seed", [2.5, math.nan, -1])
def test_spec_rejects_unusable_seed(seed):
    # These specs were built, and run_experiment failed inside numpy's
    # default_rng: a TypeError for 2.5 and NaN, a ValueError for -1.
    with pytest.raises(ValueError, match="seed must be"):
        ExperimentSpec(scheme="sampling", source="uniform(0,1)", seed=seed)


def test_spec_takes_integral_float_sizes():
    spec = ExperimentSpec(scheme="quantile_of_sample", source="uniform(0,1)", steps=2.0,
                          sample_sizes=(64.0, 128), table_sizes=(4.0, 8))
    assert spec.schedule_sample_sizes() == (64, 128)
    assert spec.schedule_table_sizes() == (4, 8)


@pytest.mark.parametrize(
    "spec",
    [{"scheme": "sampling", "steps": 2.0},
     {"scheme": "noise", "steps": 2, "sample_size": 100.0},
     {"scheme": "noise", "sample_size": 100, "noise_exponents": (1.0, 2.0)},
     {"scheme": "quantile_of_sample", "sample_sizes": (64.0, 128.0), "table_sizes": (4.0, 8.0)}],
    ids=["steps", "sample_size", "noise_exponents", "schedules"],
)
def test_spec_keeps_integral_float_sizes_as_ints(spec):
    # steps=2.0 failed in range() and sample_size=100.0 in numpy's
    # default_rng, each with a TypeError, once the experiment ran.
    spec = ExperimentSpec(source="uniform(0,1)", **spec)
    for name in ("steps", "sample_size"):
        assert type(getattr(spec, name)) is int
    for name in ("sample_sizes", "table_sizes", "noise_exponents"):
        assert all(type(v) is int for v in getattr(spec, name) or ())
    assert len(run_experiment(spec).steps) == 2


def test_spec_rel_tol_reaches_the_diagnostics_check():
    with pytest.raises(ValueError, match="rel_tol"):
        run_experiment(ExperimentSpec(scheme="quantile", source="uniform(0,1)", steps=2, rel_tol=math.nan))


@pytest.mark.parametrize(
    "bad,match",
    [({"rel_tol": math.nan}, "rel_tol"), ({"rel_tol": 0.0}, "rel_tol"),
     ({"alpha_grid": ()}, "alpha_grid"), ({"alpha_grid": (-1.0,)}, "alpha_grid")],
)
def test_spec_rejects_bad_thresholds_before_sampling(monkeypatch, bad, match):
    # The spec checks rel_tol and alpha_grid as sequence_diagnostics does,
    # so a kde experiment raises before it draws a sample or builds a member.
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(Distribution, "sample_rng", no_sampling)
    monkeypatch.setattr(estimators, "_substream", no_sampling)
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentSpec(scheme="kde", source="uniform(0,1)", steps=2, **bad))


@pytest.mark.parametrize(
    "bad, match",
    [({"sample_size": 0, "scheme": "noise"}, "sample_size"),
     ({"sample_sizes": (0, 10)}, "sample_sizes entry"),
     ({"table_sizes": (-2, 4), "scheme": "quantile_of_sample"}, "table_sizes entry"),
     ({"bandwidths": (0.1, -1.0)}, "bandwidths entry"),
     ({"bandwidths": (0.1, math.inf)}, "bandwidths entry"),
     ({"bandwidths": (math.nan, 0.1)}, "bandwidths entry")],
    ids=["sample_size", "sample_sizes", "table_sizes", "negative_bandwidth",
         "inf_bandwidth", "nan_bandwidth"],
)
def test_spec_rejects_unusable_sizes_before_sampling(monkeypatch, bad, match):
    # These specs were built, and run_experiment raised only once it reached
    # the bad entry, after sampling the members before it.
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(Distribution, "sample_rng", no_sampling)
    monkeypatch.setattr(estimators, "_substream", no_sampling)
    spec = {"scheme": "kde", "source": "uniform(0,1)", "steps": 2, **bad}
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentSpec(**spec))


def test_sampling_experiment_is_deterministic_and_converges():
    spec = ExperimentSpec(scheme="sampling", source="uniform(0,1)", seed=11, steps=8)
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.verdict == "w1_convergent"
    assert abs(r1.steps[-1].gini - 1.0 / 3.0) < 0.02
    r3 = run_experiment(ExperimentSpec(scheme="sampling", source="uniform(0,1)", seed=12, steps=8))
    assert r3.steps[-1].gini != r1.steps[-1].gini


def test_quantile_experiment_controls_cdf_error():
    spec = ExperimentSpec(scheme="quantile", source="uniform(0,1)", steps=6)
    report = run_experiment(spec)
    assert report.verdict == "w1_convergent"
    u = uniform(0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 513)
    for k in range(1, 7):
        ell = 2 ** (k + 1)
        t = quantile_approx(u, ell)
        assert float(np.max(t.cdf(xs) - u.cdf(xs))) <= 1.0 / ell + 1e-12


def test_noise_experiment_converges():
    spec = ExperimentSpec(scheme="noise", source="mix(0.3*atom(0),0.7*exp(1))", steps=6)
    assert run_experiment(spec).verdict == "w1_convergent"


def _experiment_log(monkeypatch, spec):
    """Run `spec` cold and log, in order, each batch of p a law inverts
    (`Distribution._bisect_quantile`, which `_quantile_arr` calls on its
    memo misses), as ("invert", law, p), and each W1 of a step, as ("w1",
    member). Returns the log, the members and the limit."""
    from lorenzkit import wasserstein

    log, seen = [], {}
    invert, diagnose, distance = Distribution._bisect_quantile, estimators.sequence_diagnostics, wasserstein.w1

    def logged_invert(self, p, **kwargs):
        log.append(("invert", self, np.array(p)))
        return invert(self, p, **kwargs)

    def logged_w1(d1, d2):
        log.append(("w1", d1, None))
        return distance(d1, d2)

    def logged_diagnose(members, limit, **kwargs):
        seen.update(members=members, limit=limit)
        return diagnose(members, limit, **kwargs)

    monkeypatch.setattr(Distribution, "_bisect_quantile", logged_invert)
    monkeypatch.setattr(wasserstein, "w1", logged_w1)
    monkeypatch.setattr(estimators, "sequence_diagnostics", logged_diagnose)
    run_experiment(spec)
    return log, seen["members"], seen["limit"]


def test_experiment_inverts_each_memoized_laws_fixed_p_in_one_batch(monkeypatch):
    # Before, the limit inverted its fixed p in 6 batches (the probes, both
    # band edges, the ladder, and the cell edges and diagonal first round of
    # its Gini), its draws in one batch per member, and each memoized member
    # its fixed p in 3 (cell edges, diagonal first round, ladder).
    from lorenzkit import wasserstein

    spec = ExperimentSpec(
        scheme="kde", source="mix(0.3*atom(0),0.7*exp(1))", kernel="gaussian", seed=3,
        sample_sizes=(25, 200), bandwidths=(1.0, 0.03), rel_tol=0.3,
    )
    log, members, limit = _experiment_log(monkeypatch, spec)
    probes = wasserstein._weak_probes(limit)
    ladder = limit._probe_ladder[limit._probe_ladder < 1.0]
    fixed = np.concatenate([
        probes, np.maximum(probes - 0.15, 0.0), np.minimum(probes + 0.15, P_TAIL), ladder, limit._first_round_p,
    ])

    def batches(law, ps):
        return [i for i, (kind, d, p) in enumerate(log) if kind == "invert" and d is law and np.isin(p, ps).any()]

    def w1_of(law):
        return next(i for i, (kind, d, _) in enumerate(log) if kind == "w1" and d is law)

    # before the first W1 the limit makes two batches: the draws, then its fixed p
    draws, batch = [i for i, (kind, d, _) in enumerate(log) if kind == "invert" and d is limit and i < w1_of(members[0])]
    assert log[draws][2].size == sum(spec.sample_sizes)
    assert batches(limit, fixed) == [batch] and np.isin(fixed, log[batch][2]).all()
    for d in members:
        assert d._memoized
        own = np.concatenate([d._first_round_p, ladder])
        (batch,) = batches(d, own)
        assert batch < w1_of(d) and np.isin(own, log[batch][2]).all()


SOURCES = ["mix(0.3*atom(0),0.7*exp(1))", "exp(1)"]


@pytest.mark.parametrize("source", SOURCES, ids=["memoized", "closed_form"])
@pytest.mark.parametrize("scheme", ["noise", "sampling", "quantile", "quantile_of_sample", "kde"])
def test_experiment_members_equal_per_member_draws(monkeypatch, scheme, source):
    # run_experiment inverts every member's uniforms (or quantile grid) in
    # one batch; each member must equal the one its own draw builds.
    spec = ExperimentSpec(scheme=scheme, source=source, seed=17, steps=3, sample_size=50)
    _, members, _ = _experiment_log(monkeypatch, spec)
    src = spec.source_distribution()
    sizes, tables, hs = spec.schedule_sample_sizes(), spec.schedule_table_sizes(), spec.schedule_bandwidths()
    draws = [src.sample_rng(estimators._substream(17, j), n) for j, n in enumerate(sizes)]
    if scheme == "noise":
        base = src.sample_rng(estimators._substream(17, 0), 50)
        expected = [
            empirical(np.maximum(base + 2.0**-k * estimators._substream(17, j + 1).standard_normal(50), 0.0))
            for j, k in enumerate(spec.schedule_noise_exponents())
        ]
    elif scheme == "sampling":
        expected = [empirical(xs) for xs in draws]
    elif scheme == "quantile":
        expected = [quantile_approx(src, ell) for ell in tables]
    elif scheme == "quantile_of_sample":
        expected = [quantile_of_sample(xs, ell) for xs, ell in zip(draws, tables)]
    else:
        expected = [kde(xs, GAUSSIAN, h) for xs, h in zip(draws, hs)]
    assert members == expected


@pytest.mark.parametrize(
    "d",
    [
        kde(lognormal(0.0, 1.0).sample(3, 200), GAUSSIAN, 1e-3),
        kde(lognormal(0.0, 1.0).sample(3, 50), EPANECHNIKOV, 0.05),
        mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))]),
        discrete([0.0, 1.0, 1.0, 3.0]),
    ],
    ids=["gaussian_kde", "epanechnikov_kde", "mixture", "discrete"],
)
def test_breakpoints_are_computed_once_as_read_only_arrays(d):
    # The uncached computation, as `Distribution` ran it on every call.
    block, rest = d._atomic
    xb = np.concatenate([block.loc] + [np.asarray(c.x_breaks()) for _, c in rest])
    xb = np.unique(xb[np.isfinite(xb)])
    if d.is_finite_discrete:
        pb = np.concatenate([[0.0], d._discrete.cum[1:]])
    else:
        f = d._cdf_arr(xb)
        pb = np.concatenate([[0.0, 1.0], f, np.maximum(f - d._mass_arr(xb), 0.0)])
    pb = np.unique(np.clip(pb, 0.0, 1.0))
    for got, ref in ((d.x_breakpoints(), xb), (d.p_breakpoints(), pb)):
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
    assert d.x_breakpoints() is d.x_breakpoints() and d.p_breakpoints() is d.p_breakpoints()


def test_sampling_experiment_builds_no_gini_cells_for_discrete_members(monkeypatch):
    # Only a memoized law's Gini first round is inverted ahead of its step;
    # an empirical member takes the discrete routes and never builds it.
    spec = ExperimentSpec(scheme="sampling", source="mix(0.3*atom(0),0.7*exp(1))", seed=5, steps=3)
    _, members, limit = _experiment_log(monkeypatch, spec)
    assert limit._memoized and "_first_round_p" in limit.__dict__
    for d in members:
        assert d.is_finite_discrete
        assert "_first_round_p" not in d.__dict__ and "_p_cells" not in d.__dict__
