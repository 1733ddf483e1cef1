"""Sample-side estimators, kernel smoothing, and experiment drivers."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import ndtr

from lorenzkit import (
    ZeroMeanError,
    atom,
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
from lorenzkit.measures import TAIL_LEVELS, Distribution
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


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
@pytest.mark.parametrize(
    "source,n,h",
    [("uniform", 25, 0.3), ("mix", 25, 0.3), ("uniform", 200, 0.03), ("mix", 200, 0.03),
     ("gap", 25, 0.1)],
)
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


def _ladder(*extra):
    ps = np.concatenate([np.linspace(0.0, 1.0, 257), TAIL_LEVELS, *extra])
    return np.unique(ps[(ps >= 0.0) & (ps < 1.0)])


@pytest.mark.parametrize(
    "n,h,source",
    [(n, h, source) for n, h in [(25, 0.1), (200, 0.03), (2000, 0.03)]
     for source in ("uniform", "mix", "gap")]
    + [(1, 0.1, "point"), (10, 0.1, "tied"), (10, 0.03, "tied")],
)
def test_gaussian_kde_quantile_galois_pair(source, n, h):
    # Illinois steps from brackets between kept knots of the law's table,
    # finished by float bisection: F(prev(Q)) < p <= F(Q) holds exactly for
    # the computed cdf up to F(x_h), and sf(Q) <= 1 - p < sf(prev(Q)) for the
    # computed sf above. Levels across [0.3, 2] put Q where the gap sample's
    # density nearly vanishes. 1 - 2^-52 and nextafter(1, 0) need the top
    # knots; the one-point sample has a single point, the tied sample
    # repeats its points.
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
    # Illinois steps on F below x_h and on -sf above spend 12.1.
    points = _counted_points(monkeypatch)
    ps = _ladder()
    kde(_uniform_sample(200), GAUSSIAN, 0.03).quantile(ps)
    assert sum(points) <= 20 * ps.size


def test_gaussian_kde_quantile_kernel_work(monkeypatch):
    # Kernel evaluations of one cold quantile call, the knot table's
    # included: (query, sample point) pairs times the term arrays of each
    # pair. Newton summed the cdf and the density every round, 1,259
    # evaluations per probability here; the law's table and Illinois steps
    # spend 796.5.
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
    # of eight knots per octave below the top and a far knot, none of them a
    # sample point. A lone cold quantile at a p inside the atom at 0
    # evaluates the table alone: as many query points at n = 2000 as at
    # n = 200, where a table with a knot per sample point paid 2,004
    # against 204.
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
