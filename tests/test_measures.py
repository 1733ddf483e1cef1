"""Distribution layer: construction, evaluation, and the quantile calculus.

Parametric cdf values are cross-checked against scipy.stats, which shares
no code with the closed forms inside the package.
"""

import importlib
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from lorenzkit import (
    gini_lorenz,
    gini_mean_difference,
    index_report,
    integral_lorenz,
    kendall_points,
    lorenz,
    reconstruct,
    standard_battery,
    w1,
    w1_routes,
)
from lorenzkit.estimators import empirical, kde, quantile_approx
from lorenzkit.measures import (
    TAIL_LEVELS,
    Atoms,
    Distribution,
    InfiniteMeanError,
    MeanDomainError,
    QuantileTable,
    UniformDensity,
    ZeroMeanError,
    atom,
    discrete,
    exponential,
    fsd_dominates,
    gamma_dist,
    lognormal,
    mixture,
    quantile_table,
    require_member,
    uniform,
)
import lorenzkit
from lorenzkit import measures
from lorenzkit.quadrature import _XGK
from lorenzkit.wasserstein import _q_within

# the cdf form F(prev(Q)) < p <= F(Q) up to F(x_h), the survival form
# sf(Q) <= 1 - p < sf(prev(Q)) above it, read from the knot table
from galois import assert_galois_pair as _assert_galois_pair


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_atom_basics():
    d = atom(2.0)
    assert d.mean == 2.0
    assert d.cdf(1.9) == 0.0
    assert d.cdf(2.0) == 1.0
    assert d.cdf_left(2.0) == 0.0
    assert d.mass_at(2.0) == 1.0
    assert d.quantile(0.5) == 2.0


def test_negative_atom_rejected():
    with pytest.raises(ValueError, match="atom location must be >= 0"):
        atom(-0.5)


def test_discrete_merges_duplicates():
    d = discrete([1.0, 1.0, 2.0])
    locs, masses = d.support_atoms()
    assert list(locs) == [1.0, 2.0]
    assert masses[0] == pytest.approx(2.0 / 3.0)
    assert d.mean == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize(
    "values, weights, message",
    [
        ([1.0, math.nan, -1.0], None, "atom location must be finite, got nan"),
        ([1.0, math.inf], None, "atom location must be finite, got inf"),
        ([2.0, -1.0, math.nan], None, "atom location must be >= 0, got -1.0"),
        ([1.0, 2.0, 3.0], [0.5, -0.5, 1.0], "component weights must be positive, got -0.5"),
        ([1.0, 2.0, 3.0], [0.5, math.nan, -1.0], "component weights must be positive, got nan"),
        ([1.0, 2.0], [0.0, 1.0], "component weights must be positive, got 0.0"),
        ([1.0, 2.0], [0.5, 0.6], "component weights must sum to 1, got 1.1"),
        ([1.0], [0.5], "component weights must sum to 1, got 0.5"),
        ([1.0, 2.0, 3.0], [0.25, 0.25, 0.5 + 1e-9], "component weights must sum to 1, got 1.000000001"),
        ([1.0, 2.0], [1.0], "values and weights must have equal length"),
        ([], None, "a discrete distribution needs at least one atom"),
        ([], [], "a discrete distribution needs at least one atom"),
    ],
    ids=["nan location", "inf location", "negative location", "negative weight",
         "nan weight", "zero weight", "weights sum to 1.1", "weights sum to 0.5",
         "three weights 1e-9 over", "unequal lengths",
         "no atoms", "no atoms or weights"],
)
def test_discrete_input_errors_name_the_first_offending_value(values, weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        discrete(values, weights)


@pytest.mark.parametrize("mode", ["step", "linear"])
@pytest.mark.parametrize(
    "grid, values, message",
    [
        ([0.0, 0.5], [1.0], "grid and values must be equal-length and nonempty"),
        ([], [], "grid and values must be equal-length and nonempty"),
        ([0.1, 0.5], [1.0, 2.0], "quantile grid must start at 0"),
        ([0.0, math.nan], [1.0, 2.0], "quantile table entries must be finite"),
        ([0.0, 0.5], [1.0, math.inf], "quantile table entries must be finite"),
        ([0.0, 0.5, 0.5], [1.0, 2.0, 3.0], "quantile grid must be strictly increasing within [0, 1)"),
        ([0.0, 1.0], [1.0, 2.0], "quantile grid must be strictly increasing within [0, 1)"),
        ([0.0, 0.5], [-1.0, 2.0], "quantile values must be nonnegative and nondecreasing"),
        ([0.0, 0.5], [2.0, 1.0], "quantile values must be nonnegative and nondecreasing"),
    ],
    ids=["unequal lengths", "empty", "grid not at 0", "nan grid", "inf value",
         "tied grid", "grid reaches 1", "negative value", "falling values"],
)
def test_quantile_table_modes_check_their_rows_alike(grid, values, message, mode):
    # A step table is an `Atoms` block and a linear one a `QuantileTable`;
    # both read their rows through the same checks.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quantile_table(grid, values, mode)


def test_quantile_table_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown quantile table mode 'cubic'$"):
        quantile_table([0.0, 0.5], [1.0, 2.0], "cubic")


@pytest.mark.parametrize("n", [10**5, 3 * 10**5 + 1, 10**6])
def test_equal_weight_samples_of_any_size_are_laws(n):
    # The running sum of n weights 1/n was held to 1e-12 at every n; it
    # misses 1 by 1.9e-12 at n = 10^5, so no sample this large was a law.
    xs = np.random.default_rng(n).lognormal(0.0, 1.0, size=n)
    d = discrete(xs)
    assert d.is_finite_discrete and d.parts[0][1].masses[0] == 1.0 / n
    assert empirical(xs) == d
    if n == 10**5:
        # each route reads the atom block's running sums, none rebuilds them
        assert index_report(d).max_cross_route_residual <= 1e-11
    if n == 10**6:
        ps = np.append(1.0 - 2.0 ** -np.arange(1.0, 53.0), np.nextafter(1.0, 0.0))
        _assert_galois_pair(d, ps, "10^6 atoms")


def test_quantile_approx_takes_a_table_of_10_5_rows():
    d = quantile_approx(lognormal(0.0, 1.0), 10**5)
    assert d.is_finite_discrete and d.support_atoms()[0].size == 10**5


def test_discrete_law_is_one_block_and_builds_no_atom():
    # Each value was its own single-atom part.
    xs = np.random.default_rng(2).lognormal(0.0, 1.0, size=500)
    d = discrete(xs)
    assert len(d.parts) == 1 and isinstance(d.parts[0][1], Atoms)
    assert d.is_finite_discrete and index_report(d).max_cross_route_residual <= 1e-9


@pytest.mark.parametrize("x", [0.0, -0.0, 2.5, 1e12])
def test_atom_is_the_one_row_block_of_discrete(x):
    # atom(x) had a component type of its own beside the atom block.
    d = atom(x)
    assert isinstance(d.parts[0][1], Atoms)
    assert d == discrete([x]) and hash(d) == hash(discrete([x]))
    assert d == atom(abs(x)) and hash(d) == hash(atom(abs(x)))


def test_atom_name_is_only_an_alias_of_the_block():
    # The bench tracer still patches measures.Atom by name.
    assert measures.Atom is Atoms
    assert "Atom" not in measures.__all__ and "Atom" not in lorenzkit.__all__
    assert not hasattr(lorenzkit, "Atom")


def test_package_exports_each_module_all_in_import_order():
    # The package listed its names twice more, out of step with the modules:
    # `quantile_table` was missing from `measures.__all__`, and six names the
    # modules declare public were not exported.
    modules = [
        importlib.import_module(f"lorenzkit.{name}")
        for name in ("measures", "lorenz", "indices", "wasserstein", "estimators", "specs", "catalog")
    ]
    joined = [name for module in modules for name in module.__all__]
    assert lorenzkit.__all__ == joined and len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(lorenzkit, name) is getattr(module, name), name
    assert lorenzkit.lorenz is modules[1].lorenz and callable(lorenzkit.lorenz)


def test_discrete_pooling_and_mean_match_the_sequential_reference():
    # The atoms were pooled one part at a time, so a purely finite-discrete
    # law keeps the block bit for bit. The block keeps np.unique's runs,
    # -0.0 and 0.0 in one run led by -0.0. The mean is the block's last
    # running sum of w x, the sum pe(inf) reads; it had been the sum in
    # input order, which here equals it only by chance.
    rng = np.random.default_rng(9)
    xs = rng.choice(rng.lognormal(0.0, 1.2, size=60), size=300)
    xs[:10] = -0.0
    xs[10:20] = 0.0
    ws = rng.dirichlet(np.ones(xs.size))
    order = np.argsort(xs, kind="stable")
    support, start = np.unique(xs[order], return_index=True)
    weights = np.add.reduceat(ws[order], start)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    tail = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    cum[-1] = tail[0] = 1.0
    cum_xm = np.concatenate([[0.0], np.cumsum(weights * support)])
    d = discrete(xs, ws)
    assert np.unique(xs).size < xs.size
    assert d.mean.hex() == cum_xm[-1].hex()
    block, rest = d._atomic
    assert rest == ()
    arrays = (block.loc, block.mass, block.cum, block.cum_xm, block.tail)
    for got, ref in zip(arrays, (support, weights, cum, cum_xm, tail)):
        assert got.tobytes() == ref.tobytes()


def test_mixture_identity():
    d = uniform(0.0, 1.0)
    m = mixture([(1.0, d)])
    for x in (0.1, 0.5, 0.9):
        assert m.cdf(x) == d.cdf(x)


def test_mixture_cdf_is_weighted_sum():
    m = mixture([(0.5, atom(0.0)), (0.5, atom(1.0))])
    assert m.cdf(0.0) == 0.5
    fig = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    assert fig.cdf(0.5) == pytest.approx(0.75)
    assert fig.cdf_left(0.5) == pytest.approx(0.25)


def test_mixture_weight_violation():
    with pytest.raises(ValueError):
        mixture([(0.6, atom(1.0)), (0.6, atom(2.0))])
    # `mixture` has no weight rule of its own: the law's flattened weights
    # meet the one every part list meets (`_check_weights`)
    for w in (-0.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="component weights must be positive"):
            mixture([(w, atom(1.0)), (1.0, mixture([(0.5, atom(2.0)), (0.5, atom(3.0))]))])


def test_membership_gate():
    with pytest.raises(ZeroMeanError):
        require_member(atom(0.0))
    assert issubclass(ZeroMeanError, MeanDomainError)
    assert issubclass(InfiniteMeanError, MeanDomainError)
    assert require_member(atom(1.0)).mean == 1.0
    # lognormal(0, 40)'s mean e^800 overflows a float, which raised
    # OverflowError from math.exp instead of a domain error
    for d in (lognormal(0.0, 40.0), mixture([(0.5, lognormal(0.0, 40.0)), (0.5, exponential(1.0))])):
        with pytest.raises(InfiniteMeanError, match="^mean diverges$"):
            require_member(d)


def test_lognormal_partial_expectation_outlives_its_mean():
    # e^800 overflows a float, but pe(x) = e^800 Phi(z) stays finite; mpmath
    # at 50 digits gives the references
    d = lognormal(0.0, 40.0)
    refs = {1e-3: 9.7776480366532526e-06, 2.0: 0.019940305290798915,
            1e5: 963.21331644706520, 1e300: 3.0426828171781716e+233}
    for x, ref in refs.items():
        assert float(d.partial_expectation(x)) == pytest.approx(ref, rel=1e-12, abs=0.0)
    mixed = mixture([(0.5, d), (0.5, exponential(1.0))])
    assert float(mixed.partial_expectation(2.0)) == pytest.approx(0.30696722779048042, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# closed forms against scipy
# ---------------------------------------------------------------------------


def test_uniform_against_scipy():
    d = uniform(2.0, 4.0)
    ref = scipy.stats.uniform(loc=2.0, scale=2.0)
    xs = np.array([2.0, 2.5, 3.0, 3.7, 4.0])
    np.testing.assert_allclose(d.cdf(xs), ref.cdf(xs), atol=1e-14)
    assert d.mean == pytest.approx(3.0)
    assert d.quantile(0.25) == pytest.approx(2.5)
    # partial expectation: integral of u/2 over [2, 3]
    assert d.partial_expectation(3.0) == pytest.approx(1.25)


def test_uniform_partial_expectation_at_tiny_scale():
    # x^2 - a^2 underflows below about 1e-154; the factored form does not.
    d = uniform(0.0, 1e-300)
    assert d.partial_expectation(0.5e-300) == pytest.approx(0.125e-300, rel=1e-14)
    assert d.partial_expectation(1e-300) == pytest.approx(d.mean, rel=1e-14)
    report = index_report(d)
    assert report.max_cross_route_residual <= 1e-9
    assert report.gini_mean_difference == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_exponential_against_scipy():
    d = exponential(2.0)
    ref = scipy.stats.expon(scale=0.5)
    xs = np.array([0.0, 0.1, 0.5, 1.5, 4.0])
    np.testing.assert_allclose(d.cdf(xs), ref.cdf(xs), atol=1e-14)
    np.testing.assert_allclose(
        d.quantile(np.array([0.1, 0.5, 0.99])),
        ref.ppf([0.1, 0.5, 0.99]),
        atol=1e-12,
    )
    assert d.mean == pytest.approx(0.5)


def test_exponential_tail_moment_closed_form():
    d = exponential(1.0)
    for a in (0.0, 0.5, 2.0, 10.0):
        assert d.tail_moment(a) == pytest.approx((a + 1.0) * math.exp(-a), rel=1e-12)


def test_gamma_against_scipy():
    d = gamma_dist(2.0, 0.5)
    ref = scipy.stats.gamma(a=2.0, scale=0.5)
    xs = np.array([0.05, 0.3, 1.0, 2.5])
    np.testing.assert_allclose(d.cdf(xs), ref.cdf(xs), atol=1e-13)
    assert d.mean == pytest.approx(1.0)
    assert d.partial_expectation(50.0) == pytest.approx(1.0, rel=1e-10)


def test_lognormal_against_scipy():
    d = lognormal(0.0, 0.5)
    ref = scipy.stats.lognorm(s=0.5)
    xs = np.array([0.2, 0.8, 1.0, 3.0])
    np.testing.assert_allclose(d.cdf(xs), ref.cdf(xs), atol=1e-13)
    assert d.mean == pytest.approx(math.exp(0.125), rel=1e-12)


def test_far_out_evaluations_do_not_warn():
    # rate x, x / scale and (x - a) / (b - a) would overflow at 1e300 on
    # these laws; the values there are the limits, and no warning leaks.
    tiny = mixture([(0.5, exponential(1.0)), (0.5, uniform(0.0, 1.0))]).rescaled(1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exponential(1e12).cdf(1e300) == 1.0
        assert tiny.partial_expectation(1e300) == pytest.approx(7.5e-13, rel=1e-12)
        assert tiny.cdf(1e300) == 1.0
        for d in (gamma_dist(2.0, 1e-12), quantile_table([0.0, 0.5], [0.0, 1e-12], "linear")):
            assert d.cdf(1e300) == 1.0
            assert d.partial_expectation(1e300) == pytest.approx(d.mean, rel=1e-12)


def test_survival_complements_cdf():
    d = mixture([(0.3, atom(1.0)), (0.7, exponential(1.0))])
    xs = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(d.survival(xs), 1.0 - d.cdf(xs), atol=1e-15)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda d, x: d.cdf(x),
        lambda d, x: d.partial_expectation(x),
        lambda d, x: d.partial_expectation_left(x),
        lambda d, x: d.survival(x),
        lambda d, x: d.cdf_left(x),
        lambda d, x: d.mass_at(x),
        lambda d, x: d.tail_moment(x),
        lambda d, x: d.excess_mean(x),
        lambda d, x: kendall_points(d, [x]),
    ],
    ids=["cdf", "partial_expectation", "partial_expectation_left", "survival", "cdf_left",
         "mass_at", "tail_moment", "excess_mean", "kendall_points"],
)
@pytest.mark.parametrize("x", [math.nan, -1.0], ids=["nan", "negative"])
def test_pointwise_methods_reject_nan_and_negative_x(evaluate, x):
    # Only cdf raised on NaN: the others returned nan, and mass_at 0.0.
    d = mixture([(0.3, atom(1.0)), (0.7, exponential(1.0))])
    with pytest.raises(ValueError):
        evaluate(d, x)


@pytest.mark.parametrize("name", ["tail_moment", "excess_mean"])
@pytest.mark.parametrize("x", [math.nan, -1.0], ids=["nan", "negative"])
def test_tail_methods_reject_x_in_their_own_name(name, x):
    # tail_moment passed NaN through its own check and excess_mean had none:
    # both were rejected inside partial_expectation, in its name.
    d = mixture([(0.3, atom(1.0)), (0.7, exponential(1.0))])
    with pytest.raises(ValueError, match=f"^{name} is defined for x >= 0"):
        getattr(d, name)(x)


def test_support_hi_reads_the_largest_atom_from_the_pooled_block(monkeypatch):
    # Every single-atom part was asked for its support_hi, one at a time.
    rng = np.random.default_rng(5)
    parts = [(0.5, lognormal(0.0, 0.5)), (0.2, uniform(0.0, 3.0))]
    parts += [(0.3 / 200, atom(x)) for x in rng.uniform(0.0, 9.0, size=200)]
    d = mixture(parts)
    expected = [max(c.support_hi(eps) for _, c in d.parts) for eps in (0.0, 1e-16, 1e-3)]

    def refuse(self, eps):
        raise AssertionError("an atom part was walked")

    monkeypatch.setattr(Atoms, "support_hi", refuse)
    got = [d.support_hi(eps) for eps in (0.0, 1e-16, 1e-3)]
    assert got == expected and all(type(v) is float for v in got)


def test_a_law_without_atoms_reads_no_atom_block(monkeypatch):
    # Every pointwise evaluation of a law started from its pooled block's
    # values, zeros when the law has no atom, at one searchsorted a call.
    calls = []
    for name in ("cdf", "sf", "pe", "mass_at"):
        def counted(self, x, fn=getattr(measures._AtomBlock, name), name=name):
            calls.append(name)
            return fn(self, x)

        monkeypatch.setattr(measures._AtomBlock, name, counted)
    d1 = lognormal(0.0, 1.0)
    d2 = mixture([(0.5, uniform(0.0, 2.0)), (0.5, gamma_dist(2.0, 0.5))])
    index_report(d1)
    index_report(d2)
    w1_routes(d1, d2)
    w1_routes(d2, exponential(1.0))
    assert calls == []


@pytest.mark.parametrize("name, size", [("_P_CELL_GRID", 65), ("_PROBE_GRID", 1025)])
def test_grid_constants_are_their_linspace_and_read_only(name, size):
    grid, want = getattr(measures, name), np.linspace(0.0, 1.0, size)
    assert grid.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert not grid.flags.writeable


def test_a_law_without_atoms_builds_no_block_and_probes_each_density_once(monkeypatch):
    # Each such law built an empty block, and each atom mass summed every
    # density's zeros.
    built, probed = [], []
    of = measures._AtomBlock.of
    monkeypatch.setattr(measures._AtomBlock, "of", classmethod(lambda cls, *a, **k: built.append(a) or of(*a, **k)))
    for cls in (UniformDensity, measures.Exponential, measures.Gamma, measures.Lognormal):
        def counted(self, x, fn=cls.mass_at):
            probed.append(id(self))
            return fn(self, x)

        monkeypatch.setattr(cls, "mass_at", counted)
    d1 = lognormal(0.0, 1.0)
    d2 = mixture([(0.5, uniform(0.0, 2.0)), (0.5, gamma_dist(2.0, 0.5))])
    d3 = exponential(1.0)
    for d in (d1, d2, d3):
        index_report(d)
    w1_routes(d1, d2)
    w1_routes(d2, d3)
    w1_routes(d3, uniform(0.5, 1.5))
    assert built == []
    assert len(probed) == len(set(probed)) <= 5
    before = len(probed)
    assert d2.mass_at(np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    assert len(probed) == before


@pytest.mark.parametrize(
    "evaluate, limit",
    [
        (lambda d, x: d.cdf(x), lambda d: 1.0),
        (lambda d, x: d.cdf_left(x), lambda d: 1.0),
        (lambda d, x: d.survival(x), lambda d: 0.0),
        (lambda d, x: d.mass_at(x), lambda d: 0.0),
        (lambda d, x: d.partial_expectation(x), lambda d: d.mean),
        (lambda d, x: d.partial_expectation_left(x), lambda d: d.mean),
        (lambda d, x: d.tail_moment(x), lambda d: 0.0),
        (lambda d, x: d.excess_mean(x), lambda d: 0.0),
    ],
    ids=["cdf", "cdf_left", "survival", "mass_at", "partial_expectation",
         "partial_expectation_left", "tail_moment", "excess_mean"],
)
def test_pointwise_methods_return_their_limit_at_inf(evaluate, limit):
    # cdf raised at +inf while the others accepted it, and
    # partial_expectation_left and excess_mean returned inf * 0 = nan.
    d = mixture([(0.3, atom(1.0)), (0.7, exponential(1.0))])
    assert evaluate(d, math.inf) == pytest.approx(limit(d), rel=1e-15, abs=0.0)


def _table_rows(rng):
    """(grid, values) of a random table: 2 to 59 rows, about half of its
    cells flat, values scaled by 1e-6 to 1e6."""
    n = int(rng.integers(2, 60))
    steps = rng.uniform(0.1, 1.0, size=n)
    grid = np.concatenate([[0.0], np.cumsum(steps)[:-1]]) / steps.sum()
    rises = rng.exponential(size=n) * (rng.uniform(size=n) < 0.5)
    return grid, np.cumsum(rises) * 10.0 ** rng.uniform(-6.0, 6.0)


def _mean_families():
    """(name, seeded builder of its laws): the battery, discrete samples,
    mixtures of discrete parts, each kernel's estimates and linear tables."""
    def samples(rng):
        return [discrete(rng.lognormal(0.0, 1.0, size=int(rng.integers(2, 200)))) for _ in range(100)]

    def atom_mixtures(rng):
        def one():
            ws = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
            return mixture([(w, discrete(rng.lognormal(0.0, 1.0, size=int(rng.integers(2, 40))))) for w in ws])
        return [one() for _ in range(100)]

    def estimates(kernel):
        return lambda rng: [
            kde(rng.lognormal(0.0, 1.0, size=int(rng.integers(2, 100))), kernel, float(10.0 ** rng.uniform(-2.0, 0.0)))
            for _ in range(60)
        ]

    yield "battery", lambda rng: [d for _, d in standard_battery()]
    yield "discrete", samples
    yield "atom mixtures", atom_mixtures
    for kernel in ("uniform", "epanechnikov", "gaussian"):
        yield f"kde {kernel}", estimates(kernel)
    yield "linear tables", lambda rng: [quantile_table(*_table_rows(rng), "linear") for _ in range(300)]


@pytest.mark.parametrize("build", [b for _, b in _mean_families()], ids=[n for n, _ in _mean_families()])
def test_partial_expectation_at_inf_is_the_mean_bit_for_bit(build):
    # The mean summed other terms than pe: atoms in input order, not the
    # block's running sum, a kernel estimate's per-point means by np.mean,
    # and a linear table by dot products over its slabs and atoms. pe(inf)
    # missed it on 70 of these 100 discrete samples and 211 of 300 tables,
    # and tail_moment and excess_mean at the support's end left a residue,
    # also where a compact kernel's rounded support end fell short of the
    # last point's window.
    for d in build(np.random.default_rng(1)):
        assert d.partial_expectation(math.inf) == d.mean
        top = d.sup_support()
        if math.isfinite(top):
            assert d.tail_moment(top) == d.excess_mean(top) == 0.0


# ---------------------------------------------------------------------------
# pooled atoms against the per-part sums
# ---------------------------------------------------------------------------


def _pooled_cases():
    rng = np.random.default_rng(11)
    linear = quantile_table([0.0, 0.3, 0.6, 0.9], [0.0, 1.0, 1.0, 3.0], mode="linear")
    step = quantile_table([0.0, 0.25, 0.5], [0.5, 1.0, 2.0])
    smooth = kde(rng.lognormal(0.0, 0.5, size=30), "gaussian", 0.2)
    rich = mixture([(0.4, exponential(1.0)), (0.6, discrete(rng.lognormal(0.0, 0.8, size=200)))])
    return {
        "density+200 atoms": rich,
        "shared, zero and endpoint atoms": mixture(
            [(0.2, atom(0.0)), (0.2, atom(1.0)), (0.2, discrete([1.0, 2.0])),
             (0.4, uniform(0.0, 2.0))]
        ),
        "step and linear tables": mixture(
            [(0.3, step), (0.3, linear), (0.4, discrete([1.0, 3.0, 4.0]))]
        ),
        "kde+atoms": mixture([(0.5, smooth), (0.5, discrete([0.0, 0.7, 1.0, 2.5]))]),
        "far atom": mixture([(1.0 - 1e-12, rich), (1e-12, atom(1e12))]),
    }


_POOLED = _pooled_cases()


def _per_part(d, x):
    """Each evaluation summed part by part, with the magnitude it sums."""
    c = [w * np.asarray(comp.cdf(x), dtype=float) for w, comp in d.parts]
    m = [w * np.asarray(comp.mass_at(x), dtype=float) for w, comp in d.parts]
    pe = [w * np.asarray(comp.pe(x), dtype=float) for w, comp in d.parts]

    def size(terms):
        return sum(np.abs(t) for t in terms)

    return {
        "cdf": (sum(c), size(c)),
        "cdf_left": (np.maximum(sum(ci - mi for ci, mi in zip(c, m)), 0.0), size(c) + size(m)),
        "mass_at": (sum(m), size(m)),
        "pe": (sum(pe), size(pe)),
        "pe_left": (
            np.maximum(sum(pi - x * mi for pi, mi in zip(pe, m)), 0.0),
            size(pe) + x * size(m),
        ),
    }


@pytest.mark.parametrize("name", list(_POOLED))
def test_pooled_atoms_match_per_part_sums(name):
    d = _POOLED[name]
    locs = np.concatenate([comp.locations for _, comp in d.parts if isinstance(comp, Atoms)])
    rng = np.random.default_rng(5)
    x = np.sort(np.concatenate([[0.0], locs, rng.uniform(0.0, 1.2 * d.support_hi(1e-6), 500)]))
    got = {
        "cdf": d.cdf(x),
        "cdf_left": d.cdf_left(x),
        "mass_at": d.mass_at(x),
        "pe": d.partial_expectation(x),
        "pe_left": d.partial_expectation_left(x),
    }
    # Pooling sums the atoms in location order instead of part order. Both
    # are running sums, whose rounding errors grow like sqrt(terms) ulps of
    # the magnitude summed; each atom of a block is a term, any other part one.
    terms = sum(comp.masses.size if isinstance(comp, Atoms) else 1 for _, comp in d.parts)
    rel = 2.0 * math.sqrt(terms) * np.finfo(float).eps
    for k, (ref, mag) in _per_part(d, x).items():
        assert np.all(np.abs(got[k] - ref) <= rel * mag), (name, k)
    assert np.all(np.diff(got["cdf"]) >= 0.0), name


def test_atom_rich_mixture_never_evaluates_atom_parts(monkeypatch):
    # Evaluations take the pooled block; a loop over 200 single-atom parts,
    # or over the block's own methods, would evaluate the atoms thousands of
    # times per index report.
    calls = []
    for meth in ("cdf", "sf", "pe", "mass_at"):

        def counted(self, x, original=getattr(Atoms, meth)):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(Atoms, meth, counted)
    rng = np.random.default_rng(3)
    d = mixture([(0.5, exponential(1.0)), (0.5, discrete(rng.lognormal(0.0, 0.8, size=200)))])
    index_report(d)
    w1_routes(d, uniform(0.0, 2.0))
    assert not calls


class _PlugIn:
    """A plug-in component: the nine members of the component protocol,
    each read from a uniform density, and nothing else."""

    def __init__(self, density):
        self.density = density

    def mean(self):
        return self.density.mean()

    def cdf(self, x):
        return self.density.cdf(x)

    def sf(self, x):
        return self.density.sf(x)

    def pe(self, x):
        return self.density.pe(x)

    def mass_at(self, x):
        return self.density.mass_at(x)

    def quantile(self, p):
        return self.density.quantile(p)

    def x_breaks(self):
        return self.density.x_breaks()

    def support_hi(self, eps):
        return self.density.support_hi(eps)

    def rescaled(self, alpha):
        return _PlugIn(self.density.rescaled(alpha))


def test_plug_in_part_needs_no_atoms_hook():
    # Every part had to answer atoms(), so a plug-in part without it raised
    # AttributeError as soon as its law pooled its atoms. A law pools its
    # `Atoms` parts by type and evaluates every other part as it is.
    atoms = discrete([0.0, 0.5, 1.0, 3.0], [0.1, 0.2, 0.3, 0.4])
    plugged = mixture([(0.6, Distribution(((1.0, _PlugIn(UniformDensity(0.5, 2.5))),))), (0.4, atoms)])
    built = mixture([(0.6, uniform(0.5, 2.5)), (0.4, atoms)])

    def values(d):
        report = index_report(d)
        w1 = [w1_routes(d, other) for other in (exponential(1.0), discrete([1.0, 2.0]), built)]
        return np.array([getattr(report, f) for f in report.__dataclass_fields__] + np.ravel(w1).tolist())

    assert values(plugged).tobytes() == values(built).tobytes()


def _pooled_from_rows(parts, whole):
    """The pooled block as a law built it when each atomic part listed its
    (location, mass) rows from an ``atoms()`` hook, a step table's as its
    values and the masses diff(grid) and 1 - grid[-1]: the rows of the
    (weight, locations, masses) `parts` stacked in part order, each mass
    times its weight. Kept as the reference."""
    rows = [np.empty((0, 2))] + [np.column_stack([loc, m]) * (1.0, w) for w, loc, m in parts]
    locs, masses = np.concatenate(rows).T
    return measures._AtomBlock.of(locs, masses, whole=whole)


def test_step_quantile_table_is_the_atoms_part_of_its_rows():
    # A step table was a component of its own beside `Atoms`; it is now the
    # `Atoms` part of its rows, and a law pools the block it pooled before.
    rng = np.random.default_rng(8)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size=300))])
    values = np.cumsum(rng.exponential(size=301) * (rng.uniform(size=301) < 0.7))
    masses = np.append(np.diff(grid), 1.0 - grid[-1])
    step = quantile_table(grid, values)
    assert step == discrete(values, masses)
    few = discrete([0.0, 1.0, 40.0])
    rich = mixture([(0.3, exponential(1.0)), (0.5, step), (0.2, few)])
    few_rows = (0.2, few.parts[0][1].locations, few.parts[0][1].masses)
    for d, parts in ((step, [(1.0, values, masses)]), (rich, [(0.5, values, masses), few_rows])):
        got, ref = d._atomic[0], _pooled_from_rows(parts, whole=d.is_finite_discrete)
        for name in ("loc", "mass", "cum", "cum_xm", "tail"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    # a reconstruct is a step table: one `Atoms` part, an atom per grid cell
    g = np.linspace(0.0, 1.0, 4097)
    (w, part), = reconstruct(lambda p: p * p, 1.0, g).parts
    assert w == 1.0 and type(part) is Atoms
    assert part.masses.tobytes() == np.append(np.diff(g[:-1]), 1.0 - g[-2]).tobytes()


def test_quantile_table_holds_read_only_arrays_equal_by_value():
    # The table held float tuples; it now holds arrays whatever came in.
    grid, values = [0.0, 0.25, 0.5], [0.5, 1.0, 2.0]
    tables = [QuantileTable(f(grid), f(values)) for f in (list, tuple, np.array)]
    tables.append(QuantileTable(np.array([0, 0.25, 0.5]), np.array([0.5, 1, 2])))
    for t in tables:
        for arr in (t.grid, t.values):
            assert isinstance(arr, np.ndarray) and arr.dtype == float
            assert not arr.flags.writeable
        assert t == tables[0] and hash(t) == hash(tables[0])
    assert QuantileTable(grid, [0.0, 1.0, 2.0]) == QuantileTable(grid, [-0.0, 1.0, 2.0])
    assert tables[0] != QuantileTable(grid, [0.5, 1.0, 2.5])
    assert quantile_table(grid, values, "linear") == Distribution(((1.0, tables[0]),))
    assert quantile_table(grid, values, "linear") != quantile_table(grid, values, "step")
    assert tables[0].rescaled(2.0) == QuantileTable(grid, [1.0, 2.0, 4.0])


def _pieces_loop(table):
    """The slabs and atoms of a linear table, one cell at a time: a slab
    where the values rise and an atom where they stay flat, after the atom
    at the last value. Kept as the reference the dense form reads."""
    g, v = np.asarray(table.grid), np.asarray(table.values)
    w = np.append(np.diff(g), 1.0 - g[-1])
    slab_lo, slab_hi, slab_w = [], [], []
    atom_loc, atom_w = [v[-1]], [1.0 - g[-1]]
    for i in range(len(g) - 1):
        if v[i + 1] > v[i]:
            slab_lo.append(v[i])
            slab_hi.append(v[i + 1])
            slab_w.append(w[i])
        else:
            atom_loc.append(v[i])
            atom_w.append(w[i])
    return tuple(np.asarray(a) for a in (slab_lo, slab_hi, slab_w, atom_loc, atom_w))


def _flat_run_tables():
    yield [0.0, 0.3, 0.6, 0.9], [0.0, 1.0, 1.0, 3.0]
    yield [0.0], [2.0]
    yield [0.0, 0.5], [1.0, 1.0]
    yield [0.0, 0.1, 0.2, 0.7], [0.0, 0.0, 0.0, 4.0]
    # a flat run of width 1e-12, an atom of that mass, right after a wide cell
    yield [0.0, 0.9, 0.9 + 1e-12, 0.95], [0.0, 2.0, 2.0, 5.0]
    for seed in range(6):
        yield _table_rows(np.random.default_rng(seed))


def _pointwise_dense(table, x):
    """(cdf, sf, mass_at) of a table as it evaluated them before it searched
    sorted pieces: points-by-pieces matrices, every slab and atom at every
    point, kept as the reference."""
    slab_lo, slab_hi, slab_w, atom_loc, atom_w = _pieces_loop(table)
    col = x[:, None]
    cdf, sf = (col >= atom_loc) @ atom_w, (col < atom_loc) @ atom_w
    mass = (col == atom_loc) @ atom_w
    if slab_lo.size:
        xc, width = np.clip(col, slab_lo, slab_hi), slab_hi - slab_lo
        cdf = cdf + ((xc - slab_lo) / width) @ slab_w
        sf = sf + ((slab_hi - xc) / width) @ slab_w
    return np.minimum(cdf, 1.0), np.minimum(sf, 1.0), mass


def _exact_table_pe(table, x: float) -> Fraction:
    """The partial expectation of a linear table at x, summed exactly over
    its cells that start at or below x: w (xc^2 - lo^2) / (2 (hi - lo)) on
    one that rises, with xc = min(x, hi), and w lo on a flat one."""
    g = [Fraction(p) for p in table.grid] + [Fraction(1)]
    v = [Fraction(q) for q in table.values]
    v.append(v[-1])
    x, total = Fraction(x), Fraction(0)
    for i in range(len(g) - 1):
        w, lo, hi = g[i + 1] - g[i], v[i], v[i + 1]
        if x < lo:
            break
        if hi > lo:
            xc = min(x, hi)
            total += w * (xc * xc - lo * lo) / (2 * (hi - lo))
        else:
            total += w * lo
    return total


#: relative bound on a table's cdf, sf and mass_at against the dense form:
#: both add the same nonnegative terms, in another order, over at most 60
#: pieces
TABLE_REL_TOL = 16 * np.finfo(float).eps
#: relative bound on a table's pe against its exact value
TABLE_PE_REL_TOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("grid, values", list(_flat_run_tables()))
def test_table_pointwise_values_match_the_dense_form(grid, values):
    # The pe of the dense form, (xc^2 - lo^2) / (2 (hi - lo)) w, cancels
    # just above a slab's start, where it was up to 0.32 relative off; pe
    # reads (x - lo) there, so it is held to the exact sum.
    table = QuantileTable(grid, values)
    v = table.values
    up = np.nextafter(v, np.inf)
    x = np.concatenate([[0.0, np.inf], v, np.nextafter(v, 0.0), up, np.nextafter(up, np.inf),
                        np.linspace(0.0, 1.1 * v[-1], 301)])
    got = (table.cdf(x), table.sf(x), table.mass_at(x))
    for name, a, b in zip(("cdf", "sf", "mass_at"), got, _pointwise_dense(table, x)):
        assert np.all(np.abs(a - b) <= TABLE_REL_TOL * np.abs(b)), name
    # the exact pe at x = 5e-324 on a table from 0 lies below the smallest
    # subnormal, so 0 is as near as a float gets: one such unit is allowed
    floor = Fraction(np.nextafter(0.0, 1.0))
    for xi, pe in zip(x.tolist(), table.pe(x).tolist()):
        if math.isinf(xi):
            assert pe == table.mean(), "pe(inf)"
            continue
        exact = _exact_table_pe(table, xi)
        assert abs(Fraction(pe) - exact) <= Fraction(TABLE_PE_REL_TOL) * exact + floor, ("pe", xi)
    assert table.cdf(v[-1]) == 1.0 and table.sf(v[-1]) == 0.0


def _cells_loop(table):
    """The rows of `QuantileTable._cells`, one k at a time: nothing at
    k = 0, cell k - 1 for 0 < k < n, everything at k = n, with the cells'
    integrals of Q summed in a running float."""
    g, v = table.grid.tolist() + [1.0], table.values.tolist()
    n = len(v)
    first = [v.index(q) for q in v]
    rows, total = [(v[0], v[0], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)], 0.0
    for c in range(n - 1):
        lo, hi = v[c], v[c + 1]
        rows.append((lo, hi, hi - lo if hi > lo else 1.0, g[c + 1] - g[c], g[c], 1.0 - g[c + 1], total,
                     g[c] - g[first[c]]))
        total += (g[c + 1] - g[c]) * (0.5 * (lo + hi))
    total += (g[n] - g[n - 1]) * (0.5 * (v[-1] + v[-1]))
    rows.append((v[-1], v[-1], 1.0, 0.0, 1.0, 0.0, total, 1.0 - g[first[-1]]))
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("grid, values", list(_flat_run_tables()))
def test_linear_table_cells_match_the_loop_bit_for_bit(grid, values):
    table = QuantileTable(grid, values)
    for got, ref in zip(table._cells, _cells_loop(table), strict=True):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert table._cells[6][-1] == table.mean()


def test_linear_table_pointwise_memory_does_not_grow_with_points_times_pieces():
    # The dense form held a 4,000 x 4,096 matrix per method (131 MB), and
    # index_report of this table took 5 s.
    import tracemalloc

    grid = np.arange(4096) / 4096
    table = QuantileTable(grid, lognormal(0.0, 1.0).quantile(grid))
    table.cdf(np.zeros(1))
    x = np.linspace(0.0, 2.0 * table.values[-1], 4_000)
    tracemalloc.start()
    try:
        for method in (table.cdf, table.sf, table.mass_at, table.pe):
            method(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _atoms_dense(block, x, p):
    """(cdf, sf, mass_at, pe, quantile) of an `Atoms` block as it evaluated
    them before it read a sorted, merged block: points-by-atoms matrices,
    and running sums of the masses sorted but not merged, kept as the
    reference."""
    loc, m = block.locations, block.masses
    col = x[:, None]
    order = np.argsort(loc, kind="stable")
    cum = np.cumsum(m[order])
    return (
        np.minimum((col >= loc) @ m, 1.0),
        np.minimum((col < loc) @ m, 1.0),
        (col == loc) @ m,
        (col >= loc) @ (m * loc),
        loc[order][np.minimum(np.searchsorted(cum, p, side="left"), cum.size - 1)],
    )


def _atom_blocks():
    yield [2.5], [1.0]
    yield [0.0], [1.0]
    yield [1.0, 1.0, 1.0], [0.2, 0.3, 0.5]
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(2, 400))
        # drawn from a pool a third as large, so locations tie
        yield rng.choice(rng.lognormal(0.0, 1.0, size=n // 3 + 1), size=n), rng.dirichlet(np.ones(n))
    far = np.full(51, (1.0 - 1e-9) / 50)
    far[-1] = 1e-9
    yield np.append(rng.uniform(0.0, 2.0, size=50), 1e9), far
    yield np.round(rng.lognormal(0.0, 1.0, size=4096), 2), rng.dirichlet(np.ones(4096))
    # step quantile tables, whose flat runs are tied locations
    for grid, values in _flat_run_tables():
        block = quantile_table(grid, values).parts[0][1]
        yield block.locations, block.masses


@pytest.mark.parametrize("locations, masses", list(_atom_blocks()))
def test_atoms_values_match_the_dense_form(locations, masses):
    # Each side sums the same nonnegative masses in its own order, so each
    # is within (n - 1) u of the exact sum, relative to it (Higham, Accuracy
    # and Stability of Numerical Algorithms, section 4.2), and the two are
    # within 2 (n - 1) u = (n - 1) eps. The block sets its total mass to 1,
    # off the exact sum by |1 - fsum(masses)|.
    block = Atoms(locations, masses)
    n, v = block.masses.size, np.unique(block.locations)
    x = np.concatenate([[0.0, np.inf], v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), np.linspace(0.0, 1.1 * v[-1], 301)])
    p = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1], 1.0 - 2.0 ** -np.arange(11.0, 54.0)])
    p = np.concatenate([p, np.cumsum(block.masses), np.nextafter(np.cumsum(block.masses), 0.0)])
    p = np.unique(p[(p > 0.0) & (p < 1.0)])
    tol = (n - 1) * np.finfo(float).eps
    total = abs(1.0 - math.fsum(block.masses.tolist()))
    ref = _atoms_dense(block, x, p)
    got = (block.cdf(x), block.sf(x), block.mass_at(x), block.pe(x))
    for name, a, b in zip(("cdf", "sf", "mass_at", "pe"), got, ref):
        assert np.all(np.abs(a - b) <= tol * np.abs(b) + (total if name in ("cdf", "sf") else 0.0)), name
    # the quantile is a location: equal wherever p is clear of every
    # running sum by the bound, and an exact Galois pair with the cdf
    q = block.quantile(p)
    edges = np.cumsum(block.masses[np.argsort(block.locations, kind="stable")])
    at = np.searchsorted(edges, p)
    gap = np.minimum(np.abs(p - edges[np.minimum(at, n - 1)]), np.abs(p - edges[np.maximum(at - 1, 0)]))
    clear = gap > tol + total
    assert np.array_equal(q[clear], ref[4][clear])
    assert np.all(block.cdf(q) >= p) and np.all((q == 0.0) | (block.cdf(np.nextafter(q, 0.0)) < p))
    assert np.all(np.diff(q) >= 0.0)
    # a law reads its pooled block, never its one part's own mean() and
    # x_breaks(); those equal the law's values bit for bit
    d = discrete(locations, masses)
    assert block.mean() == d.mean
    assert np.asarray(block.x_breaks()).tobytes() == np.asarray(d.x_breakpoints()).tobytes()


def test_atoms_pointwise_memory_does_not_grow_with_points_times_atoms():
    # The dense form held a 4,000 x 4,096 matrix per method (140.7 MB for
    # the four), and at 8,000 x 8,000 points and atoms cdf alone 549 MB.
    import tracemalloc

    rng = np.random.default_rng(4)
    block = Atoms(rng.lognormal(0.0, 1.0, size=4096), rng.dirichlet(np.ones(4096)))
    block.cdf(np.zeros(1))
    x = np.linspace(0.0, 1.1 * block.locations.max(), 4_000)
    tracemalloc.start()
    try:
        for method in (block.cdf, block.sf, block.mass_at, block.pe):
            method(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# quantile conventions
# ---------------------------------------------------------------------------


def test_quantile_at_zero_is_zero():
    # Q(0) = min{q >= 0 : F(q) >= 0} = 0 even when the support starts higher.
    assert uniform(2.0, 4.0).quantile(0.0) == 0.0
    assert atom(5.0).quantile(0.0) == 0.0


def test_quantile_rejects_one():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        exponential(1.0).quantile(1.0)
    with pytest.raises(ValueError):
        exponential(1.0).quantile(-0.01)


def test_quantile_min_convention_on_atoms():
    d = discrete([0.0, 1.0])
    # F(0) = 0.5 >= 0.5, so the smallest admissible point at p = 0.5 is 0.
    assert d.quantile(0.5) == 0.0
    assert d.quantile(0.5000001) == 1.0


def test_quantile_nondecreasing_and_left_continuous():
    d = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    ps = np.linspace(0.0, 0.999, 400)
    qs = np.asarray(d.quantile(ps))
    assert np.all(np.diff(qs) >= -1e-15)
    # left continuity at the jump p = 0.75: values from below approach Q(0.75)
    below = np.asarray(d.quantile(np.array([0.75 - 1e-9, 0.75])))
    assert abs(below[1] - below[0]) < 1e-6


def _galois_battery():
    """Mixtures of parts whose quantiles must meet the Galois pair exactly."""
    nested = mixture(
        [(0.3, lognormal(0.0, 1.0)), (0.3, exponential(1.0)), (0.4, discrete([0.5, 1.0, 1.5, 3.0]))]
    )
    return [
        ("atoms at 0 and 2, gamma", mixture([(0.4, discrete([0.0, 2.0])), (0.6, gamma_dist(3.0, 0.5))])),
        ("atoms at 0 and inside", mixture([(0.2, atom(0.0)), (0.2, atom(0.5)), (0.6, uniform(0.0, 1.0))])),
        ("plateau", mixture([(0.5, uniform(0.0, 1.0)), (0.5, uniform(2.0, 3.0))])),
        ("gamma(0.3,1) mixed", mixture([(0.5, gamma_dist(0.3, 1.0)), (0.3, lognormal(0.0, 1.0)), (0.2, atom(1.0))])),
        ("far atom", mixture([(1.0 - 1e-12, exponential(1.0)), (1e-12, atom(1e12))])),
        ("nested x1e-12", nested.rescaled(1e-12)),
        ("nested x1e12", nested.rescaled(1e12)),
        ("lognormal(0,4) mixed", mixture([(0.5, lognormal(0.0, 4.0)), (0.5, exponential(2.0))])),
        ("non-monotone table", _dented_table_law()),
    ]


def _dented_table_law():
    """A plain mixture whose computed F and -sf fall by an ulp between some
    knots of its candidate table."""
    return mixture([(0.5, lognormal(0.0, 0.5)), (0.5, uniform(0.5, 1.5))])


def _galois_probabilities(d):
    """The 257-level ladder, the tail levels, and F(a-) and F(a) of every
    atom a with their neighbouring floats, up to the law's float total."""
    xb = d.x_breakpoints()
    xa = xb[np.asarray(d.mass_at(xb)) > 0.0]
    jumps = np.concatenate([np.asarray(d.cdf_left(xa)), np.asarray(d.cdf(xa))])
    ps = np.concatenate(
        [np.linspace(0.0, 1.0, 257), TAIL_LEVELS, jumps, np.nextafter(jumps, 0.0), np.nextafter(jumps, 1.0)]
    )
    return np.unique(ps[(ps >= 0.0) & (ps < 1.0) & (ps <= d.cdf(d.support_hi(1e-300)))])


def test_galois_spot_checks():
    for name, d in _galois_battery():
        _assert_galois_pair(d, _galois_probabilities(d), name)
    plateau = dict(_galois_battery())["plateau"]
    assert plateau.quantile(0.5) == 1.0


@pytest.mark.parametrize("name,d", _galois_battery(), ids=[n for n, _ in _galois_battery()])
def test_bracketed_quantile_within_tolerance_on_mixtures(name, d):
    hi = d.support_hi(1e-13)
    ps = _galois_probabilities(d)
    ps = ps[(ps > 0.0) & (ps <= d.cdf(hi))]
    exact = np.asarray(d.quantile(ps))
    tol = 1e-10 * d.mean
    q = _q_within(d, ps, tol)
    assert np.all(q >= exact)
    assert np.all(q <= exact + tol)


def test_bracketed_quantile_over_the_half_line_is_the_quantile():
    # The W1 route and the quantile memo invert through one method, from
    # the knot table: at tolerance 0 W1's quantile is Q itself, bit for bit.
    sample = np.random.default_rng(3).lognormal(0.0, 0.5, size=200)
    laws = [d for _, d in standard_battery() if d._memoized] + [kde(sample, "gaussian", 0.03)]
    assert len(laws) > 1 and all(d._memoized for d in laws)
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], TAIL_LEVELS]))
    for d in laws:
        q = _q_within(Distribution(d.parts), ps, 0.0)
        assert q.tobytes() == Distribution(d.parts).quantile(ps).tobytes()


def test_mixture_keeps_the_monotone_knots_of_its_table(monkeypatch):
    # The computed F and -sf of this law are not monotone at the ulp level
    # across its candidate knots. Dropping the whole table bracketed every
    # p by [0, hi] and bisected it: a cold quantile of the 287 interior
    # probabilities below made 62 level calls of 16,665 points. The table
    # keeps the knots where both columns equal their running maximum.
    x, f, g, h = _dented_table_law()._knot_values
    assert x[0] == 0.0 and np.all(np.diff(x) > 0.0)
    assert np.all(np.diff(f) >= 0.0) and np.all(np.diff(g) >= 0.0)
    assert f[h] >= 0.5
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), TAIL_LEVELS]))
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    level, calls = Distribution._level_arr, [0]

    def counted(self, t, y):
        calls[0] += 1
        return level(self, t, y)

    monkeypatch.setattr(Distribution, "_level_arr", counted)
    q = _assert_galois_pair(_dented_table_law(), ps)
    assert ps.size == 287 and calls[0] <= 25
    assert [_dented_table_law().quantile(p) for p in ps] == list(q)


def _nested_budget_laws():
    return [
        mixture([(0.3, lognormal(0.0, 1.0)), (0.2, gamma_dist(2.0, 0.5)),
                 (0.5, mixture([(0.5, exponential(1.0)), (0.5, discrete([0.5, 1.5, 4.0]))]))]),
        mixture([(0.4, uniform(0.0, 2.0)), (0.35, lognormal(0.5, 0.8)), (0.25, discrete([0.0, 1.0, 3.0]))]),
        mixture([(0.6, gamma_dist(0.7, 2.0)), (0.4, mixture([(0.5, uniform(1.0, 3.0)), (0.5, atom(2.0))]))]),
    ]


def _count_inversions(monkeypatch):
    """Count `_bisect_quantile` calls and the cdf and sf rounds made inside them."""
    invert = Distribution._bisect_quantile
    counts = {"calls": 0, "rounds": 0, "inside": False}

    def counted(evaluate):
        def wrapper(self, x):
            counts["rounds"] += counts["inside"]
            return evaluate(self, x)

        return wrapper

    def counted_invert(self, p, **kwargs):
        counts["calls"] += 1
        counts["inside"] = True
        try:
            return invert(self, p, **kwargs)
        finally:
            counts["inside"] = False

    for name in ("_cdf_arr", "_sf_arr"):
        monkeypatch.setattr(Distribution, name, counted(getattr(Distribution, name)))
    monkeypatch.setattr(Distribution, "_bisect_quantile", counted_invert)
    return counts


def test_mixture_inversion_round_budget(monkeypatch):
    # Bisection from [0, hi] made about 64 cdf rounds per inversion here.
    counts = _count_inversions(monkeypatch)
    for d in _nested_budget_laws():
        index_report(d)
    assert counts["calls"] > 0
    assert counts["rounds"] <= 40 * counts["calls"]


@pytest.mark.parametrize("i", range(3))
def test_integral_lorenz_inversion_budget(monkeypatch, i):
    # Split at the quantile's breakpoints only, quadrature crept up on p = 1
    # in 9 to 11 curve calls of 243 to 301 cdf rounds, each Lorenz value's
    # quantile finished to the float.
    d = _nested_budget_laws()[i]
    counts = _count_inversions(monkeypatch)
    integral_lorenz(lorenz(d))
    assert 0 < counts["calls"] <= 3
    assert counts["rounds"] <= 60


def _creep_laws():
    return [
        mixture([(0.9, exponential(0.5)), (0.1, atom(20.0))]),
        mixture([(0.7, gamma_dist(3.0, 1.0)), (0.3, atom(1.0))]),
        mixture([(0.4756, gamma_dist(4.794, 9.707)), (0.1593, atom(2.605)), (0.3651, atom(0.4037))]),
        mixture([(0.5, gamma_dist(2.0, 1.0)), (0.5, uniform(1.0, 2.0))]),
    ]


@pytest.mark.parametrize("route, budget", [("lorenz", 3), ("mean_difference", 4)])
@pytest.mark.parametrize("i", range(4))
def test_p_space_integral_inversion_budget(monkeypatch, route, budget, i):
    # Panels halved once per round crept up on Q's singularity at p = 0
    # (Q ~ p^(1/k) for a gamma part) and on the log-like run below a far
    # atom, one full inversion per round: 5 to 8 calls per Lorenz area and
    # 6 to 8 per mean difference.
    d = _creep_laws()[i]
    invert, calls = measures._invert, []

    def counted(*args):
        calls.append(1)
        return invert(*args)

    monkeypatch.setattr(measures, "_invert", counted)
    if route == "lorenz":
        integral_lorenz(lorenz(d))
    else:
        gini_mean_difference(d)
    assert 0 < len(calls) <= budget


@pytest.mark.parametrize("i", range(7))
def test_index_report_inverts_each_p_once(monkeypatch, i):
    # Each route inverted its own p afresh: a cold index_report passed 3,455
    # to 3,935 rows to the inversion, and the Lorenz area after the mean
    # difference 780 to 1,050, most of them p the diagonal had inverted.
    d = (_nested_budget_laws() + _creep_laws())[i]
    invert, rows = Distribution._bisect_quantile, [0]

    def counted(self, p, **kwargs):
        rows[0] += np.size(p)
        return invert(self, p, **kwargs)

    monkeypatch.setattr(Distribution, "_bisect_quantile", counted)
    index_report(d)
    assert 0 < rows[0] <= 3000
    d = Distribution(d.parts)
    gini_mean_difference(d)
    rows[0] = 0
    gini_lorenz(d)
    assert rows[0] <= 30


@pytest.mark.parametrize("i", range(7))
def test_index_report_inverts_in_one_batch(monkeypatch, i):
    # Each route inverted the p its first round read in a call of its own:
    # a cold index_report made 5 to 7 `_invert` calls, each a full run of
    # inversion rounds, where one batch of all those p now leaves 1 to 3.
    d = Distribution((_nested_budget_laws() + _creep_laws())[i].parts)
    invert, calls = measures._invert, []

    def counted(*args):
        calls.append(1)
        return invert(*args)

    monkeypatch.setattr(measures, "_invert", counted)
    index_report(d)
    assert 0 < len(calls) <= 3


def test_rescale_homogeneity():
    d = mixture([(0.5, discrete([1.0, 3.0])), (0.5, exponential(1.0))])
    s = d.rescaled(2.5)
    ps = np.array([0.1, 0.37, 0.62, 0.9])
    np.testing.assert_allclose(
        s.quantile(ps), 2.5 * np.asarray(d.quantile(ps)), rtol=1e-10
    )
    assert s.mean == pytest.approx(2.5 * d.mean, rel=1e-12)


@pytest.mark.parametrize(
    "tail", [uniform(1.0, 2.0), exponential(1.0)], ids=["bounded", "unbounded"]
)
def test_quantile_above_float_weight_total_terminates(tail, deadline):
    # The flattened weights sum just below 1, so the cdf never reaches p.
    d = mixture([(0.3, uniform(0.0, 1.0)), (0.7 - 5e-13, tail)])
    with deadline(20):
        q = d.quantile(1.0 - 1e-14)
    assert math.isfinite(q)
    assert d.cdf(q) == d.cdf(1e300)
    assert q >= d.quantile(0.999)
    if tail.sup_support() == 2.0:
        assert q == 2.0


_KDE_POINTS = [0.2, 0.5, 1.5]


@pytest.mark.parametrize(
    "d,end",
    [
        (atom(2.0), 2.0),
        (uniform(0.5, 3.0), 3.0),
        (exponential(2.0), math.inf),
        (gamma_dist(2.0, 0.5), math.inf),
        (lognormal(0.0, 1.0), math.inf),
        (quantile_table([0.0, 0.5], [1.0, 4.0]), 4.0),
        (quantile_table([0.0, 0.3, 0.6], [0.0, 1.0, 3.0], mode="linear"), 3.0),
        (kde(_KDE_POINTS, "uniform", 0.25), 1.75),
        (kde(_KDE_POINTS, "epanechnikov", 0.25), 1.75),
        (kde(_KDE_POINTS, "gaussian", 0.25), math.inf),
    ],
    ids=["atom", "uniform", "exponential", "gamma", "lognormal", "step_table",
         "linear_table", "kde_uniform", "kde_epanechnikov", "kde_gaussian"],
)
def test_support_end_per_component_type(d, end):
    # support_hi at eps = 0 is the supremum of the support, and the Lorenz
    # curve's slope at p = 1 is that end over the mean
    assert d.support_hi(0.0) == end
    assert d.sup_support() == end
    assert lorenz(d).left_derivative(1.0) * d.mean == pytest.approx(end, rel=1e-15)


def test_mean_routes_agree(battery):
    for name, d in battery:
        direct, via_quantile = d.mean_routes()
        tol = 1e-8 if d.is_finite_discrete else 1e-6
        assert abs(direct - via_quantile) < tol, name
        assert abs(direct - d.mean) < tol, name


@pytest.mark.parametrize("sigma", [2.5, 3.0, 3.5, 4.0, 5.0])
def test_mean_quantile_route_keeps_the_tail(sigma):
    # Q on [P_TAIL, 1] carries 2e-2 of the mean at sigma = 5; the route
    # adds it as E[(X - q)^+] + q (1 - P_TAIL), q = Q(P_TAIL).
    d = lognormal(0.0, sigma)
    assert d.mean_routes()[1] == pytest.approx(d.mean, rel=1e-9)


# ---------------------------------------------------------------------------
# stochastic order and sampling
# ---------------------------------------------------------------------------


def test_fsd_on_atoms():
    assert fsd_dominates(atom(2.0), atom(1.0))
    assert not fsd_dominates(atom(1.0), atom(2.0))


def test_fsd_source_dominates_its_quantile_table():
    u = uniform(0.0, 1.0)
    assert fsd_dominates(u, quantile_approx(u, 4))


# lognormal(0,1.5) keeps most of its mass below the first step of a uniform
# abscissa grid over its support, which the cdf route must still resolve.
_BATTERY = standard_battery() + [("lognormal(0,1.5)", lognormal(0.0, 1.5))]


@pytest.mark.parametrize(
    "i, j",
    [(i, j) for i in range(len(_BATTERY)) for j in range(len(_BATTERY)) if i != j],
    ids=lambda k: _BATTERY[k][0],
)
def test_fsd_routes_agree_over_battery_pairs(i, j):
    # Each route must probe wherever the other one can find a violation.
    assert isinstance(fsd_dominates(_BATTERY[i][1], _BATTERY[j][1]), bool)


def test_fsd_reflexive():
    d = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    assert fsd_dominates(d, d)


def test_sample_of_atom_is_constant():
    assert list(atom(3.0).sample(12345, 5)) == [3.0] * 5


def test_sample_size_must_be_a_whole_number():
    # sample(1, 2.0) and sample(1, 2.5) failed inside numpy with TypeErrors.
    d = mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))])
    np.testing.assert_array_equal(d.sample(1, 2.0), d.sample(1, 2))
    assert d.sample(1, 2.0).shape == (2,)
    for n in (2.5, math.nan, "2", 0, -3):
        with pytest.raises(ValueError, match="^sample size must be "):
            d.sample(1, n)


def test_sample_determinism():
    d = mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))])
    a = d.sample(99, 1000)
    b = d.sample(99, 1000)
    c = d.sample(100, 1000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_mean_law_of_large_numbers():
    xs = uniform(0.0, 1.0).sample(7, 100_000)
    assert abs(xs.mean() - 0.5) < 0.01


def test_glivenko_cantelli_round_trip():
    d = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    xs = np.sort(d.sample(31, 100_000))
    n = xs.size
    # Kolmogorov distance of the empirical cdf to the source. Ties matter
    # here (half the draws sit exactly on the atom), so the empirical cdf
    # is evaluated by rank counts at the unique values, from both sides.
    ux = np.unique(xs)
    emp_hi = np.searchsorted(xs, ux, side="right") / n
    emp_lo = np.searchsorted(xs, ux, side="left") / n
    gap = max(
        np.max(np.abs(emp_hi - np.asarray(d.cdf(ux)))),
        np.max(np.abs(emp_lo - np.asarray(d.cdf_left(ux)))),
    )
    assert gap < 0.01


def test_breakpoint_inventories():
    fig = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    xb = fig.x_breakpoints()
    assert 0.5 in xb and 0.0 in xb and 1.0 in xb
    pb = fig.p_breakpoints()
    assert np.all((pb >= 0.0) & (pb <= 1.0))
    assert 0.25 in pb and 0.75 in pb


def test_mean_property_matches_closed_form():
    d = gamma_dist(3.0, 0.5)
    assert d.mean == 3.0 * 0.5


@pytest.mark.parametrize("k", [20, 32, 40])
def test_mixture_tail_quantile_steps_evenly(k):
    # Near p = 1 the computed F = sum w_i F_i resolves only ulp(1), so a
    # quantile inverted from it zigzagged: at k = 32 its relative steps
    # alternated 2.28e-7 and 0.76e-7. Inverted from sf against 1 - p, which
    # is exact, it steps evenly, as a lone lognormal does.
    d = mixture([(0.5, lognormal(0.0, 2.0)), (0.5, exponential(1.0))])
    ps = [1.0 - 2.0**-k]
    for _ in range(8):
        ps.append(np.nextafter(ps[-1], 1.0))
    q = np.asarray(d.quantile(np.asarray(ps)))
    steps = np.diff(q) / q[:-1]
    assert steps.min() > 0.0
    assert steps.max() <= 1.1 * steps.min()


def test_quantile_round_budget_on_kronrod_nodes(monkeypatch):
    # One batch of 15 Kronrod nodes per p-cell, tail cells included: each
    # inversion may evaluate its residual at most 36 times (Chandrupatla
    # steps and bisection rounds). From one knot per octave and a step-size
    # stop it took up to 70; Illinois steps took 21 on the largest batch,
    # and Chandrupatla steps, which close on a level's blur and bisect on,
    # take 24.
    invert = measures._invert
    evaluations = []

    def counted(level, *args, **kwargs):
        def counted_level(*a):
            evaluations[-1] += 1
            return level(*a)

        evaluations.append(0)
        return invert(counted_level, *args, **kwargs)

    monkeypatch.setattr(measures, "_invert", counted)
    laws = _nested_budget_laws() + [d for _, d in _galois_battery()]
    for d in laws:
        edges = d._p_cells
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + half[:, None] * _XGK).ravel()
        d._quantile_arr(nodes)
    assert len(evaluations) == len(laws)
    assert max(evaluations) <= 36


def _repeat_laws():
    sample = np.random.default_rng(7).lognormal(0.0, 0.5, size=200)
    return [
        mixture([(0.4, lognormal(0.0, 1.0)), (0.3, exponential(1.0)), (0.3, gamma_dist(2.0, 1.0))]),
        mixture([(0.4, atom(0.0)), (0.6, gamma_dist(3.0, 0.5))]),
        kde(sample, "gaussian", 0.03),
    ]


@pytest.mark.parametrize("i", range(3))
def test_inversion_never_evaluates_a_level_point_twice(monkeypatch, i):
    # After its steps an earlier inversion probed one reach either side of
    # the last iterate, which is always an end of its bracket: one probe
    # clipped onto that end and evaluated it again (33, 23 and 29 repeated
    # points on these three laws), the other did what a bisection round does.
    invert, repeats = measures._invert, [0]

    def counted(level, *args):
        seen = set()

        def recorded(t, y):
            for point in zip(t.tolist(), y.tolist()):
                repeats[0] += point in seen
                seen.add(point)
            return level(t, y)

        return invert(recorded, *args)

    monkeypatch.setattr(measures, "_invert", counted)
    d = _repeat_laws()[i]
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], TAIL_LEVELS]))
    Distribution(d.parts).quantile(ps)
    w1(Distribution(d.parts), exponential(1.0))
    assert repeats[0] == 0


def _invert_reference(level, y, lo, hi, vlo, vhi, tol):
    """The Chandrupatla loop written plainly: one (6, n) stack of the rows
    that start open, [a, b, c, ga, gb, gc], updated in place on the live
    rows; a row that stops stays in the stack, masked off, and every point
    is clamped strictly inside its bracket. The stop width restates
    `measures._reach`."""
    lo, hi = lo.copy(), hi.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (idx,) = np.nonzero((vlo < y) & (y <= vhi))
        target = y[idx]
        ulp = np.abs(np.spacing(target))
        lower, upper = vlo[idx] - target, np.maximum(vhi[idx] - target, 0.5 * ulp)
        state = np.stack([lo[idx], hi[idx], lo[idx], lower, upper, lower])
        live = np.ones(idx.size, dtype=bool)
        for rnd in range(measures._MAX_ROUNDS + 1):
            a, b, c, ga, gb, gc = state
            w, left, right = b - a, np.minimum(a, b), np.maximum(a, b)
            blur = measures._FINISH_ULPS * (2.0**-53 * a + ulp / ((gb - ga) / w))
            inset = np.maximum(0.125 * tol, blur) / (right - left)
            stops = live & ~((inset < 0.5) & (rnd < measures._MAX_ROUNDS))
            lo[idx[stops]], hi[idx[stops]] = left[stops], right[stops]
            live &= ~stops
            if not live.any():
                break
            if rnd == 0:
                t = ga / (ga - gb)
            else:
                dab, dcb = ga - gb, gc - gb
                xi, phi = w / (b - c), dab / dcb
                t = ga / dcb * (gc / dab + (c - a) / w * gb / (gc - ga))
                t = np.where((phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), t, 0.5)
            s = a + np.minimum(np.maximum(t, inset), 1.0 - inset) * w
            s = np.minimum(np.maximum(s, np.nextafter(left, right)), np.nextafter(right, left))
            g = np.zeros_like(s)
            g[live] = level(s[live], target[live]) - target[live]
            up = g >= 0.0
            g = np.where(up, np.maximum(g, 0.5 * ulp), g)
            same = up == (ga >= 0.0)
            stepped = [s, np.where(same, b, a), np.where(same, a, b), g, np.where(same, gb, ga), np.where(same, ga, gb)]
            np.copyto(state, np.stack(stepped), where=live)
    return measures._bisect(level, y, lo, hi, tol)


def _replay(invert, level, args):
    """`invert`'s output and every (t, y) it hands to `level`, as bits."""
    seen = []

    def recorded(t, y):
        seen.append((np.asarray(t).view(np.uint64).copy(), np.asarray(y).view(np.uint64).copy()))
        return level(t, y)

    out = invert(recorded, *(np.copy(a) for a in args[:-1]), args[-1])
    return out.view(np.uint64), seen


def _assert_same_loop(level, args):
    new, new_seen = _replay(measures._invert, level, args)
    ref, ref_seen = _replay(_invert_reference, level, args)
    assert np.array_equal(new, ref)
    assert len(new_seen) == len(ref_seen)
    for (t, y), (t_ref, y_ref) in zip(new_seen, ref_seen):
        assert np.array_equal(t, t_ref) and np.array_equal(y, y_ref)


def _lean_loop_laws():
    sample = np.random.default_rng(7).lognormal(0.0, 0.5, size=200)
    nested = _nested_budget_laws()
    return nested + [
        nested[0].rescaled(1e12),
        nested[0].rescaled(1e-12),
        mixture([(0.4, atom(0.0)), (0.6, gamma_dist(3.0, 0.5))]),
        kde(sample, "gaussian", 0.03),
    ]


@pytest.mark.parametrize("i", range(len(_lean_loop_laws())))
def test_chandrupatla_loop_repeats_the_reference_at_tol_0(i):
    # Dropping stopped rows from flat arrays, and clamping only the points
    # that rounding put on or past an end of their bracket, must change no
    # iterate: the same level points in the same order, the same quantiles.
    d = _lean_loop_laws()[i]
    lo, hi, vlo, vhi, y = d._knot_brackets(d._first_round_p)
    _assert_same_loop(d._level_arr, (y, lo, hi, vlo, vhi, 0.0))


@pytest.mark.parametrize("i", range(len(_lean_loop_laws())))
def test_chandrupatla_loop_repeats_the_reference_on_w1_brackets(monkeypatch, i):
    # W1's quantile route inverts from each law's knot table, to 1e-10
    # times the scale: every row starts between kept knots of its law's
    # table, never at a parent cell's quantiles, so it depends on p alone.
    calls = []
    invert = measures._invert

    def captured(level, *args):
        calls.append((level, tuple(np.copy(a) for a in args[:-1]) + (args[-1],)))
        return invert(level, *args)

    monkeypatch.setattr(measures, "_invert", captured)
    d1, d2 = _lean_loop_laws()[i], mixture([(0.5, exponential(1.0)), (0.5, uniform(0.5, 2.0))])
    w1_routes(d1, d2)
    monkeypatch.undo()
    assert calls and {args[-1] for _, args in calls} == {1e-10 * (d1.mean + d2.mean)}
    for level, args in calls:
        x = level.__self__._knot_values[0]
        _, lo, hi = args[:3]
        assert np.all(np.isin(lo, x) & np.isin(hi, x))
        _assert_same_loop(level, args)


def test_w1_routes_level_budget(monkeypatch):
    # Illinois steps made 296 level calls over these seven W1 pairs; the
    # inverse quadratic steps make 189, and stop a row within tol / 4, where
    # Illinois stopped at two reaches and bisected on.
    level, calls = Distribution._level_arr, [0]

    def counted(self, t, y):
        calls[0] += 1
        return level(self, t, y)

    monkeypatch.setattr(Distribution, "_level_arr", counted)
    d2 = mixture([(0.5, exponential(1.0)), (0.5, uniform(0.5, 2.0))])
    for d1 in _lean_loop_laws():
        w1_routes(d1, d2)
    assert 0 < calls[0] <= 230


def _plateau_level(t, y):
    """Slope 1 up to 0.5 at t = 0.5, flat at 0.5 up to 0.8, slope 1 again:
    a row with y = 0.5 has residual exactly 0 at every upper point below
    0.8, so two of them make the inverse quadratic formula divide by 0."""
    return np.minimum(t, 0.5) + np.maximum(t - 0.8, 0.0)


def _staircase_level(t, y):
    """t rounded to a multiple of ulp(4) = 2^-50: flat over 8 to 16 ulps of
    t on [0.25, 1), so the level blurs every crossing at the ulp scale."""
    return (t + 4.0) - 4.0


def _synthetic_targets():
    steps = _staircase_level(np.linspace(0.1, 0.65, 41), None)
    mids = np.linspace(0.1, 0.65, 37) + 2.0**-52
    return np.unique(np.concatenate([steps, np.nextafter(steps, 0.0), mids, [0.5, np.nextafter(0.5, 0.0)]]))


@pytest.mark.parametrize("level", [_plateau_level, _staircase_level], ids=["plateau", "staircase"])
def test_invert_on_synthetic_levels(level, deadline):
    # Each returned q clears its target, lies within tol above the tol-0
    # result, and at tol 0 meets the Galois pair; no floating-point error
    # escapes the loop, a zero residual on a plateau included.
    y = _synthetic_targets()
    lo, hi = np.full_like(y, 0.05), np.full_like(y, 1.0)
    vlo, vhi = level(lo, y), level(hi, y)
    with deadline(10), np.errstate(all="raise"):
        exact = measures._invert(level, y, lo, hi, vlo, vhi, 0.0)
        assert np.all(level(exact, y) >= y)
        assert np.all(level(np.nextafter(exact, 0.0), y) < y)
        for tol in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
            q = measures._invert(level, y, lo, hi, vlo, vhi, tol)
            assert np.all(level(q, y) >= y)
            assert np.all((exact <= q) & (q - exact <= tol))
    if level is _plateau_level:
        assert exact[y == 0.5] == 0.5


#: (k, u, P(k, u), Q(k, u)) at 40 digits, rounded once to the float, from
#: scripts/oracle_gamma_small_shape.py
GAMMA_REFERENCE = (
    (0.05, 0.001, 0.7271792290529226, 0.27282077094707735),
    (0.05, 0.01, 0.815559805741285, 0.18444019425871508),
    (0.05, 0.1, 0.9112576252375196, 0.08874237476248042),
    (0.05, 0.3, 0.9543811218743458, 0.04561887812565424),
    (0.05, 0.5, 0.971317371244164, 0.02868262875583602),
    (0.05, 0.7, 0.980620773380833, 0.019379226619167033),
    (0.05, 0.8, 0.983818489875346, 0.01618151012465391),
    (0.05, 0.9, 0.9863864260345634, 0.013613573965436629),
    (0.05, 0.95, 0.9874836145644634, 0.012516385435536613),
    (0.05, 1.0, 0.98847634705146, 0.011523652948539912),
    (0.05, 1.025, 0.9889374274745567, 0.011062572525443267),
    (0.05, 1.05, 0.9893768217722504, 0.010623178227749558),
    (0.05, 1.075, 0.9897957811058515, 0.010204218894148421),
    (0.05, 1.1, 0.9901954661419841, 0.00980453385801599),
    (0.1, 0.001, 0.5267685683924451, 0.4732314316075549),
    (0.1, 0.01, 0.6626212599544798, 0.3373787400455202),
    (0.1, 0.1, 0.8275517595858506, 0.17244824041414947),
    (0.1, 0.3, 0.9083579897300342, 0.09164201026996573),
    (0.1, 0.5, 0.9414024458901336, 0.05859755410986648),
    (0.1, 0.7, 0.9599447964306321, 0.04005520356936783),
    (0.1, 0.8, 0.9663946538567284, 0.033605346143271625),
    (0.1, 0.9, 0.9716069046009709, 0.02839309539902908),
    (0.1, 0.95, 0.9738435807045236, 0.026156419295476428),
    (0.1, 1.0, 0.9758726562736723, 0.024127343726327778),
    (0.1, 1.025, 0.9768168713397892, 0.023183128660210797),
    (0.1, 1.05, 0.9777177751315577, 0.022282224868442283),
    (0.1, 1.075, 0.9785778039524481, 0.021422196047551873),
    (0.1, 1.1, 0.9793992217906597, 0.020600778209340292),
    (0.3, 0.001, 0.14024245892486736, 0.8597575410751326),
    (0.3, 0.01, 0.27924099635901484, 0.7207590036409851),
    (0.3, 0.1, 0.5459128495917965, 0.4540871504082035),
    (0.3, 0.3, 0.7269573437103662, 0.2730426562896338),
    (0.3, 0.5, 0.8138118046743926, 0.18618819532560735),
    (0.3, 0.7, 0.8668625855062952, 0.13313741449370475),
    (0.3, 0.8, 0.8862152066572104, 0.11378479334278961),
    (0.3, 0.9, 0.9022526480296695, 0.09774735197033045),
    (0.3, 0.95, 0.9092547112534906, 0.09074528874650949),
    (0.3, 1.0, 0.9156741562411088, 0.08432584375889124),
    (0.3, 1.025, 0.9186842593927629, 0.08131574060723716),
    (0.3, 1.05, 0.9215703360548394, 0.07842966394516059),
    (0.3, 1.075, 0.9243386221857328, 0.07566137781426718),
    (0.3, 1.1, 0.9269949550874125, 0.07300504491258748),
    (0.5, 0.001, 0.03567059172967989, 0.9643294082703201),
    (0.5, 0.01, 0.1124629160182849, 0.8875370839817152),
    (0.5, 0.1, 0.345279153981423, 0.654720846018577),
    (0.5, 0.3, 0.5614219739190002, 0.4385780260809999),
    (0.5, 0.5, 0.6826894921370859, 0.3173105078629141),
    (0.5, 0.7, 0.7632764293621426, 0.23672357063785737),
    (0.5, 0.8, 0.7940967892679317, 0.2059032107320683),
    (0.5, 0.9, 0.8202875051210001, 0.17971249487899985),
    (0.5, 0.95, 0.8319216809650297, 0.16807831903497028),
    (0.5, 1.0, 0.8427007929497149, 0.15729920705028513),
    (0.5, 1.025, 0.8477938102128677, 0.1522061897871323),
    (0.5, 1.05, 0.8527008613773239, 0.14729913862267605),
    (0.5, 1.075, 0.8574301104191573, 0.1425698895808427),
    (0.5, 1.1, 0.8619892624313404, 0.13801073756865953),
    (0.684, 0.001, 0.009791229657556688, 0.9902087703424434),
    (0.684, 0.01, 0.04712502237269851, 0.9528749776273014),
    (0.684, 0.1, 0.2195675154809298, 0.7804324845190702),
    (0.684, 0.3, 0.4307067055143115, 0.5692932944856884),
    (0.684, 0.5, 0.5671460383809187, 0.43285396161908135),
    (0.684, 0.7, 0.6650866025603152, 0.33491339743968485),
    (0.684, 0.8, 0.7041974356226213, 0.2958025643773787),
    (0.684, 0.9, 0.7382102757892891, 0.2617897242107109),
    (0.684, 0.95, 0.7535604986602131, 0.24643950133978693),
    (0.684, 1.0, 0.7679210629661464, 0.2320789370338536),
    (0.684, 1.025, 0.7747539571083011, 0.22524604289169886),
    (0.684, 1.05, 0.7813669724564344, 0.21863302754356564),
    (0.684, 1.075, 0.7877683596980624, 0.2122316403019376),
    (0.684, 1.1, 0.7939659760748911, 0.206034023925109),
    (0.746, 0.001, 0.006293563944626452, 0.9937064360553736),
    (0.746, 0.01, 0.03493240972489105, 0.9650675902751089),
    (0.746, 0.1, 0.18737835129347927, 0.8126216487065208),
    (0.746, 0.3, 0.39180869036498783, 0.6081913096350121),
    (0.746, 0.5, 0.5302734878035632, 0.46972651219643685),
    (0.746, 0.7, 0.6322759973567934, 0.3677240026432066),
    (0.746, 0.8, 0.6736036600866667, 0.32639633991333333),
    (0.746, 0.9, 0.7098252356362132, 0.2901747643637867),
    (0.746, 0.95, 0.7262597000356115, 0.2737402999643885),
    (0.746, 1.0, 0.7416848963557772, 0.2583151036442229),
    (0.746, 1.025, 0.7490416806253684, 0.2509583193746316),
    (0.746, 1.05, 0.756172504570875, 0.24382749542912494),
    (0.746, 1.075, 0.7630853284848024, 0.23691467151519763),
    (0.746, 1.1, 0.7697877599223861, 0.23021224007761387),
    (0.891, 0.001, 0.0022136355383029632, 0.997786364461697),
    (0.891, 0.01, 0.01715008576012607, 0.9828499142398739),
    (0.891, 0.1, 0.12794833190448363, 0.8720516680955164),
    (0.891, 0.3, 0.3109672792515287, 0.6890327207484713),
    (0.891, 0.5, 0.44918316213958187, 0.5508168378604181),
    (0.891, 0.7, 0.5573406772691893, 0.4426593227308107),
    (0.891, 0.8, 0.602667828776118, 0.397332171223882),
    (0.891, 0.9, 0.6431244077569258, 0.35687559224307414),
    (0.891, 0.95, 0.6617105342372915, 0.3382894657627085),
    (0.891, 1.0, 0.6792889982372697, 0.3207110017627303),
    (0.891, 1.025, 0.6877190899634539, 0.31228091003654607),
    (0.891, 1.05, 0.695919209265129, 0.3040807907348711),
    (0.891, 1.075, 0.7038961348937774, 0.2961038651062225),
    (0.891, 1.1, 0.7116564103468933, 0.2883435896531067),
    (0.968, 0.001, 0.0012633324165786202, 0.9987366675834214),
    (0.968, 0.01, 0.011684144055735084, 0.988315855944265),
    (0.968, 0.1, 0.10388489192599618, 0.8961151080740039),
    (0.968, 0.3, 0.27361684134322445, 0.7263831586567755),
    (0.968, 0.5, 0.4093375883191289, 0.5906624116808711),
    (0.968, 0.7, 0.5189922998581384, 0.48100770014186156),
    (0.968, 0.8, 0.5657755951584628, 0.4342244048415373),
    (0.968, 0.9, 0.6079372584838254, 0.3920627415161746),
    (0.968, 0.95, 0.6274351560148819, 0.37256484398511813),
    (0.968, 1.0, 0.6459508976531562, 0.3540491023468438),
    (0.968, 1.025, 0.6548564977460398, 0.3451435022539602),
    (0.968, 1.05, 0.6635354403086345, 0.33646455969136546),
    (0.968, 1.075, 0.6719936512698222, 0.32800634873017775),
    (0.968, 1.1, 0.6802368906115782, 0.31976310938842173),
    (0.99, 0.001, 0.0010754892090471574, 0.9989245107909528),
    (0.99, 0.01, 0.01046317165351248, 0.9895368283464875),
    (0.99, 0.1, 0.0978133236913973, 0.9021866763086027),
    (0.99, 0.3, 0.26362566705643375, 0.7363743329435662),
    (0.99, 0.5, 0.3983840376949368, 0.6016159623050632),
    (0.99, 0.7, 0.5082586665594208, 0.4917413334405792),
    (0.99, 0.8, 0.555375363833821, 0.4446246361661789),
    (0.99, 0.9, 0.5979548606603639, 0.4020451393396362),
    (0.99, 0.95, 0.6176831864635064, 0.3823168135364936),
    (0.99, 1.0, 0.6364394693810715, 0.3635605306189284),
    (0.99, 1.025, 0.6454683067350921, 0.35453169326490785),
    (0.99, 1.05, 0.6542720734552768, 0.3457279265447232),
    (0.99, 1.075, 0.6628564299673109, 0.3371435700326892),
    (0.99, 1.1, 0.6712268908459263, 0.32877310915407365),
    (1.1, 0.001, 0.0004786732638430917, 0.9995213267361569),
    (1.1, 0.01, 0.0059978211645515915, 0.9940021788354484),
    (1.1, 0.1, 0.0720597457605432, 0.9279402542394568),
    (1.1, 0.3, 0.21798608841049288, 0.7820139115895072),
    (1.1, 0.5, 0.3465502275336355, 0.6534497724663645),
    (1.1, 0.7, 0.45625518609477206, 0.543744813905228),
    (1.1, 0.8, 0.5045108442423526, 0.49548915575764746),
    (1.1, 0.9, 0.548725543846969, 0.45127445615303097),
    (1.1, 0.95, 0.5694056042826364, 0.4305943957173636),
    (1.1, 1.0, 0.5891809618706484, 0.4108190381293516),
    (1.1, 1.025, 0.5987402105040052, 0.40125978949599483),
    (1.1, 1.05, 0.6080862110927834, 0.39191378890721656),
    (1.1, 1.075, 0.6172231899637434, 0.38277681003625663),
    (1.1, 1.1, 0.6261553270785415, 0.37384467292145845),
    (1.2, 0.001, 0.00022785542810785367, 0.9997721445718921),
    (1.2, 0.01, 0.0035935943670809705, 0.996406405632919),
    (1.2, 0.1, 0.05424702615618924, 0.9457529738438107),
    (1.2, 0.3, 0.18234553719332922, 0.8176544628066708),
    (1.2, 0.5, 0.3037001402415431, 0.6962998597584569),
    (1.2, 0.7, 0.41161351942491686, 0.5883864805750831),
    (1.2, 0.8, 0.4601872769559975, 0.5398127230440025),
    (1.2, 0.9, 0.5052551008738664, 0.4947448991261336),
    (1.2, 0.95, 0.5265154632447628, 0.4734845367552372),
    (1.2, 1.0, 0.5469530853358108, 0.45304691466418917),
    (1.2, 1.025, 0.55687004220934, 0.44312995779066006),
    (1.2, 1.05, 0.5665894514560397, 0.43341054854396033),
    (1.2, 1.075, 0.5761141415609521, 0.4238858584390479),
    (1.2, 1.1, 0.5854469795841237, 0.4145530204158763),
)


def test_gamma_small_shape_matches_the_reference():
    # Below shape 1.25, Gamma reads sf on 0 < u <= 1.1 as Q(k + 1, u) - t and
    # cdf on 1 < u <= 1.1 as P(k + 1, u) + t, where scipy sums a slow series
    # (3 to 8 us a point, against under 0.5 us elsewhere). Every value that
    # moved off scipy's must be within 16 eps of the reference: these read at
    # most 6.7 eps, scipy's own up to 134 eps (k = 0.5, u = 1.1).
    from scipy import special

    k, u, p_ref, q_ref = (np.asarray(c) for c in zip(*GAMMA_REFERENCE))
    moved = 0
    for shape in np.unique(k):
        rows = k == shape
        g = measures.Gamma(float(shape), 1.0)
        for ours, scipys, ref in (
            (g.cdf(u[rows]), special.gammainc(shape, u[rows]), p_ref[rows]),
            (g.sf(u[rows]), special.gammaincc(shape, u[rows]), q_ref[rows]),
        ):
            off = ours != scipys
            moved += int(off.sum())
            assert np.all(np.abs(ours[off] - ref[off]) <= 16.0 * 2.0**-52 * ref[off]), shape
    assert moved >= 100


@pytest.mark.parametrize("shape", sorted({row[0] for row in GAMMA_REFERENCE}))
def test_gamma_small_shape_is_monotone_across_its_windows(shape):
    g = measures.Gamma(shape, 1.0)
    for edge in (1.0, 1.1):
        u = edge + 1e-12 * np.arange(-64.0, 65.0)
        assert np.all(np.diff(g.sf(u)) <= 0.0)
        assert np.all(np.diff(g.cdf(u)) >= 0.0)


@pytest.mark.parametrize("shape", [0.3, 0.746, 1.2, 1.25, 3.0])
def test_gamma_keeps_scipy_outside_its_windows(shape):
    from scipy import special

    g = measures.Gamma(shape, 2.0)
    u = np.concatenate([[0.0], np.geomspace(1.1 + 1e-9, 1e3, 200)])
    assert np.array_equal(g.sf(2.0 * u), special.gammaincc(shape, u))
    lower = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 100), u[1:]])
    assert np.array_equal(g.cdf(2.0 * lower), special.gammainc(shape, lower))
    if shape >= 1.25:
        inside = np.linspace(1e-3, 1.1, 200)
        assert np.array_equal(g.sf(2.0 * inside), special.gammaincc(shape, inside))
        assert np.array_equal(g.cdf(2.0 * inside), special.gammainc(shape, inside))
