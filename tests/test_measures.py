"""Distribution layer: construction, evaluation, and the quantile calculus.

Parametric cdf values are cross-checked against scipy.stats, which shares
no code with the closed forms inside the package.
"""

import math
import re
import warnings

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
    standard_battery,
    w1,
    w1_routes,
)
from lorenzkit.estimators import kde, quantile_approx
from lorenzkit.measures import (
    TAIL_LEVELS,
    Atoms,
    Distribution,
    InfiniteMeanError,
    MeanDomainError,
    QuantileTable,
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
        ([1.0, 2.0], [1.0], "values and weights must have equal length"),
        ([], None, "a discrete distribution needs at least one atom"),
        ([], [], "a discrete distribution needs at least one atom"),
    ],
    ids=["nan location", "inf location", "negative location", "negative weight",
         "nan weight", "zero weight", "weights sum to 1.1", "weights sum to 0.5", "unequal lengths",
         "no atoms", "no atoms or weights"],
)
def test_discrete_input_errors_name_the_first_offending_value(values, weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        discrete(values, weights)


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


def test_discrete_pooling_and_mean_match_the_sequential_reference():
    # The atoms were pooled one part at a time and the mean summed w x part
    # by part, so a purely finite-discrete law keeps both bit for bit.
    rng = np.random.default_rng(9)
    xs = rng.choice(rng.lognormal(0.0, 1.2, size=60), size=300)
    xs[:20] = 0.0
    ws = rng.dirichlet(np.ones(xs.size))
    mean = 0.0
    for x, w in zip(xs.tolist(), ws.tolist()):
        mean += w * x
    order = np.argsort(xs, kind="stable")
    support, start = np.unique(xs[order], return_index=True)
    weights = np.add.reduceat(ws[order], start)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    tail = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    cum[-1] = tail[0] = 1.0
    cum_xm = np.concatenate([[0.0], np.cumsum(weights * support)])
    d = discrete(xs, ws)
    assert np.unique(xs).size < xs.size
    assert d.mean.hex() == mean.hex()
    *arrays, rest = d._atomic
    assert rest == ()
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


def test_membership_gate():
    with pytest.raises(ZeroMeanError):
        require_member(atom(0.0))
    assert issubclass(ZeroMeanError, MeanDomainError)
    assert issubclass(InfiniteMeanError, MeanDomainError)
    assert require_member(atom(1.0)).mean == 1.0


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
    locs = np.concatenate([comp.atoms()[:, 0] for _, comp in d.parts if comp.atoms() is not None])
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
    terms = sum(len(comp.atoms()) if isinstance(comp, Atoms) else 1 for _, comp in d.parts)
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


@pytest.mark.parametrize("mode", ["step", "linear"])
def test_quantile_table_holds_read_only_arrays_equal_by_value(mode):
    # The table held float tuples; it now holds arrays whatever came in.
    grid, values = [0.0, 0.25, 0.5], [0.5, 1.0, 2.0]
    tables = [QuantileTable(f(grid), f(values), mode) for f in (list, tuple, np.array)]
    tables.append(QuantileTable(np.array([0, 0.25, 0.5]), np.array([0.5, 1, 2]), mode))
    for t in tables:
        for arr in (t.grid, t.values):
            assert isinstance(arr, np.ndarray) and arr.dtype == float
            assert not arr.flags.writeable
        assert t == tables[0] and hash(t) == hash(tables[0])
    assert QuantileTable(grid, [0.0, 1.0, 2.0], mode) == QuantileTable(grid, [-0.0, 1.0, 2.0], mode)
    assert tables[0] != QuantileTable(grid, [0.5, 1.0, 2.5], mode)
    assert tables[0] != QuantileTable(grid, values, "linear" if mode == "step" else "step")
    assert quantile_table(grid, values, mode) == Distribution(((1.0, tables[0]),))
    assert tables[0].rescaled(2.0) == QuantileTable(grid, [1.0, 2.0, 4.0], mode)


def _pieces_loop(table):
    """The loop `QuantileTable._pieces` replaced, kept as the reference for
    a linear table: one cell at a time, a slab where the values rise and
    an atom where they stay flat, after the atom at the last value."""
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
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        steps = rng.uniform(0.1, 1.0, size=n)
        grid = np.concatenate([[0.0], np.cumsum(steps)[:-1]]) / steps.sum()
        rises = rng.exponential(size=n) * (rng.uniform(size=n) < 0.5)
        yield grid, np.cumsum(rises) * 10.0 ** rng.uniform(-6.0, 6.0)


@pytest.mark.parametrize("grid, values", list(_flat_run_tables()))
def test_linear_table_pieces_match_the_loop_bit_for_bit(grid, values):
    table = QuantileTable(grid, values, "linear")
    for got, ref in zip(table._pieces, _pieces_loop(table), strict=True):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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
    wide = _q_within(d, ps, np.zeros_like(ps), np.full_like(ps, hi), tol)
    narrow = _q_within(d, ps, 0.5 * exact, np.minimum(2.0 * exact, hi), tol)
    for q in (wide, narrow):
        assert np.all(q >= exact)
        assert np.all(q <= exact + tol)


def test_bracketed_quantile_over_the_half_line_is_the_quantile():
    # The W1 route and the quantile memo invert through one method: over
    # [0, inf) at tolerance 0 the bracketed quantile is Q itself, bit for bit.
    sample = np.random.default_rng(3).lognormal(0.0, 0.5, size=200)
    laws = [d for _, d in standard_battery() if d._memoized] + [kde(sample, "gaussian", 0.03)]
    assert len(laws) > 1 and all(d._memoized for d in laws)
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], TAIL_LEVELS]))
    for d in laws:
        q = _q_within(Distribution(d.parts), ps, 0.0, math.inf, 0.0)
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

    def counted(self, p):
        rows[0] += np.size(p)
        return invert(self, p)

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
    # Illinois rounds, where one batch of all those p now leaves 1 to 3.
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
    # inversion may evaluate its residual at most 36 times (Illinois steps
    # and bisection rounds). From one knot per octave and a
    # step-size stop it took up to 70.
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
    # After its Illinois steps the inversion probed one reach either side of
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
