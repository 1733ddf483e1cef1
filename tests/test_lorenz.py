"""Lorenz curve layer.

Closed-form targets used below:
    Uniform[0,1]        L(p) = p^2
    Exponential(1)      L(p) = p + (1-p) log(1-p)
    atom                L(p) = p
    half uniform plus atom at 1/2: piecewise with a plateau-crossing kink,
    values 0.125 and 0.625 at p = 0.25 and 0.75.
"""

import math

import numpy as np
import pytest

from lorenzkit import (
    atom,
    discrete,
    exponential,
    index_report,
    midpoint_atom_mixture,
    integral_lorenz,
    kde,
    kendall_points,
    lognormal,
    lorenz,
    lorenz_dominates,
    mixture,
    pseudo_lorenz,
    reconstruct,
    standard_battery,
    uniform,
    w1,
)
from lorenzkit.measures import TAIL_LEVELS, ZeroMeanError


def test_atom_curve_is_identity():
    c = lorenz(atom(4.0))
    ps = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(c.eval(ps), ps, atol=1e-14)


def test_uniform_curve_is_square():
    c = lorenz(uniform(0.0, 1.0))
    for p in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
        assert float(c.eval(p)) == pytest.approx(p * p, abs=1e-10)


def test_exponential_curve_closed_form():
    c = lorenz(exponential(1.0))
    for p in (0.1, 0.5, 0.9):
        expected = p + (1.0 - p) * math.log(1.0 - p)
        assert float(c.eval(p)) == pytest.approx(expected, abs=1e-9)


def test_midpoint_atom_mixture_goldens():
    d = midpoint_atom_mixture()
    c = lorenz(d)
    assert float(c.eval(0.25)) == pytest.approx(0.125, abs=1e-12)
    assert float(c.eval(0.75)) == pytest.approx(0.625, abs=1e-12)
    assert pseudo_lorenz(d, 0.25) == pytest.approx(0.625, abs=1e-12)


def test_finite_sample_lorenz_values():
    d = discrete([1.0, 1.0, 2.0])
    c = lorenz(d)
    assert float(c.eval(1.0 / 3.0)) == pytest.approx(0.25, abs=1e-14)
    assert float(c.eval(2.0 / 3.0)) == pytest.approx(0.5, abs=1e-14)


def test_endpoints_and_bounds(battery):
    for name, d in battery:
        c = lorenz(d)
        assert float(c.eval(0.0)) == 0.0, name
        assert float(c.eval(1.0)) == pytest.approx(1.0, abs=1e-9), name
        ps = np.linspace(0.0, 1.0, 101)
        vals = np.asarray(c.eval(ps))
        assert np.all(vals <= ps + 1e-9), name
        assert np.all(np.diff(vals) >= -1e-12), name


def test_convexity_on_probe_ladder():
    d = mixture([(0.4, discrete([0.0, 1.0])), (0.6, exponential(1.0))])
    c = lorenz(d)
    ps = np.linspace(0.0, 1.0, 257)
    vals = np.asarray(c.eval(ps))
    chords = 0.5 * (vals[:-2] + vals[2:])
    assert np.all(vals[1:-1] <= chords + 1e-10)


def test_left_derivative_matches_quantile():
    d = midpoint_atom_mixture()
    c = lorenz(d)
    for p in (0.1, 0.25, 0.6, 0.75, 0.9):
        assert float(c.left_derivative(p)) * d.mean == pytest.approx(
            float(d.quantile(p)), abs=1e-9
        )


def test_left_derivative_rejects_nan():
    # a NaN passed both `p <= 0` and `p > 1` as False and read Q(nan) = 0.0
    c = lorenz(exponential(1.0))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        c.left_derivative(math.nan)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        c.left_derivative(np.array([0.5, math.nan]))


def test_outside_m_rejected():
    with pytest.raises(ZeroMeanError):
        lorenz(atom(0.0))


def test_pseudo_lorenz_of_atom_jumps_to_one():
    d = atom(3.0)
    assert pseudo_lorenz(d, 0.0) == 0.0
    assert pseudo_lorenz(d, 0.3) == 1.0
    assert pseudo_lorenz(d, 1.0) == 1.0


def test_pseudo_lorenz_matches_lorenz_for_nonatomic():
    d = uniform(0.0, 1.0)
    c = lorenz(d)
    ps = np.arange(0.1, 0.95, 0.1)
    np.testing.assert_allclose(
        pseudo_lorenz(d, ps), np.asarray(c.eval(ps)), atol=1e-9
    )


def test_pseudo_lorenz_gap_identity():
    # Lambda(p) - L(p) = Q(p) (F(Q(p)) - p) / m wherever both are defined.
    d = midpoint_atom_mixture()
    c = lorenz(d)
    m = d.mean
    for p in (0.05, 0.25, 0.3, 0.5, 0.74, 0.75, 0.8, 0.99):
        q = float(d.quantile(p))
        gap = float(pseudo_lorenz(d, p)) - float(c.eval(p))
        assert gap == pytest.approx(q * (float(d.cdf(q)) - p) / m, abs=1e-8)
        assert gap >= -1e-12


def _formula_check_laws():
    xs = np.random.default_rng(11).lognormal(0.0, 0.5, size=40)
    return standard_battery() + [
        ("lognormal(0,2.5)", lognormal(0.0, 2.5)),
        ("lognormal(0,3)", lognormal(0.0, 3.0)),
        ("kde_epanechnikov", kde(xs, "epanechnikov", 0.3)),
        ("kde_gaussian", kde(xs, "gaussian", 0.3)),
    ]


FORMULA_CHECK_LAWS = _formula_check_laws()


@pytest.mark.parametrize(
    "d", [d for _, d in FORMULA_CHECK_LAWS], ids=[n for n, _ in FORMULA_CHECK_LAWS]
)
def test_curve_matches_x_space_quantile_integral(d):
    # The curve is evaluated by the partial-expectation identity; the
    # reference integrates p - F(x) over [0, Q(p)] by quadrature in x.
    ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 65), TAIL_LEVELS, 1.0 - TAIL_LEVELS]))
    expected = np.asarray([d.integral_quantile(p) for p in ps]) / d.mean
    np.testing.assert_allclose(lorenz(d).eval(ps), expected, rtol=0.0, atol=1e-9)


def test_kendall_points_on_atom():
    pts = kendall_points(atom(2.0), [0.0, 1.0, 2.0, 3.0])
    assert (0.0, 0.0) in pts and (1.0, 1.0) in pts
    assert len({p for p, _ in pts}) == 2


def test_kendall_point_on_uniform():
    pts = kendall_points(uniform(0.0, 1.0), [0.5])
    (fx, share), = pts
    assert fx == pytest.approx(0.5)
    assert share == pytest.approx(0.25)


@pytest.mark.parametrize("grid", [[0.5, math.nan], [math.nan, -1.0], [-1.0]])
def test_kendall_points_reject_negative_or_nan_abscissae(grid):
    # sorted() leaves a NaN anywhere in the grid, and it can hide a negative
    with pytest.raises(ValueError, match="Kendall grid"):
        kendall_points(exponential(1.0), grid)


def test_kendall_points_lie_on_lorenz_graph(battery):
    for name, d in battery:
        c = lorenz(d)
        grid = np.linspace(0.0, float(d.support_hi(1e-9)), 13)
        for fx, share in kendall_points(d, grid):
            assert abs(float(c.eval(fx)) - share) < 1e-8, name


def test_domination_examples():
    mu = discrete([0.0, 0.0, 1.0, 3.0])
    nu = discrete([0.0, 0.0, 2.0, 2.0])
    assert lorenz_dominates(mu, nu)
    assert lorenz_dominates(discrete([0.0, 1.0]), atom(1.0))
    d = midpoint_atom_mixture()
    assert lorenz_dominates(d, d)


def test_domination_is_scale_blind():
    d = discrete([1.0, 2.0, 5.0])
    assert lorenz_dominates(d, d.rescaled(7.0))
    assert lorenz_dominates(d.rescaled(7.0), d)


def test_scale_invariance_of_curve():
    d = mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])
    c1 = lorenz(d)
    c2 = lorenz(d.rescaled(3.25))
    ps = np.linspace(0.0, 1.0, 64)
    np.testing.assert_allclose(c1.eval(ps), c2.eval(ps), atol=1e-10)


def test_integral_lorenz_values():
    assert integral_lorenz(lorenz(uniform(0.0, 1.0))) == pytest.approx(
        1.0 / 3.0, abs=1e-9
    )
    assert integral_lorenz(lorenz(atom(2.0))) == pytest.approx(0.5, abs=1e-12)
    # exponential: integral of p + (1-p) log(1-p) over [0,1] is 1/4
    assert integral_lorenz(lorenz(exponential(1.0))) == pytest.approx(
        0.25, abs=1e-8
    )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_identity_curve_gives_atom():
    d = reconstruct(lambda p: p, 3.0, np.linspace(0.0, 1.0, 257))
    assert d.mean == pytest.approx(3.0, rel=1e-12)
    locs, masses = d.support_atoms()
    assert list(locs) == [3.0]


def test_reconstruct_square_curve_gives_uniform():
    d = reconstruct(lambda p: p * p, 1.0, np.linspace(0.0, 1.0, 4097))
    assert d.mean == pytest.approx(1.0, rel=1e-6)
    assert w1(d, uniform(0.0, 2.0)) < 1e-3


def test_reconstruct_is_scale_equivariant():
    # The snap that merges near-equal quantiles is relative to the target
    # mean, so a tiny mean must not collapse the steps into one atom.
    grid = np.linspace(0.0, 1.0, 257)
    unit = reconstruct(lambda p: p * p, 1.0, grid)
    tiny = reconstruct(lambda p: p * p, 1e-9, grid)
    assert tiny.mean == pytest.approx(1e-9, rel=1e-12)
    np.testing.assert_allclose(
        tiny.support_atoms()[0], 1e-9 * unit.support_atoms()[0], rtol=1e-12
    )


def test_reconstruct_kinked_curve_gives_bimodal():
    alpha, h = 0.75, 0.5

    def ell(p):
        if p <= alpha:
            return p * (alpha - h) / alpha
        return (alpha - h) + (p - alpha) * (1.0 - alpha + h) / (1.0 - alpha)

    grid = np.linspace(0.0, 1.0, 4097)
    d = reconstruct(ell, 1.0, grid)
    target = discrete([1.0 / 3.0, 3.0], [0.75, 0.25])
    assert w1(d, target) < 1e-12


def test_reconstruct_round_trips_a_discrete_curve():
    d = discrete([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])
    grid = np.linspace(0.0, 1.0, 4097)
    back = reconstruct(lorenz(d), d.mean, grid)
    assert w1(back, d) < 1e-12
    # The battery's four-atom mix rebuilt on 4,096 cells: long runs of tied
    # atoms. Its mean was a running sum over every row, not the merged
    # block's sum that pe reads, and its routes disagreed by 2.9e-14.
    four = dict(standard_battery())["mix(0.4*atom(0.5),0.3*atom(1),0.2*atom(2),0.1*atom(4))"]
    back = reconstruct(lorenz(four).eval(grid), four.mean, grid)
    assert index_report(back).max_cross_route_residual <= 1e-15


def test_reconstruct_reads_a_curve_on_its_default_grid():
    # A Lorenz curve given without a grid is read on 4,096 equal cells plus
    # its source's p breakpoints, so no cell straddles a kink: the battery's
    # four-atom mix comes back as its four atoms (W1 7.7e-13).
    four = dict(standard_battery())["mix(0.4*atom(0.5),0.3*atom(1),0.2*atom(2),0.1*atom(4))"]
    back = reconstruct(lorenz(four), four.mean)
    locs, _ = back.support_atoms()
    np.testing.assert_allclose(locs, [0.5, 1.0, 2.0, 4.0], rtol=1e-10)
    assert w1(back, four) < 1e-11


def test_reconstruct_validation():
    grid = np.linspace(0.0, 1.0, 65)
    with pytest.raises(ValueError, match="convex"):
        reconstruct(lambda p: math.sqrt(p), 1.0, grid)
    with pytest.raises(ValueError, match="end at 1"):
        reconstruct(lambda p: 0.5 * p, 1.0, grid)
    with pytest.raises(ValueError, match="positive"):
        reconstruct(lambda p: p, 0.0, grid)


def test_reconstruct_builds_a_grid_whose_ends_are_within_its_slack():
    # The check let the ends lie within 1e-12 of 0 and 1, and then the
    # quantile table rejected a first point that was not exactly 0.
    grid = np.array([1e-13, 0.5, 1.0 - 1e-13])
    d = reconstruct([0.0, 0.3, 1.0], 1.0, grid=grid)
    assert d.mean == 1.0
    assert d.support_atoms()[0].tolist() == [0.6, 1.4]
    assert grid.tolist() == [1e-13, 0.5, 1.0 - 1e-13]
