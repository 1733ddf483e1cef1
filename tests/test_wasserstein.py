"""Transport distance and the convergence diagnostics built on it."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from lorenzkit import (
    atom,
    discrete,
    exponential,
    midpoint_atom_mixture,
    gamma_dist,
    gini_mean_difference,
    hoover_mean_deviation,
    index_report,
    limit_from_lorenz,
    lognormal,
    lorenz,
    lorenz_tail_gap,
    mixture,
    reconstruct,
    scenario_sequence,
    sequence_diagnostics,
    ui_tail,
    uniform,
    w1,
    w1_routes,
)
from lorenzkit import wasserstein
from lorenzkit.catalog import counterexample1_step, counterexample2_step
from lorenzkit.estimators import quantile_approx
from lorenzkit.wasserstein import ConvergenceReport, StepDiagnostics, _q_within


GOLDEN_PAIRS = [
    (uniform(0.0, 1.0), atom(0.5), 0.25),
    (uniform(0.0, 1.0), uniform(2.0, 4.0), 2.5),
    (exponential(1.0), exponential(2.0), 0.5),
    (atom(1.0), atom(4.0), 3.0),
    (discrete([0.0, 1.0]), atom(1.0), 0.5),
    (discrete([0.0, 1.0]), atom(0.5), 0.5),
    (midpoint_atom_mixture(), uniform(0.0, 1.0), 0.125),
    (uniform(0.0, 1.0), uniform(1.0, 2.0), 1.0),
]


@pytest.mark.parametrize("d1,d2,expected", GOLDEN_PAIRS)
def test_closed_form_distances(d1, d2, expected):
    assert w1(d1, d2) == pytest.approx(expected, abs=1e-9)


SCALE_PAIRS = [
    # W1 of U(0, a) and U(0, b) is (b - a) / 2
    ("uniform 1e-20", uniform(0.0, 1e-20), uniform(0.0, 1.5e-20), 0.25e-20),
    ("uniform 1e-8", uniform(0.0, 1e-8), uniform(0.0, 1.5e-8), 0.25e-8),
    # W1 of X and cX is (c - 1) E[X] for X >= 0; here E[X] = 0.7e-9
    (
        "exp(1e9) mixture",
        mixture([(0.3, atom(0.0)), (0.7, exponential(1e9))]),
        mixture([(0.3, atom(0.0)), (0.7, exponential(1e9 / 1.5))]),
        0.5 * 0.7e-9,
    ),
    # far atoms of mass eps against exp(1): integrate |F1 - F2| piecewise,
    # split where the exponential's survival e^-x crosses eps
    (
        "far atom 1e12",
        discrete([0.0, 1e12], [1.0 - 1e-9, 1e-9]),
        exponential(1.0),
        1.0 - 2e-9 + 1e-9 * (1e12 - 2.0 * math.log(1e9)),
    ),
    (
        "far atom 1e8 on uniform",
        mixture([(1.0 - 1e-10, uniform(0.0, 1.0)), (1e-10, atom(1e8))]),
        exponential(1.0),
        0.5 - 1.5e-10 + 1e-10 * (1e8 - 2.0 * math.log(1e10)),
    ),
    (
        "far atom 1e12 on uniform",
        mixture([(1.0 - 1e-9, uniform(0.0, 1.0)), (1e-9, atom(1e12))]),
        exponential(1.0),
        0.5 - 1.5e-9 + 1e-9 * (1e12 - 2.0 * math.log(1e9)),
    ),
]


@pytest.mark.parametrize(
    "d1,d2,expected", [p[1:] for p in SCALE_PAIRS], ids=[p[0] for p in SCALE_PAIRS]
)
def test_w1_at_extreme_scales_matches_closed_form(d1, d2, expected):
    # Budgets are relative to s = m1 + m2, so tiny laws and far atoms are
    # resolved as well as order-one ones.
    by_q, by_f = w1_routes(d1, d2)
    budget = 1e-7 * (d1.mean + d2.mean)
    assert abs(by_q - expected) <= budget
    assert abs(by_f - expected) <= budget


def test_symmetry_is_exact(battery):
    picks = [battery[i][1] for i in (0, 4, 8, 11, 17)]
    for a in picks:
        for b in picks:
            assert w1(a, b) == w1(b, a)


def test_self_distance_vanishes(battery):
    for name, d in battery:
        tol = 1e-12 if d.is_finite_discrete else 1e-9
        assert w1(d, d) < tol, name


def test_triangle_inequality_spot():
    a = midpoint_atom_mixture()
    b = gamma_dist(2.0, 0.5)
    c = discrete([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    assert w1(a, c) <= w1(a, b) + w1(b, c) + 1e-10


def test_route_agreement_over_battery_pairs(battery):
    worst_exact = 0.0
    worst_quad = 0.0
    for i, (n1, d1) in enumerate(battery):
        for n2, d2 in battery[i + 1:]:
            by_q, by_f = w1_routes(d1, d2)
            gap = abs(by_q - by_f)
            scale = d1.mean + d2.mean
            if d1.is_finite_discrete and d2.is_finite_discrete:
                worst_exact = max(worst_exact, gap / scale)
            else:
                worst_quad = max(worst_quad, gap / scale)
    assert worst_exact < 1e-8
    assert worst_quad < 1e-5


def _record_gap_calls(monkeypatch, route=None) -> list[list[np.ndarray]]:
    """The points of every evaluation of every `_abs_gap_body` call, in call
    order: the quantile route, then the cdf route, of each pair of laws
    neither of which is finite-discrete, and the cdf route alone of a pair
    with one; only the calls of one route when `route` names its evaluator
    (``eval_q``, ``eval_x``). A call's first evaluation is its edges, and
    each further one a refinement level."""
    body, gap_calls = wasserstein._abs_gap_body, []

    def recording_body(edges, evaluate, budget):
        if route is not None and evaluate.__name__ != route:
            return body(edges, evaluate, budget)
        points = []
        gap_calls.append(points)

        def recording(at, br1, br2):
            points.append(np.array(at))
            return evaluate(at, br1, br2)

        return body(edges, recording, budget)

    monkeypatch.setattr(wasserstein, "_abs_gap_body", recording_body)
    return gap_calls


def test_gap_body_level_budget_over_battery_pairs(monkeypatch, battery):
    # Halving one level at a time took up to 17 quantile-route and 20
    # cdf-route levels on these pairs, one level per halving of the cells
    # [0, 2^-k] and of the cells where the two curves cross. Cutting every
    # open cell into 8 took up to 3 and 7 levels, 284 in all; a level that
    # cuts few cells now cuts each into up to 128, and a crossing closes in
    # fewer levels: 187 in all. A cell bounded by F at its left end and by
    # F- at its right end closes beside an atom at that end: 173.
    general = [d for _, d in battery if not d.is_finite_discrete]
    assert len(general) == 12
    gap_calls = _record_gap_calls(monkeypatch)
    for i, d1 in enumerate(general):
        for d2 in general[i + 1:]:
            w1_routes(d1, d2)
    levels = [len(points) - 1 for points in gap_calls]
    assert len(levels) == 2 * 66
    assert max(levels[0::2]) <= 3
    assert max(levels[1::2]) <= 4
    assert sum(levels) <= 180


def test_gap_body_bounds_a_cell_by_the_left_limit_at_its_right_end():
    # g1 jumps from 0 to 1 at x = 1 and g2 is 1/2: on the open cell
    # (0.5, 1) the gap has one sign. Bounded by g1(1) = 1 at its right end,
    # the cell was cut level after level toward the jump; g1(1-) = 0 closes
    # it at once.
    calls = []

    def evaluate(x, br1, br2):
        calls.append(x.size)
        g1, g2 = (x >= 1.0).astype(float), np.full_like(x, 0.5)
        return g1, np.zeros_like(x), g2, 0.5 * x, np.zeros_like(x), g2

    total, _, _ = wasserstein._abs_gap_body(np.array([0.0, 0.5, 1.0]), evaluate, 1e-12)
    assert calls == [3]
    assert total == 0.5


def test_cdf_route_levels_over_discrete_general_battery_pairs(monkeypatch, discrete_members, general_members):
    # Each pair's only cell integration is the cdf route, whose F jumps at
    # every atom of the finite-discrete law. A cell bounded by F at both
    # ends was cut toward every atom at its right end: up to 5 levels a
    # pair, 254 in all; read as F- there, such a cell closes at once.
    gap_calls = _record_gap_calls(monkeypatch, "eval_x")
    for _, d1 in discrete_members:
        for _, d2 in general_members:
            w1_routes(d1, d2)
    levels = [len(points) - 1 for points in gap_calls]
    assert len(levels) == 96
    assert max(levels) <= 2
    assert sum(levels) <= 100


def test_cdf_route_levels_of_reconstructs_against_their_source(monkeypatch, battery):
    # The law rebuilt from a 4096-grid Lorenz curve meets its source at its
    # own jumps (criterion 8). Bounded by F at both ends, the cells ending at
    # those jumps took up to 18 cdf-route levels a pair, 170 in all.
    grid = np.linspace(0.0, 1.0, 4097)
    gap_calls = _record_gap_calls(monkeypatch, "eval_x")
    for _, d in battery:
        w1_routes(reconstruct(lorenz(d).eval(grid), d.mean, grid), d)
    levels = [len(points) - 1 for points in gap_calls]
    assert len(levels) == 12
    assert max(levels) <= 6
    assert sum(levels) <= 60


def test_gap_body_cuts_a_lone_crossing_finely():
    # g1(x) = x crosses the constant 1/3 in one of 44 cells. Cut into 8
    # children a level, that cell took 5 levels of 7 points each to fit a
    # budget of 1e-12; cut into 128, it takes 3 of 127.
    c = 1.0 / 3.0
    calls = []

    def evaluate(x, br1, br2):
        calls.append(x.size)
        g2 = np.full_like(x, c)
        return x, 0.5 * x * x, g2, c * x, x, g2

    budget = 1e-12
    total, _, _ = wasserstein._abs_gap_body(np.linspace(0.0, 1.0, 45), evaluate, budget)
    assert len(calls) - 1 <= 3
    assert abs(total - (c * c + (1.0 - c) ** 2) / 2.0) <= budget


def test_far_atom_quantile_route_stops_at_float_resolution(monkeypatch):
    # The jump of Q1 to 1e12 at p = 1 - 1e-9 leaves a cell whose ends are
    # adjacent floats and whose bound, 1e12 times an ulp of p, exceeds its
    # share of the budget; it is accepted instead of being carried on to
    # depth 47. The uniform part keeps Q1 off the exact sum of a
    # finite-discrete law, so the quantile route is the cell integrator.
    d1, d2 = [p[1:3] for p in SCALE_PAIRS if p[0] == "far atom 1e12 on uniform"][0]
    gap_calls = _record_gap_calls(monkeypatch)
    w1_routes(d1, d2)
    quantile_route = gap_calls[0]
    ps = np.unique(np.concatenate(quantile_route))
    assert np.any(np.nextafter(ps[:-1], 1.0) == ps[1:])
    assert len(quantile_route) - 1 <= 8


def _step_oracle_pairs():
    """(d1 finite-discrete, d2 with a density part, W1) as built by
    scripts/oracle_w1_step.py, whose value is W1 in mpmath at 40 digits,
    from the cdf form in closed-form pieces, matched by the quantile form
    to 1e-30."""
    xs = lognormal(0.0, 1.0).sample(3, 1000)
    yield discrete(xs), lognormal(0.0, 1.0), 0.091791934948212833
    rng = np.random.default_rng(11)
    xs = -np.log1p(-rng.random(400))
    xs[:40] = 0.0
    yield discrete(xs, rng.dirichlet(np.ones(400))), exponential(1.0), 0.17450072228908418
    xs = -np.log1p(-np.random.default_rng(5).random(300))
    shared = mixture([(0.75, exponential(1.0)), (0.25, discrete(xs[::10]))])
    yield discrete(xs), shared, 0.072165160124648656


@pytest.mark.parametrize(
    "d1,d2,expected",
    list(_step_oracle_pairs()),
    ids=["lognormal sample", "dirichlet weights and zeros", "shared atoms"],
)
def test_discrete_against_density_matches_oracle(monkeypatch, d1, d2, expected):
    # The quantile route is one exact sum over d1's cells, held to float
    # resolution, and the cdf route the only cell integration, held to its
    # own budget of 1e-7 s.
    gap_calls = _record_gap_calls(monkeypatch)
    by_q, by_f = w1_routes(d1, d2)
    assert len(gap_calls) == 1
    s = d1.mean + d2.mean
    assert abs(by_q - expected) <= 1e-13 * s
    assert abs(by_f - expected) <= 1e-7 * s
    assert w1(d1, d2) == w1(d2, d1)


def _exact_w1(d1, d2) -> Fraction:
    """W1 of two finite-discrete laws in exact rational arithmetic: the
    integral of |F1 - F2| between the merged atoms, each law's masses
    normalized by their exact sum."""
    events = []
    for d, sign in ((d1, 1), (d2, -1)):
        locs, masses = d.support_atoms()
        ms = [Fraction(m) for m in masses.tolist()]
        total = sum(ms)
        events += [(Fraction(x), sign * m / total) for x, m in zip(locs.tolist(), ms)]
    events.sort(key=lambda e: e[0])
    out, gap = Fraction(0), Fraction(0)
    for (x, m), (right, _) in zip(events, events[1:]):
        gap += m
        out += (right - x) * abs(gap)
    return out


def _two_discrete_pairs():
    """(name, d1, d2): samples of 3,000 and 10 atoms, one with Dirichlet
    weights, and far atoms of tiny mass against a few atoms."""
    xs = discrete(lognormal(0.0, 1.0).sample(1, 3000))
    weights = np.random.default_rng(3).dirichlet(np.ones(3000))
    yield "3000 and 3000 weighted", xs, discrete(lognormal(0.0, 1.0).sample(2, 3000), weights)
    yield "3000 and 10", xs, discrete(lognormal(0.0, 1.0).sample(4, 10))
    at_1e12 = discrete([1.0, 1e12], [1.0 - 1e-9, 1e-9])
    at_4e8 = discrete([0.5, 1.0, 3.0, 4.8e8], [0.3, 0.3, 0.4 - 8.4e-10, 8.4e-10])
    at_1e9 = discrete(np.append(np.linspace(0.0, 1.0, 100), 1e9), [(1.0 - 1e-10) / 100] * 100 + [1e-10])
    yield "1e12 and atom", at_1e12, atom(1.0)
    yield "4.8e8 and two atoms", at_4e8, discrete([1.0, 2.0])
    yield "1e9 and 50 atoms", at_1e9, discrete(np.linspace(0.0, 1.0, 50))
    yield "1e9 and atom", at_1e9, atom(0.5)


@pytest.mark.parametrize("d1,d2", [pytest.param(d1, d2, id=name) for name, d1, d2 in _two_discrete_pairs()])
def test_two_discrete_routes_match_exact_sums(d1, d2):
    # Both routes once read one merged table of the rounded prefix sums, so
    # they agreed while both missed: a far atom's mass is lost to the
    # rounding of 1 - w in a prefix sum near 1, times its distance. The
    # weighted pair fails a step sum that reads S2 from F2 above the half.
    expected = float(_exact_w1(d1, d2))
    s = d1.mean + d2.mean
    by_q, by_f = w1_routes(d1, d2)
    assert abs(by_q - expected) <= 1e-13 * s
    assert abs(by_f - expected) <= 1e-13 * s


@pytest.mark.parametrize("step", [counterexample1_step, counterexample2_step])
def test_escape_steps_sit_at_the_exact_distance_to_their_limit(step):
    # mass u escapes to n^2 from 1, so W1 to the limit is u (n^2 - 1) for
    # the step's own u; the 1 - 1/400 of n = 20 read 0.99749999999997874
    name = "counterexample1" if step is counterexample1_step else "counterexample2"
    seq, limit = scenario_sequence(name, 50)
    for k, d in enumerate(seq, start=1):
        n2 = (4 * k) ** 2
        u = Fraction(float(d.support_atoms()[1][-1]))
        exact = float(u * (n2 - 1))
        assert abs(w1(d, limit) - exact) <= 1e-15 * exact, k


def test_a_law_sits_at_distance_zero_from_itself():
    # The exact sum over its cells rounded to -1.8e-15 for the first law; the
    # second has mean 0 (each half of 5e-324 rounds to 0) but its merged
    # atom sits at 5e-324, and its tolerance 1e-8 s is 0.
    for d in (discrete([17.9, 39.6, 0.6]), discrete([5e-324, 5e-324])):
        assert w1_routes(d, d) == (0.0, 0.0)


def test_equal_sized_discrete_laws_are_ordered_one_way():
    a = discrete([0.5, 1.0, 4.0], [0.2, 0.5, 0.3])
    b = discrete([0.25, 2.0, 3.0], [0.6, 0.1, 0.3])
    assert w1_routes(a, b) == w1_routes(b, a)


def test_gap_body_cells_wait_under_a_small_cell_limit(monkeypatch):
    # g1(x) = x against a staircase of k steps that crosses it in every
    # step (the exact integral is 1/(4k)). Under a limit of 64 open cells,
    # cells wait at each of the 10 levels that cut, and the cap then closes
    # the last 61 open cells without charging their bound. The triple and
    # the evaluations are the ones the integrator made when it kept ten
    # parallel per-quantity cell arrays.
    k = 1000

    def evaluate(x, br1, br2):
        calls.append(x.size)
        j = np.floor(k * x)
        g2 = (j + 0.5) / k
        # each g read as its own left limit, so every cell's right end reads g
        return x, 0.5 * x * x, g2, 0.5 * (j / k) ** 2 + (x - j / k) * g2, x, g2

    calls = []
    monkeypatch.setattr(wasserstein, "_GAP_CELL_LIMIT", 64)
    out = wasserstein._abs_gap_body(np.linspace(0.0, 1.0, 45), evaluate, 0.005)
    assert [v.hex() for v in out] == ["0x1.7534d66bf2a78p-17", "0x1.0000000000000p-1", "0x1.0000000000000p-1"]
    assert calls == [45, 14, 21, 21, 28, 28, 35, 35, 42, 49, 14]


def test_bracketed_quantile_terminates_below_float_spacing(deadline):
    # At 7e11 the float spacing is 1.2e-4, far above the tolerance.
    d = exponential(1e-12)
    with deadline(20):
        q = _q_within(d, np.array([0.5]), 1e-11)
    assert q[0] == d.quantile(0.5)


def test_distance_is_mean_gap_under_displacement():
    # U[1,2] first-order dominates U[0,1]; the transport cost collapses to
    # the difference of means.
    assert w1(uniform(0.0, 1.0), uniform(1.0, 2.0)) == pytest.approx(1.0, abs=1e-10)
    d = lognormal(0.0, 0.5)
    shifted = mixture([(1.0, d)]).rescaled(1.0)  # same law, fresh object
    assert w1(d, shifted) < 1e-9


def test_zero_distance_implies_matching_reports():
    d1 = mixture([(0.5, uniform(0.0, 1.0)), (0.5, uniform(0.0, 1.0))])
    d2 = uniform(0.0, 1.0)
    assert w1(d1, d2) < 1e-9
    r1 = index_report(d1).to_json_dict()
    r2 = index_report(d2).to_json_dict()
    for key in ("gini_mean_difference", "hoover_mean_deviation"):
        assert r1[key] == pytest.approx(r2[key], abs=1e-6)
    ps = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(
        lorenz(d1).eval(ps), lorenz(d2).eval(ps), atol=1e-8
    )


# ---------------------------------------------------------------------------
# uniform integrability and tail diagnostics
# ---------------------------------------------------------------------------


def test_ui_tail_closed_form():
    fam = [exponential(1.0)]
    for a in (0.0, 1.0, 3.0):
        assert ui_tail(fam, a) == pytest.approx((a + 1.0) * math.exp(-a), rel=1e-10)


def test_ui_tail_nonincreasing(battery):
    fam = [d for _, d in battery[8:14]]
    alphas = np.linspace(0.0, 12.0, 25)
    vals = [ui_tail(fam, a) for a in alphas]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_ui_tail_detects_escaping_mass():
    fam = [counterexample1_step(n) for n in range(2, 30)]
    # every member parks unit expectation at n^2, so no cutoff kills the tail
    assert ui_tail(fam, 8.0) >= 1.0
    assert ui_tail([uniform(0.0, 1.0)], 1.0) == 0.0


def test_ui_tail_validation():
    with pytest.raises(ValueError):
        ui_tail([], 1.0)
    with pytest.raises(ValueError):
        ui_tail([atom(1.0)], -2.0)


def test_lorenz_tail_gap_values():
    assert lorenz_tail_gap([uniform(0.0, 1.0)], 0.5) == pytest.approx(0.75, abs=1e-9)
    assert lorenz_tail_gap([atom(2.0)], 0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        lorenz_tail_gap([atom(1.0)], 1.5)


# ---------------------------------------------------------------------------
# limit reconstruction from shrunk curves
# ---------------------------------------------------------------------------


def test_limit_from_identity_curve():
    d, m = limit_from_lorenz(lambda p: p, 2.0)
    assert m == pytest.approx(2.0, rel=1e-9)
    locs, _ = d.support_atoms()
    np.testing.assert_allclose(locs, [2.0], atol=1e-9)


def test_limit_from_vanishing_curve():
    d, m = limit_from_lorenz(lambda p: 0.0, 5.0)
    assert m == 0.0
    locs, masses = d.support_atoms()
    assert list(locs) == [0.0]


def test_limit_from_identity_curve_at_tiny_mean():
    # Vanishing mass is judged on the scale-free curve, not on the mean.
    d, m = limit_from_lorenz(lambda p: p, 1e-13)
    assert m == pytest.approx(1e-13, rel=1e-9)
    locs, _ = d.support_atoms()
    np.testing.assert_allclose(locs, [1e-13], rtol=1e-9)


def test_limit_from_mass_escape_curve():
    # the shrunk limit of the second escape scenario: flat to 1/2, then
    # affine with slope 2/3 topping out at 1/3; mean scale 3/2
    def f(p):
        return 0.0 if p < 0.5 else (2.0 / 3.0) * p - 1.0 / 3.0

    d, m = limit_from_lorenz(f, 1.5)
    assert m == pytest.approx(0.5, rel=1e-9)
    assert w1(d, discrete([0.0, 1.0])) < 1e-9


def test_limit_from_lorenz_validation():
    with pytest.raises(ValueError, match="grid"):
        limit_from_lorenz(lambda p: p, 1.0, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="mean scale"):
        limit_from_lorenz(lambda p: p, -1.0)


# ---------------------------------------------------------------------------
# sequence diagnostics
# ---------------------------------------------------------------------------


def test_repeated_copies_converge_trivially():
    d = midpoint_atom_mixture()
    report = sequence_diagnostics([d] * 6, d)
    assert report.verdict == "w1_convergent"
    assert report.scheffe_verdict == "w1_convergent"
    for step in report.steps:
        assert step.w1_to_limit < 1e-9
        assert step.lorenz_sup_error < 1e-9
    assert report.limit_summary.mean == pytest.approx(d.mean)


def test_first_escape_scenario_is_weak_only():
    seq, limit = scenario_sequence("counterexample1", 30)
    report = sequence_diagnostics(seq, limit)
    assert report.verdict == "weak_only"
    assert report.verdict == report.scheffe_verdict
    # with u = 1/n^2 the exact indices are (1-u)^2/(2-u); they drift toward
    # 1/2, not toward the limit's 0
    n_last = 4 * 30
    u = 1.0 / n_last**2
    expected = (1.0 - u) ** 2 / (2.0 - u)
    assert report.steps[-1].gini == pytest.approx(expected, abs=1e-12)
    assert report.steps[-1].hoover == pytest.approx(expected, abs=1e-12)
    assert report.limit_summary.gini == 0.0


def test_second_escape_scenario_matches_frozen_oracle():
    seq, limit = scenario_sequence("counterexample2", 25)
    report = sequence_diagnostics(seq, limit)
    assert report.verdict == "weak_only"
    assert report.scheffe_verdict == "weak_only"
    # closed forms from scripts/oracle_mass_escape.py
    for k, step in enumerate(report.steps, start=1):
        u = 1.0 / (4 * k) ** 2
        assert step.gini == pytest.approx(
            (5.0 - 8.0 * u + 4.0 * u * u) / (6.0 - 4.0 * u), abs=1e-12
        )
        assert step.hoover == pytest.approx(
            (2.0 - 3.0 * u + 2.0 * u * u) / (3.0 - 2.0 * u), abs=1e-12
        )
    assert report.limit_summary.gini == pytest.approx(0.5)
    assert report.limit_summary.hoover == pytest.approx(0.5)


def test_oscillating_sequence_is_divergent():
    a, b = uniform(0.0, 1.0), uniform(1.0, 2.0)
    seq = [a if k % 2 == 0 else b for k in range(10)]
    report = sequence_diagnostics(seq, a)
    assert report.verdict == "divergent"
    assert report.scheffe_verdict == "divergent"


def test_shrinking_support_sequence_converges():
    seq = [uniform(0.0, 1.0 + 1.0 / n) for n in range(2, 41)]
    report = sequence_diagnostics(seq, uniform(0.0, 1.0))
    assert report.verdict == "w1_convergent"


def test_quantile_table_ladder_convergence_envelope():
    # deterministic w1_convergent sequence with known index errors:
    # the ladder of table approximations of U[0,1] has G = (l+1)/(3l),
    # so |G_l - 1/3| = 1/(3l)
    u = uniform(0.0, 1.0)
    sizes = (8, 16, 32, 64, 128, 256, 512)
    seq = [quantile_approx(u, ell) for ell in sizes]
    report = sequence_diagnostics(seq, u)
    assert report.verdict == "w1_convergent"
    g_err = [abs(s.gini - 1.0 / 3.0) for s in report.steps]
    h_err = [abs(s.hoover - 0.25) for s in report.steps]
    for ell, ge in zip(sizes, g_err):
        assert ge == pytest.approx(1.0 / (3.0 * ell), abs=1e-10)
    assert all(x >= y for x, y in zip(g_err, g_err[1:]))
    assert all(x >= y - 1e-12 for x, y in zip(h_err, h_err[1:]))
    assert g_err[-1] < 1e-3
    assert h_err[-1] < 1e-3
    assert report.steps[-1].lorenz_sup_error < 1e-3
    sup_errs = [s.lorenz_sup_error for s in report.steps]
    assert all(x >= y - 1e-12 for x, y in zip(sup_errs, sup_errs[1:]))


def test_custom_probe_ladder():
    d = uniform(0.0, 1.0)
    report = sequence_diagnostics([d] * 3, d, probes=[0.25, 0.5, 0.75])
    assert report.verdict == "w1_convergent"


def test_probe_validation():
    d = uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="ladder"):
        sequence_diagnostics([d], d, probes=[])
    with pytest.raises(ValueError, match="ladder"):
        sequence_diagnostics([d], d, probes=[0.0, 0.5])
    with pytest.raises(ValueError):
        sequence_diagnostics([], d)


def test_probe_validation_rejects_nan():
    # a NaN probe passed both range comparisons as False and a verdict came back
    d = uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="ladder"):
        sequence_diagnostics([d], d, probes=[0.5, math.nan])


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"rel_tol": math.nan}, "rel_tol"),
        ({"rel_tol": -1.0}, "rel_tol"),
        ({"alpha_grid": []}, "alpha_grid"),
        ({"alpha_grid": [math.nan]}, "alpha_grid"),
    ],
)
def test_scalar_validation(kwargs, message):
    # a NaN or negative rel_tol came back as the verdict "divergent"; an empty
    # or NaN alpha_grid failed deep inside numpy or partial_expectation
    u = uniform(0.0, 1.0)
    with pytest.raises(ValueError, match=message):
        sequence_diagnostics([u, u], u, **kwargs)


def test_report_json_keys_are_its_fields_in_order():
    seq, limit = scenario_sequence("counterexample2", 3)
    payload = sequence_diagnostics(seq, limit).to_json_dict()
    assert list(payload) == [f.name for f in fields(ConvergenceReport)]
    for step in payload["steps"]:
        assert list(step) == [f.name for f in fields(StepDiagnostics)]


@pytest.mark.parametrize(
    "build",
    [lambda: counterexample1_step(2.5), lambda: counterexample2_step(2.5),
     lambda: scenario_sequence("counterexample1", 2.5)],
    ids=["counterexample1_step", "counterexample2_step", "scenario_sequence"],
)
def test_scenarios_reject_fractional_sizes(build):
    # int() floored them: 2.5 built the n = 2 law, or a 2-step sequence.
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_scenarios_accept_integral_floats():
    assert counterexample1_step(4.0).support_atoms()[0].tolist() == [1.0, 16.0]
    assert len(scenario_sequence("counterexample2", 3.0)[0]) == 3


def test_report_serialization_shape():
    d = uniform(0.0, 1.0)
    report = sequence_diagnostics([d, d], d)
    payload = report.to_json_dict()
    assert set(payload) == {
        "steps", "limit_summary", "verdict", "deciding_diagnostic",
        "scheffe_verdict", "alpha_ref", "rel_tol",
    }
    assert len(payload["steps"]) == 2
    assert set(payload["steps"][0]) == {
        "index", "w1_to_limit", "mean", "gini", "hoover",
        "lorenz_sup_error", "ui_tail_at_alpha",
    }
    rows = report.tsv_rows()
    assert rows[0] == (
        "index", "w1_to_limit", "mean", "gini", "hoover",
        "lorenz_sup_error", "ui_tail_at_alpha",
    )
    assert len(rows) == 3


def _weak_probes_dense(limit):
    """`_weak_probes` as it read before it searched the sorted breakpoints:
    a probes-by-breakpoints distance matrix, kept as the reference."""
    jumps = limit.p_breakpoints()
    jumps = jumps[(jumps > 0.0) & (jumps < 1.0)]
    if not jumps.size:
        return wasserstein.DYADIC
    clear = np.min(np.abs(wasserstein.DYADIC[:, None] - jumps[None, :]), axis=1) > 1e-9
    return wasserstein.DYADIC[clear]


@pytest.mark.parametrize(
    "limit",
    [
        mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))]),
        # atoms at every 1/16 of mass: jumps on the dyadic probes themselves
        discrete(np.arange(16.0)),
        mixture([(0.5, discrete(np.random.default_rng(4).exponential(size=300))), (0.5, uniform(0.0, 2.0))]),
    ],
    ids=["atom_exp", "dyadic_jumps", "atom_rich"],
)
def test_weak_probes_match_the_dense_reference(limit):
    probes = wasserstein._weak_probes(limit)
    assert probes.tobytes() == _weak_probes_dense(limit).tobytes()


def test_weak_probes_memory_does_not_grow_with_the_limits_jumps():
    # The dense form built a 1023 x 20,000 distance matrix here (160 MB).
    import tracemalloc

    limit = discrete(np.random.default_rng(7).exponential(size=20_000))
    limit.p_breakpoints()
    tracemalloc.start()
    try:
        probes = wasserstein._weak_probes(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert probes.tobytes() == _weak_probes_dense(limit).tobytes()


def _cold(d):
    """A copy of d that shares no cache or quantile memo with it."""
    return type(d)(d.parts)


def test_diagnostics_fields_equal_each_route_run_alone_on_a_cold_law():
    # sequence_diagnostics inverts each memoized law's fixed p in one batch
    # before it reads them; every field must still be, bit for bit, what
    # its route returns alone on a copy of the law with an empty memo.
    from lorenzkit.estimators import kde

    limit = mixture([(0.3, atom(0.0)), (0.7, exponential(1.0))])
    sample = limit.sample(5, 120)
    seq = [
        kde(sample[:40], "gaussian", 0.2),
        mixture([(0.5, exponential(1.0)), (0.2, atom(0.0)), (0.3, uniform(0.0, 1.5))]),
        kde(sample, "epanechnikov", 0.05),
        kde(sample, "gaussian", 0.03),
    ]
    report = sequence_diagnostics(seq, limit, rel_tol=0.3)
    alpha_ref = report.alpha_ref
    ladder = limit._probe_ladder
    for step, d in zip(report.steps, seq):
        gap = np.max(np.abs(lorenz(_cold(d)).eval(ladder) - lorenz(_cold(limit)).eval(ladder)))
        alone = {
            "w1_to_limit": w1(_cold(d), _cold(limit)),
            "mean": _cold(d).mean,
            "gini": gini_mean_difference(_cold(d)),
            "hoover": hoover_mean_deviation(_cold(d)),
            "lorenz_sup_error": float(gap),
            "ui_tail_at_alpha": _cold(d).tail_moment(alpha_ref),
        }
        for name, value in alone.items():
            assert getattr(step, name).hex() == value.hex(), (step.index, name)
    summary = report.limit_summary
    assert summary.mean.hex() == _cold(limit).mean.hex()
    assert summary.gini.hex() == gini_mean_difference(_cold(limit)).hex()
    assert summary.hoover.hex() == hoover_mean_deviation(_cold(limit)).hex()


def test_diagnostics_build_no_gini_cells_for_a_discrete_limit():
    limit = discrete(np.random.default_rng(2).exponential(size=500))
    seq = [discrete(np.random.default_rng(3).exponential(size=n)) for n in (50, 200)]
    sequence_diagnostics(seq, limit, rel_tol=0.3)
    for d in (limit, *seq):
        assert "_mean_difference_p" not in d.__dict__ and "_p_cells" not in d.__dict__

