"""Gini and Hoover routes, the Robin Hood decomposition, extremal analysis."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from lorenzkit import (
    atom,
    discrete,
    exponential,
    extremal_bimodal,
    gamma_dist,
    midpoint_atom_mixture,
    gini_dorfman,
    gini_lorenz,
    gini_mean_difference,
    gini_range_given_hoover,
    hoover_cdf,
    hoover_max,
    hoover_mean_deviation,
    index_report,
    lognormal,
    mixture,
    robin_hood_shares,
    three_group,
    uniform,
)
from lorenzkit import quadrature
from lorenzkit.indices import IndexReport, _sweep
from lorenzkit.measures import Distribution, ZeroMeanError

GINI_ROUTES = (gini_mean_difference, gini_dorfman, gini_lorenz)
HOOVER_ROUTES = (hoover_mean_deviation, hoover_cdf, hoover_max)


@pytest.mark.parametrize("route", GINI_ROUTES + HOOVER_ROUTES)
def test_two_point_family_all_routes(route):
    # alpha*delta_0 + (1-alpha)*delta_1 has G = H = alpha on every route.
    for alpha in (0.25, 0.4, 1.0 / 3.0):
        d = discrete([0.0, 1.0], [alpha, 1.0 - alpha])
        assert route(d) == pytest.approx(alpha, abs=1e-12)


@pytest.mark.parametrize("route", GINI_ROUTES + HOOVER_ROUTES)
def test_dirac_gives_zero(route):
    assert route(atom(7.0)) == pytest.approx(0.0, abs=1e-12)


def test_uniform_values():
    u = uniform(0.0, 1.0)
    # E|X - X'| = 1/3 and E|X - 1/2| = 1/4; see scripts/oracle_sampling_indices.py
    for g in GINI_ROUTES:
        assert g(u) == pytest.approx(1.0 / 3.0, abs=1e-8)
    for h in HOOVER_ROUTES:
        assert h(u) == pytest.approx(0.25, abs=1e-9)


def test_exponential_values():
    d = exponential(1.0)
    assert gini_mean_difference(d) == pytest.approx(0.5, abs=1e-8)
    # H = E|X - 1| / 2 = (2/e) / 2
    assert hoover_mean_deviation(d) == pytest.approx(1.0 / math.e, abs=1e-9)


def test_lognormal_gini_closed_form():
    # G = 2 Phi(sigma / sqrt 2) - 1, scale-free in the log-mean.
    sigma = 0.5
    expected = 2.0 * scipy.special.ndtr(sigma / math.sqrt(2.0)) - 1.0
    assert gini_mean_difference(lognormal(0.0, sigma)) == pytest.approx(
        expected, abs=1e-7
    )
    assert gini_mean_difference(lognormal(2.0, sigma)) == pytest.approx(
        expected, abs=1e-7
    )


@pytest.mark.parametrize("sigma", [1.0, 2.0, 2.5, 3.0, 3.5])
def test_lognormal_heavy_tail_closed_forms(sigma):
    # G = erf(sigma / 2) and H = erf(sigma / (2 sqrt 2)); at sigma = 3.5
    # the density spans about 25 decades above 1e-13 survival.
    d = lognormal(0.0, sigma)
    assert gini_dorfman(d) == pytest.approx(math.erf(sigma / 2.0), abs=1e-8)
    assert hoover_mean_deviation(d) == pytest.approx(
        math.erf(sigma / (2.0 * math.sqrt(2.0))), abs=1e-8
    )
    assert index_report(d).max_cross_route_residual <= 1e-4
    assert d.mean_routes()[0] == pytest.approx(d.mean, rel=1e-8)


@pytest.mark.parametrize("sigma", [4.0, 5.0, 6.0])
def test_lognormal_mean_difference_holds_the_whole_tail(sigma):
    # Above 1 - 2^-44 sits 3.1e-4 of the mean at sigma = 4 and 0.12 at 6;
    # the mean-difference route's last p-cell must carry it.
    d = lognormal(0.0, sigma)
    assert gini_mean_difference(d) == pytest.approx(math.erf(sigma / 2.0), abs=1e-12)
    assert index_report(d).max_cross_route_residual <= 1e-4


TAIL_PARTNERS = (
    ("exp(1)", exponential(1.0)),
    ("gamma(0.3,1)", gamma_dist(0.3, 1.0)),
    ("discrete(0,1,5)", discrete([0.0, 1.0, 5.0])),
)


@pytest.mark.parametrize("partner", [x for _, x in TAIL_PARTNERS], ids=[n for n, _ in TAIL_PARTNERS])
@pytest.mark.parametrize("sigma", [2.0, 3.0, 4.0, 5.0, 6.0])
def test_lorenz_route_in_the_tail_staircase(sigma, partner):
    # Near p = 1 a mixture's computed cdf rises one ulp of p per step, so its
    # quantile there is resolved only to the staircase; the Lorenz route must
    # still match the x-space survival route, which inverts nothing.
    d = mixture([(0.5, lognormal(0.0, sigma)), (0.5, partner)])
    report = index_report(d)
    assert abs(report.gini_lorenz - report.gini_dorfman) <= 1e-9
    assert abs(report.gini_mean_difference - report.gini_lorenz) <= 1e-12
    assert report.max_cross_route_residual <= 1e-4


@pytest.mark.parametrize("partner", [x for _, x in TAIL_PARTNERS], ids=[n for n, _ in TAIL_PARTNERS])
@pytest.mark.parametrize("sigma", [2.0, 3.0, 4.0, 5.0, 6.0])
def test_mean_difference_quantile_budget(monkeypatch, sigma, partner):
    # The diagonal's quadrature once ran past 16384 panels, to 791,593
    # quantile points, on the staircase of these mixtures near p = 1.
    quantile = Distribution._quantile_arr
    points = []

    def counted(self, p):
        points.append(np.size(p))
        return quantile(self, p)

    monkeypatch.setattr(Distribution, "_quantile_arr", counted)
    gini_mean_difference(mixture([(0.5, lognormal(0.0, sigma)), (0.5, partner)]))
    assert 0 < sum(points) <= 3000


@pytest.mark.parametrize("part", [exponential(1.0), uniform(1.0, 2.0)], ids=["exp(1)", "uniform(1,2)"])
def test_mass_only_in_the_last_p_cell(part):
    # Every p-cell below the last holds Q = 0, so the diagonal's quadrature
    # has nothing to integrate and no scale to set its budget by.
    report = index_report(mixture([(1.0 - 1e-13, atom(0.0)), (1e-13, part)]))
    assert report.max_cross_route_residual <= 1e-4


def _exact_gini_hoover(values, masses):
    """Gini and Hoover of the law with these float atoms and masses, in
    exact rational arithmetic (masses normalized by their exact sum)."""
    x = [Fraction(v) for v in values]
    w = [Fraction(m) for m in masses]
    total = sum(w)
    mean = sum(wi * xi for wi, xi in zip(w, x)) / total
    diff = sum(wi * wj * abs(xi - xj) for wi, xi in zip(w, x) for wj, xj in zip(w, x))
    dev = sum(wi * abs(xi - mean) for wi, xi in zip(w, x))
    return diff / (2 * mean * total**2), dev / (2 * mean * total)


FAR_ATOM_LAWS = [
    ("1e12 of mass 1e-9", [1.0, 1e12], [1.0 - 1e-9, 1e-9]),
    ("4.8e8 of mass 8.4e-10", [0.5, 1.0, 3.0, 4.8e8], [0.3, 0.3, 0.4 - 8.4e-10, 8.4e-10]),
    (
        "1e9 of mass 1e-10 over 100 points",
        np.append(np.linspace(0.0, 1.0, 100), 1e9).tolist(),
        [(1.0 - 1e-10) / 100] * 100 + [1e-10],
    ),
]


@pytest.mark.parametrize(
    "values, masses", [law[1:] for law in FAR_ATOM_LAWS], ids=[law[0] for law in FAR_ATOM_LAWS]
)
def test_far_atom_of_tiny_mass_on_every_route(values, masses):
    # gini_dorfman took the survival as 1 - cumsum(masses), which rounds the
    # far atom's mass against 1: 2.0e-6 off on the 100-point law.
    d = discrete(values, masses)
    gini, hoover = (float(v) for v in _exact_gini_hoover(values, masses))
    for route in GINI_ROUTES:
        assert route(d) == pytest.approx(gini, rel=1e-14, abs=0.0), route.__name__
    for route in HOOVER_ROUTES:
        assert route(d) == pytest.approx(hoover, rel=1e-14, abs=0.0), route.__name__


def test_hoover_cdf_of_a_discrete_law_integrates_in_x(monkeypatch):
    # A finite-discrete law read L(F(mean)) off its atom block's running
    # sums, the Lorenz identity hoover_max reads too, so the two routes
    # agreed bit for bit and checked nothing.
    calls = []
    x_integral = Distribution._x_integral

    def recording(self, f, a, b, tol):
        calls.append((a, b))
        return x_integral(self, f, a, b, tol)

    monkeypatch.setattr(Distribution, "_x_integral", recording)
    values, masses = [0.5, 1.0, 3.0, 7.0], [0.1, 0.4, 0.3, 0.2]
    hoover = float(_exact_gini_hoover(values, masses)[1])
    assert hoover_cdf(discrete(values, masses)) == pytest.approx(hoover, rel=1e-14, abs=0.0)
    # F(mean) = 1/2, whose quantile is the atom at 1
    assert calls == [(0.0, 1.0)]


def test_midpoint_atom_mixture_cross_route():
    d = midpoint_atom_mixture()
    g = gini_mean_difference(d)
    assert gini_lorenz(d) == pytest.approx(g, abs=1e-6)
    assert gini_dorfman(d) == pytest.approx(g, abs=1e-6)
    assert g == pytest.approx(5.0 / 24.0, abs=1e-8)


def test_equal_hoover_distinct_gini_pair():
    mu = discrete([0.0, 0.0, 1.0, 3.0])
    nu = discrete([0.0, 0.0, 2.0, 2.0])
    assert hoover_cdf(mu) == pytest.approx(0.5, abs=1e-12)
    assert hoover_cdf(nu) == pytest.approx(0.5, abs=1e-12)
    g_mu = gini_mean_difference(mu)
    g_nu = gini_mean_difference(nu)
    assert g_mu > g_nu + 1e-3
    # same Hoover, different Gini: the two indices measure different things
    assert hoover_mean_deviation(mu) == pytest.approx(
        hoover_mean_deviation(nu), abs=1e-12
    )


def test_hoover_max_location_on_uniform():
    assert hoover_max(uniform(0.0, 1.0)) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize(
    "d",
    [uniform(0.0, 1.0), mixture([(0.6, gamma_dist(2.0, 1.0)), (0.4, atom(1.5))])],
    ids=["uniform", "gamma_atom"],
)
def test_hoover_max_sweep_catches_a_gap_above_the_value(monkeypatch, d):
    # A quantile read 10 % low at one probe past F(mean) lowers L there,
    # so the sweep finds a gap above the one at F(mean) and raises.
    p_star = float(d.cdf(d.mean))
    sweep = _sweep(d)
    probe = sweep[np.searchsorted(sweep, p_star) + 3]
    quantile = Distribution._quantile_arr

    def low_at_probe(self, p):
        q = quantile(self, p)
        return np.where(np.asarray(p) == probe, 0.9 * q, q)

    monkeypatch.setattr(Distribution, "_quantile_arr", low_at_probe)
    with pytest.raises(RuntimeError, match="Lorenz gap sweep exceeded"):
        hoover_max(d)


@pytest.mark.parametrize(
    "d",
    [uniform(0.0, 1.0), mixture([(0.6, gamma_dist(2.0, 1.0)), (0.4, atom(1.5))])],
    ids=["uniform", "gamma_atom"],
)
def test_hoover_max_sweep_reads_the_nodes_of_narrow_tail_cells(monkeypatch, d):
    # The sweep skipped the nodes of cells narrower than 2^-10, so a quantile
    # read 0 mid-cell of [1 - 2^-11, 1 - 2^-12] went unseen. It now reads
    # the first-round nodes of every cell.
    probe = quadrature.first_nodes(np.array([1.0 - 2.0**-11, 1.0 - 2.0**-12]))[7]
    assert probe in _sweep(d)
    quantile = Distribution._quantile_arr

    def zero_at_probe(self, p):
        q = quantile(self, p)
        return np.where(np.asarray(p) == probe, 0.0, q)

    monkeypatch.setattr(Distribution, "_quantile_arr", zero_at_probe)
    with pytest.raises(RuntimeError, match="Lorenz gap sweep exceeded"):
        hoover_max(d)


def test_robin_hood_examples():
    assert robin_hood_shares(atom(2.0)) == (0.0, 0.0)
    r, p = robin_hood_shares(discrete([0.0, 1.0]))
    assert r == pytest.approx(0.25, abs=1e-12)
    assert p == pytest.approx(0.25, abs=1e-12)
    r2, p2 = robin_hood_shares(discrete([0.0, 0.0, 2.0, 2.0]))
    assert r2 == pytest.approx(0.5, abs=1e-12)
    assert p2 == pytest.approx(0.5, abs=1e-12)


def test_robin_hood_equals_hoover_times_mean(battery):
    for name, d in battery:
        r, p = robin_hood_shares(d)
        tol = 1e-8 if d.is_finite_discrete else 1e-6
        assert abs(r - p) < tol, name
        assert abs(r / d.mean - hoover_mean_deviation(d)) < tol, name


def test_atom_exactly_at_mean_contributes_nothing():
    # mass at the mean belongs to neither the rich nor the poor side
    d = discrete([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    r, p = robin_hood_shares(d)
    assert r == pytest.approx(0.25, abs=1e-14)
    assert p == pytest.approx(0.25, abs=1e-14)


def test_report_structure_and_residuals():
    rep = index_report(midpoint_atom_mixture())
    payload = rep.to_json_dict()
    assert set(payload) == {
        "gini_mean_difference", "gini_dorfman", "gini_lorenz",
        "hoover_mean_deviation", "hoover_cdf", "hoover_max",
        "r_share", "p_share", "max_cross_route_residual", "residuals",
    }
    assert rep.max_cross_route_residual < 1e-4
    assert all(v >= 0.0 for v in rep.residuals().values())


def test_report_json_keys_are_its_fields_in_order():
    payload = index_report(exponential(1.0)).to_json_dict()
    assert list(payload) == [f.name for f in fields(IndexReport)] + ["residuals"]


def test_hoover_below_gini(battery):
    for name, d in battery:
        g = gini_mean_difference(d)
        h = hoover_mean_deviation(d)
        assert h <= g + 1e-8, name
        assert 0.0 <= h < 1.0 and 0.0 <= g < 1.0, name


def test_zero_index_iff_dirac(battery):
    for name, d in battery:
        locs, _ = (d.support_atoms() if d.is_finite_discrete else (None, None))
        is_dirac = locs is not None and len(locs) == 1
        g = gini_mean_difference(d)
        if is_dirac:
            assert g == pytest.approx(0.0, abs=1e-12), name
            assert hoover_mean_deviation(d) == pytest.approx(0.0, abs=1e-12), name
        else:
            assert g > 1e-6, name
            assert hoover_mean_deviation(d) > 1e-6, name


def test_scale_invariance():
    d = midpoint_atom_mixture()
    for route in GINI_ROUTES + HOOVER_ROUTES:
        assert route(d.rescaled(11.0)) == pytest.approx(route(d), abs=1e-8)


SCALE_LAWS = [
    ("uniform(0,1)", uniform(0.0, 1.0)),
    ("exp(1)", exponential(1.0)),
    ("gamma(2,0.5)", gamma_dist(2.0, 0.5)),
    ("lognormal(0,0.5)", lognormal(0.0, 0.5)),
    ("mix(0.3*atom(0),0.7*gamma(2,0.5))", mixture([(0.3, atom(0.0)), (0.7, gamma_dist(2.0, 0.5))])),
]


@pytest.mark.parametrize("d", [d for _, d in SCALE_LAWS], ids=[n for n, _ in SCALE_LAWS])
def test_index_report_is_scale_invariant(d, deadline):
    # Every index is scale-free, so rescaling by 1e-12 .. 1e12 must change
    # neither the values nor the agreement between routes.
    with deadline(60):
        unit = index_report(d)
        for scale in (1e-12, 1e-6, 1e6, 1e12):
            report = index_report(d.rescaled(scale))
            assert report.max_cross_route_residual <= 1e-9, scale
            for route in GINI_ROUTES + HOOVER_ROUTES:
                field = route.__name__
                assert abs(getattr(report, field) - getattr(unit, field)) <= 1e-9, (scale, field)


def test_index_report_cost_does_not_grow_with_scale(monkeypatch, deadline):
    points = [0]
    plain = Distribution._cdf_arr

    def counted(self, x):
        x = np.asarray(x, dtype=float)
        points[0] += x.size
        return plain(self, x)

    def cost(d):
        # a cold copy: the module's laws are already warmed by other tests,
        # and a warm quantile memo answers inversions for free
        points[0] = 0
        index_report(Distribution(d.parts))
        return points[0]

    monkeypatch.setattr(Distribution, "_cdf_arr", counted)
    with deadline(120):
        for name, d in SCALE_LAWS:
            unit, huge = cost(d), cost(d.rescaled(1e12))
            assert huge <= 1.5 * unit, (name, unit, huge)


def test_outside_m_is_typed(battery):
    for route in GINI_ROUTES + HOOVER_ROUTES:
        with pytest.raises(ZeroMeanError):
            route(atom(0.0))


# ---------------------------------------------------------------------------
# extremal analysis
# ---------------------------------------------------------------------------


def test_gini_range_formula():
    assert gini_range_given_hoover(0.5) == (0.5, 0.75)
    lo, hi = gini_range_given_hoover(0.1)
    assert lo == pytest.approx(0.1)
    assert hi == pytest.approx(0.19)


def test_gini_range_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            gini_range_given_hoover(bad)


def test_extremal_bimodal_structure():
    d = extremal_bimodal(0.5, 1.0, 0.5)
    locs, masses = d.support_atoms()
    np.testing.assert_allclose(locs, [0.0, 2.0])
    np.testing.assert_allclose(masses, [0.5, 0.5])
    d2 = extremal_bimodal(0.25, 2.0, 0.5)
    locs2, _ = d2.support_atoms()
    np.testing.assert_allclose(locs2, [1.0, 3.0])


def test_extremal_bimodal_hits_the_target():
    for h in (0.1, 0.45, 0.8):
        for alpha in (h, (h + 1.0) / 2.0, 0.95):
            d = extremal_bimodal(h, 3.0, alpha)
            assert d.mean == pytest.approx(3.0, rel=1e-12)
            assert gini_mean_difference(d) == pytest.approx(h, abs=1e-12)
            assert hoover_mean_deviation(d) == pytest.approx(h, abs=1e-12)


def test_extremal_bimodal_validation():
    with pytest.raises(ValueError, match="alpha"):
        extremal_bimodal(0.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        extremal_bimodal(1.2, 1.0)


def test_three_group_sweeps_the_open_range():
    h = 0.3
    seen = []
    for alpha in (h, 0.5, 0.75, 0.95):
        d = three_group(h, alpha)
        g = gini_mean_difference(d)
        assert g == pytest.approx(h + alpha * h - h * h, abs=1e-12)
        assert hoover_mean_deviation(d) == pytest.approx(h, abs=1e-12)
        seen.append(g)
    lo, hi = gini_range_given_hoover(h)
    assert all(lo <= g < hi for g in seen)
    assert seen == sorted(seen)


@pytest.mark.parametrize("sigma", [2.0, 4.0, 6.0])
def test_index_report_integrals_end_within_budget(monkeypatch, sigma):
    # 1 - F has no digits left in a heavy tail, so integrating it ran to the
    # 4096-panel cap and stopped 7 to 3e6 times over budget; the x-space
    # routes integrate the survival function itself.
    refine, eval_panels = quadrature._refine, quadrature._eval_panels
    over = []

    def logged(f, lo, hi, tol):
        rounds = []

        def panels(g, a, b):
            vals, errs = eval_panels(g, a, b)
            rounds.append((a, b, vals, errs))
            return vals, errs

        monkeypatch.setattr(quadrature, "_eval_panels", panels)
        try:
            out = refine(f, lo, hi, tol)
        finally:
            monkeypatch.setattr(quadrature, "_eval_panels", eval_panels)
        # A panel is final when no panel evaluated in a later round lies
        # inside it; the panels of one round are disjoint.
        vals, errs = [], []
        for r, (a, b, v, e) in enumerate(rounds):
            later = np.sort(np.concatenate([0.5 * (c + d) for c, d, _, _ in rounds[r + 1:]] + [[]]))
            final = later.searchsorted(a, side="right") == later.searchsorted(b, side="left")
            vals.append(v[final])
            errs.append(e[final])
        vals, errs = np.concatenate(vals), np.concatenate(errs)
        assert vals.size == out.size
        if errs.sum() > tol * np.abs(vals).sum():
            over.append((vals.size, errs.sum()))
        return out

    monkeypatch.setattr(quadrature, "_refine", logged)
    index_report(lognormal(0.0, sigma))
    assert over == []
