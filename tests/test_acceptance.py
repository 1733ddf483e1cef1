"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Each criterion asserts its numeric tolerance and its runtime budget.
"""

import time

import numpy as np
import pytest

from lorenzkit import (
    discrete,
    extremal_bimodal,
    midpoint_atom_mixture,
    gini_dorfman,
    gini_lorenz,
    gini_mean_difference,
    hoover_cdf,
    hoover_max,
    hoover_mean_deviation,
    lorenz,
    pseudo_lorenz,
    reconstruct,
    scenario_sequence,
    sequence_diagnostics,
    three_group,
    uniform,
    w1_routes,
)
from lorenzkit.catalog import standard_battery
from lorenzkit.estimators import (
    ExperimentSpec,
    estimate_gini,
    estimate_hoover,
    quantile_approx,
    run_experiment,
)

import test_properties

GINI_ROUTES = (gini_mean_difference, gini_dorfman, gini_lorenz)
HOOVER_ROUTES = (hoover_mean_deviation, hoover_cdf, hoover_max)

BATTERY = standard_battery()


class _Gate:
    """Times a criterion body and prints exactly one summary line."""

    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget
        # seconds the criterion spent outside its body, counted in its time
        self.elsewhere = 0.0

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0 + self.elsewhere
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.label}): {status} "
              f"[{elapsed:.2f}s / budget {self.budget:.0f}s]")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} overran its {self.budget}s budget"
            )
        return False


def test_criterion_1_two_point_family_exactness():
    with _Gate(1, "two-point family, six routes", 1.0):
        for a in (0.1, 0.25, 0.5, 0.9):
            d = discrete([0.0, 1.0], [a, 1.0 - a])
            for route in GINI_ROUTES + HOOVER_ROUTES:
                assert abs(route(d) - a) < 1e-10, (a, route.__name__)


def test_criterion_2_cross_route_battery():
    with _Gate(2, "cross-route residuals on the battery", 30.0):
        assert len(BATTERY) == 20
        for name, d in BATTERY:
            tol = 1e-8 if d.is_finite_discrete else 1e-4
            gs = [route(d) for route in GINI_ROUTES]
            hs = [route(d) for route in HOOVER_ROUTES]
            assert max(gs) - min(gs) <= tol, (name, gs)
            assert max(hs) - min(hs) <= tol, (name, hs)


def test_criterion_3_midpoint_atom_goldens():
    with _Gate(3, "atom-plus-density worked-example goldens", 1.0):
        d = midpoint_atom_mixture()
        curve = lorenz(d)
        checks = [
            (d.cdf(0.5), 0.75),
            (d.cdf_left(0.5), 0.25),
            (d.quantile(0.5), 0.5),
            (curve.eval(0.25), 0.125),
            (curve.eval(0.75), 0.625),
            (pseudo_lorenz(d, 0.25), 0.625),
        ]
        for got, want in checks:
            assert abs(got - want) < 1e-9, (got, want)


def test_criterion_4_extremal_sweep():
    with _Gate(4, "extremal and three-group sweep", 5.0):
        for h in (0.1, 0.3, 0.5, 0.7):
            for a in (h, (h + 1.0) / 2.0, 0.95):
                b = extremal_bimodal(h, alpha=a)
                assert abs(gini_mean_difference(b) - h) < 1e-8
                assert abs(hoover_mean_deviation(b) - h) < 1e-8
                t = three_group(h, a)
                assert abs(gini_mean_difference(t) - (h + a * h - h * h)) < 1e-8
        for name, d in BATTERY:
            h = hoover_mean_deviation(d)
            if h > 0.0:
                assert gini_mean_difference(d) < 2.0 * h - h * h, name


def test_criterion_5_mass_escape_limits():
    with _Gate(5, "second escape scenario vs frozen oracle", 5.0):
        seq, limit = scenario_sequence("counterexample2", 50)
        report = sequence_diagnostics(seq, limit)
        assert report.verdict == "weak_only"
        # closed forms derived by the double-sum oracle in
        # scripts/oracle_mass_escape.py before these tests were written
        for k, step in enumerate(report.steps, start=1):
            u = 1.0 / (4 * k) ** 2
            g = (5.0 - 8.0 * u + 4.0 * u * u) / (6.0 - 4.0 * u)
            h = (2.0 - 3.0 * u + 2.0 * u * u) / (3.0 - 2.0 * u)
            assert abs(step.gini - g) < 1e-12
            assert abs(step.hoover - h) < 1e-12
        last = report.steps[-1]  # n = 200
        assert abs(last.gini - 5.0 / 6.0) < 5e-3
        assert abs(last.hoover - 2.0 / 3.0) < 5e-3


def test_criterion_6_quantile_table_sandwich():
    with _Gate(6, "table cdf sandwich, exact", 10.0):
        for name, d in BATTERY:
            hi = d.quantile(1.0 - 1.0 / 4096.0) * 1.25 + 1.0
            xs = np.linspace(0.0, hi, 1024)
            fx = d.cdf(xs)
            for k in range(9):
                ell = 2 ** k
                gap = quantile_approx(d, ell).cdf(xs) - fx
                assert float(gap.min()) >= 0.0, (name, ell)
                assert float(gap.max()) <= 1.0 / ell, (name, ell)


def test_criterion_7_desk_scale_estimation():
    with _Gate(7, "sampling medians and kde schedule", 60.0):
        u = uniform(0.0, 1.0)
        g_errs, h_errs = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = u.sample(rng, 10_000)
            g_errs.append(abs(estimate_gini(s) - 1.0 / 3.0))
            h_errs.append(abs(estimate_hoover(s) - 0.25))
        assert float(np.median(g_errs)) < 0.01
        assert float(np.median(h_errs)) < 0.01
        report = run_experiment(ExperimentSpec(
            scheme="kde", source="uniform(0,1)", kernel="gaussian", seed=0,
            sample_sizes=(100, 1_000, 10_000), bandwidths=(0.2, 0.05, 0.01),
        ))
        w1s = [s.w1_to_limit for s in report.steps]
        assert w1s[0] > w1s[1] > w1s[2], w1s


def test_criterion_8_curve_round_trip():
    with _Gate(8, "Lorenz round trip on a 4096 grid", 30.0):
        grid = np.linspace(0.0, 1.0, 4097)
        for name, d in BATTERY:
            rebuilt = reconstruct(lorenz(d).eval(grid), d.mean, grid)
            err, by_cdf = w1_routes(rebuilt, d)
            assert err <= 1e-3, (name, err)
            # the rebuilt law's cdf is a staircase that meets its source's at
            # its jumps, one in every grid cell, so the gap integrator meets
            # thousands of cells that end at a jump; both routes must still
            # meet their budget, not stop at a cap
            assert abs(err - by_cdf) <= 1e-7 * (rebuilt.mean + d.mean), name
            if d.is_finite_discrete:
                _, masses = d.support_atoms()
                knots = np.cumsum(masses)[:-1] * 4096.0
                if np.all(np.abs(knots - np.round(knots)) < 1e-9):
                    assert err <= 1e-12, (name, err)


def test_criterion_9_property_suites():
    # The suites' own counts and times from this session (conftest.py sorts
    # this test after them), their times counted in the gate's; when the
    # session did not run every suite, all run here, in process, on its clock.
    with _Gate(9, "property suites at 200 cases", 120.0) as gate:
        suites = sorted(name for name in vars(test_properties) if name.startswith("test_"))
        runs = test_properties.GENERATED
        if suites == sorted(runs):
            gate.elsewhere = sum(seconds for _, seconds in runs.values())
        else:
            runs.clear()
            pytest.main([test_properties.__file__, "-q", "-p", "no:cacheprovider"])
        assert len(suites) == 8, f"{len(suites)} property suites, not 8"
        assert sorted(runs) == suites, f"did not run: {sorted(set(suites) - set(runs))}"
        short = {name: n for name, (n, _) in runs.items() if (n or 0) < 200}
        assert not short, f"failed (None) or under 200 generate-phase examples: {short}"
