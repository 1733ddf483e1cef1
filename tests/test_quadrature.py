"""Integration kernel checks: exactness, forced splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorenzkit import quadrature
from lorenzkit.quadrature import PANEL_LIMIT, _unique, first_nodes, integrate

from test_measures import _nested_budget_laws


def test_polynomial_is_exact():
    # The 15-point rule integrates degree-29 polynomials exactly; a quintic
    # should come back at rounding error without any subdivision.
    val = integrate(lambda x: x**5, 0.0, 2.0)
    assert val == pytest.approx(64.0 / 6.0, abs=1e-13)


def test_exponential_meets_tolerance():
    val = integrate(np.exp, 0.0, 1.0, tol=1e-12)
    assert abs(val - (math.e - 1.0)) < 1e-12


def test_kink_with_forced_breakpoint():
    f = lambda x: np.abs(x - 1.0 / 3.0)
    val = integrate(f, 0.0, 1.0, points=[1.0 / 3.0], tol=1e-12)
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    assert abs(val - exact) < 1e-12


def test_step_function_with_forced_breakpoint():
    f = lambda x: np.where(x < 0.7, 1.0, 3.0)
    val = integrate(f, 0.0, 1.0, points=[0.7], tol=1e-10)
    assert val == pytest.approx(0.7 + 3.0 * 0.3, abs=1e-9)


def test_points_outside_interval_are_ignored():
    val = integrate(lambda x: x, 0.0, 1.0, points=[-5.0, 2.0, 0.5])
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "points",
    [[-1.0, 0.5, 3.0, 7.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.5, 0.5], [1.5, 0.25, 1.75, 0.5], []],
    ids=["outside", "at_ends", "duplicates", "unsorted", "empty"],
)
def test_initial_edges_keep_the_points_inside(points):
    a, b = 0.0, 2.0
    old_rule = np.unique(np.concatenate(([a], np.asarray(sorted(p for p in points if a < p < b), dtype=float), [b])))
    for given in (points, np.asarray(points, dtype=float)):
        assert quadrature._initial_edges(a, b, given).tobytes() == old_rule.tobytes()


def test_empty_interval():
    assert integrate(np.sin, 2.0, 2.0) == 0.0


def test_vectorized_integrand_contract():
    seen = []

    def f(x):
        seen.append(np.ndim(x))
        return x * 0.0 + 1.0

    assert integrate(f, 0.0, 3.0) == pytest.approx(3.0)
    assert all(nd == 1 for nd in seen)


def test_oscillatory_integrand_converges():
    # 25 periods of sin over [0, 1]; adaptive refinement has to work for this.
    w = 50.0 * math.pi
    val = integrate(lambda x: np.sin(w * x), 0.0, 1.0, tol=1e-11)
    assert abs(val - (1.0 - math.cos(w)) / w) < 1e-10


def test_refinement_never_passes_the_panel_limit(monkeypatch):
    # Seeded noise never meets the budget, so refinement runs to the cap;
    # bisecting every flagged panel could overshoot it up to 2x.
    rng = np.random.default_rng(13)
    refine, final = quadrature._refine, []

    def logged(*args):
        vals = refine(*args)
        final.append(vals.size)
        return vals

    monkeypatch.setattr(quadrature, "_refine", logged)
    integrate(lambda x: rng.random(x.shape), 0.0, 1.0, points=np.linspace(0.0, 1.0, 700))
    assert PANEL_LIMIT - 7 <= final[0] <= PANEL_LIMIT


@pytest.mark.parametrize("route", ["lorenz_area", "diagonal"])
def test_first_round_evaluates_first_nodes(route):
    # A law's quantile memo is filled at `first_nodes` before the index
    # routes run, so they must be the very floats the first round asks for:
    # the Lorenz area's call over [0, 1] and the diagonal's over the cells
    # below the last.
    cells = _nested_budget_laws()[0]._p_cells
    edges, points = (cells, cells) if route == "lorenz_area" else (cells[:-1], cells[:-2])
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.sqrt(x)

    integrate(f, 0.0, edges[-1], points=points)
    assert np.array_equal(seen[0].view(np.uint64), first_nodes(edges).view(np.uint64))


#: floats that tie, differ only in sign, or are subnormal or tiny
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 0.5)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_subnormal=True)),
        max_size=40,
    ),
    order=st.sampled_from(("given", "sorted", "reversed")),
)
def test_unique_is_np_unique_bit_for_bit(values, order):
    a = np.array(values, dtype=float)
    if order != "given":
        a = np.sort(a)[:: 1 if order == "sorted" else -1]
    got, want = _unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("a", [[], [3.5], [-0.0], [0.0, -0.0], [-0.0, 0.0], [[2.0, 1.0], [1.0, -0.0]]])
def test_unique_of_empty_one_element_and_nested_arrays(a):
    a = np.array(a, dtype=float)
    assert _unique(a).view(np.uint64).tolist() == np.unique(a).view(np.uint64).tolist()
