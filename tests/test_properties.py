"""Randomized invariant checks.

Eight suites, one per structural law the library promises. Each runs with
max_examples=200 and no example database. A `conftest.py` hook records each
suite's generate-phase passing count from hypothesis's statistics in
`GENERATED`, with the suite's time, and acceptance criterion 9 asserts 200
for each of the eight and the eight times within its budget.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorenzkit import (
    atom,
    discrete,
    exponential,
    gamma_dist,
    gini_mean_difference,
    hoover_mean_deviation,
    lognormal,
    lorenz,
    lorenz_dominates,
    mixture,
    uniform,
    w1,
    w1_routes,
)
from lorenzkit.measures import TAIL_LEVELS

from galois import assert_galois_pair
from lorenzkit.estimators import (
    empirical,
    estimate_gini,
    estimate_hoover,
    estimate_lorenz_at,
)

MAX_EXAMPLES = 200
# No example database: an example saved by an earlier failing run would
# replay before the generate phase, and every count must be generate-phase.
SUITE = settings(max_examples=MAX_EXAMPLES, deadline=None, database=None)
# suite name -> (its generate-phase passing count in this session, or None if
# it did not pass; its call time in seconds); filled by conftest.py, read by
# acceptance criterion 9
GENERATED: dict[str, tuple[int | None, float]] = {}

locs_st = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=1, max_size=8,
)


@st.composite
def discrete_dists(draw, positive_mean=False):
    locs = draw(locs_st)
    ticks = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
    total = sum(ticks)
    d = discrete(locs, [t / total for t in ticks])
    if positive_mean:
        assume(d.mean > 1e-3)
    return d


PARAMETRIC_POOL = (
    uniform(0.0, 1.0),
    uniform(2.0, 4.0),
    exponential(1.0),
    gamma_dist(2.0, 0.5),
    lognormal(0.0, 0.5),
)


@SUITE
@given(
    d=discrete_dists(),
    p=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    q=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
)
def test_quantile_cdf_galois_connection(d, p, q):
    assert (d.quantile(p) <= q) == (p <= d.cdf(q))


@st.composite
def mixture_dists(draw):
    """1-3 pool laws plus lognormal(0, sigma <= 6), 0-3 atoms, sometimes a
    far atom of mass near 1e-9, all rescaled by 10^k, |k| <= 12."""
    parts = [draw(st.sampled_from(PARAMETRIC_POOL)) for _ in range(draw(st.integers(1, 3)))]
    parts.append(lognormal(0.0, draw(st.floats(min_value=0.05, max_value=6.0))))
    parts += [atom(x) for x in draw(st.lists(st.floats(0.0, 50.0), max_size=3))]
    ticks = draw(st.lists(st.integers(1, 9), min_size=len(parts), max_size=len(parts)))
    weighted = [(t / sum(ticks), d) for t, d in zip(ticks, parts)]
    if draw(st.booleans()):
        far = draw(st.floats(min_value=3e-10, max_value=3e-9))
        weighted = [(w * (1.0 - far), d) for w, d in weighted]
        weighted.append((far, atom(10.0 ** draw(st.integers(3, 9)))))
    return mixture(weighted).rescaled(10.0 ** draw(st.integers(-12, 12)))


GALOIS_LADDER = np.concatenate([np.linspace(0.0, 1.0, 65)[:-1], TAIL_LEVELS])


@SUITE
@given(
    d=mixture_dists(),
    extra=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
)
def test_mixture_quantile_meets_galois_pair_exactly(d, extra):
    ps = np.unique(np.concatenate([GALOIS_LADDER, extra]))
    ps = ps[ps <= d.cdf(d.support_hi(1e-300))]
    # the cdf form up to F(x_h), the survival form above (`galois`)
    assert_galois_pair(d, ps)


@SUITE
@given(d=st.one_of(discrete_dists(positive_mean=True), mixture_dists()))
def test_hoover_never_exceeds_gini(d):
    g = gini_mean_difference(d)
    h = hoover_mean_deviation(d)
    assert 0.0 <= h <= g + 1e-12
    assert g < 1.0


@SUITE
@given(
    d=discrete_dists(positive_mean=True),
    c=st.floats(min_value=0.01, max_value=100.0),
)
def test_indices_and_curve_are_scale_invariant(d, c):
    scaled = d.rescaled(c)
    assert gini_mean_difference(scaled) == pytest.approx(
        gini_mean_difference(d), abs=1e-9
    )
    assert hoover_mean_deviation(scaled) == pytest.approx(
        hoover_mean_deviation(d), abs=1e-9
    )
    ps = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(
        lorenz(scaled).eval(ps), lorenz(d).eval(ps), atol=1e-9
    )


@SUITE
@given(
    d=discrete_dists(positive_mean=True),
    lam=st.floats(min_value=0.01, max_value=0.99),
)
def test_mean_preserving_contraction_lowers_the_curve(d, lam):
    # pushing a lambda-slice of the mass onto the mean can only equalize
    squeezed = mixture([(lam, atom(d.mean)), (1.0 - lam, d)])
    assert lorenz_dominates(d, squeezed)
    assert gini_mean_difference(d) >= gini_mean_difference(squeezed) - 1e-9
    assert hoover_mean_deviation(d) >= hoover_mean_deviation(squeezed) - 1e-9


@SUITE
@given(a=discrete_dists(), b=discrete_dists(), c=discrete_dists())
def test_transport_distance_metric_laws(a, b, c):
    ab = w1(a, b)
    assert ab == w1(b, a)
    assert ab >= 0.0
    assert ab <= w1(a, c) + w1(c, b) + 1e-10
    assert w1(a, a) < 1e-12


@SUITE
@given(
    d1=discrete_dists(),
    d2=discrete_dists(),
    pick=st.integers(min_value=-1, max_value=len(PARAMETRIC_POOL) - 1),
)
def test_w1_routes_agree(d1, d2, pick):
    if pick >= 0:
        d2 = PARAMETRIC_POOL[pick]
    by_q, by_f = w1_routes(d1, d2)
    scale = d1.mean + d2.mean
    tol = 1e-8 if d2.is_finite_discrete else 1e-5
    assert abs(by_q - by_f) <= tol * scale


@SUITE
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=40,
    ),
    p=st.floats(min_value=0.0, max_value=1.0),
)
def test_sample_estimators_match_empirical_law(values, p):
    assume(sum(values) > 1e-6)
    d = empirical(values)
    assert abs(estimate_gini(values) - gini_mean_difference(d)) < 1e-12
    assert abs(estimate_hoover(values) - hoover_mean_deviation(d)) < 1e-12
    assert abs(estimate_lorenz_at(values, p) - lorenz(d).eval(p)) < 1e-12
