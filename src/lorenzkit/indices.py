"""Gini and Hoover indices, each by several independent routes.

Routes are deliberately redundant: a disagreement between them is the
cheapest bug detector this package has, so the routes of one index rest on
different primitives.

The routes of one law share its quantile values: a law with an iterative
quantile inverts each p once and keeps it in a memo (`Distribution`), which
changes no number because a quantile depends on its p alone. The routes read
Q only through S(p), the integral of Q over [0, p], or through the
mean-difference diagonal, so the memo inverts each p to within tau =
`measures.ROUTE_QUANTILE_TOL` times the mean above Q(p), not to the float:
S(p) is stationary in Q and moves by at most tau (F(q-) - p) <= tau, and a
diagonal cell of width w by at most tau w^2 / 2, tau / 128 over the 64-cell
grid. Dropping tau to 0 moves no route by more than 1e-13 of its value on
the test laws. `index_report` inverts
every p the routes' first rounds read (`Distribution._first_round_p`) in one
batch before any route runs, so a cold law pays one run of inversion rounds
for them, not one per route. The routes share no quadrature: each integral
runs its own panels and error budget, even where the mean-difference
diagonal and the Lorenz area start from the same probability cells
(`Distribution._p_cells`).

- cdf quadrature in x: integrals of F or of the survival function sf over
  the support, split at the law's breakpoints and at halvings of the
  integral's upper end (`Distribution._x_integral`; to infinity,
  `Distribution._sf_integral`). sf is summed from the parts' own survival
  functions, not taken as 1 - F, so the tail keeps its digits.
- the partial-expectation identity S(p) = E[X; X < q] + q (p - F(q-)) for
  the quantile integral at q = Q(p), evaluated in closed form; the Lorenz
  curve is S / m.

Gini comes as one minus the ratio of integrated squared survival to
integrated survival (cdf quadrature), as one minus twice the area under the
Lorenz curve (the identity, integrated over p), and as half the normalized
mean absolute difference (the identity at the edges of a probability grid,
plus one quadrature over p for the diagonal). Hoover comes as half the
normalized mean absolute deviation (cdf quadrature), as the Lorenz gap at
the cumulative probability of the mean with the quantile integral taken by
cdf quadrature (`Distribution.integral_quantile`), and as the maximum Lorenz
gap over a probability sweep (the identity). The sweep reads the p of the
index batch (`Distribution._first_round_p`): the edges of the probability
cells, the first-round Kronrod nodes of every cell, which the Gini routes
integrate first, and F(mean).

The mean-difference route rests on the double integral of |Q(u) - Q(v)| over
the unit square. Cutting the square into cells [a_i, a_{i+1}) x [a_j, a_{j+1})
along a shared probability grid, monotonicity of Q makes every off-diagonal
cell integrable in closed form from per-cell quantile integrals s_i, and each
diagonal cell of width w_i reduces to ``4 B_i - 2 w_i s_i`` with the
one-dimensional integral ``B_i = int (v - a_i) Q(v) dv`` over the cell. One
`integrate` call takes B = sum of B_i over every cell below the last, split
at the cell edges; the last cell, at most 2^-40 wide, holds the tail and its
diagonal term (between 0 and 2 w s) is dropped. The off-diagonal sum, read
from S at the cell edges alone, is at least 99.9 % of the route's value on
the test laws, so the quadrature's budget is set relative to it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .lorenz import integral_lorenz, lorenz
from .measures import X_CUT, Distribution, discrete, require_member
from .quadrature import integrate

__all__ = [
    "IndexReport",
    "gini_mean_difference",
    "gini_dorfman",
    "gini_lorenz",
    "hoover_mean_deviation",
    "hoover_cdf",
    "hoover_max",
    "robin_hood_shares",
    "index_report",
    "gini_range_given_hoover",
    "extremal_bimodal",
]


def _mean_abs_difference_discrete(d: Distribution) -> float:
    """E|X - X'| = 2 sum_k w_k x_k (mass below x_k - mass above x_k), from
    the atom block's running sums (`Distribution._discrete`)."""
    b = d._discrete
    return float(2.0 * np.sum(b.mass * b.loc * (b.cum[:-1] - b.tail[1:])))


def _quantile_integrals(d: Distribution) -> np.ndarray:
    """Integral of Q over each cell of `Distribution._p_cells`, by the
    partial-expectation identity.

    S(p) (`Distribution._quantile_integral`) is exact at every p < 1 and S(1)
    is the mean, so cell integrals are differences of exactly evaluable
    endpoint values; no quadrature enters. At the route quantile, within
    tau above Q(p), S(p) is within tau (`Distribution._quantile_arr`).
    """
    inner = d._p_cells[:-1]  # the cells end at 1, where S is the mean
    return np.diff(np.append(d._quantile_integral(inner, d._quantile_arr(inner)), d.mean))


def _mean_abs_difference(d: Distribution) -> float:
    if d.is_finite_discrete:
        return _mean_abs_difference_discrete(d)
    edges = d._p_cells
    w = np.diff(edges)
    s = _quantile_integrals(d)
    w_prefix = np.concatenate([[0.0], np.cumsum(w)[:-1]])
    s_prefix = np.concatenate([[0.0], np.cumsum(s)[:-1]])
    off_diagonal = 2.0 * float(np.sum(s * w_prefix) - np.sum(w * s_prefix))

    # A diagonal cell [lo, hi] holds 2 int Q(v) (2v - lo - hi) dv = 4 int
    # (v - lo) Q(v) dv - 2 w s. The weight v - lo vanishes where Q is steep
    # at a cell's lower end, near p = 0 for gamma-like laws, and stays under
    # w in the tail cells. The last cell's term, between 0 and 2 w s, is
    # dropped: its quadrature would need Q near 1.
    lo = edges[:-2]
    ws = float(np.sum(w[:-1] * s[:-1]))
    if ws == 0.0:
        return off_diagonal

    # route quantiles, each within tau above Q: a cell's B moves by at most
    # tau w^2 / 2
    def weighted_q(p: np.ndarray) -> np.ndarray:
        return (p - lo[np.searchsorted(lo, p, side="right") - 1]) * d._quantile_arr(p)

    # b <= ws, so the absolute budget is at most 1e-11 of the off-diagonal sum
    b = integrate(weighted_q, 0.0, edges[-2], points=lo, tol=1e-11 * off_diagonal / ws)
    return off_diagonal + 4.0 * b - 2.0 * ws


def gini_mean_difference(d: Distribution) -> float:
    """Gini index as E|X - X'| / (2 mean), X' an independent copy."""
    require_member(d)
    return _mean_abs_difference(d) / (2.0 * d.mean)


def gini_dorfman(d: Distribution) -> float:
    """Gini index as 1 - (integral of survival squared) / (integral of survival)."""
    require_member(d)
    if d.is_finite_discrete:
        # sf on the cell below atom k is the mass at and above it, tail[k]
        b = d._discrete
        widths, sf = np.diff(b.loc, prepend=0.0), b.tail[:-1]
        return 1.0 - float(np.sum(widths * sf**2)) / float(np.sum(widths * sf))
    i1 = d._sf_integral(0.0, 1e-11)
    i2 = d._x_integral(lambda x: d._sf_arr(x) ** 2, 0.0, d.support_hi(X_CUT), 1e-11)
    return 1.0 - i2 / i1


def gini_lorenz(d: Distribution) -> float:
    """Gini index as 1 - 2 * area under the Lorenz curve."""
    return 1.0 - 2.0 * integral_lorenz(lorenz(d))


def hoover_mean_deviation(d: Distribution) -> float:
    """Hoover index as E|X - mean| / (2 mean)."""
    require_member(d)
    m = d.mean
    if d.is_finite_discrete:
        b = d._discrete
        return float(np.sum(b.mass * np.abs(b.loc - m))) / (2.0 * m)
    below = d._x_integral(d._cdf_arr, 0.0, m, 1e-11)
    return (below + d._sf_integral(m, 1e-11)) / (2.0 * m)


def hoover_cdf(d: Distribution) -> float:
    """Hoover index as F(mean) - L(F(mean)), the Lorenz gap at the mean.

    L(F(mean)) is the quantile integral by cdf quadrature in x for every law
    (`Distribution.integral_quantile`), not the Lorenz curve's identity.
    """
    require_member(d)
    p_star = float(d.cdf(d.mean))
    return p_star - d.integral_quantile(p_star) / d.mean


def _sweep(d: Distribution) -> np.ndarray:
    """The sorted p where `hoover_max` reads the Lorenz gap."""
    return d._p_cells if d.is_finite_discrete else np.append(d._first_round_p, 1.0)


def hoover_max(d: Distribution) -> float:
    """Hoover index as the largest vertical gap p - L(p).

    The gap is maximized at p = F(mean). The value there is read off the
    Lorenz curve, that is by the partial-expectation identity, which shares
    no quadrature with `hoover_cdf`'s x-space integral at the same p. It is
    returned after a sweep confirms no probe beats it by more than
    numerical slack. The sweep (`_sweep`) reads the p of the index batch:
    the edges of the probability cells, which hold the quantile's
    breakpoints, the first-round Kronrod nodes of every cell, at most
    1.7 2^-10 apart, and F(mean), one curve call for all; a finite-discrete
    law, whose gap is linear between its cumulative masses, is swept at the
    edges alone, F(mean) among them.
    """
    require_member(d)
    p_star = float(d.cdf(d.mean))
    ps = _sweep(d)
    gaps = ps - lorenz(d).eval(ps)
    value = float(gaps[np.searchsorted(ps, p_star)])
    sweep = float(np.max(gaps))
    if sweep > value + 1e-9:
        raise RuntimeError(
            "Lorenz gap sweep exceeded the value at F(mean) "
            f"({sweep:.3e} > {value:.3e}); quantile evaluation is inconsistent"
        )
    return value


def robin_hood_shares(d: Distribution) -> tuple[float, float]:
    """Surplus above the mean and shortfall below it, as absolute amounts.

    The first component integrates x - mean over strictly-above-mean incomes,
    the second integrates mean - x over strictly-below-mean incomes. Mass
    exactly at the mean enters neither. The two agree analytically; they are
    computed from different primitives so the report can cross-check them.
    """
    require_member(d)
    m = d.mean
    below = float(m * d.cdf_left(m) - d.partial_expectation_left(m))
    return d.excess_mean(m), max(below, 0.0)


def _spread(*values: float) -> float:
    """How far apart the routes of one index land."""
    return max(values) - min(values)


@dataclass(frozen=True)
class IndexReport:
    """Every index route for one distribution, plus their disagreements."""

    gini_mean_difference: float
    gini_dorfman: float
    gini_lorenz: float
    hoover_mean_deviation: float
    hoover_cdf: float
    hoover_max: float
    r_share: float
    p_share: float
    max_cross_route_residual: float

    def residuals(self) -> dict[str, float]:
        return {
            "gini": _spread(self.gini_mean_difference, self.gini_dorfman, self.gini_lorenz),
            "hoover": _spread(self.hoover_mean_deviation, self.hoover_cdf, self.hoover_max),
            "r_minus_p": abs(self.r_share - self.p_share),
        }

    def to_json_dict(self) -> dict:
        return {**asdict(self), "residuals": self.residuals()}


def index_report(d: Distribution) -> IndexReport:
    """Compute every route and record the largest within-index disagreement.

    A law with a quantile memo first inverts, in one batch, every p that
    the routes' first rounds read (`Distribution._first_round_p`); the
    routes then read those values from the memo. Other laws, and a batch
    too large for the memo, run none (`Distribution._prefetch`).
    """
    require_member(d)._prefetch()
    ginis = (gini_mean_difference(d), gini_dorfman(d), gini_lorenz(d))
    hoovers = (hoover_mean_deviation(d), hoover_cdf(d), hoover_max(d))
    return IndexReport(
        *ginis, *hoovers, *robin_hood_shares(d), max(_spread(*ginis), _spread(*hoovers))
    )


def gini_range_given_hoover(h: float) -> tuple[float, float]:
    """Attainable Gini interval for a fixed Hoover value: [h, 2h - h^2).

    The lower endpoint is attained (two atoms), the upper endpoint is an open
    supremum: returned as the exclusive bound.
    """
    h = float(h)
    if not (0.0 < h < 1.0):
        raise ValueError("Hoover value must lie strictly between 0 and 1")
    return h, 2.0 * h - h * h


def extremal_bimodal(h: float, mean: float = 1.0, alpha: float | None = None) -> Distribution:
    """Two-atom distribution with Gini equal to Hoover equal to h.

    A fraction alpha holds m(1 - h/alpha) each, the rest holds
    m(1 + h/(1 - alpha)); any alpha in [h, 1) works and alpha = h puts the
    lower atom at zero. Defaults to alpha = h.
    """
    h = float(h)
    mean = float(mean)
    if not (0.0 < h < 1.0):
        raise ValueError("Hoover value must lie strictly between 0 and 1")
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError("mean must be positive and finite")
    alpha = h if alpha is None else float(alpha)
    if not (h <= alpha < 1.0):
        raise ValueError(
            "alpha must lie in [h, 1); below h the lower atom would be negative"
        )
    lo = mean * (1.0 - h / alpha)
    hi = mean * (1.0 + h / (1.0 - alpha))
    return discrete([lo, hi], [alpha, 1.0 - alpha])
