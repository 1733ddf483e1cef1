"""Estimation from samples: empirical laws, quantile tables, kernel smoothing.

The estimators are the closed-form sample statistics (Gini from the sorted
double-sum identity, Hoover from mean deviations, Lorenz values by
fractional-order-statistic interpolation) together with three ways of
turning data or a distribution into a tractable approximating law:

* ``empirical``: equal atoms at the observations;
* ``quantile_approx``: atoms at Q(k/l), k = 0..l-1, which brackets the
  source cdf from above within 1/l;
* ``kde``: the cut-in-zero kernel estimate, the law of max(X + hY, 0) with
  X drawn from the sample and Y from the kernel. Its cdf at t >= 0 averages
  G((t - x_i)/h) over the sample, G the kernel's cdf, and everything else
  (mass at zero, partial expectations, means) has a closed form per point.
  Each query sums only the sample points in its own window [t - r h,
  t + r h], so a value depends on t alone. With the uniform or
  Epanechnikov kernel the cdf is a polynomial of degree 1 or 3 between the
  knots 0 and x_i +- h: the law lists every knot as a breakpoint and
  inverts its cdf from a table of per-knot coefficients (cf. Fan & Marron,
  JCGS 1994), by each cell's closed-form root (linear, or the
  trigonometric root of the cubic), which Newton finishes only on rows off
  the cubic's rounding floor. With the Gaussian kernel the cdf is smooth
  and has no closed-form inverse: the law inverts as a mixture does, from
  the knot table of `Distribution` (`_knot_values`: a ladder of eight
  knots per octave, knots at the ends of the sample's clusters where a gap
  between points is wider than 4h, and a ladder of half-bandwidth steps
  past the last point; the table grows with the number of such gaps, never
  with n alone, and a sample whose spacing stays below 4h adds only the
  18 tail knots), by Chandrupatla steps on the cdf against p up to F(x_h),
  the first knot with F >= 1/2, and on minus the survival function against
  p - 1 above it, where 1 - F has no digits left but sf keeps them. No
  quantile, of a kernel estimate or a mixture, is found by bisection from
  [0, hi]. Where the sample has a gap wider than 4h the Gaussian estimate's
  F is nearly flat, and its quantile nearly jumps; the law lists points
  0, 2 and 4 bandwidths inside both ends of such a gap as breakpoints, for
  the 128 widest gaps, so the quadrature of every index route, in x and in
  p, starts with a cell edge there instead of refining towards it.

``run_experiment`` drives the convergence diagnostics over five sequence
schemes (noise, sampling, quantile, quantile_of_sample, kde) from a
declarative spec with one master seed; per-step generators come from
numbered substreams so prefixes agree across schedule lengths.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import measures
from .measures import (
    Distribution,
    ZeroMeanError,
    _MAX_ROUNDS,
    _ArrayComponent,
    _count,
    _float_vector,
    _whole,
    discrete,
    require_member,
    scalar_or_array,
)
from .quadrature import _unique
from .wasserstein import ConvergenceReport, _checked_thresholds, sequence_diagnostics

__all__ = [
    "SampleSet",
    "as_sample_set",
    "read_sample_csv",
    "empirical",
    "estimate_gini",
    "estimate_hoover",
    "estimate_lorenz_at",
    "quantile_approx",
    "quantile_of_sample",
    "KernelSpec",
    "GAUSSIAN",
    "EPANECHNIKOV",
    "UNIFORM",
    "KERNELS",
    "kde",
    "ExperimentSpec",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """Nonnegative observations plus a note on where they came from.

    `values` is kept as a tuple of floats and `array` as a read-only float
    array of the same values, both built and checked in one numpy pass;
    a bad value raises, named by the first one in input order.
    """

    values: tuple[float, ...]
    provenance: str = "unspecified"
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _float_vector(self.values)
        if not arr.size:
            raise ValueError("a sample needs at least one value")
        bad = ~(np.isfinite(arr) & (arr >= 0.0))
        if bad.any():
            raise ValueError(f"sample values must be finite and >= 0, got {float(arr[bad.argmax()])!r}")
        object.__setattr__(self, "values", tuple(arr.tolist()))
        object.__setattr__(self, "array", arr)

    def __len__(self) -> int:
        return len(self.values)


def as_sample_set(s, provenance: str = "unspecified") -> SampleSet:
    if isinstance(s, SampleSet):
        return s
    return SampleSet(np.asarray(s, dtype=float).ravel(), provenance)


def read_sample_csv(path: str) -> SampleSet:
    """One nonnegative number per line; blank lines and #-comments skipped.

    Errors carry the 1-based line number so a bad row in a long file can be
    found.
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                v = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if math.isnan(v):
                raise ValueError(f"{path}:{lineno}: NaN is not a sample value")
            if not math.isfinite(v):
                raise ValueError(f"{path}:{lineno}: sample values must be finite")
            if v < 0.0:
                raise ValueError(f"{path}:{lineno}: negative value {v!r}")
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no sample values found")
    return SampleSet(tuple(values), provenance=f"file:{path}")


def _values(s) -> np.ndarray:
    return as_sample_set(s).array


# ---------------------------------------------------------------------------
# closed-form estimators
# ---------------------------------------------------------------------------


def empirical(s) -> Distribution:
    """Equal-weight atoms at the observations, duplicates merged."""
    return discrete(_values(s))


def estimate_gini(s) -> float:
    """Sample Gini: double sum of |x_i - x_j| over 2 n * total.

    The double sum collapses to sum_k (2k - n - 1) x_(k) over the order
    statistics (1-based k), so no pairwise loop is needed.
    """
    xs = np.sort(_values(s))
    total = float(xs.sum())
    if total <= 0.0:
        raise ZeroMeanError("all-zero sample: Gini is undefined")
    n = xs.size
    coeff = 2.0 * np.arange(1, n + 1) - n - 1.0
    return float(np.sum(coeff * xs)) / (n * total)


def estimate_hoover(s) -> float:
    """Sample Hoover: sum of |x_i - mean| over twice the total."""
    xs = _values(s)
    total = float(xs.sum())
    if total <= 0.0:
        raise ZeroMeanError("all-zero sample: Hoover is undefined")
    return float(np.sum(np.abs(xs - xs.mean()))) / (2.0 * total)


def estimate_lorenz_at(s, x) -> float | np.ndarray:
    """Lorenz value of the sample at probability x, by fractional indexing.

    With nx = k + f, returns the interpolation between the k-th and (k+1)-th
    partial sums of the order statistics, normalized by the total; this is
    exactly the piecewise-affine Lorenz curve of the empirical law.
    """
    xs = np.sort(_values(s))
    total = float(xs.sum())
    if total <= 0.0:
        raise ZeroMeanError("all-zero sample: Lorenz values are undefined")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("Lorenz argument must lie in [0, 1]")
    grid = np.arange(xs.size + 1) / xs.size
    heads = np.concatenate([[0.0], np.cumsum(xs)]) / total
    out = np.interp(arr, grid, heads)
    return scalar_or_array(x, out)


def quantile_approx(d: Distribution, ell: int) -> Distribution:
    """Equal atoms at Q(k/ell) for k = 0..ell-1.

    The result's cdf sits within [F, F + 1/ell] everywhere, since each
    Q(k/ell) is exact to the float (`Distribution._exact_quantile`); since
    Q(0) = 0 there is always an atom at zero carrying weight 1/ell (or more).
    """
    require_member(d)
    ell = _count("table size", ell)
    return discrete(d._exact_quantile(np.arange(ell) / ell))


def quantile_of_sample(s, ell: int) -> Distribution:
    """Quantile table of the empirical law of the sample."""
    return quantile_approx(empirical(s), ell)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_INV_SQRT_TAU = 1.0 / math.sqrt(2.0 * math.pi)


def _gauss_partial_first(y):
    y = np.asarray(y, dtype=float)
    return -(_INV_SQRT_TAU * np.exp(-0.5 * y * y))


def _gauss_cdf(y):
    return measures.sp.ndtr(y)


# Powers are written as products: numpy sends y**3 and y**4 to pow(), about
# 60 times slower than multiplying, and these run on every kernel term.
def _epan_cdf(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * y - y * y * y)


def _epan_partial_first(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    y2 = y * y
    return 0.75 * (0.5 * y2 - 0.25 * y2 * y2) - 3.0 / 16.0


def _unif_cdf(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.5 * (y + 1.0)


def _unif_partial_first(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.25 * (y * y - 1.0)


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric smoothing kernel with the pieces the estimator needs.

    cdf is the running integral of the kernel K; partial_first_moment is
    ``M(y) = integral of s K(s) for s <= y`` (so M(inf) = 0 by symmetry),
    which is what closed-form truncated means are made of; tail_radius(eps)
    bounds where the cdf leaves [eps, 1 - eps], and is the kernel's reach,
    inf for the Gaussian, at eps = 0 (`Distribution.support_hi`, whose
    integrals to infinity cut at eps = `measures.X_CUT`).
    """

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    first_abs_moment: float
    partial_first_moment: Callable[[np.ndarray], np.ndarray]
    tail_radius: Callable[[float], float]


GAUSSIAN = KernelSpec(
    name="gaussian",
    cdf=_gauss_cdf,
    first_abs_moment=math.sqrt(2.0 / math.pi),
    partial_first_moment=_gauss_partial_first,
    tail_radius=lambda eps: float(-measures.sp.ndtri(min(eps, 0.5))),
)

EPANECHNIKOV = KernelSpec(
    name="epanechnikov",
    cdf=_epan_cdf,
    first_abs_moment=0.375,
    partial_first_moment=_epan_partial_first,
    tail_radius=lambda eps: 1.0,
)

UNIFORM = KernelSpec(
    name="uniform",
    cdf=_unif_cdf,
    first_abs_moment=0.5,
    partial_first_moment=_unif_partial_first,
    tail_radius=lambda eps: 1.0,
)

KERNELS = {k.name: k for k in (GAUSSIAN, EPANECHNIKOV, UNIFORM)}

#: kernel terms evaluated per chunk of a windowed sum
_PAIR_CHUNK = 1 << 16
#: a Gaussian estimate's inversion table gets knots, and its quadrature
#: breaks, at the ends of gaps between sample points wider than this many
#: bandwidths (`_CutKernelMixture._gap_points`)
_GAP_WIDTH = 4.0
#: bandwidths from a gap's ends to its knots, inward on both sides
_GAP_OFFSETS = np.array([0.0, 1.0, 2.0, 4.0, 6.0, 8.0])
#: bandwidths from a gap's ends to its quadrature breaks (`x_breaks`)
_BREAK_OFFSETS = np.array([0.0, 2.0, 4.0])
#: the widest gaps that get quadrature breaks, at most 6 each
_BREAK_GAPS = 128
#: bandwidths past the last sample point to the knots of the tail ladder
_TAIL_OFFSETS = np.arange(1.0, 19.0) / 2.0
_GAP_OFFSETS.flags.writeable = False
_BREAK_OFFSETS.flags.writeable = False
_TAIL_OFFSETS.flags.writeable = False


def _unif_cell(a, d1, d2, d3):
    return 0.5 * (a + d1), 0.5 * a, np.zeros_like(a), np.zeros_like(a)


def _epan_cell(a, d1, d2, d3):
    return 0.25 * (2.0 * a + 3.0 * d1 - d3), 0.75 * (a - d2), -0.75 * d1, -0.25 * a


#: kernels whose cdf is a polynomial on [-1, 1]: coefficients c0..c3 of
#: sum_i G(d_i + s) over A active points, from A and D_m = sum_i d_i^m
_CELL_POLYNOMIALS = {UNIFORM: _unif_cell, EPANECHNIKOV: _epan_cell}


def _cubic_residual(s, c1, c2, c3, target):
    """A cell polynomial's residual f = c1 s + c2 s^2 + c3 s^3 - target at s,
    and its rounding floor 4 eps (|target| + |c1 s| + |c2 s^2| + |c3 s^3|)."""
    f = ((c3 * s + c2) * s + c1) * s - target
    floor = 4.0 * np.finfo(float).eps * (
        np.abs(target) + np.abs(c1 * s) + np.abs(c2 * s * s) + np.abs(c3 * s * s * s)
    )
    return f, floor


def _increasing_root(c1, c2, c3, target):
    """The root of c1 s + c2 s^2 + c3 s^3 = target on the cubic's increasing
    branch, for c3 < 0 (an Epanechnikov cell, c3 = -A/4): with B = c2 / c3,
    s = t - B/3 solves t^3 + p t + q = 0, and of its three trigonometric
    roots 2 sqrt(-p/3) cos(acos(3q / (2p) sqrt(-3/p)) / 3 - 2 pi k / 3) the
    middle one, k = 1, lies between the cubic's local minimum and maximum.
    NaN where the form has no value: c3 = 0 (a uniform cell) or p >= 0."""
    b = c2 / c3
    p = c1 / c3 - b * b / 3.0
    q = 2.0 * b * b * b / 27.0 - b * c1 / (3.0 * c3) - target / c3
    angle = np.arccos(np.clip(1.5 * q / p * np.sqrt(-3.0 / p), -1.0, 1.0))
    return 2.0 * np.sqrt(-p / 3.0) * np.cos(angle / 3.0 - 2.0 * np.pi / 3.0) - b / 3.0


@dataclass(frozen=True, eq=False)
class _CutKernelMixture(_ArrayComponent):
    """Law of max(X + hY, 0): X uniform on the sample, Y from the kernel.

    Pointwise functionals average closed forms over the sample. Each query
    t sums the kernel terms of its own window, the sample points within
    r h of t (r the kernel's tail radius); points left of the window
    contribute their saturated constant through a prefix sum. A value
    therefore depends on t alone, not on the other points of the call.

    The uniform and Epanechnikov kernels have radius 1 and a polynomial
    cdf, so the law's cdf is a polynomial between the knots 0 and x_i +- h.
    For them `_knot_table` holds every knot with its polynomial,
    `x_breaks` lists the knots, and `quantile` answers each row by the
    closed-form root of its cell's polynomial, which safeguarded Newton
    steps finish where it is not yet at the cubic's rounding floor. The
    Gaussian kernel has no polynomial knots and no `quantile` of its own:
    `iterative_quantile` sends its law to the knot table and Chandrupatla
    inversion of `Distribution`, which reads F up to F(x_h) and `sf`
    above. `knot_candidates` adds to that table the ends of the sample's
    clusters and a ladder past its last point, where F bends on the scale
    of h between knots of the table's own ladder, and `x_breaks` lists
    the ends of the widest of those clusters as breakpoints, so the
    quadrature cells in x and in p start at them. Both read the gaps from
    `_gap_points`. `sf` sums G(-u) over the same windows plus the points
    right of them, never 1 - cdf, so it keeps its digits in the tail.

    `points` is kept as a sorted read-only float array, so the estimates of
    a sample and of any permutation of it are equal.
    """

    points: np.ndarray
    bandwidth: float
    kernel: KernelSpec

    def __post_init__(self):
        object.__setattr__(self, "points", _float_vector(np.sort(self.points)))

    @cached_property
    def _radius(self) -> float:
        return self.kernel.tail_radius(1e-17)

    @cached_property
    def _lower_ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """G and M at each point's lower end -x_i/h, the per-point truncated
        means E[max(x_i + hY, 0)] and their prefix sums."""
        h = self.bandwidth
        c = -self.points / h
        g = np.asarray(self.kernel.cdf(c), dtype=float)
        m = np.asarray(self.kernel.partial_first_moment(c), dtype=float)
        means = self.points * (1.0 - g) - h * m
        return g, m, means, np.concatenate([[0.0], np.cumsum(means)])

    def mean(self) -> float:
        # the sum pe reads at x = inf, where every window is empty
        return float(self._lower_ends[3][-1] / self.points.size)

    def _windows(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat queries, the count of sample points left of each query's
        window and the end of the window."""
        flat = np.asarray(x, dtype=float).ravel()
        span = self._radius * self.bandwidth
        lo = self.points.searchsorted(flat - span, side="right")
        hi = np.maximum(self.points.searchsorted(flat + span, side="left"), lo)
        return flat, lo, hi

    def _window_sums(self, x, lo, hi, terms, count: int) -> np.ndarray:
        """Per-query sums of the `count` arrays `terms(u, i)` over i in [lo, hi).

        Each (query, sample point) pair has u = (x_q - x_i) / h. A call
        whose pairs fit in _PAIR_CHUNK, a lone query among them, is evaluated
        in one pass; a larger one in chunks of about that many pairs.
        np.add.reduceat sums each query's own terms, so a sum depends on
        that query alone, not on the chunk it fell in.
        """
        counts = hi - lo
        ends = counts.cumsum()
        if x.size and ends[-1] <= _PAIR_CHUNK:
            return self._pair_sums(x, lo, counts, ends - counts, terms, count)
        sums = np.zeros((count, x.size))
        start = 0
        while start < x.size:
            budget = ends[start] - counts[start] + _PAIR_CHUNK
            stop = max(int(ends.searchsorted(budget, side="right")), start + 1)
            c = counts[start:stop]
            sums[:, start:stop] = self._pair_sums(
                x[start:stop], lo[start:stop], c, c.cumsum() - c, terms, count
            )
            start = stop
        return sums

    def _pair_sums(self, x, lo, counts, first, terms, count: int) -> np.ndarray:
        """`_window_sums` over one batch of pairs; `first` indexes each
        query's first pair."""
        sums = np.zeros((count, x.size))
        i = np.arange(first[-1] + counts[-1]) + (lo - first).repeat(counts)
        if i.size:
            u = (x.repeat(counts) - self.points.take(i)) / self.bandwidth
            some = counts > 0
            for row, vals in zip(sums, terms(u, i)):
                row[some] = np.add.reduceat(vals, first[some])
        return sums

    def cdf(self, x) -> np.ndarray:
        """P[X <= x]: points left of each query's window count whole, and
        the window adds G(u) per point. The sum is floored at 0, the mirror
        of `sf`: the Epanechnikov G(u) rounds below 0 for u within about
        1e-8 of -1, and with no point left of the window that put F below
        0 just above x_(1) - h."""
        flat, lo, hi = self._windows(x)
        kernel_cdf = self.kernel.cdf
        (inside,) = self._window_sums(flat, lo, hi, lambda u, i: (kernel_cdf(u),), 1)
        out = np.where(flat < 0.0, 0.0, np.maximum(lo + inside, 0.0) / self.points.size)
        return out.reshape(np.shape(x))

    def sf(self, x) -> np.ndarray:
        """P[X > x]: points right of each query's window count whole, and
        the window adds G(-u) per point, so the tail keeps its digits. The
        sum is floored at 0: the Epanechnikov G(-u) = (1 - u)^2 (2 + u) / 4,
        evaluated as its cubic in -u, rounds below 0 for u within about
        1e-8 of 1, and with no point right of the window that put sf below
        0 just under the support's end."""
        flat, lo, hi = self._windows(x)
        kernel_cdf = self.kernel.cdf
        (inside,) = self._window_sums(flat, lo, hi, lambda u, i: (kernel_cdf(-u),), 1)
        n = self.points.size
        out = np.where(flat < 0.0, 1.0, np.maximum(n - hi + inside, 0.0) / n)
        return out.reshape(np.shape(x))

    @cached_property
    def _mass_at_zero(self) -> float:
        return float(self.cdf(np.zeros(1))[0])

    def mass_at(self, x) -> np.ndarray:
        return np.where(np.asarray(x, dtype=float) == 0.0, self._mass_at_zero, 0.0)

    def pe(self, x) -> np.ndarray:
        """Partial expectation: averages E[(x_i + hY); 0 < x_i + hY <= x]."""
        pts, h = self.points, self.bandwidth
        kernel_cdf = self.kernel.cdf
        pfm = self.kernel.partial_first_moment
        g_low, m_low, _, prefix = self._lower_ends

        def terms(u, i):
            return (pts.take(i) * (kernel_cdf(u) - g_low.take(i)) + h * (pfm(u) - m_low.take(i)),)

        flat, lo, hi = self._windows(x)
        (window,) = self._window_sums(flat, lo, hi, terms, 1)
        res = (prefix[lo] + window) / pts.size
        out = np.where(flat < 0.0, 0.0, np.maximum(res, 0.0))
        return out.reshape(np.shape(x))

    @cached_property
    def _knot_table(self):
        """(tau, saturated, level, coeffs) for a polynomial kernel, else None.

        tau holds the knots, unique({0} and every x_i +- h) on [0, inf). On
        the cell [tau_j, tau_{j+1}], with s = (t - tau_j) / h,

            n F(t) = L_j + c0 + c1 s + c2 s^2 + c3 s^3,

        where L_j = #{x_i + h <= tau_j} points are saturated (`saturated`),
        the A_j points with x_i - h <= tau_j < x_i + h are active, and the
        coefficients (`coeffs`, shape (4, knots)) come from A_j and the sums
        D_m of d_i^m, d_i = (tau_j - x_i) / h in [-1, 1], over the active
        points. Every term is centred on its own cell, so nothing cancels
        beyond O(A eps). `level` is L_j + c0 = n F(tau_j), made nondecreasing.
        """
        cell = _CELL_POLYNOMIALS.get(self.kernel)
        if cell is None:
            return None
        x, h = self.points, self.bandwidth
        plus, minus = x + h, x - h
        tau = _unique(np.concatenate([[0.0], minus, plus]))
        tau = tau[tau >= 0.0]
        saturated = np.searchsorted(plus, tau, side="right")
        reached = np.searchsorted(minus, tau, side="right")

        def powers(u, i):
            d = np.clip(u, -1.0, 1.0)
            return d, d * d, d * d * d

        d1, d2, d3 = self._window_sums(tau, saturated, reached, powers, 3)
        coeffs = np.asarray(cell((reached - saturated).astype(float), d1, d2, d3))
        level = np.maximum.accumulate(saturated + coeffs[0])
        return tau, saturated, level, coeffs

    def quantile(self, p):
        """Q(p) from the knot table of a polynomial kernel.

        Q(p) = 0 when n F(0) >= n p. Otherwise the cell is the last knot
        with n F(tau_j) < n p, and its polynomial is solved for s, target =
        n p - n F(tau_j): s is the cell's width when the polynomial stays
        below n p there, else the cell's closed-form root, target / c1 on a
        uniform cell and `_increasing_root` of the cubic on an Epanechnikov
        one (target / c1 where that root is not finite), clipped to [0,
        width]. Then Q = tau_j + h s.

        A row whose residual f there is within the cubic's rounding
        floor, |f| <= 4 eps (|target| + |c1 s| + |c2 s^2| + |c3 s^3|),
        leaves with that root. Every uniform row does; an Epanechnikov
        row is often a few ulps off, since its root is t - B/3 with |B|
        up to 3, and then takes a Newton step or two. The rows off the
        floor enter safeguarded Newton, and each round steps only the
        rows still open. A row stops once its step moves Q by at most
        an ulp, or once its step stops shrinking while its residual is
        at the floor. Near a double root of the cubic Newton only
        halves the error and then bounces by an ulp of the target with
        steps several ulps of Q wide, which the first test alone never
        stops. So once a row's Newton step is between a quarter and
        three quarters of its last, it steps from then on to the nearer
        root of the cubic's second-order model, which is exact at a
        double root; where that model has no real root it takes
        Newton's step, and a step that leaves the row's bracket is a
        bisection. The rows that still take such steps are those whose
        cell ends at the top x_i + h of its one active point with n p =
        n F there, a whole number: G'(1) = 0 puts a double root at the
        cell's end, and the closed form keeps only about half its
        digits there. On p = k / 2000 of a 2,000-point lognormal sample
        at h = 1e-3 a call takes 8 rounds, 11 from the linear guess
        target / c1; on the tail ladder p = 1 - 10^-k, k = 1..15, of a
        mix-source estimate (n = 200, h = 0.03), where the linear guess
        took up to 13 rounds and Newton alone 28, every row leaves at
        the floor. A round here counts the loop's last check, so a call
        of only uniform rows counts 1.

        Q is a root of the table's cubic, F comes from window sums, and a
        float Q is off by up to an ulp, over which F rises by at most
        A K(0) ulp(Q) / (n h), A the sample points within h of Q and K(0)
        <= 3/4 the kernel's peak. So F(Q(p)-) - d <= p <= F(Q(p)) + d
        with d = 4 eps + A ulp(Q) / (n h). At n = 200 and h = 0.03 the
        tests hold d = 4 eps; at n <= 5 the ulp term is needed.

        The Gaussian kernel has no table and no closed-form quantile: its
        law inverts from the knot table of `Distribution`, as a mixture
        does (`iterative_quantile`).
        """
        table = self._knot_table
        tau, saturated, level, coeffs = table
        h = self.bandwidth
        y = self.points.size * np.asarray(p, dtype=float)
        j = np.searchsorted(level, y, side="left") - 1
        cell = np.clip(j, 0, tau.size - 2)
        c0, c1, c2, c3 = coeffs[:, cell]
        target = y - saturated[cell] - c0
        width = (tau[cell + 1] - tau[cell]) / h
        resolution = np.finfo(float).eps * (tau[cell] / h + width)
        short = ((c3 * width + c2) * width + c1) * width - target <= 0.0
        s = width.copy()
        (idx,) = np.nonzero((j >= 0) & ~short)
        b1, b2, b3, t = c1[idx], c2[idx], c3[idx], target[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            root, linear = _increasing_root(b1, b2, b3, t), np.nan_to_num(t / b1)
            s[idx] = np.clip(np.where(np.isfinite(root), root, linear), 0.0, width[idx])
            f, floor = _cubic_residual(s[idx], b1, b2, b3, t)
            idx = idx[np.abs(f) > floor]
            # one row per quantity, one column per open row: the iterate, its
            # bracket, the cubic, the step resolution, the last step and
            # whether the row takes second-order steps (1.0) or Newton's (0.0)
            state = np.stack(
                [s[idx], np.zeros(idx.size), width[idx], c1[idx], c2[idx], c3[idx],
                 target[idx], resolution[idx], np.full(idx.size, np.inf), np.zeros(idx.size)]
            )
            for _ in range(_MAX_ROUNDS):
                if not idx.size:
                    break
                x, lo, hi, b1, b2, b3, t, res, last, second = state
                f, floor = _cubic_residual(x, b1, b2, b3, t)
                below = f < 0.0
                np.copyto(lo, x, where=below)
                np.copyto(hi, x, where=~below)
                slope = (3.0 * b3 * x + 2.0 * b2) * x + b1
                newton = f / slope
                # Once a row's Newton steps halve, a double root is near, and
                # from then on it steps to the nearer root of the cubic's
                # second-order model, which is exact at a double root.
                disc = slope * slope - 2.0 * f * (6.0 * b3 * x + 2.0 * b2)
                halving = (np.abs(newton) > 0.25 * last) & (np.abs(newton) < 0.75 * last)
                np.copyto(second, (halving | (second > 0.0)) & (disc >= 0.0))
                model = 2.0 * f / (slope + np.copysign(np.sqrt(np.maximum(disc, 0.0)), slope))
                nxt = x - np.where(second > 0.0, model, newton)
                nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
                step = np.abs(nxt - x)
                open_ = (step > res) & ((step < last) | (np.abs(f) > floor))
                np.copyto(x, nxt)
                np.copyto(last, step)
                if not open_.all():
                    s[idx[~open_]] = x[~open_]
                    idx, state = idx[open_], state[:, open_]
            s[idx] = state[0]
        q = np.minimum(tau[cell] + h * s, tau[cell + 1])
        return np.where(j >= 0, q, 0.0)

    def knot_candidates(self) -> np.ndarray:
        """Abscissae the inversion table of a Gaussian estimate adds to its
        own (`Distribution._knot_values`), where F bends on the scale of h.
        Across a gap between sample points x_i < x_{i+1} wider than
        `_GAP_WIDTH` bandwidths F is flat but for the kernel tails, so
        x_i + k h and x_{i+1} - k h for k in `_GAP_OFFSETS`, cut to the gap,
        are knots, for every such gap; past the last point x_n + k h for k
        in `_TAIL_OFFSETS` are. That is at most 12 knots per gap and 18
        more, so a sample whose spacing stays within 4h adds only the tail
        ladder. The table has no cap: a knot costs one cdf and one sf point
        when the table is built, and a row inverts between two adjacent
        knots whatever their number. A polynomial kernel's table already
        holds every knot x_i +- h, and it adds none.
        """
        if self._knot_table is not None:
            return np.empty(0)
        x, h = self.points, self.bandwidth
        return np.concatenate([self._gap_points(_GAP_OFFSETS), x[-1] + h * _TAIL_OFFSETS])

    def _gap_points(self, offsets: np.ndarray, most: int | None = None) -> np.ndarray:
        """x_i + k h and x_{i+1} - k h for k in `offsets`, cut to the gap,
        for each gap x_i < x_{i+1} between sample points wider than
        `_GAP_WIDTH` bandwidths, or only for the `most` widest of them."""
        x, h = self.points, self.bandwidth
        width = np.diff(x)
        (gap,) = np.nonzero(width > _GAP_WIDTH * h)
        if most is not None and gap.size > most:
            gap = gap[np.argpartition(width[gap], -most)[-most:]]
        left, right, k = x[gap], x[gap + 1], h * offsets[:, None]
        return np.concatenate([np.minimum(left + k, right).ravel(), np.maximum(right - k, left).ravel()])

    @property
    def iterative_quantile(self) -> bool:
        """True without a polynomial knot table (the Gaussian kernel): the
        law then inverts its cdf, and its survival function above F(x_h),
        from `Distribution._knot_values` by Chandrupatla steps, and keeps a
        memo of the quantiles (`Distribution._memoized`)."""
        return self._knot_table is None

    def x_breaks(self) -> np.ndarray:
        """Abscissae where quadrature cells must break.

        A polynomial kernel lists every knot of its table. A Gaussian one
        lists 0, the support's ends pts[0] - r h and pts[-1] + r h, and,
        for the `_BREAK_GAPS` widest gaps wider than `_GAP_WIDTH`
        bandwidths, x_i + k h and x_{i+1} - k h for k in `_BREAK_OFFSETS`:
        there F leaves or meets a cluster and Q nearly jumps, and
        `Distribution.p_breakpoints` turns each break into a cell edge in
        p too. The cap keeps the forced cells well under
        `quadrature.PANEL_LIMIT` (at most 771 breaks): each becomes a panel
        of every route's first round, and uncapped breaks on 10^4 points
        at h = 1e-3 left refinement so little room that the index routes
        disagreed by 7.6e-6.
        """
        table = self._knot_table
        if table is not None:
            return table[0]
        span = self._radius * self.bandwidth
        pts = self.points
        ends = [0.0, max(pts[0] - span, 0.0), pts[-1] + span]
        return _unique(np.concatenate([ends, self._gap_points(_BREAK_OFFSETS, _BREAK_GAPS)]))

    def support_hi(self, eps: float) -> float:
        """pts[-1] + r h, r the kernel's reach at eps, rounded up to the
        first float t whose window starts at or past the last point
        (`_windows`), so every point counts whole at t: at eps = 0 a compact
        kernel's F(t) is 1, sf(t) 0 and pe(t) the mean, where the rounded
        sum could leave the last point's u = (t - pts[-1]) / h below 1."""
        span = self.kernel.tail_radius(eps) * self.bandwidth
        hi = float(self.points[-1] + span)
        while hi - span < self.points[-1]:
            hi = math.nextafter(hi, math.inf)
        return hi

    def rescaled(self, alpha: float) -> "_CutKernelMixture":
        return _CutKernelMixture(alpha * self.points, alpha * self.bandwidth, self.kernel)


def kde(s, kernel: KernelSpec | str = GAUSSIAN, h: float = 0.1) -> Distribution:
    """Cut-in-zero kernel density estimate as a first-class distribution.

    The smoothed law of the sample keeps whatever the kernel pushes below
    zero as an atom at zero, so the result stays on the half-line with the
    cdf (1/n) sum of G((t - x_i)/h) for t >= 0.
    """
    if isinstance(kernel, str):
        try:
            kernel = KERNELS[kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}"
            ) from None
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("bandwidth must be positive and finite")
    xs = as_sample_set(s)
    return Distribution(((1.0, _CutKernelMixture(xs.array, h, kernel)),))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

_SCHEMES = ("noise", "sampling", "quantile", "quantile_of_sample", "kde")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one convergence experiment.

    `source` is a distribution expression in the grammar of the specs
    module (e.g. ``"mix(0.5*uniform(0,1),0.5*atom(0.5))"``); it doubles as
    the limit the sequence is measured against. Schedules default to
    doubling ladders of length `steps`; the two-parameter schemes
    (quantile_of_sample, kde) pair their schedules positionally so both
    parameters sharpen together. `rel_tol` and `alpha_grid` are checked at
    construction, as `sequence_diagnostics` checks them
    (`wasserstein._checked_thresholds`), so a bad one raises before any
    member is sampled or built, and are kept as a float and a tuple of
    floats; so are `steps`, `sample_size` and the entries of the integer
    schedules, which must be integral (and, but for the noise exponents,
    >= 1) and are kept as ints, the bandwidths, finite and > 0 (kept as
    floats), `seed`, integral and >= 0 (kept as an int), and the two
    schedules of a two-parameter scheme, which must be of one length.
    """

    scheme: str
    source: str
    seed: int = 0
    steps: int = 8
    sample_size: int = 4000
    sample_sizes: tuple[int, ...] | None = None
    table_sizes: tuple[int, ...] | None = None
    bandwidths: tuple[float, ...] | None = None
    noise_exponents: tuple[int, ...] | None = None
    kernel: str = "gaussian"
    rel_tol: float = 0.05
    alpha_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose from {_SCHEMES}"
            )
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            )
        for name in ("steps", "sample_size"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for key, check in (("sample_sizes", _count), ("table_sizes", _count), ("noise_exponents", _whole)):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, tuple(check(f"{key} entry", v) for v in getattr(self, key)))
        for h in self.bandwidths or ():
            if not 0.0 < float(h) < math.inf:
                raise ValueError(f"bandwidths entry must be finite and > 0, got {h!r}")
        if self.bandwidths is not None:
            object.__setattr__(self, "bandwidths", tuple(float(h) for h in self.bandwidths))
        second = {"quantile_of_sample": "table_sizes", "kde": "bandwidths"}.get(self.scheme)
        if second and len(getattr(self, "schedule_" + second)()) != len(self.schedule_sample_sizes()):
            raise ValueError(f"sample_sizes and {second} must pair up")
        rel_tol, alpha_grid = _checked_thresholds(self.rel_tol, self.alpha_grid)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "alpha_grid", None if alpha_grid is None else tuple(alpha_grid.tolist()))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))

    def source_distribution(self) -> Distribution:
        from .specs import parse_distribution

        return parse_distribution(self.source)

    def schedule_sample_sizes(self) -> tuple[int, ...]:
        if self.sample_sizes is not None:
            return self.sample_sizes
        return tuple(64 * 2**k for k in range(self.steps))

    def schedule_table_sizes(self) -> tuple[int, ...]:
        if self.table_sizes is not None:
            return self.table_sizes
        return tuple(2 ** (k + 1) for k in range(self.steps))

    def schedule_bandwidths(self) -> tuple[float, ...]:
        if self.bandwidths is not None:
            return self.bandwidths
        return tuple(2.0 ** -(k + 1) for k in range(self.steps))

    def schedule_noise_exponents(self) -> tuple[int, ...]:
        if self.noise_exponents is not None:
            return self.noise_exponents
        return tuple(range(1, self.steps + 1))

    @classmethod
    def from_json(cls, text_or_dict) -> "ExperimentSpec":
        data = json.loads(text_or_dict) if isinstance(text_or_dict, (str, bytes)) else text_or_dict
        if not isinstance(data, dict):
            raise TypeError(f"experiment spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def to_json_dict(self) -> dict:
        """The fields in declaration order, tuples as lists; unset schedules
        and alpha_grid (None) are left out."""
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(self).items()
            if v is not None
        }


def _substream(seed: int, counter: int) -> np.random.Generator:
    return np.random.default_rng([seed, counter])


def _quantiles(d: Distribution, ps: list[np.ndarray]) -> list[np.ndarray]:
    """d's quantiles at each array of `ps`, exact to the float, from one
    `Distribution._exact_quantile` call on them all, split back: a law that
    inverts its cdf runs one batch of inversion rounds, not one per array,
    and each value is the one a call of its own returns, since a quantile
    depends on its p alone. The batch leaves the law's memo to the limit's
    index routes."""
    return np.split(d._exact_quantile(np.concatenate(ps)), np.cumsum([a.size for a in ps])[:-1])


def run_experiment(spec: ExperimentSpec) -> ConvergenceReport:
    """Build the approximating sequence for the spec's scheme and diagnose it.

    Member j of the sampling, quantile_of_sample and kde schemes draws its
    uniforms from substream j, as ``source.sample_rng`` would, and the
    quantile scheme reads the source at k / ell, as `quantile_approx` does;
    either way the source's quantiles for every member come from one batch
    (`_quantiles`), exact to the float and bit-identical to one call per
    member. That batch does not fill the source's quantile memo, which
    `sequence_diagnostics` then fills with the p it reads the limit at.
    """
    source = spec.source_distribution()
    require_member(source)
    if spec.scheme in ("sampling", "quantile_of_sample", "kde"):
        uniforms = [_substream(spec.seed, j).random(n) for j, n in enumerate(spec.schedule_sample_sizes())]
        draws = _quantiles(source, uniforms)
    if spec.scheme == "noise":
        base = source.sample_rng(_substream(spec.seed, 0), spec.sample_size)
        members = []
        for j, k in enumerate(spec.schedule_noise_exponents()):
            noise = _substream(spec.seed, j + 1).standard_normal(spec.sample_size)
            members.append(empirical(np.maximum(base + 2.0**-k * noise, 0.0)))
    elif spec.scheme == "sampling":
        members = [empirical(xs) for xs in draws]
    elif spec.scheme == "quantile":
        grids = [np.arange(ell) / ell for ell in spec.schedule_table_sizes()]
        members = [discrete(q) for q in _quantiles(source, grids)]
    elif spec.scheme == "quantile_of_sample":
        members = [quantile_of_sample(xs, ell) for xs, ell in zip(draws, spec.schedule_table_sizes())]
    else:
        members = [kde(xs, KERNELS[spec.kernel], h) for xs, h in zip(draws, spec.schedule_bandwidths())]
    return sequence_diagnostics(
        members, source, rel_tol=spec.rel_tol, alpha_grid=spec.alpha_grid
    )
