"""Lorenz curve machinery.

The Lorenz value at p is the normalized quantile integral
``L(p) = S(p) / m`` with ``S(p) = integral of Q over [0, p]`` (Gastwirth
1971). Every law evaluates it by one identity: with q = Q(p),

    S(p) = E[X; X < q] + q (p - F(q-)),

the partial expectation strictly below the p-quantile plus the part of the
atom at q that the first 100p centiles take. This is the centile-share
proposition: L(p) is the share of the first 100p centiles, and it differs
from the share owned up to the p-quantile (the pseudo-Lorenz value) only by
the rest of the atom at Q(p), q (F(q) - p) / m. A batch of probabilities
costs one vectorized quantile call and one partial-expectation call; no
quadrature enters.

Also here: the pseudo-Lorenz functional, Kendall points, the domination
predicate, and the inverse map from a convex curve plus a mean back to a
distribution (mass target_mean times the left derivative, pushed forward from
the unit interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    Distribution,
    quantile_table,
    require_member,
    scalar_or_array,
)
from .quadrature import _unique, integrate

__all__ = [
    "LorenzCurve",
    "lorenz",
    "pseudo_lorenz",
    "kendall_points",
    "lorenz_dominates",
    "reconstruct",
    "integral_lorenz",
]

#: relative error budget of `integral_lorenz`
AREA_TOL = 1e-9


@dataclass(frozen=True)
class LorenzCurve:
    """Evaluable Lorenz curve tied to its source distribution.

    Attributes
    ----------
    source:
        The distribution the curve was built from.
    source_mean:
        Its mean (positive; membership is checked on construction).
    """

    source: Distribution = field(repr=False)
    source_mean: float

    def _eval_sorted(self, p: np.ndarray) -> np.ndarray:
        """Values at a flat, validated probability array, in any order.

        q comes from the quantile memo, within tau = `ROUTE_QUANTILE_TOL`
        times the mean above Q(p); S is stationary in q, so S(p) is within
        tau (F(q-) - p) <= tau of its value at Q(p)."""
        d = self.source
        out = np.ones_like(p)
        inner = p < 1.0
        q = d._quantile_arr(p[inner])
        out[inner] = d._quantile_integral(p[inner], q) / self.source_mean
        return np.clip(out, 0.0, 1.0)

    def eval(self, p) -> float | np.ndarray:
        """L(p) for p in [0, 1], scalar or array, any order."""
        arr = np.asarray(p, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise ValueError("Lorenz curve is defined on [0, 1]")
        out = self._eval_sorted(arr.ravel()).reshape(arr.shape)
        return scalar_or_array(p, out)

    __call__ = eval

    def left_derivative(self, p) -> float | np.ndarray:
        """Left derivative of the curve: Q(p) / mean on (0, 1], with Q exact
        to the float (`Distribution._exact_quantile`).

        At p = 1 this is the supremum of the support over the mean, which is
        inf for unbounded sources.
        """
        arr = np.asarray(p, dtype=float)
        if not np.all((arr > 0.0) & (arr <= 1.0)):
            raise ValueError("left derivative is defined on (0, 1]")
        out = np.empty_like(arr)
        top = arr == 1.0
        out[top] = self.source.sup_support() / self.source_mean
        out[~top] = self.source._exact_quantile(arr[~top]) / self.source_mean
        return scalar_or_array(p, out)


def lorenz(d: Distribution) -> LorenzCurve:
    """Lorenz curve of a distribution with finite nonzero mean."""
    require_member(d)
    return LorenzCurve(source=d, source_mean=d.mean)


def pseudo_lorenz(d: Distribution, p) -> float | np.ndarray:
    """Share owned below the p-quantile, atom at Q(p) included.

    Defined as the partial expectation up to Q(p), normalized by the mean,
    with the value at p = 1 fixed to 1. Jumps exactly where the quantile
    jumps; sits above the Lorenz curve elsewhere.
    """
    require_member(d)
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("pseudo-Lorenz is defined on [0, 1]")
    out = np.ones_like(arr)
    inner = arr < 1.0
    # pe jumps at the atoms of d, so Q is read exact to the float
    q = d._exact_quantile(arr[inner])
    out[inner] = np.asarray(d.partial_expectation(q)) / d.mean
    out = np.clip(out, 0.0, 1.0)
    return scalar_or_array(p, out)


def kendall_points(d: Distribution, t_grid) -> list[tuple[float, float]]:
    """Parametric curve points (F(t), partial expectation(t) / mean).

    Every point lies on the Lorenz graph; the curve skips the probability
    plateaus the Lorenz curve crosses affinely, so for a single point mass
    only (0, 0) and (1, 1) remain. Consecutive duplicates are dropped.
    """
    require_member(d)
    ts = np.asarray(sorted(float(t) for t in t_grid), dtype=float)
    if not (ts >= 0.0).all():
        raise ValueError("Kendall grid abscissae must be >= 0")
    xs = d._cdf_arr(ts)
    ys = np.asarray(d.partial_expectation(ts)) / d.mean
    pts: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        pt = (float(x), float(y))
        if not pts or pts[-1] != pt:
            pts.append(pt)
    return pts


def lorenz_dominates(d1: Distribution, d2: Distribution) -> bool:
    """True when L_{d1} <= L_{d2} everywhere on the probe ladder.

    Lower Lorenz curve means more unequal; this is the classical domination
    order. Probes join both operands' probe ladders
    (`Distribution._probe_ladder`: k 2^-10 and the quantile's breakpoints).
    """
    ps = _unique(np.concatenate([d1._probe_ladder, d2._probe_ladder]))
    l1 = lorenz(d1).eval(ps)
    l2 = lorenz(d2).eval(ps)
    return bool(np.all(l1 <= l2 + 1e-10))


def _curve_values(ell, grid) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(ell, LorenzCurve):
        if grid is None:
            ps = _unique(
                np.concatenate([np.linspace(0.0, 1.0, 4097), ell.source.p_breakpoints()])
            )
        else:
            ps = np.asarray(grid, float)
        return ps, np.asarray(ell.eval(ps), dtype=float)
    if callable(ell):
        ps = np.linspace(0.0, 1.0, 1025) if grid is None else np.asarray(grid, float)
        return ps, np.asarray([float(ell(p)) for p in ps])
    vals = np.asarray(ell, dtype=float)
    ps = np.linspace(0.0, 1.0, vals.size) if grid is None else np.asarray(grid, float)
    return ps, vals


def reconstruct(ell, target_mean: float, grid=None) -> Distribution:
    """Distribution whose Lorenz curve matches a convex grid function.

    `ell` may be a LorenzCurve, a callable on [0, 1], or an array of values
    paired with `grid` (uniform grid assumed when omitted). The grid must
    resolve the curve: the result's quantile is the left divided difference
    of the grid values scaled by `target_mean`, a step function, so the match
    is exact for piecewise-affine input with vertices on the grid and
    O(1/grid) otherwise. The result is a step quantile table
    (`quantile_table` in mode "step"): a finite-discrete law of one `Atoms`
    part, an atom per grid cell.
    """
    target_mean = float(target_mean)
    if not (target_mean > 0) or not math.isfinite(target_mean):
        raise ValueError("target mean must be positive and finite")
    ps, vals = _curve_values(ell, grid)
    if ps.size < 3:
        raise ValueError("need at least 3 grid points to resolve a curve")
    if abs(ps[0]) > 1e-12 or abs(ps[-1] - 1.0) > 1e-12:
        raise ValueError("curve grid must span [0, 1]")
    # the table starts at 0 exactly, and its cells end at 1
    ps = np.concatenate([[0.0], ps[1:-1], [1.0]])
    if np.any(np.diff(ps) <= 0):
        raise ValueError("curve grid must be strictly increasing")
    if abs(vals[0]) > 1e-9:
        raise ValueError("a Lorenz curve must start at 0")
    if abs(vals[-1] - 1.0) > 1e-9:
        raise ValueError("a Lorenz curve must end at 1")
    slopes = np.diff(vals) / np.diff(ps)
    if np.any(np.diff(slopes) < -1e-9):
        raise ValueError("curve values are not convex on the supplied grid")
    if slopes[0] < -1e-9:
        raise ValueError("curve values must be nondecreasing")
    q = target_mean * np.maximum.accumulate(np.maximum(slopes, 0.0))
    # Divided differences of rounded curve values wobble by ~eps/grid-step
    # relative to the mean; collapse runs of near-equal quantiles so affine
    # stretches of the input come back as single atoms.
    snap = 1e-11 * np.maximum(target_mean, q[1:])
    starts = np.concatenate([[True], np.diff(q) > snap])
    q = q[starts][np.cumsum(starts) - 1]
    return quantile_table(ps[:-1], q, mode="step")


def integral_lorenz(curve: LorenzCurve) -> float:
    """Integral of the Lorenz curve over [0, 1].

    Adaptive quadrature split at the law's shared probability cells
    (`Distribution._p_cells`), not only at `P_SPLITS`. They hold the
    quantile's breakpoints, so the affine pieces of a discrete law's curve
    are integrated exactly; the ladder `P_SPLITS` (2^-k and 1 - 2^-k), so
    the first round already has panels at every scale toward p = 0 and
    p = 1 and refinement does not creep up on either end; and 64 equal
    cells. The mean-difference diagonal starts from the same cells, so the
    first round's curve values reuse its quantiles from the law's memo.
    """
    cells = curve.source._p_cells
    return integrate(lambda p: curve.eval(np.clip(p, 0.0, 1.0)), 0.0, 1.0, points=cells, tol=AREA_TOL)
