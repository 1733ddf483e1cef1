"""Adaptive Gauss-Kronrod quadrature for integrands with known kink locations.

The rest of the package integrates survival functions, CDF gaps and quantile
functions. Those integrands are piecewise smooth with kinks and jumps at atom
locations and component boundaries, so the integrator here accepts an explicit
list of forced split points and refines panels by a global error budget
relative to the integral of |f| (QUADPACK's ``epsrel``). A flagged panel is
cut into eight children graded toward both of its ends (`_CUTS`), so an
endpoint singularity, such as Q ~ p^(1/k) at p = 0, is resolved sixteen
times finer per round rather than twice. All panel evaluations are batched:
the integrand receives one flat array per round.
"""

from __future__ import annotations

import numpy as np

#: panel count that refinement never exceeds
PANEL_LIMIT = 4096
#: where `_refine` cuts a flagged panel, as fractions of its width
_CUTS = np.array([0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16, 1.0])

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_XGK = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.0630920926299786,
        0.0229353220105292,
    ]
)
# Gauss weights sit on the odd Kronrod node indices.
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
        0.3818300505051189,
        0.2797053914892767,
        0.1294849661688697,
    ]
)


def _unique(a) -> np.ndarray:
    """The sorted distinct values of a float array, flattened: one sort,
    then each value that differs from its left neighbour. It returns what
    ``np.unique(a)`` returns, bit for bit (the same sort keeps the same one
    of -0.0 and 0.0), for arrays without NaN, at 55 to 70 % of its cost
    on arrays of 10 to 600 values; nor does it import ``numpy.ma``, as
    ``np.unique`` does to ask whether its input is masked.
    Every module of the package dedupes with it, except where it needs
    ``np.unique``'s inverse indices."""
    s = np.sort(a, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod abscissae of each panel [lo_i, hi_i], one row a panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _XGK[None, :]


def first_nodes(edges: np.ndarray) -> np.ndarray:
    """The abscissae of the first round of `integrate` over [edges[0],
    edges[-1]] with ``points=edges`` (sorted and unique), flat.

    `_eval_panels` builds its nodes by the same expression, so a caller that
    evaluates the integrand's ingredients here in advance, such as a law's
    quantile memo, holds exactly the values the first round asks for.
    """
    edges = np.asarray(edges, dtype=float)
    return _nodes(edges[:-1], edges[1:]).ravel()


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the 15-point rule on each panel [lo_i, hi_i].

    Returns (integral_estimates, error_estimates), one entry per panel. The
    error estimate follows the classic scaled-difference heuristic: it stays
    proportional to the panel's total variation when the Gauss and Kronrod
    answers disagree badly, which is what flags a hidden kink.
    """
    half = 0.5 * (hi - lo)
    x = _nodes(lo, hi)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    resk = half * (fx @ _WGK)
    resg = half * (fx[:, 1::2] @ _WG)
    mean_value = np.where(half > 0.0, resk / np.where(half > 0.0, 2.0 * half, 1.0), 0.0)
    resasc = half * (np.abs(fx - mean_value[:, None]) @ _WGK)
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(resasc > 0.0, (200.0 * diff) / np.where(resasc > 0.0, resasc, 1.0), 0.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio**1.5), diff)
    return resk, err


def _initial_edges(a: float, b: float, points) -> np.ndarray:
    """a, the points strictly inside (a, b) and b, sorted and unique."""
    points = np.asarray(points, dtype=float)
    return _unique(np.concatenate(([a], points[(points > a) & (points < b)], [b])))


def _refine(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Refine panels [lo_i, hi_i] against one global error budget.

    Cuts every panel whose error estimate exceeds its share of `tol` times
    the summed |panel integral| at the fractions `_CUTS` of its width, until
    the total estimated error drops under that or no flagged panel can be
    cut without taking the panel count past `PANEL_LIMIT`. Near the limit
    only the flagged panels of largest error that fit are cut. Returns the
    final panels' integrals.
    """
    vals, errs = _eval_panels(f, lo, hi)
    while errs.sum() > tol * np.abs(vals).sum():
        mask = errs > tol * np.abs(vals).sum() / lo.size
        # a cut panel gives way to _CUTS.size - 1 children
        room = (PANEL_LIMIT - lo.size) // (_CUTS.size - 2)
        if not mask.any() or room < 1:
            break
        if np.count_nonzero(mask) > room:
            mask = np.zeros_like(mask)
            mask[np.argpartition(errs, -room)[-room:]] = True
        a, b = lo[mask], hi[mask]
        cuts = np.minimum(a[:, None] + (b - a)[:, None] * _CUTS, b[:, None])
        cuts[:, -1] = b
        new_lo, new_hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
    return vals


def integrate(f, a: float, b: float, *, points=(), tol: float = 1e-10) -> float:
    """Integrate a vectorized callable over [a, b].

    `points` lists abscissae where the integrand may jump or kink; panels are
    forced to break there. Refinement cuts every panel whose error estimate
    exceeds its share of the global budget into eight graded children
    (`_refine`), until the total estimated error drops under `tol` times the
    integral of |f| or no flagged panel fits under `PANEL_LIMIT`.
    """
    if not (b > a):
        return 0.0
    edges = _initial_edges(a, b, points)
    return float(_refine(f, edges[:-1], edges[1:], tol).sum())
