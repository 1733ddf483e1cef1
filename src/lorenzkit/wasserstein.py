"""Wasserstein-1 distance and convergence diagnostics.

W1 between two laws on the half-line is both the L1 distance between their
quantile functions on (0, 1) and the L1 distance between their distribution
functions on (0, inf). Both routes are always computed; they must agree
within tolerance or the call fails loudly, and the quantile-route value is
what callers get. Each route is an exact sum where it can be and the cell
integrator (`_abs_gap_body`) otherwise, and the two share no formula: the
quantile route (`_w1_quantile`) sums over the cells of a finite-discrete law
(`_w1_step_quantile`) when either law is one, the cdf route (`_w1_cdf`) over
the merged atoms of a signed atom block when both are.

The diagnostics half of the module watches a sequence against a candidate
limit and classifies it: convergent in W1, weakly convergent with escaping
mass (means do not converge), or not even weakly convergent. Weak
convergence is probed through quantile values on a dyadic ladder that
avoids the limit's discontinuities; the mass-escape check compares means
and, independently, looks at a uniform-integrability tail functional, and
the two classifications are cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .indices import gini_mean_difference, hoover_mean_deviation
from .lorenz import lorenz, reconstruct
from .measures import DYADIC, HALVINGS, P_TAIL, TAIL_LEVELS, X_CUT, Distribution, _AtomBlock, atom, require_member

__all__ = [
    "w1",
    "w1_routes",
    "ui_tail",
    "lorenz_tail_gap",
    "limit_from_lorenz",
    "StepDiagnostics",
    "LimitSummary",
    "ConvergenceReport",
    "sequence_diagnostics",
]


def _q_within(d: Distribution, p: np.ndarray, tol: float) -> np.ndarray:
    """Left quantiles in [Q(p), Q(p) + tol] (tol 1e-10 s from `_w1_quantile`),
    each depending on its p and tol alone: the closed form where the law has
    one (`Distribution._closed_quantile`, exact to the float for
    finite-discrete laws, to a few eps otherwise), else the inversion from
    its knot table (`Distribution._quantile_within`), which reads no memo."""
    return d._quantile_within(p, tol) if d._memoized else d._closed_quantile(p)


#: new points a level of `_abs_gap_body` may spend on few open cells: each
#: is cut into the largest power of two of children whose count over the
#: level stays within it, 8 at least, so a level that cuts more than 8 cells
#: cuts each in 8
_GAP_LEVEL_POINTS = 128
#: count of open cells that no level of `_abs_gap_body` takes past
_GAP_CELL_LIMIT = 16384


def _abs_gap_body(edges: np.ndarray, evaluate, budget: float) -> tuple[float, float, float]:
    """Integral of |g1 - g2| between two nondecreasing functions over cells.

    `evaluate(points, br1, br2)` returns (g1, A1, g2, A2, g1-, g2-) where
    A_i is an exact antiderivative of g_i and g_i- its left limit g_i(x-);
    `br_i` hold each point's parent cell's (g_i(a), g_i(b-)), None on the
    first call: no evaluator in lorenzkit reads them, but the benchmark's
    tracer tells the first call from a level by them. On the open cell
    (a, b), monotonicity pins g1 - g2 inside [g1(a) - g2(b-), g1(b-) - g2(a)]:
    a cell's left end reads g, its right end g-, so a jump at b, an atom of a
    right-continuous cdf, widens no bound. Cells where that interval has one
    sign contribute |A-difference| exactly, the rest are cut into m equal
    children, everything vectorized one depth level at a time. Each level
    pays one evaluation pass whatever its size, so m is the largest power of
    two that keeps the level's cells within `_GAP_LEVEL_POINTS` and the cell
    limit, 8 at least: a level that cuts one crossing cuts it 128-fold, and
    one that cuts more than 8 cells cuts each in 8. A cell is a column of
    `lo` and of `hi`, its ends' rows x, g1, A1, g2, A2, g1-, g2-; the waiting
    cells come first, then each cut cell's children in order. Ambiguous cells
    are accepted once their width-times-oscillation bound fits the remaining
    error budget, or once their ends are adjacent floats; either way the
    bound is charged to the budget. No level takes the count of open cells
    past `_GAP_CELL_LIMIT`: near it only the open cells of largest bound are
    cut and the others wait, and once none can be cut, or at depth 47, the
    open cells are added without charging their bound. Returns (integral, A1
    at the last edge, A2 at the last edge); the trailing antiderivative
    values serve tail corrections.
    """
    ends = np.stack([edges, *evaluate(edges, None, None)])
    end1, end2 = float(ends[2, -1]), float(ends[4, -1])
    lo, hi = ends[:, :-1], ends[:, 1:]
    total = 0.0
    spent = 0.0
    for depth in range(48):
        a, va1, aa1, va2, aa2 = lo[:5]
        b, _, ab1, _, ab2, vb1, vb2 = hi
        integ = (ab1 - aa1) - (ab2 - aa2)
        osc = (vb1 - va2) - (va1 - vb2)
        err = (b - a) * osc
        sure = ((va1 - vb2) >= 0.0) | ((vb1 - va2) <= 0.0)
        n_active = int(np.sum(~sure))
        if n_active:
            allowance = max(budget - spent, 0.0) / n_active
            uncuttable = b <= np.nextafter(a, np.inf)
            accept = ~sure & ((err <= allowance) | uncuttable)
            spent += float(err[accept].sum())
        else:
            accept = np.zeros_like(sure)
        done = sure | accept
        total += float(np.abs(integ[done]).sum())
        open_ = np.flatnonzero(~done)
        # a cut cell gives way to m equal children, at n = m - 1 cut points
        grow = min(_GAP_LEVEL_POINTS, _GAP_CELL_LIMIT - open_.size) // max(open_.size, 1)
        m = 8 if grow < 16 else 1 << (grow.bit_length() - 1)
        n = m - 1
        room = (_GAP_CELL_LIMIT - open_.size) // n
        if open_.size == 0 or depth == 47 or room < 1:
            total += float(np.abs(integ[open_]).sum())
            break
        if open_.size > room:
            open_ = open_[np.argpartition(err[open_], -room)]
        wait, cut = open_[:-room], open_[-room:]
        x = np.minimum(a[cut, None] + (b - a)[cut, None] * (np.arange(1.0, m) / m), b[cut, None])
        at_x = evaluate(
            x.ravel(),
            (np.repeat(va1[cut], n), np.repeat(vb1[cut], n)),
            (np.repeat(va2[cut], n), np.repeat(vb2[cut], n)),
        )
        # rows x, g1, A1, g2, A2, g1-, g2- by cut cell by its ends and its n cut points
        inner = np.reshape([x.ravel(), *at_x], (7, -1, n))
        grid = np.concatenate([lo[:, cut, None], inner, hi[:, cut, None]], axis=2)
        lo = np.concatenate([lo[:, wait], grid[:, :, :-1].reshape(7, -1)], axis=1)
        hi = np.concatenate([hi[:, wait], grid[:, :, 1:].reshape(7, -1)], axis=1)
    return total, end1, end2


def _w1_step_quantile(d1: Distribution, d2: Distribution, tol: float) -> float:
    """The quantile route of a finite-discrete d1 = sum_j w_j delta(s_j)
    against any law d2, as one exact sum over d1's cells.

    On the cell (c_{j-1}, c_j] of d1's cumulative masses Q1 = s_j, and by the
    Galois pair Q2 <= s_j exactly where p <= F2(s_j). So the cell splits at
    pi_j, F2(s_j) clipped to the cell, where S2(pi_j) = pe2(s_j), S2(p) the
    integral of Q2 over [0, p]. The cell's integral of |Q1 - Q2| is then
    s_j ((pi_j - c_{j-1}) - (c_j - pi_j)) + S2(c_{j-1}) + S2(c_j) - 2 S2(pi_j),
    and a clipped cell gives +-(s_j w_j - (S2(c_j) - S2(c_{j-1}))). S2 at an
    inner edge p is pe2(q-) + q (p - F2(q-)), stationary in q, at quantiles
    q within tol (one batch); S2(0) = 0 and S2(1) = m2, so no tail is cut.
    A finite-discrete d2 reads S2(1) from its block (``cum_xm[-1]``) like
    pe2, not from its mean, a sum in input order: discrete([5e-324, 5e-324])
    has mean 0 and block sum 5e-324. Each cell's integral is >= 0, so the
    sum is clipped at 0, where rounding takes it below (a law against
    itself).

    Precision: a cell's width is its weight w_j, not a difference of
    cumulative masses (an atom of mass 1e-9 at 1e12 would lose 2.8e-5 to
    the rounding of 1 - 1e-9). Up to c_j = 1/2 the edge is the prefix sum
    c_j, and the offset c_j - pi_j and S2 read c_j - F2; above, the edge is
    1 - r_j, r_j d1's mass right of s_j (a suffix sum), and they read
    sf2 - r_j. So a far atom keeps the digits that F2 and c_j lose near 1,
    and offsets and S2 compare levels one way: S2 from F2 above the half
    put the gap between a discrete d2's prefix and suffix sums into every
    cell there, 1.6e-12 (m1 + m2) on two 3,000-atom samples.
    """
    block = d1._discrete
    s, w, c, right = block.loc, block.mass, block.cum[1:], block.tail[1:]
    h = int(np.searchsorted(c, 0.5, side="right"))
    inner = np.concatenate([c[:h], 1.0 - right[h:]])[:-1]
    q = _q_within(d2, inner, tol)
    mass = d2._mass_arr(q)
    below = inner[:h] - np.maximum(d2._cdf_arr(q[:h]) - mass[:h], 0.0)
    level = np.concatenate([below, d2._sf_arr(q[h:]) + mass[h:] - right[h:-1]])
    s2 = np.maximum(d2._pe_arr(q) - q * mass, 0.0) + q * level
    s2_lo = np.concatenate([[0.0], s2])
    s2_hi = np.concatenate([s2, [d2._discrete.cum_xm[-1] if d2.is_finite_discrete else d2.mean]])
    offset = np.concatenate([c[:h] - d2._cdf_arr(s[:h]), d2._sf_arr(s[h:]) - right[h:]])
    b = np.clip(offset, 0.0, w)
    s2_pi = np.where(b <= 0.0, s2_hi, np.where(b >= w, s2_lo, d2._pe_arr(s)))
    return max(float(np.sum(s * ((w - b) - b) + s2_lo + s2_hi - 2.0 * s2_pi)), 0.0)


def _w1_quantile(d1: Distribution, d2: Distribution, scale: float) -> float:
    """The quantile route of a pair in `w1_routes`' order, quadrature free:
    against a finite-discrete d1 one exact sum (`_w1_step_quantile`);
    otherwise cells in p, cell integrals of Q from the partial expectation
    identity (`Distribution._quantile_integral`), stationary in its quantile
    argument, so approximate quantiles serve, and matched tails beyond
    `P_TAIL`. The cells are graded toward both ends, where the curves may
    touch: they split at 2^-k and 1 - 2^-k for k = 1..40. Q is
    left-continuous, so `eval_q` gives Q itself as its left limit. Quantiles
    to 1e-10 s, each from its p alone (`_q_within`), and a budget of 1e-7 s,
    s = `scale` = m1 + m2 a bound on W1.
    """
    tol_q = 1e-10 * scale
    if d1.is_finite_discrete:
        return _w1_step_quantile(d1, d2, tol_q)
    edges = np.concatenate(
        [d1.p_breakpoints(), d2.p_breakpoints(), np.linspace(0.0, 1.0, 129), 1.0 - TAIL_LEVELS, TAIL_LEVELS]
    )
    edges = np.unique(np.concatenate([edges[edges < P_TAIL], [0.0, P_TAIL]]))

    def eval_q(ps, br1, br2):
        out = []
        for d in (d1, d2):
            q = _q_within(d, ps, tol_q)
            out.extend((q, d._quantile_integral(ps, q)))
        return (*out, out[0], out[2])

    body_q, s1_tail, s2_tail = _abs_gap_body(edges, eval_q, 1e-7 * scale)
    return body_q + abs(max(d1.mean - s1_tail, 0.0) - max(d2.mean - s2_tail, 0.0))


def _w1_cdf(d1: Distribution, d2: Distribution, scale: float) -> float:
    """The cdf route of a pair in `w1_routes`' order; it reads none of the
    quantile route's values. Of two finite-discrete laws one exact sum over
    one signed block, d1's atoms and d2's with their masses negated, merged
    by `_AtomBlock.of`: right of merged atom k, F1 - F2 is the prefix sum
    ``cum[k+1]`` left of d1's median and minus the suffix sum ``tail[k+1]``
    from it on, so a far atom of tiny mass keeps its digits. Otherwise
    cells in x, cell integrals of F from integration by parts,
    A(x) = x F(x) - pe(x), split at hi 2^-k for k = 1..60 (`HALVINGS`), and
    matched tails beyond hi, the larger of the laws' support_hi(`X_CUT`),
    at a budget of 1e-7 s. `eval_x` gives F - mass_at as the left limit
    F(x-), so a cell ending at an atom of either law closes unless the
    curves cross inside it.
    """
    if d2.is_finite_discrete:
        b1, b2 = d1._discrete, d2._discrete
        block = _AtomBlock.of(np.concatenate([b1.loc, b2.loc]), np.concatenate([b1.mass, -b2.mass]))
        x = block.loc
        gap = np.where(x[:-1] < b1.quantile(np.asarray(0.5)), block.cum[1:-1], -block.tail[1:-1])
        return float(np.sum(np.diff(x) * np.abs(gap)))
    hi = max(d1.support_hi(X_CUT), d2.support_hi(X_CUT))
    xb = np.concatenate([d1.x_breakpoints(), d2.x_breakpoints()])
    xedges = np.unique(
        np.concatenate([xb[(xb > 0.0) & (xb < hi)], np.linspace(0.0, hi, 129), hi * HALVINGS])
    )

    def eval_x(xs, br1, br2):
        f1 = d1._cdf_arr(xs)
        f2 = d2._cdf_arr(xs)
        a1 = xs * f1 - d1._pe_arr(xs)
        a2 = xs * f2 - d2._pe_arr(xs)
        return f1, a1, f2, a2, f1 - d1._mass_arr(xs), f2 - d2._mass_arr(xs)

    body_f, _, _ = _abs_gap_body(xedges, eval_x, 1e-7 * scale)
    return body_f + abs(d1.excess_mean(hi) - d2.excess_mean(hi))


def _pair_rank(d: Distribution) -> tuple:
    """Where `w1_routes` puts a law: finite-discrete first, fewer atoms
    first (`_w1_step_quantile` evaluates d2 at d1's atoms), then by its
    block's bytes; any other law after, in the order given."""
    b = d._discrete
    return (1,) if b is None else (0, b.loc.size, b.loc.tobytes(), b.mass.tobytes())


def w1_routes(d1: Distribution, d2: Distribution) -> tuple[float, float]:
    """Both W1 evaluations (quantile-gap integral, cdf-gap integral).

    The pair is ordered once (`_pair_rank`), so the routes (`_w1_quantile`,
    `_w1_cdf`) see it one way whichever way it was given, and
    w1(a, b) == w1(b, a) bitwise when a law is finite-discrete. The routes
    must agree within 1e-8 s (finite-discrete pair) or 1e-5 s, s = m1 + m2.
    Raises RuntimeError on disagreement, which indicates an evaluation bug
    rather than a property of the inputs.
    """
    if _pair_rank(d2) < _pair_rank(d1):
        d1, d2 = d2, d1
    scale = d1.mean + d2.mean
    by_quantile, by_cdf = _w1_quantile(d1, d2, scale), _w1_cdf(d1, d2, scale)
    tol = (1e-8 if d2.is_finite_discrete else 1e-5) * scale
    if abs(by_quantile - by_cdf) > tol:
        raise RuntimeError(
            f"W1 route disagreement: quantile {by_quantile!r} vs cdf {by_cdf!r}"
        )
    return by_quantile, by_cdf


def w1(d1: Distribution, d2: Distribution) -> float:
    """Wasserstein-1 distance between two laws with finite means.

    Computed twice (see w1_routes); the quantile-route value is returned.
    """
    return w1_routes(d1, d2)[0]


def ui_tail(family, alpha: float) -> float:
    """Worst tail first moment over a family: sup of E[X; X > alpha].

    Vanishing of this as alpha grows is uniform integrability, the exact gap
    between weak convergence and W1 convergence for mean-normalized laws.
    """
    ds = list(family)
    if not ds:
        raise ValueError("family must be nonempty")
    alpha = float(alpha)
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError("tail cutoff must be finite and >= 0")
    return max(d.tail_moment(alpha) for d in ds)


def lorenz_tail_gap(family, p: float) -> float:
    """One minus the smallest Lorenz value at p across the family.

    The top (1 - p) share of the most concentrated member; a uniform-in-family
    Lorenz lower bound near 1 caps how much mass the family can push to the
    tail.
    """
    ds = list(family)
    if not ds:
        raise ValueError("family must be nonempty")
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError("Lorenz argument must lie in [0, 1]")
    return 1.0 - min(float(lorenz(d).eval(p)) for d in ds)


def limit_from_lorenz(ell, alpha: float, grid=None) -> tuple[Distribution, float]:
    """Recover the weak limit from a limiting Lorenz-type curve and mean scale.

    `ell` is the pointwise limit of Lorenz curves on [0, 1), given as a
    callable or as values on `grid` (default: 1024 uniform cells of [0, 1));
    it may top out below 1 when mass escapes. `alpha` is the limit of the
    means. The limiting mean is alpha times the left limit of `ell` at 1
    (linearly extrapolated from the last two grid points, exact whenever the
    final piece is affine); when that scale-free value or alpha is zero the
    limit is the point mass at zero with zero mean. Otherwise `ell` rescaled
    to a genuine Lorenz curve is carried back to a distribution with the
    limiting mean.
    """
    alpha = float(alpha)
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError("mean scale must be finite and >= 0")
    if grid is None:
        ps = np.linspace(0.0, 1.0, 1025)[:-1]
    else:
        ps = np.asarray(grid, dtype=float)
    if ps.size < 3 or np.any(np.diff(ps) <= 0) or ps[0] != 0.0 or ps[-1] >= 1.0:
        raise ValueError("grid must be strictly increasing, start at 0, stay below 1")
    vals = (
        np.asarray([float(ell(p)) for p in ps])
        if callable(ell)
        else np.asarray(ell, dtype=float)
    )
    if vals.shape != ps.shape:
        raise ValueError("curve values must match the grid")
    last_slope = (vals[-1] - vals[-2]) / (ps[-1] - ps[-2])
    at_one = vals[-1] + last_slope * (1.0 - ps[-1])
    mean_limit = at_one * alpha
    if at_one <= 1e-12 or mean_limit == 0.0:
        return atom(0.0), 0.0
    full_ps = np.concatenate([ps, [1.0]])
    full_vals = np.concatenate([vals / at_one, [1.0]])
    return reconstruct(full_vals, mean_limit, grid=full_ps), mean_limit


@dataclass(frozen=True)
class StepDiagnostics:
    """Everything measured about one member of the sequence."""

    index: int
    w1_to_limit: float
    mean: float
    gini: float
    hoover: float
    lorenz_sup_error: float
    ui_tail_at_alpha: float


@dataclass(frozen=True)
class LimitSummary:
    mean: float
    gini: float
    hoover: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step diagnostics plus a classification of the sequence.

    verdict is one of "w1_convergent", "weak_only", "divergent", decided from
    the final step: quantile probes against the limit settle or not, and if
    they settle, whether the means also land on the limit mean. The same
    classification is recomputed from the uniform-integrability tail
    functional instead of the means (scheffe_verdict); the two must agree
    unless the thresholds are straddled by a borderline sequence.
    """

    steps: tuple[StepDiagnostics, ...]
    limit_summary: LimitSummary
    verdict: str
    deciding_diagnostic: str
    scheffe_verdict: str
    alpha_ref: float
    rel_tol: float

    #: the TSV columns, kept fixed; the JSON report is the fields, in order
    _TSV_COLUMNS = (
        "index",
        "w1_to_limit",
        "mean",
        "gini",
        "hoover",
        "lorenz_sup_error",
        "ui_tail_at_alpha",
    )

    def to_json_dict(self) -> dict:
        return asdict(self)

    def tsv_rows(self) -> list[tuple]:
        rows = [self._TSV_COLUMNS]
        for s in self.steps:
            rows.append(tuple(getattr(s, name) for name in self._TSV_COLUMNS))
        return rows


def _weak_probes(limit: Distribution) -> np.ndarray:
    """The dyadic probes (`DYADIC`) farther than 1e-9 from every quantile
    breakpoint of the limit inside (0, 1). The breakpoints are sorted, so a
    probe's nearest one is a neighbour of its ``searchsorted`` slot, and the
    cost grows with the probes plus the breakpoints, not their product."""
    jumps = limit.p_breakpoints()
    jumps = jumps[(jumps > 0.0) & (jumps < 1.0)]
    if not jumps.size:
        return DYADIC
    at = np.searchsorted(jumps, DYADIC)
    below = np.abs(DYADIC - jumps[np.maximum(at - 1, 0)])
    above = np.abs(DYADIC - jumps[np.minimum(at, jumps.size - 1)])
    return DYADIC[np.minimum(below, above) > 1e-9]


def _checked_thresholds(rel_tol, alpha_grid):
    """(rel_tol, alpha_grid) as a float and a float array (or None), or a
    ValueError unless rel_tol is finite and > 0 and alpha_grid, when given,
    is nonempty, finite and >= 0. `sequence_diagnostics` and
    `estimators.ExperimentSpec` both check with it."""
    rel_tol = float(rel_tol)
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    if alpha_grid is not None:
        alpha_grid = np.asarray(list(alpha_grid), dtype=float)
        if alpha_grid.size == 0 or not np.all(np.isfinite(alpha_grid) & (alpha_grid >= 0.0)):
            raise ValueError(
                f"alpha_grid must be nonempty, finite and >= 0, got {alpha_grid.tolist()!r}"
            )
    return rel_tol, alpha_grid


def sequence_diagnostics(
    seq,
    limit: Distribution,
    probes=None,
    rel_tol: float = 0.05,
    alpha_grid=None,
) -> ConvergenceReport:
    """Measure a sequence against its candidate limit and classify it.

    Every step gets its W1 distance to the limit, mean, Gini, Hoover, the
    sup gap between its Lorenz curve and the limit's on the limit's probe
    ladder (`Distribution._probe_ladder`), and the tail first moment above
    alpha_ref (the largest entry of alpha_grid, default mean * (2, 4, 8,
    16)). Thresholds are rel_tol times the limit mean throughout.

    Weak convergence is probed on `probes` (default: a dyadic ladder that
    sidesteps the limit's quantile jumps) through a two-sided band: the
    final member's quantile at p has to land inside the limit's quantile
    range over [p - rel_tol/2, p + rel_tol/2], stretched by the value
    tolerance. The probability slack makes the probe insensitive to mass
    that sits epsilon to the side of a jump of Q_inf, which is exactly the
    freedom weak convergence grants; a law that is genuinely displaced
    still fails because no nearby p explains its quantile values.

    A law with a quantile memo (`Distribution._memoized`) inverts the p it
    is read at here in one batch (`Distribution._prefetch`): the limit,
    before the steps, its probes, both band edges, the ladder and the first
    round of its Gini (`Distribution._mean_difference_p`); each member,
    before its step, the ladder and the first round of its Gini. Every
    later read of those p is a memo hit, and every value is what a cold law
    returns. Other laws build no batch. The W1 routes invert from each
    law's knot table to 1e-10 s (`_q_within`) and read no memo.
    """
    rel_tol, alpha_grid = _checked_thresholds(rel_tol, alpha_grid)
    members = list(seq)
    if not members:
        raise ValueError("sequence must be nonempty")
    require_member(limit)
    m_inf = limit.mean
    if alpha_grid is None:
        alpha_grid = m_inf * np.asarray([2.0, 4.0, 8.0, 16.0])
    alpha_ref = float(np.max(alpha_grid))

    if probes is None:
        probes = _weak_probes(limit)
    else:
        probes = np.asarray(list(probes), dtype=float)
        if probes.size == 0 or not np.all((probes > 0.0) & (probes < 1.0)):
            raise ValueError("probes must be a nonempty ladder inside (0, 1)")
    ladder = limit._probe_ladder
    delta = 0.5 * rel_tol
    p_lo, p_hi = np.maximum(probes - delta, 0.0), np.minimum(probes + delta, P_TAIL)
    if limit._memoized:
        limit._prefetch(np.concatenate([limit._mean_difference_p, probes, p_lo, p_hi, ladder]))
    q_limit, band_lo, band_hi = (limit._quantile_arr(p) for p in (probes, p_lo, p_hi))
    l_limit = lorenz(limit).eval(ladder)

    steps = []
    for i, d in enumerate(members):
        require_member(d)
        if d._memoized:
            d._prefetch(np.concatenate([d._mean_difference_p, ladder]))
        curve = lorenz(d)
        steps.append(
            StepDiagnostics(
                index=i,
                w1_to_limit=w1(d, limit),
                mean=d.mean,
                gini=gini_mean_difference(d),
                hoover=hoover_mean_deviation(d),
                lorenz_sup_error=float(
                    np.max(np.abs(curve.eval(ladder) - l_limit))
                ),
                ui_tail_at_alpha=d.tail_moment(alpha_ref),
            )
        )

    last = members[-1]
    scale = rel_tol * m_inf
    # Quantile values live on their own scale (the top of the probed range),
    # which for skewed laws is well above the mean.
    q_scale = rel_tol * max(m_inf, float(np.max(q_limit, initial=0.0)))
    q_last = last._quantile_arr(probes)
    weak_gap = float(
        np.max(np.maximum(band_lo - q_last, q_last - band_hi), initial=0.0)
    )
    weak_gap = max(weak_gap, 0.0)
    weak_ok = weak_gap <= q_scale
    mean_gap = abs(steps[-1].mean - m_inf)
    means_ok = mean_gap <= scale
    w1_ok = steps[-1].w1_to_limit <= scale
    ui_ok = steps[-1].ui_tail_at_alpha <= scale

    if weak_ok and means_ok and w1_ok:
        verdict = "w1_convergent"
        deciding = (
            f"final W1 to limit is {steps[-1].w1_to_limit:.4g}, within "
            f"{rel_tol:g} * limit mean = {scale:.4g}, and means agree"
        )
    elif weak_ok:
        verdict = "weak_only"
        deciding = (
            f"quantile probes settle (band excess {weak_gap:.4g}) but the "
            f"final mean {steps[-1].mean:.6g} misses the limit mean "
            f"{m_inf:.6g} by {mean_gap:.4g}"
            if not means_ok
            else f"quantile probes settle but final W1 "
            f"{steps[-1].w1_to_limit:.4g} exceeds {scale:.4g}"
        )
    else:
        verdict = "divergent"
        deciding = (
            f"quantile probes do not settle: band excess {weak_gap:.4g} "
            f"exceeds {q_scale:.4g} at the final step"
        )

    if weak_ok and ui_ok:
        scheffe = "w1_convergent"
    elif weak_ok:
        scheffe = "weak_only"
    else:
        scheffe = "divergent"

    return ConvergenceReport(
        steps=tuple(steps),
        limit_summary=LimitSummary(
            mean=m_inf,
            gini=gini_mean_difference(limit),
            hoover=hoover_mean_deviation(limit),
        ),
        verdict=verdict,
        deciding_diagnostic=deciding,
        scheffe_verdict=scheffe,
        alpha_ref=alpha_ref,
        rel_tol=rel_tol,
    )
