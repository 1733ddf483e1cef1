"""Concrete carriers for probability measures on the nonnegative half-line.

A `Distribution` is a finite mixture of primitive components: point masses,
uniform densities, lognormal / gamma / exponential densities, and quantile
tables (step or piecewise-linear). Every component knows its exact mean, CDF,
survival function ``sf(x) = P[X > x]``, atom masses and partial expectation
``pe(x) = integral of u over [0, x]``, so the quantities downstream modules
need (Lorenz values, tail moments, Robin Hood shares) reduce to closed forms
plus one generic quantile inversion. A component's sf is its own closed form
(ndtr(-z), gammaincc, e^-rate x, exact slab and atom sums, kernel window sums
of G(-u)), never 1 - cdf, so it keeps full relative precision in the tail,
where 1 - F has no digits left. ndtr and gammaincc, like the Gaussian
kernel's ndtr in the estimators module, come from scipy.special, which `sp`
imports at its first use: atoms, slabs, exponentials, quantile tables and
compact-kernel estimates never load it.

A finite set of atoms is one component, `Atoms`: two read-only float
arrays of locations and masses in input order. `discrete` builds one, `atom`
one of a single row, and `mixture` keeps it whole when it flattens; quantile
tables hold read-only float arrays too. Atoms are read through one sorted
block type, `_AtomBlock`, with prefix sums of mass and of mass times
location and suffix sums of mass: its CDF, survival function, atom mass,
partial expectation and quantile cost one ``searchsorted`` per call. An
`Atoms` component reads its own block, a quantile table one of its atoms,
and a distribution pools the atoms of all its atomic parts (atom blocks,
step quantile tables) into one, so that only the remaining parts
(densities, linear quantile tables, plug-in components such as kernel
mixtures) are evaluated one by one.

Quantiles follow the left-continuous convention ``Q(p) = min{q >= 0 : F(q) >= p}``
on the domain [0, 1). In particular Q(0) = 0 for every distribution, because
F(0) >= 0 holds trivially. The public quantile (`Distribution.quantile`),
draws, and every caller that compares quantiles are exact to the float; the
quantiles that the index routes, the Lorenz curve and the integrals of Q
read (`Distribution._quantile_arr`) are within tau = `ROUTE_QUANTILE_TOL`
times the mean above Q(p), since S(p), the integral of Q over [0, p], is
stationary in Q: a q in [Q(p), Q(p) + tau] moves it by at most
tau (F(q-) - p) <= tau. For exact quantiles found by inversion the contract
is an exact Galois pair in floating point, with Q nondecreasing in p. A
mixture of parts has a two-sided one. Let x_h be the first knot of its
table (`Distribution._knot_values`) where F >= 1/2. Rows with p <= F(x_h)
meet F(prev(Q)) < p <= F(Q) for the computed F, prev(Q) the float below Q;
rows above meet sf(Q) <= 1 - p < sf(prev(Q)) for the computed sf, since
they invert -sf against p - 1, which is exact (Sterbenz), and near p = 1 the
sum F = sum w_i F_i resolves only ulp(1) while sf resolves the tail
(`_knot_brackets`). Every row brackets its target between adjacent kept
knots, those where the computed F and -sf equal their running maximum (an
atom may fall inside such a bracket, which the pair does not need), the
Illinois steps of `_invert` narrow all rows of a batch in one loop, and
the one bisection loop (`_bisect`) finishes them, so the pair holds exactly.
Where the computed function is not monotone at the ulp level, more than one
float can meet the pair, and which one is returned depends on the bracket:
the pair, not "the smallest float that clears p", is the contract.
A kernel estimate with the Gaussian kernel, a law of one part whose
component sets ``iterative_quantile``, inverts from the same table and
meets the same two-sided pair. Finite-discrete laws meet the cdf form
exactly. Other closed forms (single densities, linear tables, and kernel
estimates with the uniform or Epanechnikov kernel, whose quantile is a
root of the cdf's polynomial on one knot cell) meet it to a few eps. For
those kernel estimates F(Q(p)-) - d <= p <= F(Q(p)) + d is tested, with
d = 4 eps + A ulp(Q) / (n h), A the sample points within h of Q: F rises
by at most that second term over one ulp of Q, which n no longer divides
down on samples of a few points. At n = 200 and h = 0.03, d = 4 eps holds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .quadrature import _nodes, first_nodes, integrate

__all__ = [
    "MeanDomainError",
    "ZeroMeanError",
    "InfiniteMeanError",
    "Atoms",
    "UniformDensity",
    "Exponential",
    "Gamma",
    "Lognormal",
    "QuantileTable",
    "Distribution",
    "atom",
    "uniform",
    "exponential",
    "gamma_dist",
    "lognormal",
    "discrete",
    "quantile_table",
    "mixture",
    "fsd_dominates",
    "require_member",
]

#: validation slack for weights and probabilities
WEIGHT_TOL = 1e-12

#: the 1023 dyadic probabilities k / 2^j, k odd, j <= 10, level by level
DYADIC = np.asarray([k / 2.0**lvl for lvl in range(1, 11) for k in range(1, 2**lvl, 2)])
#: tail probability levels 1 - 2^-k, k = 1..40
TAIL_LEVELS = 1.0 - 2.0 ** -np.arange(1.0, 41.0)
#: where probability-space integrals and ladders stop short of 1
P_TAIL = 1.0 - 2.0**-40
#: where every integral over p splits: the head ladder 2^-k, k = 1..10, and
#: `TAIL_LEVELS`, so the first round of quadrature already has panels at
#: every scale toward both ends, where Q may be singular (p^(1/k) at 0 for a
#: gamma-like part, a log-like run at 1)
P_SPLITS = np.unique(np.concatenate([2.0 ** -np.arange(1.0, 11.0), TAIL_LEVELS]))
#: factors 2^-k, k = 1..60: an x-space integral over [a, b] also splits at
#: b 2^-k, so panels are geometric in x and a heavy tail is resolved at
#: every scale between b 2^-60 and b, with no quantile inversion (the knot
#: table of a mixture has a finer ladder of its own, `_KNOT_LADDER`)
HALVINGS = 2.0 ** -np.arange(1.0, 61.0)
#: survival mass beyond the cut of an x-space integral to infinity, whose
#: tail past the cut enters in closed form (`Distribution._sf_integral`)
X_CUT = 1e-13
#: factors 2^(-k/8), k = 1..480: the ladder of a mixture's knot table
#: (`Distribution._knot_values`), eight knots per octave over the octaves
#: of `HALVINGS`, so an inversion starts from a bracket under 10 % wide
_KNOT_LADDER = 2.0 ** -(np.arange(1.0, 481.0) / 8.0)
#: cap on the rounds of an iterative quantile inversion: the Illinois loop
#: of `_invert` and the polynomial Newton of the compact-kernel estimates
_MAX_ROUNDS = 64
#: ulps of Q, and of p over the slope, within which the Illinois steps of
#: an iterative quantile stop before its one bisection (`_reach`)
_FINISH_ULPS = 4
#: entries a law's quantile memo holds at most (`Distribution._quantile_arr`)
QUANTILE_MEMO_CAP = 2**16
#: how far above Q(p), in units of the law's mean, a quantile that the index
#: routes read from the memo may land (`Distribution._quantile_arr`)
ROUTE_QUANTILE_TOL = 1e-11
#: shapes below which `Gamma` reads its cdf and sf near x / scale = 1 from
#: the shape k + 1, where scipy's own series for shape k is slow
_GAMMA_RAISE_BELOW = 1.25
#: the largest amplification 1 + 2t / Q of rounding that `Gamma.sf` accepts
#: from the cancellation of its recurrence Q(k + 1, u) - t
_GAMMA_MAX_AMPLIFICATION = 8.0
#: the largest float: the pointwise methods cap x at it where they multiply
#: x by a mass that is 0 at x = inf
_MAX_FLOAT = float(np.finfo(float).max)
DYADIC.flags.writeable = False
TAIL_LEVELS.flags.writeable = False
P_SPLITS.flags.writeable = False
HALVINGS.flags.writeable = False
_KNOT_LADDER.flags.writeable = False


class _SpecialOnFirstUse:
    """Stands in for ``scipy.special``, whose import takes longer than the
    rest of the package, until a special function is first read: that read
    imports it and rebinds the module global `sp` to it, so every later call
    goes straight to scipy."""

    def __getattr__(self, name):
        global sp
        from scipy import special

        sp = special
        return getattr(special, name)


#: ``scipy.special``, imported on first use (`_SpecialOnFirstUse`)
sp = _SpecialOnFirstUse()


class MeanDomainError(ValueError):
    """The distribution's mean puts it outside the domain of index computations."""


class ZeroMeanError(MeanDomainError):
    """All mass sits at zero; Lorenz and index functionals are undefined."""


class InfiniteMeanError(MeanDomainError):
    """The mean diverges."""


def scalar_or_array(x, out):
    """`out` as a float when the input `x` is a scalar or 0-d, else unchanged."""
    return float(out) if np.ndim(x) == 0 else out


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_weights(w: np.ndarray) -> None:
    """Raises unless every weight is finite and > 0, naming the first that
    is not, and their running sum in order is 1 within `WEIGHT_TOL` plus
    the (n - 1) 2^-53 sum(w) that a running sum of n terms may round off
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2),
    so n weights 1/n pass at any n. `mixture` has no rule of its own."""
    bad = ~(np.isfinite(w) & (w > 0.0))
    if bad.any():
        raise ValueError(f"component weights must be positive, got {float(w[bad.argmax()])}")
    total = float(np.cumsum(w)[-1])
    if abs(total - 1.0) > WEIGHT_TOL + (w.size - 1) * 2.0**-53 * total:
        raise ValueError(f"component weights must sum to 1, got {total!r}")


def _prefix(v: np.ndarray) -> np.ndarray:
    """Running sums of v, padded with a leading 0: entry i sums v[:i]."""
    return np.concatenate([[0.0], np.cumsum(v)])


def _suffix(v: np.ndarray) -> np.ndarray:
    """Running sums of v from the end, padded with a trailing 0: entry i
    sums v[i:]."""
    return np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])


def _float_vector(seq) -> np.ndarray:
    """A read-only float copy of a 1-d array or of an iterable of numbers."""
    if isinstance(seq, np.ndarray) and seq.ndim == 1:
        arr = np.array(seq, dtype=float)
    else:
        arr = np.fromiter(seq, dtype=float)
    arr.flags.writeable = False
    return arr


def _whole(name: str, v) -> int:
    """v as an int; raises ValueError, rather than floor, unless v is an
    integral number (4 and 4.0 pass, 2.5, NaN and "4" do not)."""
    if not isinstance(v, numbers.Real) or not float(v).is_integer():
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _count(name: str, v, least: int = 1) -> int:
    """v as an int >= least; raises ValueError otherwise (`_whole`)."""
    n = _whole(name, v)
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {v!r}")
    return n


def _nonnegative(name: str, x) -> np.ndarray:
    """x as a float array; raises unless every entry is >= 0, so NaN too.
    +inf passes, and each pointwise method returns its limit there."""
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0).all():
        raise ValueError(f"{name} is defined for x >= 0")
    return arr


def _monotone_knots(*columns: np.ndarray) -> np.ndarray:
    """Which knots of a table to keep: those where every column equals its
    running maximum. The kept columns are nondecreasing, so a searchsorted
    bracket on them depends on its target alone, and the knot 0 is kept."""
    keep = np.ones(columns[0].shape, dtype=bool)
    for col in columns:
        keep &= col == np.maximum.accumulate(col)
    return keep


def _bisect(level, y: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Shrink brackets [lo, hi] with level(hi, y) >= y until hi - lo <= tol.

    Bisection on the computed `level` (`_invert`). A bracket also stops
    once its ends are adjacent floats, so every tolerance, 0 included,
    terminates. Returns the final upper ends; where level(lo) < y too, the
    Galois pair level(prev(q)) < y <= level(q) holds for q = hi at
    tolerance 0, the contract of `quantile`.
    Finished brackets leave the working arrays, so a round costs only what
    is still open.
    """
    out = hi.copy()
    idx = np.arange(y.size)
    while True:
        nxt = np.nextafter(lo, hi)
        live = (hi - lo > tol) & (nxt < hi)
        if not live.all():
            out[idx] = hi
            idx, y, lo, hi, nxt = idx[live], y[live], lo[live], hi[live], nxt[live]
        if not idx.size:
            return out
        mid = np.minimum(np.maximum(0.5 * (lo + hi), nxt), np.nextafter(hi, lo))
        ge = level(mid, y) >= y
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)


def _reach(t, ulp_y, slope, tol: float = 0.0):
    """Half the bracket width at which the Illinois steps of `_invert` stop
    around an iterate t: max(tol, a few ulps of t plus a few ulps of the
    target y over the slope), since the computed level blurs its crossing
    of y over about ulp_y / slope in t, ulp_y = |spacing(y)|; `_bisect` goes
    on from there."""
    return np.maximum(tol, _FINISH_ULPS * (np.spacing(t) + ulp_y / slope))


def _invert(level, y, lo, hi, vlo, vhi, tol: float) -> np.ndarray:
    """Quantiles in [Q(p), Q(p) + tol] from brackets [lo, hi] holding Q(p).

    `level(t, y)` is the nondecreasing function each row compares with its
    target y: the cdf against p, or for the upper half of a mixture minus
    the survival function against p - 1 (`Distribution._level_arr`).
    Where the evaluated ends bracket the target by sign, vlo = level(lo) <
    y <= vhi = level(hi), Illinois steps (regula falsi that halves the
    residual of an end kept twice running; Dowell & Jarratt, BIT 1971)
    narrow the bracket. The upper residual is floored at |spacing(y)| / 2
    in the interpolation: where level(hi) = y exactly, as on a plateau, a
    zero residual would pin every step to hi. A row stops once its bracket
    is at most two `_reach` wide (the bracket's secant stands in for the
    density), or after `_MAX_ROUNDS` steps. Each step's point replaces one
    end, so the last iterate is an end of the bracket it leaves, and one
    `_bisect` call then shrinks the brackets of the whole batch to tol.
    Rows whose ends do not bracket y skip the steps and are bisected as
    given. At tol 0 the Galois pair level(prev(q)) < y <= level(q) holds
    exactly, as `quantile` needs.
    Each quantity of the open rows is one flat array, rebuilt by
    ``np.where`` each round; a secant point is clamped into the open
    bracket only on the rows where it left it, since the clamp keeps a
    point strictly inside as it is.
    """
    lo, hi = lo.copy(), hi.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ulp = np.abs(np.spacing(y))
        first = _reach(hi, ulp, (vhi - vlo) / (hi - lo), tol)
        (idx,) = np.nonzero((vlo < y) & (y <= vhi) & (hi - lo > 2.0 * first))
        # the bracket, its level values, the Illinois residuals, the target,
        # |spacing(target)| and the residual floor, one entry per open row;
        # up_last says which end the last step moved (None before the first)
        a, b, target, ulp = lo[idx], hi[idx], y[idx], ulp[idx]
        fa, fb = vlo[idx], vhi[idx]
        ga, gb, floor = fa - target, fb - target, 0.5 * ulp
        up_last = None
        for rnd in range(_MAX_ROUNDS):
            if not idx.size:
                break
            s = a - ga * (b - a) / (np.maximum(gb, floor) - ga)
            out = ~((a < s) & (s < b))
            if out.any():
                s[out] = np.minimum(np.maximum(s[out], np.nextafter(a[out], b[out])), np.nextafter(b[out], a[out]))
            fs = level(s, target)
            g = fs - target
            up = g >= 0.0
            if up_last is not None:
                ga = np.where(up_last, 0.5 * ga, ga)
                gb = np.where(up_last, gb, 0.5 * gb)
            a, fa, ga = np.where(up, a, s), np.where(up, fa, fs), np.where(up, ga, g)
            b, fb, gb = np.where(up, s, b), np.where(up, fs, fb), np.where(up, g, gb)
            up_last = up
            r = _reach(s, ulp, (fb - fa) / (b - a), tol)
            open_ = (b - a > 2.0 * r) & (rnd < _MAX_ROUNDS - 1)
            if not open_.all():
                shut = ~open_
                lo[idx[shut]], hi[idx[shut]] = a[shut], b[shut]
                idx, a, b, fa, fb, ga, gb = idx[open_], a[open_], b[open_], fa[open_], fb[open_], ga[open_], gb[open_]
                target, ulp, floor, up_last = target[open_], ulp[open_], floor[open_], up_last[open_]
    return _bisect(level, y, lo, hi, tol)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ArrayComponent:
    """Base of the components that hold read-only float arrays (`Atoms`,
    `QuantileTable`, the kernel estimate of the estimators module): equal
    when every field is, arrays by value, and hashed with each array as the
    tuple of its floats, so 0.0 == -0.0 holds as it does for floats."""

    def _key(self) -> tuple:
        return tuple(
            tuple(v.tolist()) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class _AtomBlock:
    """Point masses as one sorted block, read with one ``searchsorted`` a
    point: the sorted unique locations `loc`, their merged masses `mass`,
    the running sums `cum` of mass and `cum_xm` of mass times location
    (padded with a leading 0) and the suffix sums `tail` of mass (padded
    with a trailing 0), all three indexed by
    ``searchsorted(loc, x, side="right")``. An `Atoms` component, the atoms
    of a `QuantileTable` and the pooled atoms of a `Distribution`
    (`Distribution._atomic`) are each one block."""

    loc: np.ndarray
    mass: np.ndarray
    cum: np.ndarray
    cum_xm: np.ndarray
    tail: np.ndarray

    @classmethod
    def of(cls, locs: np.ndarray, masses: np.ndarray, whole: bool = False) -> "_AtomBlock":
        """The block of atoms given as locations and masses in any order,
        sorted stably by location, once, and merged (`np.add.reduceat` over
        the runs of equal locations, each kept as its first, so -0.0 and 0.0
        are one atom): the only place atoms are sorted or merged. A `whole`
        block, one that is all of a law, has ``cum[-1]`` and ``tail[0]`` set
        to 1.0 exactly."""
        order = np.argsort(locs, kind="stable")
        sorted_locs = locs[order]
        first = np.ones(sorted_locs.size, dtype=bool)
        first[1:] = sorted_locs[1:] != sorted_locs[:-1]
        loc, start = sorted_locs[first], np.flatnonzero(first)
        mass = np.add.reduceat(masses[order], start)
        cum, tail = _prefix(mass), _suffix(mass)
        if whole:
            cum[-1] = tail[0] = 1.0
        return cls(loc, mass, cum, _prefix(mass * loc), tail)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self.cum[np.searchsorted(self.loc, x, side="right")]

    def sf(self, x: np.ndarray) -> np.ndarray:
        return self.tail[np.searchsorted(self.loc, x, side="right")]

    def pe(self, x: np.ndarray) -> np.ndarray:
        return self.cum_xm[np.searchsorted(self.loc, x, side="right")]

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        if not self.loc.size:
            return np.zeros_like(x)
        at = np.minimum(np.searchsorted(self.loc, x), self.loc.size - 1)
        return np.where(self.loc[at] == x, self.mass[at], 0.0)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        """The first location whose cumulative mass reaches p, and the last
        location for a p above all of them."""
        return self.loc[np.minimum(np.searchsorted(self.cum[1:], p, side="left"), self.loc.size - 1)]


@dataclass(frozen=True, eq=False)
class Atoms(_ArrayComponent):
    """Point masses at nonnegative locations, as two read-only float arrays
    in input order; locations may repeat. The masses are finite, > 0 and sum
    to 1 (`_check_weights`). A point mass is the block of one row (`atom`).
    Equal when both arrays are. The pointwise methods and the quantile read
    the atoms sorted and merged into one whole `_AtomBlock`, built at the
    first call."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        x, m = _float_vector(self.locations), _float_vector(self.masses)
        if not x.size:
            raise ValueError("a discrete distribution needs at least one atom")
        if x.size != m.size:
            raise ValueError("values and weights must have equal length")
        bad = ~(np.isfinite(x) & (x >= 0.0))
        if bad.any():  # names the first bad location
            loc = float(x[bad.argmax()])
            need = "be >= 0" if math.isfinite(loc) else "be finite"
            raise ValueError(f"atom location must {need}, got {loc}")
        _check_weights(m)
        object.__setattr__(self, "locations", x)
        object.__setattr__(self, "masses", m)

    def mean(self) -> float:
        # the running sum in input order, as `Distribution.mean` sums parts
        return float(np.cumsum(self.masses * self.locations)[-1])

    @cached_property
    def _block(self) -> _AtomBlock:
        return _AtomBlock.of(self.locations, self.masses, whole=True)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(self._block.cdf(np.asarray(x, dtype=float)), 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(self._block.sf(np.asarray(x, dtype=float)), 1.0)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return self._block.mass_at(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        return self._block.pe(np.asarray(x, dtype=float))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return self._block.quantile(np.asarray(p, dtype=float))

    def x_breaks(self) -> np.ndarray:
        return np.unique(self.locations)

    def support_hi(self, eps: float) -> float:
        return float(self.locations.max())

    def rescaled(self, alpha: float) -> "Atoms":
        return Atoms(alpha * self.locations, self.masses)

    def atoms(self) -> np.ndarray:
        return np.column_stack([self.locations, self.masses])


#: `bench/tracing.py` patches ``Atom.{cdf,pe,quantile,mass_at}`` by this name;
#: the alias goes when the tracer reads its counts from a ledger (ROADMAP 4d)
Atom = Atoms


@dataclass(frozen=True)
class UniformDensity:
    """Uniform density on [a, b], 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        a = _check_finite("uniform lower end", self.a)
        b = _check_finite("uniform upper end", self.b)
        if a < 0 or b <= a:
            raise ValueError(f"uniform support needs 0 <= a < b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        # clipped to [a, b] first, x - a cannot overflow the ratio far out
        xc = np.minimum(np.maximum(x, self.a), self.b)
        return (xc - self.a) / (self.b - self.a)

    def sf(self, x: np.ndarray) -> np.ndarray:
        xc = np.minimum(np.maximum(x, self.a), self.b)
        return (self.b - xc) / (self.b - self.a)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        xc = np.clip(x, self.a, self.b)
        return 0.5 * (xc + self.a) * ((xc - self.a) / (self.b - self.a))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return self.a + p * (self.b - self.a)

    def x_breaks(self) -> tuple[float, ...]:
        return (self.a, self.b)

    def support_hi(self, eps: float) -> float:
        return self.b

    def rescaled(self, alpha: float) -> "UniformDensity":
        return UniformDensity(alpha * self.a, alpha * self.b)

    def atoms(self):
        return None


@dataclass(frozen=True)
class Exponential:
    """Exponential density with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        r = _check_finite("exponential rate", self.rate)
        if r <= 0:
            raise ValueError(f"exponential rate must be positive, got {r}")
        object.__setattr__(self, "rate", r)

    def mean(self) -> float:
        return 1.0 / self.rate

    def _capped(self, x: np.ndarray) -> np.ndarray:
        """x on [0, 800 / rate]: e^-800 is 0 in floating point, so the cap
        changes no value and keeps rate x finite far out."""
        return np.minimum(np.maximum(x, 0.0), 800.0 / self.rate)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return -np.expm1(-self.rate * self._capped(x))

    def sf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.rate * self._capped(x))

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        xc = self._capped(x)
        return -np.expm1(-self.rate * xc) / self.rate - xc * np.exp(-self.rate * xc)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return -np.log1p(-p) / self.rate

    def x_breaks(self) -> tuple[float, ...]:
        return (0.0,)

    def support_hi(self, eps: float) -> float:
        return -math.log(eps) / self.rate if eps > 0.0 else math.inf

    def rescaled(self, alpha: float) -> "Exponential":
        return Exponential(self.rate / alpha)

    def atoms(self):
        return None


@dataclass(frozen=True)
class Gamma:
    """Gamma density with shape k and scale theta (mean k * theta)."""

    shape: float
    scale: float

    def __post_init__(self):
        k = _check_finite("gamma shape", self.shape)
        t = _check_finite("gamma scale", self.scale)
        if k <= 0 or t <= 0:
            raise ValueError(f"gamma needs positive shape and scale, got ({k}, {t})")
        object.__setattr__(self, "shape", k)
        object.__setattr__(self, "scale", t)

    def mean(self) -> float:
        return self.shape * self.scale

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """x / scale on [0, 1e300]: gammainc is 1 from far below 1e300 on, so
        the cap changes no value and keeps the ratio finite far out."""
        return np.minimum(np.maximum(x, 0.0), 1e300 * self.scale) / self.scale

    def _raised(self, u: np.ndarray) -> np.ndarray:
        """t = u^k e^-u / Gamma(k + 1) at u > 0, the step between shapes k
        and k + 1: P(k, u) = P(k + 1, u) + t and Q(k, u) = Q(k + 1, u) - t
        (DLMF 8.8.5)."""
        return np.exp(self.shape * np.log(u) - u - math.lgamma(self.shape + 1.0))

    def _pieced(self, f, u: np.ndarray, rows: np.ndarray, near) -> np.ndarray:
        """f(k, u), with near(u) on the rows instead."""
        if not rows.any():
            return f(self.shape, u)
        out = np.empty(u.shape)
        out[rows] = near(u[rows])
        out[~rows] = f(self.shape, u[~rows])
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """gammainc(k, u), u = x / scale. For k < 1.25 on 1 < u <= 1.1, where
        scipy sums a slow series, P(k + 1, u) + t (`_raised`) instead: a sum
        of two positive terms, which cancels nothing."""
        u = np.asarray(self._scaled(x))
        if self.shape >= _GAMMA_RAISE_BELOW:
            return sp.gammainc(self.shape, u)
        rows = (u > 1.0) & (u <= 1.1)
        return self._pieced(sp.gammainc, u, rows, lambda v: sp.gammainc(self.shape + 1.0, v) + self._raised(v))

    def sf(self, x: np.ndarray) -> np.ndarray:
        """gammaincc(k, u), u = x / scale. For k < 1.25 on 0 < u <= 1.1, where
        scipy sums a slow series, Q(k + 1, u) - t (`_raised`) instead, except
        on the rows where that difference cancels enough to amplify the
        terms' rounding more than `_GAMMA_MAX_AMPLIFICATION` fold (1 + 2t / Q),
        which keep scipy's value. Tested against mpmath references to 16 eps."""
        u = np.asarray(self._scaled(x))
        if self.shape >= _GAMMA_RAISE_BELOW:
            return sp.gammaincc(self.shape, u)

        def near(v):
            t = self._raised(v)
            q = sp.gammaincc(self.shape + 1.0, v) - t
            cancels = (_GAMMA_MAX_AMPLIFICATION - 1.0) * q < 2.0 * t
            if cancels.any():
                q[cancels] = sp.gammaincc(self.shape, v[cancels])
            return q

        return self._pieced(sp.gammaincc, u, (u > 0.0) & (u <= 1.1), near)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        # integral of u * gamma(k, theta) density over [0, x], via the shape-(k+1) CDF
        return self.mean() * sp.gammainc(self.shape + 1.0, self._scaled(x))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return self.scale * sp.gammaincinv(self.shape, p)

    def x_breaks(self) -> tuple[float, ...]:
        return (0.0,)

    def support_hi(self, eps: float) -> float:
        return float(self.scale * sp.gammainccinv(self.shape, eps))

    def rescaled(self, alpha: float) -> "Gamma":
        return Gamma(self.shape, alpha * self.scale)

    def atoms(self):
        return None


@dataclass(frozen=True)
class Lognormal:
    """Lognormal: exp of a normal with the given log-mean and log-sd."""

    log_mean: float
    log_sd: float

    def __post_init__(self):
        m = _check_finite("lognormal log-mean", self.log_mean)
        s = _check_finite("lognormal log-sd", self.log_sd)
        if s <= 0:
            raise ValueError(f"lognormal log-sd must be positive, got {s}")
        object.__setattr__(self, "log_mean", m)
        object.__setattr__(self, "log_sd", s)

    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 0.0)) - self.log_mean) / self.log_sd
        return np.where(x > 0.0, sp.ndtr(z), 0.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 0.0)) - self.log_mean) / self.log_sd
        return np.where(x > 0.0, sp.ndtr(-z), 1.0)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 0.0)) - self.log_mean - self.log_sd**2) / self.log_sd
        try:
            head = self.mean() * sp.ndtr(z)
        except OverflowError:  # the mean overflows where pe need not; pe(inf) is inf
            with np.errstate(over="ignore"):
                head = np.exp(self.log_mean + 0.5 * self.log_sd**2 + sp.log_ndtr(z))
        return np.where(x > 0.0, head, 0.0)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return np.exp(self.log_mean + self.log_sd * sp.ndtri(p))

    def x_breaks(self) -> tuple[float, ...]:
        return (0.0,)

    def support_hi(self, eps: float) -> float:
        return math.exp(self.log_mean - self.log_sd * float(sp.ndtri(eps)))

    def rescaled(self, alpha: float) -> "Lognormal":
        return Lognormal(self.log_mean + math.log(alpha), self.log_sd)

    def atoms(self):
        return None


@dataclass(frozen=True, eq=False)
class QuantileTable(_ArrayComponent):
    """Quantile function given on a probability grid.

    Parameters
    ----------
    grid:
        Strictly increasing probabilities starting at 0, all < 1.
    values:
        Nondecreasing nonnegative quantile values, one per grid point.
    mode:
        "step" reads the table as a left-continuous step function, i.e. the
        finite-discrete measure placing mass ``grid[i+1] - grid[i]`` at
        ``values[i]`` (the last atom absorbs the remaining mass up to 1).
        "linear" interpolates between grid points, which realizes uniform
        slabs between consecutive distinct values and is the natural carrier
        for reconstructed Lorenz derivatives; past the last grid point it
        stays constant, an atom at the last value.

    `grid` and `values` are kept as read-only float arrays; two tables are
    equal when both arrays and the mode are. The pointwise methods read
    running sums over the sorted atoms, one `_AtomBlock`, and over the
    slabs (`_sums`), two binary searches a point, so a table of thousands
    of rows costs no more per point than one of ten.
    """

    grid: np.ndarray
    values: np.ndarray
    mode: str = "step"

    def __post_init__(self):
        g, v = _float_vector(self.grid), _float_vector(self.values)
        if g.size != v.size or not g.size:
            raise ValueError("grid and values must be equal-length and nonempty")
        if g[0] != 0.0:
            raise ValueError("quantile grid must start at 0")
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(v)):
            raise ValueError("quantile table entries must be finite")
        if np.any(np.diff(g) <= 0) or g[-1] >= 1.0:
            raise ValueError("quantile grid must be strictly increasing within [0, 1)")
        if np.any(v < 0) or np.any(np.diff(v) < 0):
            raise ValueError("quantile values must be nonnegative and nondecreasing")
        if self.mode not in ("step", "linear"):
            raise ValueError(f"unknown quantile table mode {self.mode!r}")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @cached_property
    def _pieces(self):
        """Decompose into (slab_lo, slab_hi, slab_w) and (atom_loc, atom_w).

        A linear table's cell i is a slab where the values rise across it
        and an atom at values[i] where they stay flat; the atoms list the
        one at the last value first, then the flat cells in grid order."""
        g, v = self.grid, self.values
        w = np.append(np.diff(g), 1.0 - g[-1])
        if self.mode == "step":
            return (np.empty(0), np.empty(0), np.empty(0), v, w)
        rise = np.diff(v) > 0
        flat = ~rise
        return (
            v[:-1][rise],
            v[1:][rise],
            w[:-1][rise],
            np.concatenate([v[-1:], v[:-1][flat]]),
            np.concatenate([w[-1:], w[:-1][flat]]),
        )

    def mean(self) -> float:
        slab_lo, slab_hi, slab_w, atom_loc, atom_w = self._pieces
        return float(np.dot(slab_w, 0.5 * (slab_lo + slab_hi)) + np.dot(atom_w, atom_loc))

    @cached_property
    def _sums(self):
        """The pieces as sorted blocks with running sums, so a point costs
        two ``searchsorted`` calls, not a pass over every piece.

        Returns ``(atoms, lo, hi, w, cum_w, tail_w, cum_pe)``: the atoms as
        one `_AtomBlock`; then the slabs in grid order, whose interiors are
        disjoint and whose ends rise, with the prefix and suffix sums of
        their weights (padded as the block's are) and the prefix sums of
        their partial expectations w (lo + hi) / 2, taken in the form
        (hi^2 - lo^2) / (2 (hi - lo)) w that `pe` uses on the slab that
        holds its point."""
        slab_lo, slab_hi, slab_w, atom_loc, atom_w = self._pieces
        full_pe = (slab_hi * slab_hi - slab_lo * slab_lo) / (2.0 * (slab_hi - slab_lo)) * slab_w
        return (
            _AtomBlock.of(atom_loc, atom_w),
            slab_lo, slab_hi, slab_w, _prefix(slab_w), _suffix(slab_w), _prefix(full_pe),
        )  # fmt: skip

    def _slab_at(self, x: np.ndarray):
        """(k, j, xc, inside) at points x of a table with slabs: k counts
        the slabs wholly at or below x, slab j = min(k, count - 1) is the
        only one that may hold x, xc is x clipped to it, and `inside` marks
        the points where slab k exists (its part of F, sf and pe depends on
        xc there, and is 0 elsewhere)."""
        lo, hi = self._sums[1:3]
        k = np.searchsorted(hi, x, side="right")
        j = np.minimum(k, lo.size - 1)
        return k, j, np.clip(x, lo[j], hi[j]), k < lo.size

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        atoms, lo, hi, w, cum_w, _, _ = self._sums
        out = atoms.cdf(x)
        if lo.size:
            k, j, xc, inside = self._slab_at(x)
            out = out + cum_w[k] + np.where(inside, (xc - lo[j]) / (hi[j] - lo[j]) * w[j], 0.0)
        return np.minimum(out, 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        atoms, lo, hi, w, _, tail_w, _ = self._sums
        out = atoms.sf(x)
        if lo.size:
            k, j, xc, inside = self._slab_at(x)
            part = np.where(inside, (hi[j] - xc) / (hi[j] - lo[j]) * w[j], 0.0)
            out = out + tail_w[np.minimum(k + 1, lo.size)] + part
        return np.minimum(out, 1.0)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        return self._sums[0].mass_at(np.asarray(x, dtype=float))

    def pe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        atoms, lo, hi, w, _, _, cum_pe = self._sums
        out = atoms.pe(x)
        if lo.size:
            k, j, xc, inside = self._slab_at(x)
            part = (xc * xc - lo[j] * lo[j]) / (2.0 * (hi[j] - lo[j])) * w[j]
            out = out + cum_pe[k] + np.where(inside, part, 0.0)
        return out

    def quantile(self, p: np.ndarray) -> np.ndarray:
        if self.mode == "linear":
            return np.interp(p, self.grid, self.values)
        idx = np.maximum(np.searchsorted(self.grid, p, side="left") - 1, 0)
        return self.values[idx]

    def x_breaks(self) -> np.ndarray:
        return np.unique(self.values)

    def support_hi(self, eps: float) -> float:
        return float(self.values[-1])

    def rescaled(self, alpha: float) -> "QuantileTable":
        return QuantileTable(self.grid, alpha * self.values, self.mode)

    def atoms(self):
        if self.mode != "step":
            return None
        return np.column_stack(self._pieces[3:])


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Finite mixture of components, normalized to total mass 1.

    `parts` is a tuple of (weight, component) pairs. Components are duck
    typed; anything exposing the small protocol used above (mean, cdf, sf,
    pe, mass_at, quantile, x_breaks, support_hi, rescaled, atoms)
    participates, which is how the KDE estimator plugs in its cut kernel
    mixture without this module knowing about it. ``atoms()`` returns the
    component's point masses as an (n, 2) float array of (location, mass)
    rows, or None when it has a non-atomic part. A point mass, a finite set
    of atoms and a step quantile table list theirs; there is one atom
    component, `Atoms`, and `atom(x)` is its block of one row. Two members
    are optional and read with ``getattr``/``hasattr``: ``iterative_quantile``
    (below), and ``knot_candidates()``, an array of abscissae the part adds
    to the inversion table of a law that inverts from one (`_knot_values`),
    where its cdf bends more sharply than the table's ladder resolves (the
    Gaussian kernel estimate's sample gaps and tail). Unlike ``x_breaks()``,
    whose every entry becomes a quadrature cell of every route, the
    candidates touch nothing but the table, so a part may list many.

    Pointwise evaluations (cdf, survival, atom mass, partial expectation)
    read the parts whose ``atoms()`` lists them from one pooled
    `_AtomBlock` (`_atomic`) and call the component methods of the other
    parts only; a law with no other part is finite-discrete (`_discrete`),
    and its quantile, breakpoints and integral of Q read the same block.

    A law whose quantile is iterative, a mixture of parts or a law of one
    part whose component sets ``iterative_quantile`` (the Gaussian kernel
    estimate), inverts its cdf, and its survival function above F(x_h), from
    the knot table (`_knot_values`, `_quantile_within`): every row of every
    inversion, W1's (`wasserstein._q_within`) too, starts between adjacent
    kept knots, so a quantile depends on its p and tol alone. Such a law
    keeps a memo of the quantiles its routes read (`_memoized`), each
    inverted to within tau = `ROUTE_QUANTILE_TOL` times the mean above Q(p)
    (`_quantile_arr`). The public quantile, draws and the callers that
    compare quantiles invert cold to the float (`_exact_quantile`) and
    neither read nor fill the memo.
    Its index routes read Q at many of the same p (the shared cells
    `_p_cells`, the sweep `_gap_sweep` of `hoover_max`), and each p is
    inverted once per law; `index_report` inverts every p its routes' first
    rounds read in one batch (`_first_round_p`) before any route runs, and
    `sequence_diagnostics` the fixed p it reads a law at, `_mean_difference_p`
    among them, in one batch before the law's step. The
    memo rests on one premise: a quantile depends on its p alone, never on
    the other rows of its batch, so a value read back from the memo is the
    value a cold law would compute. It holds at most `QUANTILE_MEMO_CAP`
    entries and stops growing there; a copy ``Distribution(d.parts)`` starts
    cold.
    """

    parts: tuple[tuple[float, object], ...]

    def __post_init__(self):
        parts = tuple((float(w), c) for (w, c) in self.parts)
        if not parts:
            raise ValueError("a distribution needs at least one component")
        _check_weights(np.array([w for w, _ in parts]))
        object.__setattr__(self, "parts", parts)

    # -- structure ---------------------------------------------------------

    @cached_property
    def _atomic(self):
        """The atoms of every atomic part, pooled into one sorted block.

        Returns ``(block, rest)``: an `_AtomBlock` of the atoms of every
        part whose ``atoms()`` lists them, and the remaining (weight,
        component) parts, which are evaluated one by one. The parts'
        (location, mass) rows are concatenated in part order, each mass
        times its part's weight, and sorted and merged by `_AtomBlock.of`;
        the law reads the block alone, never its atomic parts' own methods.
        When no part remains the block is whole: ``cum[-1]`` and ``tail[0]``
        are 1.0 exactly.
        """
        rows, rest = [np.empty((0, 2))], []
        for w, comp in self.parts:
            at = comp.atoms()
            if at is None:
                rest.append((w, comp))
            else:
                rows.append(at * (1.0, w))
        locs, masses = np.concatenate(rows).T
        return _AtomBlock.of(locs, masses, whole=not rest), tuple(rest)

    @cached_property
    def _discrete(self):
        """The pooled `_AtomBlock` when the law is purely atomic, else None."""
        block, rest = self._atomic
        return None if rest else block

    @property
    def is_finite_discrete(self) -> bool:
        return self._discrete is not None

    def support_atoms(self):
        """Sorted (support, weights) arrays for purely atomic distributions."""
        if self._discrete is None:
            raise ValueError("not a finite-discrete distribution")
        return self._discrete.loc.copy(), self._discrete.mass.copy()

    @cached_property
    def mean(self) -> float:
        """The mean; raises `InfiniteMeanError` where it diverges or a
        part's mean overflows the float range (lognormal(0, 40))."""
        m = 0.0
        for w, comp in self.parts:
            try:
                m += w * comp.mean()
            except OverflowError:
                m = math.inf
        if not math.isfinite(m):
            raise InfiniteMeanError("mean diverges")
        return m

    def x_breakpoints(self) -> np.ndarray:
        """Sorted abscissae where the CDF may jump or change analytic form:
        the pooled atoms and the ``x_breaks()`` of every other part. Computed
        once per law; the array is read-only and shared by every caller."""
        return self._x_breaks

    @cached_property
    def _x_breaks(self) -> np.ndarray:
        block, rest = self._atomic
        pts = np.concatenate([block.loc] + [np.asarray(comp.x_breaks()) for _, comp in rest])
        pts = np.unique(pts[np.isfinite(pts)])
        pts.flags.writeable = False
        return pts

    def p_breakpoints(self) -> np.ndarray:
        """Probabilities where the quantile may jump or change analytic form:
        0, 1 and F and F- at every x breakpoint (the cumulative masses of a
        finite-discrete law). Computed once per law, since a kernel part's F
        costs window sums; the array is read-only and shared by every
        caller."""
        return self._p_breaks

    @cached_property
    def _p_breaks(self) -> np.ndarray:
        if self._discrete is not None:
            ps = self._discrete.cum
        else:
            xb = self.x_breakpoints()
            f = self._cdf_arr(xb)
            ps = np.concatenate([[0.0, 1.0], f, np.maximum(f - self._mass_arr(xb), 0.0)])
        ps = np.unique(np.clip(ps, 0.0, 1.0))
        ps.flags.writeable = False
        return ps

    def sup_support(self) -> float:
        """The supremum of the support, inf for an unbounded law."""
        return self.support_hi(0.0)

    def support_hi(self, eps: float) -> float:
        """An abscissa beyond which survival mass is at most eps: finite for
        eps > 0, and at eps = 0 the supremum of the support, inf for an
        unbounded law. Integrals in x to infinity cut at eps = `X_CUT`."""
        block, rest = self._atomic
        return float(max([comp.support_hi(eps) for _, comp in rest] + block.loc[-1:].tolist()))

    # -- pointwise evaluations ---------------------------------------------

    def _sum(self, method: str, x) -> np.ndarray:
        """The pooled block's `method` at x plus, part by part, w times each
        other part's: how every pointwise evaluation sums a law's parts. A
        law without atoms starts from its first other part, not from its
        empty block's zeros (0 + w v is w v), so it reads no block."""
        x = np.asarray(x, dtype=float)
        block, rest = self._atomic
        if block.loc.size:
            out = getattr(block, method)(x)
        else:
            (w, comp), *rest = rest
            out = w * getattr(comp, method)(x)
        for w, comp in rest:
            out = out + w * getattr(comp, method)(x)
        return out

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(self._sum("cdf", x), 1.0)

    def _sf_arr(self, x: np.ndarray) -> np.ndarray:
        """P[X > x] as a sum of the parts' own survival functions, so it
        keeps its relative precision where 1 - F has none left."""
        return np.minimum(self._sum("sf", x), 1.0)

    def _pe_arr(self, x: np.ndarray) -> np.ndarray:
        """The partial expectation at x >= 0, unchecked (`partial_expectation`)."""
        return self._sum("pe", x)

    def _level_arr(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """What an inversion row with target y compares with it (`_invert`):
        F(t) where y >= 0, a target p; -sf(t) where y < 0, a target p - 1
        of the upper half (`_knot_brackets`)."""
        up = y < 0.0
        n_up = np.count_nonzero(up)
        if n_up == 0:
            return self._cdf_arr(t)
        if n_up == up.size:
            return -self._sf_arr(t)
        out = np.empty_like(t)
        out[~up] = self._cdf_arr(t[~up])
        out[up] = -self._sf_arr(t[up])
        return out

    def cdf(self, x) -> float | np.ndarray:
        """P[X <= x]; right-continuous."""
        return scalar_or_array(x, self._cdf_arr(_nonnegative("cdf", x)))

    def _mass_arr(self, x: np.ndarray) -> np.ndarray:
        return self._sum("mass_at", x)

    def mass_at(self, x) -> float | np.ndarray:
        """P[X = x], the atom mass at x."""
        return scalar_or_array(x, self._mass_arr(_nonnegative("mass_at", x)))

    def cdf_left(self, x) -> float | np.ndarray:
        """P[X < x], the left limit of the CDF."""
        arr = _nonnegative("cdf_left", x)
        return scalar_or_array(x, np.maximum(self._cdf_arr(arr) - self._mass_arr(arr), 0.0))

    def survival(self, x) -> float | np.ndarray:
        """P[X > x], summed from the parts' survival functions, not 1 - F."""
        return scalar_or_array(x, self._sf_arr(_nonnegative("survival", x)))

    def partial_expectation(self, x) -> float | np.ndarray:
        """Integral of u over [0, x] against the measure (atom at x included)."""
        return scalar_or_array(x, self._pe_arr(_nonnegative("partial expectation", x)))

    def partial_expectation_left(self, x) -> float | np.ndarray:
        """Integral of u over [0, x), excluding any atom at x."""
        arr = np.asarray(x, dtype=float)
        out = np.maximum(
            np.asarray(self.partial_expectation(arr))
            - np.minimum(arr, _MAX_FLOAT) * self._mass_arr(arr),
            0.0,
        )
        return scalar_or_array(x, out)

    def tail_moment(self, alpha: float) -> float:
        """Integral of x over (alpha, infinity): the first moment above alpha."""
        alpha = float(_nonnegative("tail_moment", alpha))
        return max(self.mean - float(self._pe_arr(np.array([alpha]))[0]), 0.0)

    def excess_mean(self, x: float) -> float:
        """E[(X - x)^+]: the first moment above x less x times the survival."""
        x = float(_nonnegative("excess_mean", x))
        at = np.array([x])
        rest = self.mean - float(self._pe_arr(at)[0])
        return max(rest - min(x, _MAX_FLOAT) * float(self._sf_arr(at)[0]), 0.0)

    # -- quantiles ----------------------------------------------------------

    @cached_property
    def _memoized(self) -> bool:
        """Whether the quantile is iterative, inverted from the knot table
        (`_quantile_within`) by the memo, the exact quantile and W1's route
        alike; if not, all three read `_closed_quantile`."""
        if self._discrete is not None:
            return False
        return len(self.parts) > 1 or getattr(self.parts[0][1], "iterative_quantile", False)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        """Quantiles in [Q(p), Q(p) + tau] at an array of p in [0, 1) of any
        shape, 0-d included, tau = `ROUTE_QUANTILE_TOL` times the mean: what
        the index routes, the Lorenz curve and the integrals of Q read.

        A law with an iterative quantile (`_memoized`) looks every finite p up
        in its memo, sorted (p, Q) arrays held as one tuple in the instance
        ``__dict__``. The misses are deduplicated and inverted in one batch
        to within tau (`_bisect_quantile`), and `_remember` merges them in.
        Other laws read their closed form each time. Callers that need the
        exact Galois pair read `_exact_quantile` instead, which never touches
        the memo.
        """
        p = np.asarray(p, dtype=float)
        if not self._memoized:
            return self._closed_quantile(p)
        flat = p.ravel()
        memo_p, memo_q = self.__dict__.get("_quantile_memo", (flat[:0], flat[:0]))
        out = np.empty_like(flat)
        miss = np.ones(flat.shape, dtype=bool)
        if memo_p.size:
            at = np.minimum(np.searchsorted(memo_p, flat), memo_p.size - 1)
            hit = memo_p[at] == flat
            out[hit] = memo_q[at[hit]]
            miss = ~hit
        if miss.any():
            new_p, back = np.unique(flat[miss], return_inverse=True)
            new_q = self._bisect_quantile(new_p, tol=self._route_tol)
            out[miss] = new_q[back]
            self._remember(memo_p, memo_q, new_p, new_q)
        return out.reshape(p.shape)

    @cached_property
    def _route_tol(self) -> float:
        """tau, the tolerance of the memo's inversions: `ROUTE_QUANTILE_TOL`
        times the mean, and 0 for a law whose mean is 0 or overflows, whose
        integral of Q below p = 1 is still finite (`integral_quantile`)."""
        try:
            return ROUTE_QUANTILE_TOL * self.mean
        except InfiniteMeanError:
            return 0.0

    def _exact_quantile(self, p: np.ndarray) -> np.ndarray:
        """Q(p) meeting its Galois pair exactly, at an array of p in [0, 1)
        of any shape: the closed form, or for a `_memoized` law one cold
        inversion at tolerance 0 of the deduplicated p, which neither reads
        nor fills the memo. The public quantile, draws and the callers that
        compare quantiles read it."""
        p = np.asarray(p, dtype=float)
        if not self._memoized:
            return self._closed_quantile(p)
        new_p, back = np.unique(p.ravel(), return_inverse=True)
        return self._bisect_quantile(new_p)[back].reshape(p.shape)

    def _prefetch(self, p: np.ndarray) -> None:
        """Read Q at the p below 1 in one `_quantile_arr` batch, so that
        later reads of them are memo hits: one run of inversion rounds, not
        one per read. For a `_memoized` law. A batch that would not fit in
        the memo beside what it holds is not run, since `_remember` keeps
        only the smallest p and the reads would invert the rest again."""
        p = p[p < 1.0]
        memo_p = self.__dict__.get("_quantile_memo", (p[:0],))[0]
        if memo_p.size + p.size <= QUANTILE_MEMO_CAP:
            self._quantile_arr(p)

    def _remember(self, memo_p, memo_q, new_p, new_q) -> None:
        """Merge sorted new (p, Q) rows, none of them in the memo, into it.

        Only finite p enter, and only as many of the smallest as fit under
        `QUANTILE_MEMO_CAP`. The merged arrays replace the old ones as one
        tuple, so a concurrent reader sees either memo whole; a merge that
        loses a race drops its rows, which only costs their inversion again.
        """
        keep = np.isfinite(new_p)
        room = QUANTILE_MEMO_CAP - memo_p.size
        new_p, new_q = new_p[keep][:room], new_q[keep][:room]
        if new_p.size:
            at = np.searchsorted(memo_p, new_p)
            self.__dict__["_quantile_memo"] = (np.insert(memo_p, at, new_p), np.insert(memo_q, at, new_q))

    def _closed_quantile(self, p: np.ndarray) -> np.ndarray:
        """Q(p) without inverting the cdf, for a law whose quantile is not
        iterative (not `_memoized`): what the memo, the exact quantile and
        W1's route (`wasserstein._q_within`) read for it.

        Finite-discrete laws read their cumulative masses, which meets the
        cdf form of the Galois pair exactly; any other law of one part whose
        component does not set ``iterative_quantile`` uses that part's
        `quantile`. A mixture of parts and a Gaussian kernel estimate invert
        from the knot table instead (`_quantile_within`).
        """
        out = np.zeros_like(p)
        pos = p > 0.0
        if self._discrete is not None:
            out[pos] = self._discrete.quantile(p[pos])
        else:
            out[pos] = self.parts[0][1].quantile(p[pos])
        return out

    @cached_property
    def _p_cells(self) -> np.ndarray:
        """The probability cells every index integral over p starts from.

        They join the quantile's breakpoints, so no cell holds a jump or kink
        of Q, 64 equal cells and the ladder `P_SPLITS`, so the first panels
        are graded toward both ends. The mean-difference diagonal and its
        cell integrals of Q (`indices._mean_abs_difference`) and the Lorenz
        area (`lorenz.integral_lorenz`) split here, so their first round of
        Kronrod nodes is one set of p, and the quantile memo answers it for
        whichever route comes second.
        """
        edges = np.concatenate(
            [self.p_breakpoints(), np.linspace(0.0, 1.0, 65), P_SPLITS, [0.0, 1.0]]
        )
        edges = np.unique(np.clip(edges, 0.0, 1.0))
        edges.flags.writeable = False
        return edges

    @cached_property
    def _probe_ladder(self) -> np.ndarray:
        """The probe ladder over p: the levels k 2^-10, k = 0..1024, and the
        quantile's breakpoints, sorted. The dominance checks
        (`lorenz.lorenz_dominates`, `fsd_dominates`) and the Lorenz gap of
        `wasserstein.sequence_diagnostics` start from it; the sweep of
        `hoover_max` reads the index batch's own p instead (`_gap_sweep`)."""
        ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1025), self.p_breakpoints()]))
        ps.flags.writeable = False
        return ps

    @cached_property
    def _gap_sweep(self) -> np.ndarray:
        """The probabilities where `indices.hoover_max` reads the Lorenz gap,
        sorted: every edge of `_p_cells`, F(mean) (1 included), and, unless
        the law is finite-discrete, the 15 first-round Kronrod nodes of each
        cell at least 2^-10 wide, by the expression of
        `quadrature.first_nodes`, so they are the p the Lorenz area and the
        mean-difference diagonal read first, bit for bit. Below 1 and
        besides F(mean) they are all in `_mean_difference_p`, since the last
        cell is at most 2^-40 wide, so `_first_round_p` holds no row for the
        sweep alone. Adjacent probes are at most 1.7 2^-10 apart (mid-cell
        of a 1/64 cell), closer toward both ends. A finite-discrete law's
        gap p - L(p) is linear between its cumulative masses, which are
        edges, so its edges hold the maximum exactly."""
        cells = self._p_cells
        ps = [cells, [float(self.cdf(self.mean))]]
        if self._discrete is None:
            lo, hi = cells[:-1], cells[1:]
            wide = hi - lo >= 2.0**-10
            ps.append(_nodes(lo[wide], hi[wide]).ravel())
        ps = np.unique(np.concatenate(ps))
        ps.flags.writeable = False
        return ps

    @cached_property
    def _mean_difference_p(self) -> np.ndarray:
        """Every p below 1 at which `indices.gini_mean_difference` first
        reads Q, sorted: the edges of `_p_cells`, where its cell integrals
        of Q start, and the first-round Kronrod nodes of every cell but the
        last (`quadrature.first_nodes`), where its diagonal starts.
        `wasserstein.sequence_diagnostics` inverts them in the batch it
        makes for each memoized law before the law's step."""
        cells = self._p_cells
        ps = np.unique(np.concatenate([cells, first_nodes(cells[:-1])]))
        ps = ps[ps < 1.0]
        ps.flags.writeable = False
        return ps

    @cached_property
    def _first_round_p(self) -> np.ndarray:
        """Every p below 1 at which the routes of `indices.index_report`
        first read Q, sorted.

        They are `_mean_difference_p`, the first-round Kronrod nodes of the
        last cell of `_p_cells` (with those of the other cells, the Lorenz
        area's first round), and `_gap_sweep`, whose p are these and F(mean).
        One `_quantile_arr` call on them inverts all of these in one batch.
        """
        last = first_nodes(self._p_cells[-2:])
        ps = np.unique(np.concatenate([self._mean_difference_p, last, self._gap_sweep]))
        ps = ps[ps < 1.0]
        ps.flags.writeable = False
        return ps

    @cached_property
    def _knot_values(self):
        """(x, F(x), -sf(x), h) at the knots of the inversion table.

        The candidates are 0, every breakpoint and the float below it, a
        ladder of eight knots per octave, top 2^(-k/8) for k = 0..480
        (`_KNOT_LADDER`) with top = support_hi(1e-16), a far knot (below),
        and the ``knot_candidates()`` of every part that has
        them; one cdf and one sf call evaluate them. Only knots
        where both columns equal their running maximum are kept
        (`_monotone_knots`), so a bracket between adjacent kept knots
        depends on its p alone. x_h = x[h] is the first kept knot where
        F >= 1/2: rows with p above F(x_h) invert the survival function
        (`_knot_brackets`).
        """
        xb = self.x_breakpoints()
        top = self.support_hi(1e-16)
        # the far knot, where F reaches min(nextafter(1, 0), F(inf)) (float
        # weights may sum just below 1): from the support's end for a tail
        # mass a quarter of 1 - that (at most 1e-16), doubling
        f_far = min(np.nextafter(1.0, 0.0), float(self._cdf_arr(np.array([math.inf]))[0]))
        far = max(self.support_hi(min(1e-16, max((1.0 - f_far) / 4.0, 1e-300))), 0.0)
        while far > 0.0 and self._cdf_arr(np.array([far]))[0] < f_far:
            far *= 2.0
        own = [c.knot_candidates() for _, c in self.parts if hasattr(c, "knot_candidates")]
        x = np.unique(
            np.concatenate([[0.0, top, far], xb, np.nextafter(xb[xb > 0.0], 0.0), top * _KNOT_LADDER, *own])
        )
        x = x[np.isfinite(x)]
        f, g = self._cdf_arr(x), -self._sf_arr(x)
        keep = _monotone_knots(f, g)
        x, f, g = x[keep], f[keep], g[keep]
        return x, f, g, min(int(np.searchsorted(f, 0.5)), x.size - 1)

    def _knot_brackets(self, p: np.ndarray):
        """(lo, hi, v(lo), v(hi), y): adjacent kept knots with v(lo) < y <= v(hi).

        Rows with p <= F(x_h) (`_knot_values`) compare v = F with y = p.
        Rows with F(x_h) < p <= F(top), top the last kept knot, compare
        v = -sf with y = p - 1, which is exact by Sterbenz's lemma, over the
        knots from x_h up, so their quantile is never below x_h and their
        Galois pair reads sf(Q) <= 1 - p < sf(prev(Q)); -sf resolves the
        tail where F has no digits left. Rows above F(top), which only
        float weights summing below 1 allow, keep y = p and get [top, top],
        so their quantile is the top knot. A p <= F(0) gets [0, 0], and an
        upper p with sf(x_h) <= 1 - p gets [x_h, x_h].
        """
        x, f, g, h = self._knot_values
        y = np.where((p > f[h]) & (p <= f[-1]), p - 1.0, p)
        upper = y < 0.0
        j = np.where(upper, h + np.searchsorted(g[h:], y, side="left"), np.searchsorted(f, y, side="left"))
        up = np.minimum(j, x.size - 1)
        down = np.maximum(j - 1, np.where(upper, h, 0))
        return x[down], x[up], np.where(upper, g[down], f[down]), np.where(upper, g[up], f[up]), y

    def _quantile_within(self, p: np.ndarray, tol: float) -> np.ndarray:
        """Quantiles in [Q(p), Q(p) + tol] of a law that inverts from its knot
        table (`_memoized`): each row starts between adjacent kept knots
        (`_knot_brackets`: rows above F(x_h) compare -sf with p - 1), so its
        value depends on its p and tol alone, and one `_invert` call narrows
        every row to within tol; a tol below a bracket's float spacing
        yields Q(p). W1's quantile route calls it (`wasserstein._q_within`)."""
        lo, hi, vlo, vhi, y = self._knot_brackets(p)
        return _invert(self._level_arr, y, lo, hi, vlo, vhi, tol)

    def _bisect_quantile(self, p: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Quantiles in [Q(p), Q(p) + tol] for p in [0, 1): `_quantile_within`,
        entered here by the memo and the exact quantile alone, so the
        benchmark tracer's ``measures.inversion`` counts their batches apart
        from W1's. At tol 0 they meet the Galois pair of `_knot_brackets`."""
        return self._quantile_within(p, tol)

    def quantile(self, p) -> float | np.ndarray:
        """Left-continuous quantile Q(p) on [0, 1), exact to the float (its
        Galois pair) and computed cold (`_exact_quantile`): it neither reads
        nor fills the memo of the index routes."""
        arr = np.asarray(p, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
            raise ValueError("quantile is defined on [0, 1)")
        return scalar_or_array(p, self._exact_quantile(arr))

    def integral_quantile(self, p: float) -> float:
        """Integral of Q over [0, p], 0 <= p <= 1; equals the mean at p = 1.

        Inside, the integral of p - F over [0, q] by quadrature in x
        (`_x_integral`) for every law: it never reads the Lorenz identity.
        q is the route quantile (`_quantile_arr`), within tau above Q(p),
        and p - F is at most 0 between Q(p) and q, so the value is within
        tau of the integral to Q(p)."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError("integral_quantile is defined on [0, 1]")
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return self.mean
        qp = float(self._quantile_arr(np.asarray(p)))
        return self._x_integral(lambda x: p - self._cdf_arr(x), 0.0, qp, 1e-10)

    def _x_integral(self, f, a: float, b: float, tol: float) -> float:
        """Integral of f over [a, b], split at the breakpoints and at b 2^-k
        (`HALVINGS`)."""
        return integrate(
            f, a, b, points=np.concatenate([self.x_breakpoints(), b * HALVINGS]), tol=tol
        )

    def _sf_integral(self, a: float, tol: float) -> float:
        """E[(X - a)^+], the integral of sf over [a, inf): quadrature up to
        hi = max(support_hi(X_CUT), a) and the closed-form excess_mean(hi)
        beyond it."""
        hi = max(self.support_hi(X_CUT), a)
        return self._x_integral(self._sf_arr, a, hi, tol) + self.excess_mean(hi)

    def _quantile_integral(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Integral of Q over [0, p < 1] as pe_left(q) + q (p - F_left(q)) at
        finite q >= 0, from three unchecked pointwise passes (`_pe_arr`,
        `_cdf_arr`, `_mass_arr`).

        It is exact at q = Q(p) and stationary in q: a q in [Q(p), Q(p) + tol]
        is off by at most tol (F(q) - p). The equal pe(q) + q (p - F(q)) is
        not used: where Q jumps to a far atom of tiny mass w at p = F_left(q),
        its q (p - F(q)) keeps q times the rounding of p - w, where this
        form's p - F_left(q) is 0 (a mixture with mass 8.4e-10 at 4.8e8 put
        `hoover_max` 4e-9 off)."""
        mass = self._mass_arr(q)
        pe_left = np.maximum(self._pe_arr(q) - q * mass, 0.0)
        return pe_left + q * (p - np.maximum(self._cdf_arr(q) - mass, 0.0))

    def mean_routes(self) -> tuple[float, float]:
        """The two integral representations of the mean.

        Returns (survival-function route, quantile route). Both are quadrature
        based and exist to be cross-checked against the cached closed-form
        mean, which enters only their tail terms: E[(X - hi)^+] beyond the
        survival route's cut-off hi, where the survival mass is below `X_CUT`
        (`_sf_integral`), and the integral of Q over [P_TAIL, 1],
        E[(X - q)^+] + q (1 - P_TAIL) with q = Q(P_TAIL). The quantile route
        splits at the quantile's breakpoints and at `P_SPLITS`, like every
        integral over p. It reads the route quantiles (`_quantile_arr`),
        each within tau above Q, so its integral is within tau P_TAIL, a
        tenth of its own budget, 1e-10 of the mean.
        """
        via_survival = self._sf_integral(0.0, 1e-10)
        q = float(self._quantile_arr(np.asarray(P_TAIL)))
        via_quantile = integrate(
            self._quantile_arr,
            0.0,
            P_TAIL,
            points=np.concatenate([self.p_breakpoints(), P_SPLITS]),
            tol=1e-10,
        ) + self.excess_mean(q) + q * (1.0 - P_TAIL)
        return via_survival, via_quantile

    # -- transforms ----------------------------------------------------------

    def rescaled(self, alpha: float) -> "Distribution":
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha <= 0:
            raise ValueError(f"rescale factor must be positive, got {alpha}")
        return Distribution(tuple((w, comp.rescaled(alpha)) for w, comp in self.parts))

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Inverse-transform sample: Q applied to n uniform draws from `seed`."""
        n = _count("sample size", n)
        rng = np.random.default_rng(seed)
        return self.sample_rng(rng, n)

    def sample_rng(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Q, exact to the float and outside the memo (`_exact_quantile`),
        at n uniform draws from `rng`."""
        return self._exact_quantile(rng.random(n))


# ---------------------------------------------------------------------------
# constructors and module-level operations
# ---------------------------------------------------------------------------


def atom(location: float) -> Distribution:
    """The point mass at `location`: a law of one one-row `Atoms` block."""
    return Distribution(((1.0, Atoms((location,), (1.0,))),))


def uniform(a: float, b: float) -> Distribution:
    return Distribution(((1.0, UniformDensity(a, b)),))


def exponential(rate: float) -> Distribution:
    return Distribution(((1.0, Exponential(rate)),))


def gamma_dist(shape: float, scale: float) -> Distribution:
    return Distribution(((1.0, Gamma(shape, scale)),))


def lognormal(log_mean: float, log_sd: float) -> Distribution:
    return Distribution(((1.0, Lognormal(log_mean, log_sd)),))


def discrete(values, weights=None) -> Distribution:
    """Finite-discrete distribution from atom locations and weights: a law
    of one part, an `Atoms` block of both arrays in input order.

    With `weights` omitted the values are read as an equally weighted sample.
    Duplicate locations are merged when the law pools its atoms
    (`Distribution._atomic`).
    """
    values = _float_vector(values)
    if weights is None:
        weights = np.full(values.size, 1.0 / max(values.size, 1))
    return Distribution(((1.0, Atoms(values, weights)),))


def quantile_table(grid, values, mode: str = "step") -> Distribution:
    return Distribution(((1.0, QuantileTable(grid, values, mode)),))


def mixture(parts) -> Distribution:
    """Weighted mixture of distributions, flattened to one component list,
    whose weights must sum to 1 (`_check_weights`)."""
    flat: list[tuple[float, object]] = []
    for w, d in parts:
        w = float(w)
        if isinstance(d, Distribution):
            flat.extend((w * wi, comp) for wi, comp in d.parts)
        else:
            flat.append((w, d))
    return Distribution(tuple(flat))


def require_member(d: Distribution) -> Distribution:
    """Check membership in the index domain: finite nonzero mean."""
    if d.mean == 0.0:
        raise ZeroMeanError(
            "all mass at zero: Lorenz and inequality indices are undefined"
        )
    return d


def fsd_dominates(d1: Distribution, d2: Distribution) -> bool:
    """First-order stochastic dominance of d1 over d2.

    Checked on two routes that must agree: F_{d1} <= F_{d2} on an abscissa
    ladder, and Q_{d1} >= Q_{d2} on a probability ladder below 1. The
    probability ladder joins both operands' probe ladders
    (`Distribution._probe_ladder`) with the tail levels; the abscissa
    ladder joins both operands' breakpoints, 256 uniform points and both
    quantile functions on the probability ladder, so it resolves
    heavy-tailed laws whose mass sits far below the uniform grid's first
    step.
    """
    ps = np.unique(np.concatenate([d1._probe_ladder, d2._probe_ladder, TAIL_LEVELS]))
    ps = ps[ps < 1.0]
    q1, q2 = d1._exact_quantile(ps), d2._exact_quantile(ps)
    quantile_route = bool(np.all(q1 >= q2))
    hi = max(d1.support_hi(1e-9), d2.support_hi(1e-9))
    xs = np.unique(
        np.concatenate(
            [d1.x_breakpoints(), d2.x_breakpoints(), np.linspace(0.0, hi, 256), q1, q2]
        )
    )
    cdf_route = bool(np.all(d1._cdf_arr(xs) <= d2._cdf_arr(xs)))
    if cdf_route != quantile_route:
        raise RuntimeError(
            "stochastic dominance routes disagree: "
            f"cdf route {cdf_route}, quantile route {quantile_route}"
        )
    return cdf_route
