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
tables hold read-only float arrays too. A distribution pools the atoms of
all its atomic parts (atom blocks, step quantile tables) into one sorted
block with prefix sums of mass and of mass times location,
and suffix sums of mass: the CDF, survival function, atom mass and partial
expectation of that block cost one ``searchsorted`` per call, and only the
remaining parts (densities, linear quantile tables, plug-in components such
as kernel mixtures) are evaluated one by one.

Quantiles follow the left-continuous convention ``Q(p) = min{q >= 0 : F(q) >= p}``
on the domain [0, 1). In particular Q(0) = 0 for every distribution, because
F(0) >= 0 holds trivially. For quantiles found by inversion the contract is
an exact Galois pair in floating point, with Q nondecreasing in p. A
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
root of the cdf's polynomial on one knot cell) meet it to a few eps; for
those kernel estimates, F(Q(p)-) - 4 eps <= p <= F(Q(p)) + 4 eps is tested.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .quadrature import first_nodes, integrate

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
    is not, and their running sum in order is 1 within `WEIGHT_TOL`."""
    bad = ~(np.isfinite(w) & (w > 0.0))
    if bad.any():
        raise ValueError(f"component weights must be positive, got {float(w[bad.argmax()])}")
    total = float(np.cumsum(w)[-1])
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"component weights must sum to 1, got {total!r}")


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


def _upper_end(cdf, support_hi) -> float:
    """The top knot of a quantile's table: an abscissa where `cdf` reaches
    min(nextafter(1, 0), F(inf)), capped since float weights of a mixture
    may sum just below 1. The search starts at the support's end for a tail
    mass a quarter of 1 - target (at most 1e-16) and doubles from there."""
    y = min(np.nextafter(1.0, 0.0), float(cdf(np.array([math.inf]))[0]))
    hi = max(support_hi(min(1e-16, max((1.0 - y) / 4.0, 1e-300))), 0.0)
    while hi > 0.0 and cdf(np.array([hi]))[0] < y:
        hi *= 2.0
    return hi


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


def _reach(t, y, slope, tol: float = 0.0):
    """Half the bracket width at which the Illinois steps of `_invert` stop
    around an iterate t: max(tol, a few ulps of t plus a few ulps of the
    target y over the slope), since the computed level blurs its crossing
    of y over about |spacing(y)| / slope in t; `_bisect` goes on from
    there."""
    return np.maximum(tol, _FINISH_ULPS * (np.spacing(t) + np.abs(np.spacing(y)) / slope))


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
    """
    lo, hi = lo.copy(), hi.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = _reach(hi, y, (vhi - vlo) / (hi - lo), tol)
        (idx,) = np.nonzero((vlo < y) & (y <= vhi) & (hi - lo > 2.0 * first))
        # one row per quantity, one column per open target: the bracket, its
        # level values, the Illinois residuals, the target, the residual
        # floor, and the end the last step moved (1 upper, 0 lower, 0.5 none yet)
        a, b, target = lo[idx], hi[idx], y[idx]
        fa, fb = vlo[idx], vhi[idx]
        state = np.stack(
            [a, b, fa, fb, fa - target, fb - target, target,
             0.5 * np.abs(np.spacing(target)), np.full_like(a, 0.5)]
        )
        for rnd in range(_MAX_ROUNDS):
            if not idx.size:
                break
            a, b, fa, fb, ga, gb, target, floor, moved = state
            s = a - ga * (b - a) / (np.maximum(gb, floor) - ga)
            s = np.minimum(np.maximum(s, np.nextafter(a, b)), np.nextafter(b, a))
            fs = level(s, target)
            g = fs - target
            up = g >= 0.0
            down = ~up
            np.multiply(ga, 0.5, out=ga, where=up & (moved == 1.0))
            np.multiply(gb, 0.5, out=gb, where=down & (moved == 0.0))
            for row, new in ((a, s), (fa, fs), (ga, g)):
                np.copyto(row, new, where=down)
            for row, new in ((b, s), (fb, fs), (gb, g)):
                np.copyto(row, new, where=up)
            np.copyto(moved, up)
            r = _reach(s, target, (fb - fa) / (b - a), tol)
            open_ = (b - a > 2.0 * r) & (rnd < _MAX_ROUNDS - 1)
            if not open_.all():
                shut = ~open_
                lo[idx[shut]], hi[idx[shut]] = a[shut], b[shut]
                idx, state = idx[open_], state[:, open_]
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
class Atoms(_ArrayComponent):
    """Point masses at nonnegative locations, as two read-only float arrays
    in input order; locations may repeat. The masses are finite, > 0 and sum
    to 1 (`WEIGHT_TOL`). A point mass is the block of one row (`atom`).
    Equal when both arrays are."""

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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.minimum((x[..., None] >= self.locations) @ self.masses, 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.minimum((x[..., None] < self.locations) @ self.masses, 1.0)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x[..., None] == self.locations) @ self.masses

    def pe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x[..., None] >= self.locations) @ (self.masses * self.locations)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        order = np.argsort(self.locations, kind="stable")
        cum = np.cumsum(self.masses[order])
        return self.locations[order][np.minimum(np.searchsorted(cum, p, side="left"), cum.size - 1)]

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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return sp.gammainc(self.shape, self._scaled(x))

    def sf(self, x: np.ndarray) -> np.ndarray:
        return sp.gammaincc(self.shape, self._scaled(x))

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
        return np.where(x > 0.0, self.mean() * sp.ndtr(z), 0.0)

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
    equal when both arrays and the mode are.
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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slab_lo, slab_hi, slab_w, atom_loc, atom_w = self._pieces
        out = (x[..., None] >= atom_loc) @ atom_w
        if slab_lo.size:
            # clipped to each slab first, as in `UniformDensity.cdf`
            xc = np.clip(x[..., None], slab_lo, slab_hi)
            out = out + ((xc - slab_lo) / (slab_hi - slab_lo)) @ slab_w
        return np.minimum(out, 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slab_lo, slab_hi, slab_w, atom_loc, atom_w = self._pieces
        out = (x[..., None] < atom_loc) @ atom_w
        if slab_lo.size:
            xc = np.clip(x[..., None], slab_lo, slab_hi)
            out = out + ((slab_hi - xc) / (slab_hi - slab_lo)) @ slab_w
        return np.minimum(out, 1.0)

    def mass_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _, _, _, atom_loc, atom_w = self._pieces
        return (x[..., None] == atom_loc) @ atom_w

    def pe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slab_lo, slab_hi, slab_w, atom_loc, atom_w = self._pieces
        out = (x[..., None] >= atom_loc) @ (atom_w * atom_loc)
        if slab_lo.size:
            xc = np.clip(x[..., None], slab_lo, slab_hi)
            out = out + ((xc * xc - slab_lo * slab_lo) / (2.0 * (slab_hi - slab_lo))) @ slab_w
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
    component, `Atoms`, and `atom(x)` is its block of one row.

    Pointwise evaluations (cdf, survival, atom mass, partial expectation)
    read the parts whose ``atoms()`` lists them from one pooled block
    (`_atomic`) and call the component methods of the other parts only; a
    law with no other part is finite-discrete (`_discrete`).

    A law whose quantile is iterative, a mixture of parts or a law of one
    part whose component sets ``iterative_quantile`` (the Gaussian kernel
    estimate), inverts its cdf, and its survival function above F(x_h), from
    the knot table (`_knot_values`, `_quantile_within`, to the float in
    `_bisect_quantile`), and keeps a memo of its quantiles (`_memoized`).
    Its index routes read Q at many of the same p (the shared cells
    `_p_cells`, the sweep `_gap_sweep` of `hoover_max`), and each p is
    inverted once per law; `index_report` inverts every p its routes' first
    rounds read in one batch (`_first_round_p`) before any route runs. The
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

        Returns ``(support, weights, cum, cum_xm, tail, rest)``: the sorted
        unique locations of the atoms of every part whose ``atoms()`` lists
        them, their merged masses, the cumulative mass and the cumulative mass
        times location of the first i locations (both padded with a leading 0,
        so ``searchsorted(support, x, side="right")`` indexes them directly),
        the mass of the locations from the i-th on (the suffix sums, padded
        with a trailing 0 and indexed the same way), and the remaining
        (weight, component) parts, which are evaluated one by one. When no
        part remains ``cum[-1]`` and ``tail[0]`` are 1.0 exactly.

        The parts' (location, mass) rows are concatenated in part order, each
        mass times its part's weight, then sorted stably by location and
        merged (`np.unique`, `np.add.reduceat`): the only place atoms are
        sorted or merged.
        """
        rows, rest = [np.empty((0, 2))], []
        for w, comp in self.parts:
            at = comp.atoms()
            if at is None:
                rest.append((w, comp))
            else:
                rows.append(at * (1.0, w))
        locs, masses = np.concatenate(rows).T
        order = np.argsort(locs, kind="stable")
        support, start = np.unique(locs[order], return_index=True)
        weights = np.add.reduceat(masses[order], start)
        cum = np.concatenate([[0.0], np.cumsum(weights)])
        tail = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
        if not rest:
            cum[-1] = tail[0] = 1.0
        cum_xm = np.concatenate([[0.0], np.cumsum(weights * support)])
        return support, weights, cum, cum_xm, tail, tuple(rest)

    @cached_property
    def _discrete(self):
        """(support, weights, cumweights) when purely atomic, else None."""
        support, weights, cum, _, _, rest = self._atomic
        return None if rest else (support, weights, cum[1:])

    @property
    def is_finite_discrete(self) -> bool:
        return self._discrete is not None

    def support_atoms(self):
        """Sorted (support, weights) arrays for purely atomic distributions."""
        if self._discrete is None:
            raise ValueError("not a finite-discrete distribution")
        support, weights, _ = self._discrete
        return support.copy(), weights.copy()

    @cached_property
    def mean(self) -> float:
        m = 0.0
        for w, comp in self.parts:
            m += w * comp.mean()
        if not math.isfinite(m):
            raise InfiniteMeanError("mean diverges")
        return m

    def x_breakpoints(self) -> np.ndarray:
        """Sorted abscissae where the CDF may jump or change analytic form."""
        support, _, _, _, _, rest = self._atomic
        pts = np.concatenate([support] + [np.asarray(comp.x_breaks()) for _, comp in rest])
        return np.unique(pts[np.isfinite(pts)])

    def p_breakpoints(self) -> np.ndarray:
        """Probabilities where the quantile may jump or change analytic form."""
        if self._discrete is not None:
            _, _, cum = self._discrete
            ps = np.concatenate([[0.0], cum])
        else:
            xb = self.x_breakpoints()
            f = self._cdf_arr(xb)
            ps = np.concatenate([[0.0, 1.0], f, np.maximum(f - self._mass_arr(xb), 0.0)])
        return np.unique(np.clip(ps, 0.0, 1.0))

    def sup_support(self) -> float:
        """The supremum of the support, inf for an unbounded law."""
        return self.support_hi(0.0)

    def support_hi(self, eps: float) -> float:
        """An abscissa beyond which survival mass is at most eps: finite for
        eps > 0, and at eps = 0 the supremum of the support, inf for an
        unbounded law. Integrals in x to infinity cut at eps = `X_CUT`."""
        support, _, _, _, _, rest = self._atomic
        return float(max([comp.support_hi(eps) for _, comp in rest] + support[-1:].tolist()))

    # -- pointwise evaluations ---------------------------------------------

    def _cdf_arr(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        support, _, cum, _, _, rest = self._atomic
        out = cum[np.searchsorted(support, x, side="right")]
        for w, comp in rest:
            out = out + w * comp.cdf(x)
        return np.minimum(out, 1.0)

    def _sf_arr(self, x: np.ndarray) -> np.ndarray:
        """P[X > x] as a sum of the parts' own survival functions, so it
        keeps its relative precision where 1 - F has none left."""
        x = np.asarray(x, dtype=float)
        support, _, _, _, tail, rest = self._atomic
        out = tail[np.searchsorted(support, x, side="right")]
        for w, comp in rest:
            out = out + w * comp.sf(x)
        return np.minimum(out, 1.0)

    def _pe_arr(self, x: np.ndarray) -> np.ndarray:
        """The partial expectation at x >= 0, unchecked (`partial_expectation`)."""
        x = np.asarray(x, dtype=float)
        support, _, _, cum_xm, _, rest = self._atomic
        out = cum_xm[np.searchsorted(support, x, side="right")]
        for w, comp in rest:
            out = out + w * comp.pe(x)
        return out

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
        x = np.asarray(x, dtype=float)
        support, weights, _, _, _, rest = self._atomic
        out = np.zeros_like(x)
        if support.size:
            idx = np.minimum(np.searchsorted(support, x), support.size - 1)
            out = np.where(support[idx] == x, weights[idx], 0.0)
        for w, comp in rest:
            out = out + w * comp.mass_at(x)
        return out

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
        return max(self.mean - self.partial_expectation(alpha), 0.0)

    def excess_mean(self, x: float) -> float:
        """E[(X - x)^+]: the first moment above x less x times the survival."""
        x = float(_nonnegative("excess_mean", x))
        rest = self.mean - self.partial_expectation(x)
        return max(rest - min(x, _MAX_FLOAT) * self.survival(x), 0.0)

    # -- quantiles ----------------------------------------------------------

    @cached_property
    def _memoized(self) -> bool:
        """Whether the quantile is iterative, inverted from the knot table
        (`_quantile_within`) and memoized by `_quantile_arr`; if not, it
        is `_closed_quantile`."""
        if self._discrete is not None:
            return False
        return len(self.parts) > 1 or getattr(self.parts[0][1], "iterative_quantile", False)

    def _quantile_arr(self, p: np.ndarray) -> np.ndarray:
        """Q(p) at an array of p in [0, 1) of any shape, 0-d included.

        A law with an iterative quantile (`_memoized`) looks every finite p up
        in its memo, sorted (p, Q) arrays held as one tuple in the instance
        ``__dict__``. The misses are deduplicated and inverted in one batch
        (`_bisect_quantile`), and `_remember` merges them in. Other laws read
        their closed form each time.
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
            new_q = self._bisect_quantile(new_p)
            out[miss] = new_q[back]
            self._remember(memo_p, memo_q, new_p, new_q)
        return out.reshape(p.shape)

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
        iterative (not `_memoized`).

        Finite-discrete laws read their cumulative masses, which meets the
        cdf form of the Galois pair exactly; any other law of one part whose
        component does not set ``iterative_quantile`` uses that part's
        `quantile`. A mixture of parts and a Gaussian kernel estimate invert
        from the knot table instead (`_quantile_within`).
        """
        out = np.zeros_like(p)
        pos = p > 0.0
        if self._discrete is not None:
            support, _, cum = self._discrete
            out[pos] = support[np.searchsorted(cum, p[pos], side="left")]
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
        quantile's breakpoints, sorted. The sweep of `hoover_max`
        (`_gap_sweep`), the dominance checks (`lorenz.lorenz_dominates`,
        `fsd_dominates`) and the Lorenz gap of
        `wasserstein.sequence_diagnostics` all start from it."""
        ps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1025), self.p_breakpoints()]))
        ps.flags.writeable = False
        return ps

    @cached_property
    def _gap_sweep(self) -> np.ndarray:
        """The probabilities where `indices.hoover_max` reads the Lorenz gap:
        the probe ladder (`_probe_ladder`) and F(mean)."""
        ps = np.unique(np.concatenate([self._probe_ladder, [float(self.cdf(self.mean))]]))
        ps.flags.writeable = False
        return ps

    @cached_property
    def _first_round_p(self) -> np.ndarray:
        """Every p below 1 at which the routes of `indices.index_report`
        first read Q, sorted.

        They are the edges of `_p_cells`, the first-round Kronrod nodes of
        its cells (`quadrature.first_nodes`: the Lorenz area's, and less the
        last cell's the mean-difference diagonal's), and `_gap_sweep`. One
        `_quantile_arr` call on them inverts all of these in one batch.
        """
        cells = self._p_cells
        ps = np.unique(np.concatenate([cells, first_nodes(cells), self._gap_sweep]))
        ps = ps[ps < 1.0]
        ps.flags.writeable = False
        return ps

    @cached_property
    def _knot_values(self):
        """(x, F(x), -sf(x), h) at the knots of the inversion table.

        The candidates are 0, every breakpoint and the float below it, a
        ladder of eight knots per octave, top 2^(-k/8) for k = 0..480
        (`_KNOT_LADDER`) with top = support_hi(1e-16), and a far knot
        (`_upper_end`); one cdf and one sf call evaluate them. Only knots
        where both columns equal their running maximum are kept
        (`_monotone_knots`), so a bracket between adjacent kept knots
        depends on its p alone. x_h = x[h] is the first kept knot where
        F >= 1/2: rows with p above F(x_h) invert the survival function
        (`_knot_brackets`).
        """
        xb = self.x_breakpoints()
        top = self.support_hi(1e-16)
        far = _upper_end(self._cdf_arr, self.support_hi)
        x = np.unique(
            np.concatenate([[0.0, top, far], xb, np.nextafter(xb[xb > 0.0], 0.0), top * _KNOT_LADDER])
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

    def _quantile_within(self, p: np.ndarray, lo, hi, tol: float) -> np.ndarray:
        """Quantiles in [Q(p), Q(p) + tol] of a law that inverts from its knot
        table (`_memoized`), for brackets [lo, hi] (scalars or arrays) that
        hold Q(p). Each bracket is cut down to the one between adjacent kept
        knots (`_knot_brackets`: rows above F(x_h) compare -sf with p - 1),
        the level (`_level_arr`) is evaluated at the caller's ends where
        they are the tighter ones, and one `_invert` call narrows every row
        to within tol; a tol below a bracket's float spacing yields Q(p)."""
        lo_k, hi_k, vlo, vhi, y = self._knot_brackets(p)
        lo, hi = np.fmax(lo, lo_k), np.fmin(hi, hi_k)
        own_lo, own_hi = lo != lo_k, hi != hi_k
        if own_lo.any() or own_hi.any():
            v = self._level_arr(np.concatenate([lo[own_lo], hi[own_hi]]), np.concatenate([y[own_lo], y[own_hi]]))
            vlo[own_lo], vhi[own_hi] = np.split(v, [int(own_lo.sum())])
        return _invert(self._level_arr, y, lo, hi, vlo, vhi, tol)

    def _bisect_quantile(self, p: np.ndarray) -> np.ndarray:
        """Q(p) for p in [0, 1) meeting its Galois pair exactly, F and sf
        computed: F(prev(Q)) < p <= F(Q) for p <= F(x_h), sf(Q) <= 1 - p <
        sf(prev(Q)) above (`_knot_brackets`). It is `_quantile_within` over
        [0, inf) at tolerance 0, so each row keeps its knot bracket."""
        return self._quantile_within(p, 0.0, math.inf, 0.0)

    def quantile(self, p) -> float | np.ndarray:
        """Left-continuous quantile Q(p) on [0, 1)."""
        arr = np.asarray(p, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
            raise ValueError("quantile is defined on [0, 1)")
        return scalar_or_array(p, self._quantile_arr(arr))

    def integral_quantile(self, p: float) -> float:
        """Integral of Q over [0, p], 0 <= p <= 1; equals the mean at p = 1."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError("integral_quantile is defined on [0, 1]")
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return self.mean
        if self._discrete is not None:
            support, _, cum, cum_xm, _, _ = self._atomic
            j = int(np.searchsorted(cum, p, side="left")) - 1
            return float(cum_xm[j] + (p - cum[j]) * support[j])
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
        integral over p.
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
        return self._quantile_arr(rng.random(n))


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
    """Weighted mixture of distributions, flattened to one component list."""
    flat: list[tuple[float, object]] = []
    total = 0.0
    for w, d in parts:
        w = float(w)
        if w <= 0:
            raise ValueError(f"mixture weights must be positive, got {w}")
        total += w
        if isinstance(d, Distribution):
            flat.extend((w * wi, comp) for wi, comp in d.parts)
        else:
            flat.append((w, d))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    return Distribution(tuple(flat))


def require_member(d: Distribution) -> Distribution:
    """Check membership in the index domain: finite nonzero mean."""
    if d.mean == 0.0:
        raise ZeroMeanError(
            "all mass at zero: Lorenz and inequality indices are undefined"
        )
    return d


def fsd_dominates(d1: Distribution, d2: Distribution, grid: int = 256) -> bool:
    """First-order stochastic dominance of d1 over d2.

    Checked on two routes that must agree: F_{d1} <= F_{d2} on an abscissa
    ladder, and Q_{d1} >= Q_{d2} on a probability ladder below 1. The
    probability ladder joins both operands' probe ladders
    (`Distribution._probe_ladder`) with the tail levels; the abscissa
    ladder joins both operands' breakpoints, `grid` uniform points and both
    quantile functions on the probability ladder, so it resolves
    heavy-tailed laws whose mass sits far below the uniform grid's first
    step.
    """
    grid = _count("grid", grid, 2)
    ps = np.unique(np.concatenate([d1._probe_ladder, d2._probe_ladder, TAIL_LEVELS]))
    ps = ps[ps < 1.0]
    q1, q2 = d1._quantile_arr(ps), d2._quantile_arr(ps)
    quantile_route = bool(np.all(q1 >= q2))
    hi = max(d1.support_hi(1e-9), d2.support_hi(1e-9))
    xs = np.unique(
        np.concatenate(
            [d1.x_breakpoints(), d2.x_breakpoints(), np.linspace(0.0, hi, grid), q1, q2]
        )
    )
    cdf_route = bool(np.all(d1._cdf_arr(xs) <= d2._cdf_arr(xs)))
    if cdf_route != quantile_route:
        raise RuntimeError(
            "stochastic dominance routes disagree: "
            f"cdf route {cdf_route}, quantile route {quantile_route}"
        )
    return cdf_route
