"""Reference values computed without lorenzkit.

Closed forms for single components (uniform G = (b-a)/(3(a+b)), exponential
G = 1/2 and H = 1/e, gamma G = Gamma(k+1/2)/(sqrt(pi) Gamma(k+1)), lognormal
G = erf(s/2) and H = erf(s/(2 sqrt 2))); plain numpy sums for finite-discrete
laws and pairs; for mixtures, pairwise closed forms plus scipy's QUADPACK on
the density-density integrals that have none.

Mixtures use G = 1 - E[min(X, X')] / mean and H = E[(X - mean)+] / mean, and
W1 is the integral of |S1 - S2|, S the survival function. Everything is
written in survival and excess-mean form, E[(X - t)+], so far tails keep
their digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# ---------------------------------------------------------------------------
# single components
# ---------------------------------------------------------------------------


def comp_mean(c: tuple) -> float:
    kind = c[0]
    if kind == "uniform":
        return 0.5 * (c[1] + c[2])
    if kind == "exp":
        return 1.0 / c[1]
    if kind == "gamma":
        return c[1] * c[2]
    return math.exp(c[1] + 0.5 * c[2] ** 2)


def comp_sf(c: tuple, t: np.ndarray) -> np.ndarray:
    """P[X > t], computed directly so that far tails keep their digits."""
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    kind = c[0]
    if kind == "uniform":
        return np.clip((c[2] - t) / (c[2] - c[1]), 0.0, 1.0)
    if kind == "exp":
        return np.exp(-c[1] * t)
    if kind == "gamma":
        return special.gammaincc(c[1], t / c[2])
    with np.errstate(divide="ignore"):
        return special.ndtr(-(np.log(t) - c[1]) / c[2])


def comp_excess(c: tuple, t: np.ndarray) -> np.ndarray:
    """E[(X - t)+], the integral of the survival function over (t, inf)."""
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    kind = c[0]
    if kind == "uniform":
        a, b = c[1], c[2]
        inside = (b - np.clip(t, a, b)) ** 2 / (2.0 * (b - a))
        return np.where(t <= a, 0.5 * (a + b) - t, inside)
    if kind == "exp":
        return np.exp(-c[1] * t) / c[1]
    if kind == "gamma":
        k, theta = c[1], c[2]
        return k * theta * special.gammaincc(k + 1.0, t / theta) - t * special.gammaincc(k, t / theta)
    with np.errstate(divide="ignore"):
        z = (np.log(t) - c[1]) / c[2]
    return comp_mean(c) * special.ndtr(c[2] - z) - t * special.ndtr(-z)


def comp_gini(c: tuple) -> float:
    kind = c[0]
    if kind == "uniform":
        return (c[2] - c[1]) / (3.0 * (c[1] + c[2]))
    if kind == "exp":
        return 0.5
    if kind == "gamma":
        k = c[1]
        return math.exp(special.gammaln(k + 0.5) - special.gammaln(k + 1.0)) / math.sqrt(math.pi)
    return math.erf(c[2] / 2.0)


def comp_hoover(c: tuple) -> float:
    kind = c[0]
    if kind == "exp":
        return math.exp(-1.0)
    if kind == "lognormal":
        return math.erf(c[2] / (2.0 * math.sqrt(2.0)))
    m = comp_mean(c)
    return float(comp_excess(c, m)) / m  # E|X - m| / (2m) = E[(X - m)+] / m


def _breaks(c: tuple) -> tuple[float, ...]:
    return (c[1], c[2]) if c[0] == "uniform" else ()


# ---------------------------------------------------------------------------
# flattened laws
# ---------------------------------------------------------------------------


class Flat:
    """A law as sorted atoms plus weighted closed-form densities."""

    def __init__(self, law: tuple):
        xs, ws, self.dens = [], [], []
        self._walk(law, 1.0, xs, ws)
        x = np.concatenate(xs) if xs else np.empty(0)
        w = np.concatenate(ws) if ws else np.empty(0)
        order = np.argsort(x, kind="stable")
        self.ax, self.aw = x[order], w[order]
        # atom weight and first moment at or above each sorted atom
        self._up_w = np.concatenate([np.cumsum(self.aw[::-1])[::-1], [0.0]])
        self._up_wx = np.concatenate([np.cumsum((self.aw * self.ax)[::-1])[::-1], [0.0]])
        self.mean = float(self._up_wx[0]) + sum(v * comp_mean(c) for v, c in self.dens)

    def _walk(self, law, weight, xs, ws):
        kind = law[0]
        if kind == "mix":
            for w, part in law[1]:
                self._walk(part, weight * w, xs, ws)
        elif kind == "atom":
            xs.append(np.asarray([law[1]], dtype=float))
            ws.append(np.asarray([weight]))
        elif kind == "discrete":
            x = np.asarray(law[1], dtype=float)
            w = np.full(x.size, 1.0 / x.size) if law[2] is None else np.asarray(law[2], dtype=float)
            xs.append(x)
            ws.append(weight * w)
        else:
            self.dens.append((weight, law))

    @property
    def single(self) -> tuple | None:
        """The component when the law is one closed-form density."""
        if self.ax.size == 0 and len(self.dens) == 1:
            return self.dens[0][1]
        return None

    def sf(self, t) -> np.ndarray:
        """P[X > t]."""
        t = np.asarray(t, dtype=float)
        out = self._up_w[np.searchsorted(self.ax, t, side="right")]
        for v, c in self.dens:
            out = out + v * comp_sf(c, t)
        return out

    def excess(self, t) -> np.ndarray:
        """E[(X - t)+]."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.ax, t, side="right")
        out = self._up_wx[idx] - t * self._up_w[idx]
        for v, c in self.dens:
            out = out + v * comp_excess(c, t)
        return out

    def breaks(self) -> np.ndarray:
        pts = [self.ax] + [np.asarray(_breaks(c)) for _, c in self.dens]
        return np.unique(np.concatenate(pts))


def _far(laws: list[Flat], scale: float) -> float:
    """An abscissa beyond which every law's excess mean is below 1e-15 * scale."""
    t = scale
    while sum(float(f.excess(t)) for f in laws) > 1e-15 * scale:
        t *= 2.0
    return t


def _halfline(g, breaks, lo: float, hi: float) -> float:
    """Integral of g over [lo, hi] by QUADPACK in u = log t, split at `breaks`."""
    cuts = np.log(np.unique(np.clip(np.asarray(breaks, dtype=float), lo, hi)))
    edges = np.unique(np.concatenate([[math.log(lo), math.log(hi)], cuts]))

    def f(u):
        t = math.exp(u)
        return float(g(t)) * t

    return sum(
        integrate.quad(f, a, b, epsabs=1e-15 * hi, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def discrete_gini_hoover(x, w) -> tuple[float, float]:
    order = np.argsort(x, kind="stable")
    x, w = np.asarray(x, float)[order], np.asarray(w, float)[order]
    mean = float(w @ x)
    cum = np.cumsum(w)
    mad = 2.0 * float(np.sum(w * x * (cum - w + cum - 1.0)))
    return mad / (2.0 * mean), float(w @ np.abs(x - mean)) / (2.0 * mean)


def gini_hoover(law: tuple) -> tuple[float, float]:
    """(Gini, Hoover) of a law spec; both are invariant under rescaling."""
    fl = Flat(law)
    if fl.single is not None:
        return comp_gini(fl.single), comp_hoover(fl.single)
    if not fl.dens:
        return discrete_gini_hoover(fl.ax, fl.aw)
    mean = fl.mean
    hoover = float(fl.excess(mean)) / mean
    # E[min(X, X')] summed over ordered pairs of parts
    x, w = fl.ax, fl.aw
    e_min = float(np.sum(w * x * (w + 2.0 * fl._up_w[1:])))
    for i, (vi, ci) in enumerate(fl.dens):
        mi = comp_mean(ci)
        e_min += 2.0 * vi * float(w @ (mi - comp_excess(ci, x)))  # E min(a, X) = m - E(X-a)+
        e_min += vi * vi * mi * (1.0 - comp_gini(ci))
        for vj, cj in fl.dens[i + 1 :]:
            pair = [Flat(ci), Flat(cj)]
            scale = min(mi, comp_mean(cj))
            both = _halfline(
                lambda t: comp_sf(ci, t) * comp_sf(cj, t),
                _breaks(ci) + _breaks(cj) + (scale,),
                1e-16 * scale,
                _far(pair, scale),
            )
            e_min += 2.0 * vi * vj * both
    return 1.0 - e_min / mean, hoover


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------


def _w1_discrete(f1: Flat, f2: Flat) -> float:
    xs = np.unique(np.concatenate([f1.ax, f2.ax]))
    gap = np.abs(f1.sf(xs[:-1]) - f2.sf(xs[:-1]))
    return float(np.sum(np.diff(xs) * gap))


def w1(law1: tuple, law2: tuple) -> float:
    """Integral of |S1 - S2| over (0, inf).

    Both finite-discrete: an exact sum over the merged support. Otherwise the
    half-line is cut at every atom, every uniform end and every sign change
    of S1 - S2 (found on a 2049-point log grid and bisected to the float);
    on each piece the gap has one sign, so the piece contributes the
    difference of the closed-form excess means E[(X - t)+] at its ends.
    """
    f1, f2 = Flat(law1), Flat(law2)
    if not f1.dens and not f2.dens:
        return _w1_discrete(f1, f2)
    scale = f1.mean + f2.mean
    hi = _far([f1, f2], scale)
    grid = np.geomspace(1e-12 * scale, hi, 2049)
    pts = np.unique(np.concatenate([[0.0], grid, f1.breaks(), f2.breaks()]))
    pts = pts[pts <= hi]

    def gap(t):
        return f1.sf(t) - f2.sf(t)

    lo, up = pts[:-1], pts[1:]
    sign_lo = np.sign(gap(lo))
    flip = sign_lo * np.sign(gap(np.nextafter(up, 0.0))) < 0
    lo, up, sign_lo = lo[flip], up[flip], sign_lo[flip]
    for _ in range(64):
        mid = 0.5 * (lo + up)
        same = np.sign(gap(mid)) == sign_lo
        lo, up = np.where(same, mid, lo), np.where(same, up, mid)
    cuts = np.unique(np.concatenate([pts, up]))
    e = f1.excess(cuts) - f2.excess(cuts)
    return float(np.sum(np.abs(np.diff(e))) + abs(e[-1]))
