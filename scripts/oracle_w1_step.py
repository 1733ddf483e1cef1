#!/usr/bin/env python3
"""Independent oracle for W1 between a finite-discrete law and a law with a
density part, the pairs the quantile route of `w1` sums exactly.

Three pairs, each a sample-like discrete law d1 against a law d2:

lognormal
    d1 the equally weighted n = 1000 seed-3 sample of lognormal(0, 1), the
    quantile exp(ndtri(u)) of 1000 uniforms from numpy's default_rng(3);
    d2 lognormal(0, 1).
exponential, Dirichlet weights
    d1 400 exponential(1) values from default_rng(11), the first 40 set to
    0 (a block of zeros, which merge into one atom), with weights from the
    same generator's dirichlet(ones(400)); d2 exponential(1).
mixture with shared atoms
    d1 the equally weighted 300 exponential(1) values from default_rng(5);
    d2 the mixture 3/4 exponential(1) + 1/4 equal atoms at every tenth of
    those values, so F2 jumps at some atoms of d1.

The values are made here with numpy and scipy alone; the package is not
imported. Both W1 forms are evaluated in mpmath at 40 digits:

cdf form
    the integral of |F1 - F2| over [0, inf), piece by piece between the
    sorted atoms of both laws. On a piece F1 is a constant c and F2 is its
    atomic part A plus wc Fc(x), Fc the density part's cdf; the piece splits
    where Fc crosses (c - A) / wc (its closed-form inverse), and each side
    integrates through the closed-form antiderivative of Fc, x Fc(x) - pe(x).
    Beyond the last atom the integrand is 1 - F2, whose integral is the
    closed-form excess mean.
quantile form
    the integral of |Q1 - Q2| over (0, 1], cell by cell of d1's cumulative
    masses, each cell split where Q2 crosses its atom, with the integral
    S2(p) of Q2 over [0, p] as pe2(Q2(p)) + Q2(p) (p - F2(Q2(p))) and Q2
    found piece by piece from the same closed forms.

The two forms must agree to 1e-30; the printed values are what
tests/test_wasserstein.py freezes.

Run: python scripts/oracle_w1_step.py
"""

import bisect

import mpmath as mp
import numpy as np
from scipy.special import ndtri

mp.mp.dps = 40


class Lognormal01:
    mean = mp.e ** mp.mpf(0.5)

    @staticmethod
    def cdf(x):
        return mp.ncdf(mp.log(x)) if x > 0 else mp.mpf(0)

    @staticmethod
    def pe(x):
        return Lognormal01.mean * mp.ncdf(mp.log(x) - 1) if x > 0 else mp.mpf(0)

    @staticmethod
    def inv(t):
        return mp.exp(mp.sqrt(2) * mp.erfinv(2 * t - 1))


class Exponential1:
    mean = mp.mpf(1)

    @staticmethod
    def cdf(x):
        return -mp.expm1(-x)

    @staticmethod
    def pe(x):
        return 1 - (1 + x) * mp.exp(-x)

    @staticmethod
    def inv(t):
        return -mp.log1p(-t)


class Law:
    """wc times a density part plus atoms (locations, masses), exactly."""

    def __init__(self, wc, part, locs=(), masses=()):
        self.wc, self.part = mp.mpf(wc), part
        pairs = sorted(zip(map(mp.mpf, locs), map(mp.mpf, masses)))
        self.locs = [x for x, _ in pairs]
        self.cum = list(np.cumsum([m for _, m in pairs], dtype=object)) if pairs else []
        self.mean = self.wc * part.mean + sum(x * m for x, m in pairs)

    def atomic(self, x):
        """Atom mass at or below x."""
        k = bisect.bisect_right(self.locs, x)
        return self.cum[k - 1] if k else mp.mpf(0)

    def cdf(self, x):
        return self.atomic(x) + self.wc * self.part.cdf(x)

    def pe(self, x):
        return sum(a * m for a, m in zip(self.locs, self.masses()) if a <= x) + self.wc * self.part.pe(x)

    def masses(self):
        return [c - p for c, p in zip(self.cum, [mp.mpf(0)] + self.cum[:-1])]

    def quantile(self, p):
        """min {x : F(x) >= p}, 0 < p < 1."""
        lo_atoms = mp.mpf(0)
        for a, c in zip(self.locs, self.cum):
            if lo_atoms + self.wc * self.part.cdf(a) >= p:
                break
            if c + self.wc * self.part.cdf(a) >= p:
                return a
            lo_atoms = c
        return self.part.inv((p - lo_atoms) / self.wc)

    def s(self, p):
        """Integral of Q over [0, p]."""
        if p == 0:
            return mp.mpf(0)
        if p == 1:
            return self.mean
        q = self.quantile(p)
        return self.pe(q) + q * (p - self.cdf(q))


def antiderivative(part, x):
    """Integral of the part's cdf over [0, x]."""
    return x * part.cdf(x) - part.pe(x)


def cdf_form(support, cum, law: Law):
    knots = sorted(set(support) | set(law.locs))
    total = mp.mpf(0)
    a = mp.mpf(0)
    for b in knots[1:] if knots[0] == 0 else knots:
        k = bisect.bisect_right(support, a)
        c = cum[k - 1] if k else mp.mpf(0)
        atoms = law.atomic(a)
        t = (c - atoms) / law.wc
        fa, fb = law.part.cdf(a), law.part.cdf(b)
        ga, gb = antiderivative(law.part, a), antiderivative(law.part, b)
        if fa >= t:
            total += law.wc * (gb - ga) - (c - atoms) * (b - a)
        elif fb <= t:
            total += (c - atoms) * (b - a) - law.wc * (gb - ga)
        else:
            xs = law.part.inv(t)
            gs = antiderivative(law.part, xs)
            total += (c - atoms) * (2 * xs - a - b) - law.wc * (2 * gs - ga - gb)
        a = b
    # beyond the last knot F1 = 1: the integral of 1 - F2 is E[(X2 - a)^+]
    return total + law.mean - law.pe(a) - a * (1 - law.cdf(a))


def quantile_form(support, cum, law: Law):
    total = mp.mpf(0)
    lo = mp.mpf(0)
    for s, hi in zip(support, cum):
        pi = min(max(law.cdf(s), lo), hi)
        total += s * (2 * pi - lo - hi) + law.s(lo) + law.s(hi) - 2 * law.s(pi)
        lo = hi
    return total


def discrete_exact(values, weights):
    """Sorted unique locations and their cumulative masses, normalized."""
    order = np.argsort(values, kind="stable")
    support, cum = [], []
    acc = mp.mpf(0)
    for x, w in zip(values[order], weights[order]):
        acc += mp.mpf(float(w))
        if support and support[-1] == x:
            cum[-1] = acc
        else:
            support.append(x)
            cum.append(acc)
    return [mp.mpf(float(x)) for x in support], [c / acc for c in cum]


def pairs():
    u = np.random.default_rng(3).random(1000)
    xs = np.exp(ndtri(u))
    yield "lognormal(0,1) vs its n=1000 seed-3 sample", xs, np.full(1000, 1.0 / 1000), Law(1, Lognormal01)

    rng = np.random.default_rng(11)
    xs = -np.log1p(-rng.random(400))
    xs[:40] = 0.0
    w = rng.dirichlet(np.ones(400))
    yield "exponential(1) vs Dirichlet-weighted sample with 40 zeros", xs, w, Law(1, Exponential1)

    xs = -np.log1p(-np.random.default_rng(5).random(300))
    shared = xs[::10]
    law = Law(0.75, Exponential1, shared, [0.25 / shared.size] * shared.size)
    yield "3/4 exponential(1) + 1/4 atoms at every tenth sample value vs the sample", xs, np.full(300, 1.0 / 300), law


def main() -> None:
    for name, values, weights, law in pairs():
        support, cum = discrete_exact(values, weights)
        by_f = cdf_form(support, cum, law)
        by_q = quantile_form(support, cum, law)
        m1 = sum(x * (c - p) for x, c, p in zip(support, cum, [mp.mpf(0)] + cum[:-1]))
        assert abs(by_f - by_q) < mp.mpf(10) ** -30 * (m1 + law.mean), name
        print(f"{name}: W1 = {mp.nstr(by_f, 20)}  (forms differ by {mp.nstr(abs(by_f - by_q), 3)})")
    print("oracle ok")


if __name__ == "__main__":
    main()
