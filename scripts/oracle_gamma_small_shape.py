#!/usr/bin/env python3
"""Reference values of the regularized incomplete gamma functions at small
shape, for the recurrences that `lorenzkit.measures.Gamma` reads below shape
1.25 near x / scale = 1.

For each shape k in SHAPES and each u in POINTS it prints one row
(k, u, P(k, u), Q(k, u)), P = gammainc and Q = gammaincc regularized, each
evaluated by mpmath at 40 digits and rounded once to the nearest float. The
points cover the band where `Gamma.sf` reads Q(k + 1, u) - t (0 < u <= 1.1)
and the band where `Gamma.cdf` reads P(k + 1, u) + t (1 < u <= 1.1), with
t = u^k e^-u / Gamma(k + 1). The package is not imported; the printed rows
are what tests/test_measures.py freezes as `GAMMA_REFERENCE`.

Run: python scripts/oracle_gamma_small_shape.py
"""

import mpmath as mp

mp.mp.dps = 40

SHAPES = (0.05, 0.1, 0.3, 0.5, 0.684, 0.746, 0.891, 0.968, 0.99, 1.1, 1.2)
POINTS = (1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0, 1.025, 1.05, 1.075, 1.1)


def main() -> None:
    for k in SHAPES:
        for u in POINTS:
            # the float inputs exactly, as the package receives them
            a, x = mp.mpf(k), mp.mpf(u)
            p = mp.gammainc(a, 0, x, regularized=True)
            q = mp.gammainc(a, x, mp.inf, regularized=True)
            assert abs(p + q - 1) < mp.mpf(10) ** -35
            print(f"    ({k!r}, {u!r}, {float(p)!r}, {float(q)!r}),")


if __name__ == "__main__":
    main()
