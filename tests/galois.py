"""The exact Galois pair of an inverted quantile, in the form each row meets.

A mixture of parts inverts its cdf against p for p <= F(x_h), x_h the first
knot of its table where F >= 1/2, and minus its survival function against
p - 1 above (`Distribution._knot_brackets`), so a quantile Q meets

    F(prev(Q)) < p <= F(Q)          for p <= F(x_h),
    sf(Q) <= 1 - p < sf(prev(Q))    for F(x_h) < p <= F(top),

top the table's last knot; p above F(top), which only float weights summing
below 1 allow, keeps the cdf form. A Gaussian kernel estimate, a law of one
part whose quantile is iterative, inverts from the same table and meets the
same pair; every law that inverts from its table says so by
`Distribution._memoized`. Laws with a closed-form quantile (finite-discrete
laws, other laws of one part) meet the cdf form everywhere. Every check is
an exact inequality of the computed functions.
"""

import numpy as np


def sf_form_rows(d, ps):
    """Rows of `ps` whose quantile meets the survival form, read from the
    knot table of a law that inverts from one."""
    ps = np.asarray(ps, dtype=float)
    if not d._memoized:
        return np.zeros(ps.shape, dtype=bool)
    _, f, _, h = d._knot_values
    return (ps > f[h]) & (ps <= f[-1])


def assert_galois_pair(d, ps, name=""):
    """Exact in floating point: each row's pair holds, Q nondecreasing
    across the split. Returns the quantiles."""
    ps = np.asarray(ps, dtype=float)
    q = np.asarray(d.quantile(ps))
    assert np.all(np.diff(q) >= 0.0), name
    up = sf_form_rows(d, ps)
    prev = np.nextafter(q, 0.0)
    lo = ~up
    assert np.all(np.asarray(d.cdf(q[lo])) >= ps[lo]), name
    assert np.all((q[lo] == 0.0) | (np.asarray(d.cdf(prev[lo])) < ps[lo])), name
    r = 1.0 - ps[up]
    assert np.all(np.asarray(d.survival(q[up])) <= r), name
    assert np.all((q[up] == 0.0) | (np.asarray(d.survival(prev[up])) > r)), name
    return q
