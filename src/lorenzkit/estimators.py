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

``run_experiment`` drives the convergence diagnostics over five sequence
schemes (noise, sampling, quantile, quantile_of_sample, kde) from a
declarative spec with one master seed; per-step generators come from
numbered substreams so prefixes agree across schedule lengths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .measures import Distribution, ZeroMeanError, discrete, require_member, scalar_or_array
from .wasserstein import ConvergenceReport, sequence_diagnostics

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
    """Nonnegative observations plus a note on where they came from."""

    values: tuple[float, ...]
    provenance: str = "unspecified"

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a sample needs at least one value")
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"sample values must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "values", vals)

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)


def as_sample_set(s, provenance: str = "unspecified") -> SampleSet:
    if isinstance(s, SampleSet):
        return s
    return SampleSet(tuple(np.asarray(s, dtype=float).ravel()), provenance)


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
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("Lorenz argument must lie in [0, 1]")
    grid = np.arange(xs.size + 1) / xs.size
    heads = np.concatenate([[0.0], np.cumsum(xs)]) / total
    out = np.interp(arr, grid, heads)
    return scalar_or_array(x, out)


def quantile_approx(d: Distribution, ell: int) -> Distribution:
    """Equal atoms at Q(k/ell) for k = 0..ell-1.

    The result's cdf sits within [F, F + 1/ell] everywhere; since Q(0) = 0
    there is always an atom at zero carrying weight 1/ell (or more).
    """
    require_member(d)
    ell = int(ell)
    if ell < 1:
        raise ValueError("table size must be a positive integer")
    return discrete(d._quantile_arr(np.arange(ell) / ell))


def quantile_of_sample(s, ell: int) -> Distribution:
    """Quantile table of the empirical law of the sample."""
    return quantile_approx(empirical(s), ell)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_INV_SQRT_TAU = 1.0 / math.sqrt(2.0 * math.pi)


def _gauss_density(y):
    y = np.asarray(y, dtype=float)
    return _INV_SQRT_TAU * np.exp(-0.5 * y * y)


def _gauss_partial_first(y):
    return -_gauss_density(y)


def _epan_density(y):
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) <= 1.0, 0.75 * (1.0 - y * y), 0.0)


def _epan_cdf(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * y - y**3)


def _epan_partial_first(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.75 * (0.5 * y * y - 0.25 * y**4) - 3.0 / 16.0


def _unif_density(y):
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) <= 1.0, 0.5, 0.0)


def _unif_cdf(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.5 * (y + 1.0)


def _unif_partial_first(y):
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    return 0.25 * (y * y - 1.0)


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric smoothing kernel with the pieces the estimator needs.

    cdf is the running integral of density; partial_first_moment is
    ``M(y) = integral of s * density(s) for s <= y`` (so M(inf) = 0 by
    symmetry), which is what closed-form truncated means are made of;
    tail_radius(eps) bounds where the cdf leaves [eps, 1 - eps].
    """

    name: str
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    first_abs_moment: float
    partial_first_moment: Callable[[np.ndarray], np.ndarray]
    tail_radius: Callable[[float], float]


GAUSSIAN = KernelSpec(
    name="gaussian",
    density=_gauss_density,
    cdf=ndtr,
    first_abs_moment=math.sqrt(2.0 / math.pi),
    partial_first_moment=_gauss_partial_first,
    tail_radius=lambda eps: float(-ndtri(min(max(eps, 5e-324), 0.5))),
)

EPANECHNIKOV = KernelSpec(
    name="epanechnikov",
    density=_epan_density,
    cdf=_epan_cdf,
    first_abs_moment=0.375,
    partial_first_moment=_epan_partial_first,
    tail_radius=lambda eps: 1.0,
)

UNIFORM = KernelSpec(
    name="uniform",
    density=_unif_density,
    cdf=_unif_cdf,
    first_abs_moment=0.5,
    partial_first_moment=_unif_partial_first,
    tail_radius=lambda eps: 1.0,
)

KERNELS = {k.name: k for k in (GAUSSIAN, EPANECHNIKOV, UNIFORM)}

_X_BLOCK = 256


@dataclass(frozen=True)
class _CutKernelMixture:
    """Law of max(X + hY, 0): X uniform on the sample, Y from the kernel.

    Pointwise functionals average closed forms over the sample. Evaluation
    sorts the query abscissae and walks them in blocks, restricting each
    block to the sample window that can still contribute a non-saturated
    kernel value; points left of the window contribute their saturated
    constant through a prefix sum.
    """

    points: tuple[float, ...]
    bandwidth: float
    kernel: KernelSpec

    @cached_property
    def _sorted(self) -> np.ndarray:
        return np.sort(np.asarray(self.points, dtype=float))

    @cached_property
    def _radius(self) -> float:
        return self.kernel.tail_radius(1e-17)

    @cached_property
    def _point_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-point truncated means E[max(x_i + hY, 0)] and their prefix sums."""
        h = self.bandwidth
        c = -self._sorted / h
        g = np.asarray(self.kernel.cdf(c), dtype=float)
        m = np.asarray(self.kernel.partial_first_moment(c), dtype=float)
        means = self._sorted * (1.0 - g) - h * m
        return means, np.concatenate([[0.0], np.cumsum(means)])

    def mean(self) -> float:
        means, _ = self._point_means
        return float(means.mean())

    def _blockwise(self, x: np.ndarray, per_block) -> np.ndarray:
        """Evaluate a windowed average over sorted query blocks."""
        flat = np.asarray(x, dtype=float).ravel()
        out = np.zeros(flat.shape)
        order = np.argsort(flat, kind="stable")
        xs = flat[order]
        vals = np.empty_like(xs)
        span = self._radius * self.bandwidth
        pts = self._sorted
        for start in range(0, xs.size, _X_BLOCK):
            blk = xs[start : start + _X_BLOCK]
            lo = int(np.searchsorted(pts, blk[0] - span, side="right"))
            hi = int(np.searchsorted(pts, blk[-1] + span, side="left"))
            vals[start : start + _X_BLOCK] = per_block(blk, lo, hi)
        out[order] = vals
        return out.reshape(np.shape(x))

    def cdf(self, x) -> np.ndarray:
        pts = self._sorted
        n = pts.size
        h = self.bandwidth
        kernel_cdf = self.kernel.cdf

        def per_block(blk, lo, hi):
            inside = (
                np.asarray(kernel_cdf((blk[:, None] - pts[None, lo:hi]) / h)).sum(axis=1)
                if hi > lo
                else 0.0
            )
            res = (lo + inside) / n
            return np.where(blk < 0.0, 0.0, res)

        return self._blockwise(x, per_block)

    def mass_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        at_zero = float(self.cdf(np.zeros(1))[0])
        return np.where(x == 0.0, at_zero, 0.0)

    def pe(self, x) -> np.ndarray:
        """Partial expectation: averages E[(x_i + hY); 0 < x_i + hY <= x]."""
        pts = self._sorted
        n = pts.size
        h = self.bandwidth
        kernel_cdf = self.kernel.cdf
        pfm = self.kernel.partial_first_moment
        means, prefix = self._point_means
        g_low = np.asarray(kernel_cdf(-pts / h), dtype=float)
        m_low = np.asarray(pfm(-pts / h), dtype=float)

        def per_block(blk, lo, hi):
            if hi > lo:
                upper = (blk[:, None] - pts[None, lo:hi]) / h
                g_hi = np.asarray(kernel_cdf(upper))
                m_hi = np.asarray(pfm(upper))
                window = (
                    pts[None, lo:hi] * (g_hi - g_low[None, lo:hi])
                    + h * (m_hi - m_low[None, lo:hi])
                ).sum(axis=1)
            else:
                window = 0.0
            res = (prefix[lo] + window) / n
            return np.where(blk < 0.0, 0.0, np.maximum(res, 0.0))

        return self._blockwise(x, per_block)

    def quantile(self, p):
        return None

    def x_breaks(self) -> np.ndarray:
        h = self.bandwidth
        span = self._radius * h
        pts = self._sorted
        hull = [max(pts[0] - span, 0.0), pts[-1] + span]
        if self._radius == 1.0 and pts.size <= 64:
            kinks = np.concatenate([pts - h, pts + h])
            hull.extend(kinks[kinks > 0.0])
        return np.unique(np.asarray(hull + [0.0]))

    def sup_support(self) -> float:
        if self._radius == 1.0:
            return float(self._sorted[-1] + self.bandwidth)
        return math.inf

    def support_hi(self, eps: float) -> float:
        r = self.kernel.tail_radius(max(eps, 5e-324))
        return float(self._sorted[-1] + r * self.bandwidth)

    def rescaled(self, alpha: float) -> "_CutKernelMixture":
        return _CutKernelMixture(
            tuple(alpha * v for v in self.points), alpha * self.bandwidth, self.kernel
        )

    def atoms(self):
        return None


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
    return Distribution(((1.0, _CutKernelMixture(xs.values, h, kernel)),))


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
    parameters sharpen together.
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
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def source_distribution(self) -> Distribution:
        from .specs import parse_distribution

        return parse_distribution(self.source)

    def schedule_sample_sizes(self) -> tuple[int, ...]:
        if self.sample_sizes is not None:
            return tuple(int(n) for n in self.sample_sizes)
        return tuple(64 * 2**k for k in range(self.steps))

    def schedule_table_sizes(self) -> tuple[int, ...]:
        if self.table_sizes is not None:
            return tuple(int(v) for v in self.table_sizes)
        return tuple(2 ** (k + 1) for k in range(self.steps))

    def schedule_bandwidths(self) -> tuple[float, ...]:
        if self.bandwidths is not None:
            return tuple(float(h) for h in self.bandwidths)
        return tuple(2.0 ** -(k + 1) for k in range(self.steps))

    def schedule_noise_exponents(self) -> tuple[int, ...]:
        if self.noise_exponents is not None:
            return tuple(int(k) for k in self.noise_exponents)
        return tuple(range(1, self.steps + 1))

    @classmethod
    def from_json(cls, text_or_dict) -> "ExperimentSpec":
        data = (
            json.loads(text_or_dict)
            if isinstance(text_or_dict, (str, bytes))
            else dict(text_or_dict)
        )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        for key in ("sample_sizes", "table_sizes", "bandwidths", "noise_exponents",
                    "alpha_grid"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_json_dict(self) -> dict:
        out = {"scheme": self.scheme, "source": self.source, "seed": self.seed,
               "steps": self.steps, "sample_size": self.sample_size,
               "kernel": self.kernel, "rel_tol": self.rel_tol}
        for key in ("sample_sizes", "table_sizes", "bandwidths", "noise_exponents",
                    "alpha_grid"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val)
        return out


def _substream(seed: int, counter: int) -> np.random.Generator:
    return np.random.default_rng([seed, counter])


def run_experiment(spec: ExperimentSpec) -> ConvergenceReport:
    """Build the approximating sequence for the spec's scheme and diagnose it."""
    source = spec.source_distribution()
    require_member(source)
    members: list[Distribution] = []
    if spec.scheme == "noise":
        base = source.sample_rng(_substream(spec.seed, 0), spec.sample_size)
        for j, k in enumerate(spec.schedule_noise_exponents()):
            noise = _substream(spec.seed, j + 1).standard_normal(spec.sample_size)
            members.append(empirical(np.maximum(base + 2.0**-k * noise, 0.0)))
    elif spec.scheme == "sampling":
        for j, n in enumerate(spec.schedule_sample_sizes()):
            members.append(empirical(source.sample_rng(_substream(spec.seed, j), n)))
    elif spec.scheme == "quantile":
        for ell in spec.schedule_table_sizes():
            members.append(quantile_approx(source, ell))
    elif spec.scheme == "quantile_of_sample":
        sizes = spec.schedule_sample_sizes()
        tables = spec.schedule_table_sizes()
        if len(sizes) != len(tables):
            raise ValueError("sample_sizes and table_sizes must pair up")
        for j, (n, ell) in enumerate(zip(sizes, tables)):
            xs = source.sample_rng(_substream(spec.seed, j), n)
            members.append(quantile_of_sample(xs, ell))
    else:
        sizes = spec.schedule_sample_sizes()
        widths = spec.schedule_bandwidths()
        if len(sizes) != len(widths):
            raise ValueError("sample_sizes and bandwidths must pair up")
        for j, (n, h) in enumerate(zip(sizes, widths)):
            xs = source.sample_rng(_substream(spec.seed, j), n)
            members.append(kde(xs, KERNELS[spec.kernel], h))
    return sequence_diagnostics(
        members, source, rel_tol=spec.rel_tol, alpha_grid=spec.alpha_grid
    )
