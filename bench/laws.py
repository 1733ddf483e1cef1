"""Seeded law specs and their construction through lorenzkit's public API.

A law is a plain nested tuple, so the benchmark can build it with lorenzkit
and, separately, compute reference values from it without lorenzkit
(``refs.py``). Forms:

    ("atom", x)              ("uniform", a, b)       ("exp", rate)
    ("gamma", k, theta)      ("lognormal", m, s)     ("discrete", xs, ws)
    ("mix", ((w, law), ...))

``ws`` is None for equal weights. Every generator draws its parameters from
a numpy Generator; mixture shapes are fixed per slot, and sizes and
hardness are stratified across rounds with a golden-ratio sequence
(``Strata``), so a short run already covers their range evenly and the cost
and failure mix of a run is steady from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

import lorenzkit as lk

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Strata:
    """Low-discrepancy values in [0, 1) per (slot, round), offset by the seed."""

    def __init__(self, seed: int, stream: int):
        self._offsets = np.random.default_rng([seed, stream, 7]).random(64)

    def u(self, slot: int, rnd: int) -> float:
        return float((self._offsets[slot] + rnd * _GOLDEN) % 1.0)


def ladder(slot: int, rnd: int) -> float:
    """Strata value without the seed offset: the hard slice is the same ladder
    in every run, so its known failures are the same count in every run."""
    return float((0.5 + slot * math.sqrt(2.0) + rnd * _GOLDEN) % 1.0)


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

DENSITIES = ("uniform", "exp", "gamma", "lognormal")


def density(rng: np.random.Generator, kind: str | None = None) -> tuple:
    """One closed-form component at an order-one scale."""
    kind = kind or DENSITIES[rng.integers(len(DENSITIES))]
    if kind == "uniform":
        a = float(rng.uniform(0.0, 2.0))
        return ("uniform", a, a + float(rng.uniform(0.1, 3.0)))
    if kind == "exp":
        return ("exp", float(10.0 ** rng.uniform(-1.0, 1.0)))
    if kind == "gamma":
        return ("gamma", float(rng.uniform(0.5, 5.0)), float(10.0 ** rng.uniform(-1.0, 1.0)))
    return ("lognormal", float(rng.normal()), float(rng.uniform(0.2, 1.2)))


def discrete(rng: np.random.Generator, n: int, equal: bool | None = None) -> tuple:
    """n atoms from a skewed positive law; equal or Dirichlet weights."""
    xs = rng.lognormal(0.0, float(rng.uniform(0.3, 1.5)), size=n)
    if rng.random() < 0.1:
        xs[: max(1, n // 10)] = 0.0  # a block of zero incomes
    if equal is None:
        equal = bool(rng.random() < 0.5)
    ws = None if equal else rng.dirichlet(np.ones(n))
    return ("discrete", xs, ws)


NESTED_SHAPES = (
    ("exp", "atom"),
    ("uniform", "d5"),
    ("gamma", "lognormal"),
    ("lognormal", "atom", "uniform"),
    ("exp", ("gamma", "atom"), "d10"),
    ("uniform", "gamma", "atom", "exp"),
    ("gamma", ("uniform", "atom")),
    ("lognormal", "d20", "atom"),
    ("uniform", "exp"),
    ("gamma", "atom", "atom"),
    ("exp", ("lognormal", "d3")),
    ("lognormal", "gamma", "d8", "atom"),
    ("exp", "gamma", ("atom", "uniform")),
)


def nested(rng: np.random.Generator, shape: tuple) -> tuple:
    """A mixture of the given shape, e.g. ("exp", ("gamma", "atom"), "d10").

    Names are density kinds, "atom", or "dN" for N equal atoms; a tuple is an
    inner mixture. Parameters and Dirichlet weights come from `rng`.
    """
    parts = []
    for part in shape:
        if isinstance(part, tuple):
            parts.append(nested(rng, part))
        elif part == "atom":
            parts.append(("atom", float(rng.uniform(0.0, 4.0))))
        elif part.startswith("d"):
            parts.append(discrete(rng, int(part[1:]), equal=True))
        else:
            parts.append(density(rng, part))
    ws = rng.dirichlet(np.ones(len(parts)))
    return ("mix", tuple((float(w), p) for w, p in zip(ws, parts)))


def atom_rich(rng: np.random.Generator, n_atoms: int, kind: str | None = None) -> tuple:
    """A density plus tens to hundreds of separate Atom parts."""
    w = float(rng.uniform(0.2, 0.8))
    return ("mix", ((w, density(rng, kind)), (1.0 - w, discrete(rng, n_atoms, equal=True))))


def heavy_lognormal(rng: np.random.Generator, u: float) -> tuple:
    return ("lognormal", float(rng.normal()), 1.5 + 2.5 * u)


def far_atom(rng: np.random.Generator, u: float) -> tuple:
    """Order-one density plus an atom 1e4..1e12 out carrying 1e-12..1e-6."""
    eps = 10.0 ** -(6.0 + 6.0 * u)
    loc = 10.0 ** (4.0 + 8.0 * ((u * 7.0) % 1.0))
    return ("mix", ((1.0 - eps, density(rng)), (eps, ("atom", loc))))


def rescale_exponent(u: float) -> float:
    """k in [-12, 12] for a rescale by 10**k."""
    return -12.0 + 24.0 * u


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build(law: tuple, scale: float = 1.0) -> lk.Distribution:
    """The lorenzkit distribution of a law spec, optionally rescaled."""
    d = _build(law)
    return d if scale == 1.0 else d.rescaled(scale)


def _build(law: tuple) -> lk.Distribution:
    kind = law[0]
    if kind == "atom":
        return lk.atom(law[1])
    if kind == "uniform":
        return lk.uniform(law[1], law[2])
    if kind == "exp":
        return lk.exponential(law[1])
    if kind == "gamma":
        return lk.gamma_dist(law[1], law[2])
    if kind == "lognormal":
        return lk.lognormal(law[1], law[2])
    if kind == "discrete":
        return lk.discrete(law[1], law[2])
    if kind == "mix":
        return lk.mixture([(w, _build(p)) for w, p in law[1]])
    raise ValueError(f"unknown law kind {kind!r}")


def is_discrete(law: tuple) -> bool:
    kind = law[0]
    if kind == "mix":
        return all(is_discrete(p) for _, p in law[1])
    return kind in ("atom", "discrete")

