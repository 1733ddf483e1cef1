"""Named distributions used across tests, scripts, and the CLI.

The battery spans the component algebra: pure atoms, finite discrete laws
(including the pair that shares a Hoover value while the Gini values split),
absolutely continuous families, and atom-plus-density mixtures.

Also here: the two mass-escape sequences used by the convergence
diagnostics. Both send mass 1/n^2 out to n^2 so the escaping lump carries
unit expectation at every step: quantile probes settle while the means stay
away from the limit mean, the signature the diagnostics must classify as
weak-only convergence.
"""

from __future__ import annotations

import math

from .measures import Distribution, _whole, atom, discrete, mixture, uniform
from .specs import parse_distribution

__all__ = [
    "standard_battery",
    "midpoint_atom_mixture",
    "three_group",
    "counterexample1_step",
    "counterexample2_step",
    "scenario_sequence",
    "SCENARIOS",
]


def midpoint_atom_mixture() -> Distribution:
    """Half a uniform on [0, 1], half an atom at its midpoint."""
    return mixture([(0.5, uniform(0.0, 1.0)), (0.5, atom(0.5))])


#: the battery's laws, each written once, in the grammar of the specs module
_BATTERY = (
    "atom(1)",
    "atom(2.5)",
    "mix(0.5*atom(0),0.5*atom(1))",
    "mix(0.25*atom(0),0.75*atom(1))",
    "mix(0.5*atom(0),0.25*atom(1),0.25*atom(3))",
    "mix(0.5*atom(0),0.5*atom(2))",
    "mix(0.75*atom(1),0.25*atom(2))",
    "mix(0.4*atom(0.5),0.3*atom(1),0.2*atom(2),0.1*atom(4))",
    "uniform(0,1)",
    "uniform(0.5,1.5)",
    "uniform(2,4)",
    "exp(1)",
    "exp(2)",
    "gamma(2,0.5)",
    "gamma(3,0.5)",
    "lognormal(0,0.5)",
    "lognormal(-0.125,0.5)",
    "mix(0.5*uniform(0,1),0.5*atom(0.5))",
    "mix(0.3*atom(0),0.7*exp(1))",
    "mix(0.2*atom(0),0.5*uniform(0,2),0.3*gamma(2,0.5))",
)


def standard_battery() -> list[tuple[str, Distribution]]:
    """Twenty named distributions covering every component combination,
    each the law its name parses to."""
    return [(name, parse_distribution(name)) for name in _BATTERY]


def three_group(h: float, alpha: float, mean: float = 1.0) -> Distribution:
    """Poorest share h at zero, middle at the mean, the rest pushed above.

    Hoover stays h for every alpha in [h, 1); the Gini moves with alpha as
    h + alpha h - h^2, sweeping the whole attainable range over the Hoover
    level as alpha runs from h toward 1. At alpha = h the middle group is
    empty and the law degenerates to the two-atom extremal case.
    """
    h = float(h)
    alpha = float(alpha)
    mean = float(mean)
    if not (0.0 < h < 1.0):
        raise ValueError("Hoover value must lie strictly between 0 and 1")
    if not (h <= alpha < 1.0):
        raise ValueError("alpha must lie in [h, 1)")
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError("mean must be positive and finite")
    top = mean * (1.0 + h / (1.0 - alpha))
    locations = [0.0, mean, top]
    weights = [h, alpha - h, 1.0 - alpha]
    keep = [(loc, w) for loc, w in zip(locations, weights) if w > 0.0]
    return discrete([loc for loc, _ in keep], [w for _, w in keep])


def counterexample1_step(n: int) -> Distribution:
    """Mass 1/n^2 escapes from 1 out to n^2; the rest sits at 1."""
    n = _whole("step parameter", n)
    if n < 2:
        raise ValueError("step parameter must be >= 2")
    u = 1.0 / (n * n)
    return discrete([1.0, float(n * n)], [1.0 - u, u])


def counterexample2_step(n: int) -> Distribution:
    """Half the mass at zero, a 1/n^2 lump escaping to n^2, the rest at 1."""
    n = _whole("step parameter", n)
    if n < 2:
        raise ValueError("step parameter must be >= 2")
    u = 1.0 / (n * n)
    return discrete([0.0, 1.0, float(n * n)], [0.5, 0.5 - u, u])


SCENARIOS = ("counterexample1", "counterexample2")


def scenario_sequence(
    name: str, steps: int = 50
) -> tuple[list[Distribution], Distribution]:
    """Built-in convergence scenarios: (sequence, candidate limit).

    Steps use n = 4k for k = 1..steps, so fifty steps end at n = 200.
    """
    steps = _whole("steps", steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ns = [4 * k for k in range(1, steps + 1)]
    if name == "counterexample1":
        return [counterexample1_step(n) for n in ns], atom(1.0)
    if name == "counterexample2":
        return [counterexample2_step(n) for n in ns], discrete([0.0, 1.0])
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
