"""Textual distribution expressions.

The grammar accepted everywhere a distribution can be named on the command
line or in an experiment file:

    expr    := atom(x) | uniform(a,b) | lognormal(m,s) | gamma(k,theta)
             | exp(rate) | mix(w1*expr1, ..., wk*exprk) | file:<path>
    numbers := ordinary decimal or scientific notation

Whitespace is free between tokens. Mixture weights must be positive and sum
to 1 within 1e-9. `file:<path>` loads a one-number-per-line sample and uses
its empirical law. Parse errors carry the character position.
"""

from __future__ import annotations

import re

from .estimators import empirical, read_sample_csv
from .measures import (
    Distribution,
    atom,
    exponential,
    gamma_dist,
    lognormal,
    mixture,
    uniform,
)

__all__ = ["parse_distribution", "format_mixture_of_atoms"]

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[a-z_]+")

#: the grammar's leaves: name -> (number of parameters, constructor)
_LEAVES = {
    "atom": (1, atom),
    "uniform": (2, uniform),
    "lognormal": (2, lognormal),
    "gamma": (2, gamma_dist),
    "exp": (1, exponential),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise ValueError(f"char {self.pos}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.fail(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.fail("expected a number")
        self.pos = m.end()
        return float(m.group(0))

    def expr(self) -> Distribution:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.fail("expected a distribution name")
        name = m.group(0)
        start = self.pos
        self.pos = m.end()
        if name == "mix":
            return self.mix(start)
        if name not in _LEAVES:
            self.pos = start
            self.fail(
                f"unknown distribution {name!r}; expected one of "
                + ", ".join([*_LEAVES, "mix"])
            )
        arity, make = _LEAVES[name]
        self.expect("(")
        params = [self.number()]
        for _ in range(arity - 1):
            self.expect(",")
            params.append(self.number())
        self.expect(")")
        try:
            return make(*params)
        except ValueError as ex:
            self.pos = start
            self.fail(str(ex))

    def mix(self, start: int) -> Distribution:
        self.expect("(")
        parts = []
        while True:
            w = self.number()
            self.expect("*")
            parts.append((w, self.expr()))
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        for w, _ in parts:
            if not w > 0.0:
                self.pos = start
                self.fail(f"mixture weights must be positive, got {w!r}")
        total = sum(w for w, _ in parts)
        if abs(total - 1.0) > 1e-9:
            self.pos = start
            self.fail(f"mixture weights must sum to 1, got {total!r}")
        try:
            return mixture([(w / total, d) for w, d in parts])
        except ValueError as ex:
            self.pos = start
            self.fail(str(ex))


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution expression or a ``file:<path>`` sample reference."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty distribution expression")
    stripped = text.strip()
    if stripped.startswith("file:"):
        path = stripped[len("file:"):].strip()
        if not path:
            raise ValueError("file: reference needs a path")
        return empirical(read_sample_csv(path))
    parser = _Parser(text)
    d = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail(f"unexpected trailing input {text[parser.pos:]!r}")
    return d


def format_mixture_of_atoms(d: Distribution) -> str:
    """Render a finite-discrete distribution back into the grammar."""
    support, weights = d.support_atoms()
    if support.size == 1:
        return f"atom({support[0]:.12g})"
    terms = ",".join(
        f"{w:.12g}*atom({v:.12g})" for v, w in zip(support, weights)
    )
    return f"mix({terms})"
