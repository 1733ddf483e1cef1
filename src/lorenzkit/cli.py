"""Batch command line front end.

Five subcommands: ``index`` (all index routes for one distribution),
``lorenz`` (curve table, optionally with Kendall points), ``w1`` (distance
between two distributions), ``converge`` (run a convergence experiment or a
built-in scenario and write report files), ``extremal`` (attainable Gini
range at a fixed Hoover value, optionally with the extremal two-atom law).

Distributions are given in the grammar of the specs module, including
``file:<path>`` samples. Exit codes: 0 on success, 1 for usage and parse
problems, 2 when the mathematics rejects the input (zero or infinite mean)
or a cross-route check fails. Output is byte-deterministic: JSON carries 17
significant digits, TSV 12.

Each subcommand but ``converge`` builds one payload and writes it through
`_write`: JSON under ``--json``, TSV under ``--tsv``, its own text
otherwise (``index`` has none and writes JSON), to ``--out`` or stdout.
``converge`` writes its report files, ``--out`` the base of their names,
and its verdict to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .catalog import SCENARIOS, scenario_sequence
from .estimators import ExperimentSpec, run_experiment
from .indices import (
    extremal_bimodal,
    gini_mean_difference,
    gini_range_given_hoover,
    hoover_mean_deviation,
    index_report,
)
from .lorenz import kendall_points, lorenz, pseudo_lorenz
from .measures import MeanDomainError
from .quadrature import _unique
from .specs import format_mixture_of_atoms, parse_distribution
from .wasserstein import sequence_diagnostics, w1_routes

__all__ = ["main", "build_parser"]


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _f12(x: float) -> str:
    return f"{float(x):.12g}"


def _json_text(value) -> str:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        return _f17(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_text(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _tsv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _f12(value)
    return str(value)


def _tsv_text(rows) -> str:
    return "\n".join("\t".join(_tsv_cell(c) for c in row) for row in rows) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(args, payload, text: str | None = None, tsv=None) -> None:
    """Write a subcommand's output to --out or stdout: the rows `tsv` under
    --tsv, the JSON of `payload` under --json or when the subcommand has no
    `text` form, else `text`. A subcommand whose --tsv is its text passes no
    rows."""
    if args.tsv and tsv is not None:
        text = _tsv_text(tsv)
    elif args.json or text is None:
        text = _json_text(payload) + "\n"
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_index(args) -> int:
    report = index_report(parse_distribution(args.spec))
    payload = report.to_json_dict()
    rows = [(k, v) for k, v in payload.items() if k != "residuals"]
    rows.extend((f"residual_{k}", v) for k, v in payload["residuals"].items())
    _write(args, payload, tsv=rows)
    tol = args.tol if args.tol is not None else 1e-4
    if report.max_cross_route_residual > tol:
        print(
            f"error: cross-route residual {report.max_cross_route_residual:.3e} "
            f"exceeds tolerance {tol:g}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_lorenz(args) -> int:
    if args.res < 2:
        raise ValueError("--res must be at least 2")
    d = parse_distribution(args.spec)
    ps = np.linspace(0.0, 1.0, args.res + 1)
    lvals, pvals = np.asarray(lorenz(d).eval(ps)), np.asarray(pseudo_lorenz(d, ps))
    rows = [[float(p), float(a), float(b)] for p, a, b in zip(ps, lvals, pvals)]
    payload = {"mean": d.mean, "columns": ["p", "lorenz", "pseudo_lorenz"], "rows": rows}
    text = f"# mean {_f12(d.mean)}\n" + _tsv_text([payload["columns"], *rows])
    if args.kendall:
        ts = _unique(np.concatenate([d._quantile_arr(ps[ps < 1.0]), d.x_breakpoints()]))
        payload["kendall"] = [[x, y] for x, y in kendall_points(d, ts)]
        text += "\n# kendall points\n" + _tsv_text([("F", "share"), *payload["kendall"]])
    _write(args, payload, text)
    return 0


def _cmd_w1(args) -> int:
    d1 = parse_distribution(args.spec_a)
    d2 = parse_distribution(args.spec_b)
    by_quantile, by_cdf = w1_routes(d1, d2)
    if args.tol is not None and abs(by_quantile - by_cdf) > args.tol:
        print(
            f"error: W1 routes differ by {abs(by_quantile - by_cdf):.3e}, "
            f"more than --tol {args.tol:g}",
            file=sys.stderr,
        )
        return 2
    routes = [("quantile_route", by_quantile), ("cdf_route", by_cdf)]
    shown = routes if args.verbose else []
    text = _f17(by_quantile) + "\n" + "".join(f"{k}\t{_f17(v)}\n" for k, v in shown)
    _write(args, {"w1": by_quantile, **dict(routes)}, text, [("w1", by_quantile), *shown])
    return 0


def _cmd_converge(args) -> int:
    rel_tol = args.tol if args.tol is not None else 0.05
    if args.target in SCENARIOS:
        seq, limit = scenario_sequence(args.target, args.steps)
        report = sequence_diagnostics(seq, limit, rel_tol=rel_tol)
    else:
        try:
            with open(args.target, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            raise ValueError(
                f"{args.target!r} is neither a built-in scenario "
                f"({', '.join(SCENARIOS)}) nor a readable experiment file"
            ) from None
        try:
            spec = ExperimentSpec.from_json(text)
        except (json.JSONDecodeError, TypeError) as ex:
            raise ValueError(f"{args.target}: bad experiment spec: {ex}") from None
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.tol is not None:
            spec = replace(spec, rel_tol=args.tol)
        report = run_experiment(spec)
    base = args.out or "convergence_report"
    written = []
    if not args.tsv:
        written.append(f"{base}.json")
        _emit(_json_text(report.to_json_dict()) + "\n", written[-1])
    if not args.json:
        written.append(f"{base}.tsv")
        _emit(_tsv_text(report.tsv_rows()), written[-1])
    print(f"verdict: {report.verdict}")
    print(f"# {report.deciding_diagnostic}")
    for path in written:
        print(f"# wrote {path}")
    return 0


def _cmd_extremal(args) -> int:
    low, high = gini_range_given_hoover(args.h)
    payload = {"hoover": float(args.h), "gini_low": low, "gini_high_exclusive": high}
    text = f"[{_f12(low)}, {_f12(high)})\n"
    if args.alpha is not None:
        d = extremal_bimodal(args.h, args.mean, args.alpha)
        spec_text = format_mixture_of_atoms(d)
        g, hv = gini_mean_difference(d), hoover_mean_deviation(d)
        payload.update({"distribution": spec_text, "gini": g, "hoover": hv})
        text += f"{spec_text}\nG = {_f12(g)}\nH = {_f12(hv)}\n"
    else:
        text += "# upper bound open: the supremum is approached, not attained\n"
    _write(args, payload, text)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _bound(text: str) -> float:
    """A residual bound for --tol: >= 0 or inf; under a NaN bound every check passes."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _rel_tol(text: str) -> float:
    """A verdict rel_tol for --tol: finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _output_flags(p: argparse.ArgumentParser, tsv: bool = True) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    if tsv:
        fmt.add_argument("--tsv", action="store_true", help="emit TSV")
    else:
        p.set_defaults(tsv=False)
    p.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzkit",
        description="Inequality indices, Lorenz curves, and W1 diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="all index routes, as a report")
    p.add_argument("spec", help="distribution expression or file:<path>")
    p.add_argument(
        "--tol", type=_bound, default=None, help="cross-route residual bound (default 1e-4)"
    )
    _output_flags(p)
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("lorenz", help="Lorenz curve table")
    p.add_argument("spec", help="distribution expression or file:<path>")
    p.add_argument("--res", type=int, default=100, help="number of grid cells")
    p.add_argument(
        "--kendall", action="store_true", help="append the Kendall point block"
    )
    _output_flags(p)
    p.set_defaults(handler=_cmd_lorenz)

    p = sub.add_parser("w1", help="Wasserstein-1 distance")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument(
        "--verbose", action="store_true", help="also print both route values"
    )
    p.add_argument("--tol", type=_bound, default=None, help="bound on the route gap")
    _output_flags(p)
    p.set_defaults(handler=_cmd_w1)

    p = sub.add_parser("converge", help="run a convergence experiment")
    p.add_argument(
        "target",
        help=f"experiment JSON path or one of: {', '.join(SCENARIOS)}",
    )
    p.add_argument(
        "--steps", type=int, default=50, help="steps for built-in scenarios"
    )
    p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--tol", type=_rel_tol, default=None, help="verdict rel_tol")
    _output_flags(p)
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("extremal", help="attainable Gini range for a Hoover value")
    p.add_argument("h", type=float, help="Hoover value in (0, 1)")
    p.add_argument(
        "--alpha", type=float, default=None, help="poor-group share in [h, 1)"
    )
    p.add_argument("--mean", type=float, default=1.0, help="mean of the extremal law")
    _output_flags(p, tsv=False)
    p.set_defaults(handler=_cmd_extremal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 1
    try:
        return args.handler(args)
    except (MeanDomainError, RuntimeError) as ex:  # before ValueError, its base
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
