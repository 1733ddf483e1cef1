"""Per-layer spans and counters, recorded from outside lorenzkit.

``Tracer.install()`` replaces lorenzkit's layer entry points with timing
wrappers where they are looked up: module globals in every module that
imported them by name, class attributes for methods, and the package
namespace the benchmark calls through. ``uninstall()`` puts the originals
back. Layers are named by module: measures, quadrature, lorenz, indices,
wasserstein, estimators.

A span's self time is its duration minus the time spent inside spans of
other layers nested in it, directly or under spans of its own layer, so each
layer's ``.s`` metric is time spent in that layer's own code. Component methods, distribution evaluations and KDE sums
are aggregated in place; every other span is kept in memory with its parent
link and the op it belongs to, and ``write_spans`` writes them out at the
end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import lorenzkit

COMPONENTS = ("Atom", "UniformDensity", "Exponential", "Gamma", "Lognormal", "QuantileTable")
KERNELS = ("gaussian", "uniform", "epanechnikov")
ROUTES = (
    "gini_mean_difference",
    "gini_dorfman",
    "gini_lorenz",
    "hoover_mean_deviation",
    "hoover_cdf",
    "hoover_max",
    "robin_hood_shares",
)
INVERSIONS = ("measures.inversion", "wasserstein.q_within")
_LIMIT_DEFAULTS = {"integrate": 4096, "cell_integrals": 16384}


def _module(name: str):
    # lorenzkit.lorenz is shadowed by the function of that name
    return sys.modules[f"lorenzkit.{name}"]


class Tracer:
    def __init__(self):
        self.op = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self._stack: list[list] = []  # [layer, child seconds, span id]
        self._inversions: list[str] = []  # open quantile inversions, innermost last
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _run(self, name: str, keep: bool, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [layer, 0.0, sid]
        self._stack.append(frame)
        inversion = name in INVERSIONS
        if inversion:
            self._inversions.append(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if inversion:
                self._inversions.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if parent is not None:
                # a same-layer parent inherits only the other-layer time inside
                parent[1] += dur if parent[0] != layer else frame[1]
            if keep:
                self.spans.append((sid, parent[2] if parent else -1, self.op, name, t0, t1))

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str, keep: bool = True, before=None, after=None):
        """Wrapper factory: a span named `name`, with optional count hooks."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                out = self._run(name, keep, fn, args, kwargs)
                if after is not None:
                    after(args, out)
                return out

            return wrapper

        return make

    # -- install -----------------------------------------------------------

    def install(self):
        measures, quadrature = _module("measures"), _module("quadrature")
        lorenz_mod, indices = _module("lorenz"), _module("indices")
        wasserstein, estimators = _module("wasserstein"), _module("estimators")
        count = self.count

        # measures: per-component point costs and evaluations per law
        for cname in COMPONENTS:
            cls = getattr(measures, cname)
            for meth in ("cdf", "pe", "quantile", "mass_at"):
                hook = self._points_hook(f"measures.{cname}.{meth}", 1, meth != "quantile")
                self._patch(cls, meth, self._span(f"measures.{cname}.{meth}", keep=False, before=hook))
        for meth in ("_cdf_arr", "_mass_arr", "partial_expectation"):
            hook = self._eval_hook(meth == "_cdf_arr")
            self._patch(measures.Distribution, meth, self._span("measures.eval", keep=False, before=hook))
        self._patch(
            measures.Distribution,
            "_bisect_quantile",
            self._span("measures.inversion", before=self._points_hook("measures.inversion", 1)),
        )

        # quadrature, patched where it was imported by name
        for fname in ("integrate", "cell_integrals"):
            for mod in (quadrature, measures, indices, lorenz_mod):
                if fname in mod.__dict__:
                    self._patch(mod, fname, self._quadrature(fname))

        # lorenz
        self._patch(
            lorenz_mod.LorenzCurve,
            "_eval_sorted",
            self._span("lorenz.eval", before=self._points_hook("lorenz.eval", 1)),
        )
        for mod in (lorenz_mod, indices, lorenzkit):
            self._patch(mod, "integral_lorenz", self._span("lorenz.integral_lorenz"))

        # indices
        for route in ROUTES:
            for mod in (indices, wasserstein, lorenzkit):
                if route in mod.__dict__:
                    self._patch(mod, route, self._span(f"indices.{route}"))

        def residual(args, report):
            key = "indices.route_residual_max"
            count[key] = max(count[key], report.max_cross_route_residual)

        for mod in (indices, lorenzkit):
            self._patch(mod, "index_report", self._span("indices.index_report", after=residual))

        # wasserstein
        for mod in (wasserstein, lorenzkit):
            self._patch(mod, "w1_routes", self._span("wasserstein.w1_routes"))
        self._patch(wasserstein, "_abs_gap_body", self._gap_body)
        self._patch(
            wasserstein,
            "_q_within",
            self._span("wasserstein.q_within", before=self._points_hook("wasserstein.q_within", 1)),
        )
        for mod in (wasserstein, estimators, lorenzkit):
            self._patch(mod, "sequence_diagnostics", self._span("wasserstein.sequence_diagnostics"))

        # estimators
        for mod in (estimators, lorenzkit):
            self._patch(mod, "run_experiment", self._span("estimators.run_experiment"))
        self._patch(measures.Distribution, "sample_rng", self._span("estimators.sample"))
        for meth in ("cdf", "pe"):

            def kde_make(fn, meth=meth):
                def wrapper(obj, x):
                    name = f"estimators.kde.{obj.kernel.name}.{meth}"
                    count[name + ".points"] += np.size(x)
                    return self._run(name, False, fn, (obj, x), {})

                return wrapper

            self._patch(estimators._CutKernelMixture, meth, kde_make)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks ---------------------------------------------------------------

    def _eval_hook(self, is_cdf: bool):
        """Count a law-level evaluation; a cdf call inside an inversion is a round."""

        def hook(args, kwargs):
            self.count["measures.evals"] += 1
            if is_cdf and self._inversions:
                self.count[self._inversions[-1] + ".rounds"] += 1

        return hook

    def _points_hook(self, name: str, index: int, component_call: bool = False):
        def hook(args, kwargs):
            self.count[name + ".points"] += np.size(args[index])
            if component_call:
                self.count["measures.component_calls"] += 1

        return hook

    def _quadrature(self, fname: str):
        name = f"quadrature.{fname}"
        count = self.count

        def make(fn):
            def wrapper(f, *args, **kwargs):
                state = {"rounds": 0, "live": 0.0}

                def integrand(x):
                    panels = np.size(x) / 15.0
                    count[name + ".panels"] += panels
                    state["live"] += panels if state["rounds"] == 0 else panels / 2.0
                    state["rounds"] += 1
                    return f(x)

                out = self._run(name, True, fn, (integrand,) + args, kwargs)
                count[name + ".rounds"] += state["rounds"]
                if state["live"] >= kwargs.get("limit", _LIMIT_DEFAULTS[fname]):
                    count[name + ".limit_hits"] += 1
                return out

            return wrapper

        return make

    def _gap_body(self, fn):
        count = self.count

        def wrapper(edges, evaluate, budget):
            state = {"depth": -1, "last": 0}

            def counted(points, br1, br2):
                state["depth"] += 1
                state["last"] = np.size(points) - 1 if br1 is None else 2 * np.size(points)
                count["wasserstein.gap_body.cells"] += state["last"]
                return evaluate(points, br1, br2)

            out = self._run("wasserstein.gap_body", True, fn, (edges, counted, budget), {})
            depth = max(state["depth"], 0)
            count["wasserstein.gap_body.max_depth"] = max(count["wasserstein.gap_body.max_depth"], depth)
            # the integrator stops on its cap at depth 47 or above 8192 live cells
            if depth >= 47 or state["last"] > 8192:
                count["wasserstein.gap_body.cap_hits"] += 1
            return out

        return wrapper

    # -- per-op rollback -----------------------------------------------------

    def checkpoint(self):
        return tuple(dict(d) for d in (self.calls, self.total_s, self.self_s, self.count)) + (len(self.spans),)

    def rollback(self, mark) -> None:
        """Forget everything recorded since `mark` (hooks hold these dicts)."""
        for d, saved in zip((self.calls, self.total_s, self.self_s, self.count), mark):
            d.clear()
            d.update(saved)
        del self.spans[mark[-1] :]

    # -- output --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, calls, self_s = self.count, self.calls, self.self_s
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit="count"):
            out[name] = (float(value), unit)

        def per_point(key):
            pts = c[key + ".points"]
            put(key + ".points", pts)
            put(key + ".ns_per_point", 1e9 * self_s[key] / pts if pts else 0.0, "ns")

        for comp in COMPONENTS:
            for meth in ("cdf", "pe", "quantile"):
                per_point(f"measures.{comp}.{meth}")
        evals = c["measures.evals"]
        put("measures.component_calls_per_eval", c["measures.component_calls"] / evals if evals else 0.0, "calls/eval")
        inv = "measures.inversion"
        put(inv + ".calls", calls[inv])
        put(inv + ".rounds", c[inv + ".rounds"])
        put(inv + ".points", c[inv + ".points"])
        put(inv + ".s", self_s[inv], "s")
        for fname in ("integrate", "cell_integrals"):
            key = f"quadrature.{fname}"
            put(key + ".calls", calls[key])
            for field in ("panels", "rounds", "limit_hits"):
                put(f"{key}.{field}", c[f"{key}.{field}"])
            put(key + ".s", self_s[key], "s")
        put("lorenz.eval.calls", calls["lorenz.eval"])
        put("lorenz.eval.points", c["lorenz.eval.points"])
        put("lorenz.eval.s", self_s["lorenz.eval"], "s")
        put("lorenz.integral_lorenz.s", self_s["lorenz.integral_lorenz"], "s")
        for route in ROUTES:
            put(f"indices.{route}.s", self_s[f"indices.{route}"], "s")
        put("indices.route_residual_max", c["indices.route_residual_max"], "1")
        put("wasserstein.w1_routes.calls", calls["wasserstein.w1_routes"])
        put("wasserstein.w1_routes.s", self_s["wasserstein.w1_routes"], "s")
        put("wasserstein.gap_body.calls", calls["wasserstein.gap_body"])
        for field in ("cells", "max_depth", "cap_hits"):
            put(f"wasserstein.gap_body.{field}", c[f"wasserstein.gap_body.{field}"])
        put("wasserstein.q_within.rounds", c["wasserstein.q_within.rounds"])
        put("wasserstein.q_within.points", c["wasserstein.q_within.points"])
        put("wasserstein.sequence_diagnostics.s", self_s["wasserstein.sequence_diagnostics"], "s")
        for kernel in KERNELS:
            for meth in ("cdf", "pe"):
                per_point(f"estimators.kde.{kernel}.{meth}")
        put("estimators.run_experiment.s", self_s["estimators.run_experiment"], "s")
        put("estimators.sample.s", self_s["estimators.sample"], "s")
        return out

    def span_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total seconds, self seconds), slowest self time first."""
        rows = [(n, self.calls[n], self.total_s[n], self.self_s[n]) for n in self.calls]
        return sorted(rows, key=lambda r: -r[3])

    def write_spans(self, path) -> None:
        """Kept spans as TSV, times in seconds from the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")
