"""The benchmark's tracer finds every lorenzkit name it hooks.

`bench/tracing.py` patches layer entry points by name: component methods
such as ``measures.Atom.cdf``, `Distribution` methods, module functions
wherever they were imported. A rename in lorenzkit breaks it, and only a
traced benchmark run would show that. Here the tracer is loaded from its
file, installed and uninstalled, and run once over one W1 and one index
report, so a change to a hooked call's arguments (the W1 gap integrator's
``evaluate(points, br1, br2)``) shows here too.
"""

import importlib.util
import pathlib

import lorenzkit
from lorenzkit import exponential, gamma_dist, lognormal, measures, mixture, uniform

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lorenzkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_every_hook_and_uninstall_restores_the_originals():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
    # every component the tracer names was found and patched, the alias
    # measures.Atom of the one atom component included
    hooked = {(owner, attr) for owner, attr, _ in patched}
    for cname in tracing.COMPONENTS:
        cls = getattr(measures, cname)
        assert {(cls, m) for m in ("cdf", "pe", "quantile", "mass_at")} <= hooked
    assert (lorenzkit, "index_report") in hooked


def test_traced_w1_and_index_report_count_every_layer():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        d1 = mixture([(0.5, exponential(1.0)), (0.5, uniform(0.5, 2.0))])
        d2 = mixture([(0.3, lognormal(0.0, 1.0)), (0.7, gamma_dist(2.0, 0.5))])
        lorenzkit.w1_routes(d1, d2)
        lorenzkit.index_report(d2)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for key in (
        "wasserstein.gap_body.calls",
        "wasserstein.gap_body.cells",
        "wasserstein.q_within.points",
        "measures.inversion.calls",
    ):
        assert metrics[key][0] > 0, key
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
