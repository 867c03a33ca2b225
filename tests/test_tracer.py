"""The benchmark's tracer (perfbench/tracer.py) wraps fracmean names by
attribute, so deleting or renaming one of them must fail the test suite, not
only a traced benchmark run."""

import importlib.util
from pathlib import Path

import fracmean.moments


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrapped_name():
    tracer = _load_tracer()
    sites = [(owner, attr) for owner, attr, _, _ in tracer._sites()] + [(fracmean.moments, "_mc_mean")]
    originals = [getattr(owner, attr) for owner, attr in sites]
    spans = tracer.Tracer()
    try:
        spans.install()
        assert all(getattr(owner, attr) is not orig for (owner, attr), orig in zip(sites, originals))
    finally:
        spans.uninstall()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(sites, originals))


def test_tracer_sees_every_monte_carlo_draw_and_reduction():
    # the Monte Carlo callers reach distributions._sample_with and
    # moments._mc_mean through their modules, where the tracer wraps them
    from fracmean import MCConfig, Poincare, PowerMeanSpec, Route, ScaledT3, bounds, power_mean_expectation

    tracing = _load_tracer()
    law, mc = Poincare(1.0, 0.0, 1.0), MCConfig(samples=3 * 4096 + 5, seed=1)
    spans = tracing.Tracer()
    spans.install()
    try:
        spans.root(0, lambda: power_mean_expectation(law, PowerMeanSpec(p=0.5, n=2), Route.MONTE_CARLO, mc=mc))
        # Poincare absolute moments sum a node rule; a real-line law draws
        spans.root(1, lambda: bounds._abs_moment(ScaledT3(0.0, 1.0), 0.5, mc))
    finally:
        spans.uninstall()
    metrics, _ = tracing.summarize(spans.spans, spans.held_peaks, 1)
    assert metrics["distributions.sample.poincare.draws"] == 2 * mc.samples  # n = 2
    assert metrics["distributions.sample.t3.draws"] == mc.samples
    assert metrics["moments.mc.calls"] == 2
    assert metrics["moments.mc.replications"] == 2 * mc.samples
