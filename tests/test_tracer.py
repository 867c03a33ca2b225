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
