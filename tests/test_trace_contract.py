"""The benchmark's tracer against the package it patches.

``bench/tracing.py`` wraps named functions of fedasync from outside and
reduces the spans to the per-layer metrics that ``bench/run.py --trace 1``
prints as one JSON line. A rename in ``src/`` breaks it, and a runner
that it cannot see leaves ``server.history_len_end`` as the median of
no runs: NaN, which is not JSON. These tests load the tracer by path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fedasync import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

SMALL = [
    "task=quadratic",
    "n_workers=2",
    "total_epochs=8",
    "repeats=1",
    "n_samples=40",
    "dim=3",
    "h_min=1",
    "h_max=3",
    "batch_size=4",
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_site_resolves(tracing):
    for name, owners, _ in tracing._sites():
        for owner, attr in owners:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


# sgd is left out: the tracer has no runner span for it
@pytest.mark.parametrize(
    "algorithm", ["fedasync-sampled", "fedasync-latency", "fedavg", "fedasync-net"]
)
def test_traced_run_gives_strict_json(tracing, tmp_path, algorithm):
    argv = ["run", "--out", str(tmp_path / "out"), f"algorithm={algorithm}", *SMALL]
    if algorithm == "fedavg":
        argv.append("k=2")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.span("cli.main", cli.main, argv) == 0
    metrics = tracer.metrics(1, 0.0)
    json.dumps(metrics, allow_nan=False)
    assert metrics["server.history_len_end"] >= 1
