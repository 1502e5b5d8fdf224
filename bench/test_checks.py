"""Tests for the benchmark's output checks.

    python3 -m pytest bench/test_checks.py

Each case runs a workload with two repetitions through ``fedasync run``,
shows that the real output passes, then alters one thing a faulty
program could get wrong and shows that the matching check rejects it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fedasync import cli  # noqa: E402

from checks import CheckError, check_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT = {"repeats": "2"}


def _run(tmp_path, name: str, seed: int = 3):
    wl = WORKLOADS[name]
    wl = replace(wl, config={**wl.config, **SHORT})
    out = str(tmp_path / name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(wl.argv(out, seed)) == 0
    files = {}
    for fname in os.listdir(out):
        with open(os.path.join(out, fname), "rb") as fh:
            files[fname] = fh.read()
    return wl, seed, files, stdout.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes(tmp_path, name):
    wl, seed, files, stdout = _run(tmp_path, name)
    gradients, to_target = check_call(wl.config, seed, files, stdout, wl.optimum_check)
    assert gradients > 0 and to_target > 0


@pytest.mark.parametrize("name", ["sampled-quad", "latency-mlp-eval"])
def test_perturbed_params_fail_the_loss_check(tmp_path, name):
    wl, seed, files, stdout = _run(tmp_path, name)
    lines = files["rep001_params.txt"].decode("ascii").splitlines()
    lines[3] = repr(float(lines[3]) + 1e-3)
    files["rep001_params.txt"] = ("\n".join(lines) + "\n").encode("ascii")
    with pytest.raises(CheckError, match="recomputed from params"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def _edit_last_row(files, column: str, value: str) -> None:
    text = files["rep000.csv"].decode("ascii").splitlines()
    names = cli.CSV_HEADER.split(",")
    fields = text[-1].split(",")
    fields[names.index(column)] = value
    text[-1] = ",".join(fields)
    files["rep000.csv"] = ("\n".join(text) + "\n").encode("ascii")


def test_staleness_above_bound_fails(tmp_path):
    wl, seed, files, stdout = _run(tmp_path, "sampled-quad")
    bound = int(wl.config["max_staleness"])
    _edit_last_row(files, "staleness", str(bound + 1))
    with pytest.raises(CheckError, match="staleness"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def test_wrong_mixing_weight_fails(tmp_path):
    wl, seed, files, stdout = _run(tmp_path, "latency-mlp-eval")
    _edit_last_row(files, "alpha_t", repr(float(wl.config["alpha"]) * 0.5))
    with pytest.raises(CheckError, match="alpha_t"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def test_gradient_count_off_by_one_fails_for_fedavg(tmp_path):
    wl, seed, files, stdout = _run(tmp_path, "fedavg-mlp-rounds")
    text = files["rep000.csv"].decode("ascii").splitlines()
    last = int(text[-1].split(",")[1])
    _edit_last_row(files, "gradients", str(last + 1))
    with pytest.raises(CheckError, match="gradients"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def test_loss_far_above_least_squares_optimum_fails(tmp_path):
    import numpy as np

    from checks import quadratic_loss, split

    wl, seed, files, stdout = _run(tmp_path, "sampled-quad")
    X, y, _, _ = split(wl.config, seed)
    zeros = np.zeros(X.shape[1])
    files["rep000_params.txt"] = b"0.0\n" * X.shape[1]
    _edit_last_row(files, "loss", repr(quadratic_loss(zeros, X, y)))
    with pytest.raises(CheckError, match="optimum"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def test_summary_that_is_not_the_mean_fails(tmp_path):
    wl, seed, files, stdout = _run(tmp_path, "sampled-quad")
    text = files["summary.csv"].decode("ascii").splitlines()
    fields = text[-1].split(",")
    fields[2] = repr(float(fields[2]) * 1.01)
    text[-1] = ",".join(fields)
    files["summary.csv"] = ("\n".join(text) + "\n").encode("ascii")
    with pytest.raises(CheckError, match="summary"):
        check_call(wl.config, seed, files, stdout, wl.optimum_check)


def test_tracer_records_spans_and_restores_the_package(tmp_path):
    import json

    import fedasync.simulator as simulator
    from tracing import Tracer

    wl = WORKLOADS["sampled-quad"]
    wl = replace(wl, config={**wl.config, "total_epochs": "50", "repeats": "1"})
    original = simulator.local_train
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert simulator.local_train is not original
        assert tracer.span("cli.main", cli.main, wl.argv(str(tmp_path / "out"), 3)) == 0
    assert simulator.local_train is original
    steps = sum(tracer.spans["worker.local_train"].notes)
    rows = 1 + 50 // int(wl.config["eval_every"])
    assert len(tracer.spans["numerics.grad"]) == steps + rows  # one per step and per eval row
    assert len(tracer.spans["data.sample_minibatch"]) == steps
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = tracer.metrics(repeats_run=1, overhead_share=0.0)
    assert set(metrics) == declared
    assert metrics["server.history_len_end"] == int(wl.config["max_staleness"]) + 1
