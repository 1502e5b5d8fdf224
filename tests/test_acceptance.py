"""Acceptance gate: ten end-to-end criteria, one test each.

Covers the gradient oracle, the serial-SGD degenerate equivalence, the
staleness weighting formulas, the bounded-delay invariant, qualitative
orderings on surrogate tasks (staleness hurts, adaptive mixing helps,
async beats synchronous averaging), wire-protocol fuzzing, loopback
process equivalence, and byte-level determinism of emitted files. Wall
clock budgets are asserted so runtime regressions fail loudly.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd
from fedasync.cli import main, parse_config
from fedasync.numerics import (
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
)
from finite_diff import finite_diff_grad
from fedasync.server import ServerConfig, decay_factor, staleness_weight
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    build_problem,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.transport import (
    FrameError,
    OversizeFrameError,
    PullRequest,
    PullResponse,
    Push,
    PushAck,
    Shutdown,
    Trigger,
    UnknownTagError,
    decode,
    decode_frame,
    encode,
)
from fedasync.worker import WorkerConfig
from messages import same_message
from watch import watching


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = [
        (QuadraticObjective(6), 6, lambda r: r.standard_normal(24), 1e-5),
        (LogisticObjective(6, l2=0.25), 6,
         lambda r: r.integers(0, 2, 24).astype(float), 1e-5),
        (MlpObjective(4, 5, 3), 4, lambda r: r.integers(0, 3, 24), 1e-4),
    ]
    for objective, width, draw_targets, tol in cases:
        for _ in range(20):
            X = rng.standard_normal((24, width))
            y = draw_targets(rng)
            params = rng.standard_normal(objective.dim)
            analytic = objective.grad(params, X, y)
            numeric = finite_diff_grad(objective, params, X, y)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert rel < tol, f"{type(objective).__name__}: rel error {rel:.2e}"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_serial_sgd_equivalence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        task="quadratic",
        n_workers=1,
        total_epochs=500,
        server=ServerConfig(alpha=1.0, strategy="constant", max_staleness=0),
        worker=WorkerConfig(gamma=0.1, rho=0.0, h_min=1, h_max=1, batch_size=8),
        n_samples=80,
        dim=5,
        seed=11,
        eval_every=500,
    )
    with watching() as (serial, _):
        run_serial_sgd(cfg)
    with watching() as (fed, _):
        run_fedasync_sampled(cfg)
    assert len(serial) == len(fed) == 500
    for ours, ref in zip(fed, serial):
        assert np.max(np.abs(ours - ref)) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_staleness_weight_conformance():
    # with alpha=1 the mixing weight IS the bare decay family
    const = ServerConfig(alpha=1.0, strategy="constant")
    for s in range(101):
        assert staleness_weight(const, s) == decay_factor(const, s) == 1.0
    for a in (0.3, 0.5, 1.0, 2.0):
        poly = ServerConfig(alpha=1.0, strategy="polynomial", poly_a=a)
        for s in range(51):
            assert abs(staleness_weight(poly, s) - (s + 1.0) ** -a) <= 1e-15
    for a in (0.5, 2.0, 10.0):
        for b in (0, 2, 4, 10):
            hinge = ServerConfig(alpha=1.0, strategy="hinge", hinge_a=a, hinge_b=b)
            for s in range(51):
                want = 1.0 if s <= b else 1.0 / (a * (s - b) + 1.0)
                assert abs(staleness_weight(hinge, s) - want) <= 1e-15
    # non-unit alpha scales the decay without reshaping it
    scaled = ServerConfig(alpha=0.6, strategy="polynomial", poly_a=0.5)
    for s in range(51):
        assert staleness_weight(scaled, s) == 0.6 * decay_factor(scaled, s)
    # flat region of the hinge coincides with the constant weighting
    const = ServerConfig(alpha=0.9, strategy="constant")
    hinge = ServerConfig(alpha=0.9, strategy="hinge", hinge_a=10.0, hinge_b=4)
    for s in range(5):
        assert staleness_weight(hinge, s) == staleness_weight(const, s) == 0.9


def test_criterion_04_bounded_delay_invariant():
    t0 = time.perf_counter()
    meta = np.random.default_rng(404)
    for _ in range(100):
        n = int(meta.integers(2, 21))
        bound = int(meta.integers(0, 17))
        cfg = ExperimentConfig(
            task="quadratic",
            n_workers=n,
            total_epochs=40,
            server=ServerConfig(alpha=0.6, strategy="constant", max_staleness=bound),
            worker=WorkerConfig(gamma=0.05, rho=0.01, h_min=1, h_max=3, batch_size=4),
            n_samples=80,
            dim=4,
            seed=int(meta.integers(0, 2**31)),
            eval_every=1,
            delay=DelayModel(
                compute_means=[float(m) for m in meta.uniform(0.2, 2.0, size=n)],
                network_mean=0.1,
                kind="exponential",
            ),
        )
        with watching() as (_, applied):
            result = run_fedasync_latency(cfg)
        assert len(applied) == 40
        assert all(0 <= s <= bound for _, s in applied)
        assert [r.epoch for r in result.records] == list(range(41))
    assert time.perf_counter() - t0 < 60.0


def _staleness_cfg(seed, bound, strategy="constant", **knobs):
    # calibrated regime: mid-size minibatches keep gradient noise high
    # enough that stale mixing visibly widens the stationary error ball
    return ExperimentConfig(
        task="quadratic",
        n_workers=10,
        total_epochs=2000,
        server=ServerConfig(alpha=0.9, strategy=strategy, max_staleness=bound,
                            **knobs),
        worker=WorkerConfig(gamma=0.1, rho=0.005, h_min=5, h_max=15, batch_size=4),
        n_samples=1000,
        dim=10,
        noise_std=0.1,
        classes_per_device=1,
        seed=seed,
        eval_every=2000,
    )


def _mean_final_loss(make_cfg):
    finals = [run_fedasync_sampled(make_cfg(seed)).records[-1].loss
              for seed in range(10)]
    return float(np.mean(finals))


def test_criterion_05_staleness_slows_convergence():
    t0 = time.perf_counter()
    means = {}
    for bound in (0, 4, 16):
        means[bound] = _mean_final_loss(lambda s, b=bound: _staleness_cfg(s, b))
    assert means[0] <= means[4] <= means[16], means
    assert means[16] > means[0], means
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_adaptive_alpha_helps_at_high_staleness():
    t0 = time.perf_counter()
    const = _mean_final_loss(lambda s: _staleness_cfg(s, 16))
    poly = _mean_final_loss(
        lambda s: _staleness_cfg(s, 16, "polynomial", poly_a=0.5))
    hinge = _mean_final_loss(
        lambda s: _staleness_cfg(s, 16, "hinge", hinge_a=10.0, hinge_b=4))
    assert poly <= const, (poly, const)
    assert hinge <= const, (hinge, const)
    assert time.perf_counter() - t0 < 120.0


def _gradients_to_fraction(records, frac=0.1):
    target = records[0].loss * frac
    for record in records:
        if record.loss <= target:
            return record.gradients
    return None


def test_criterion_07_async_beats_fedavg_and_sgd_beats_both():
    t0 = time.perf_counter()
    async_wins = 0
    sgd_fastest = 0
    for seed in range(10):
        cfg = ExperimentConfig(
            task="logistic",
            n_workers=100,
            total_epochs=600,
            server=ServerConfig(alpha=0.6, strategy="constant", max_staleness=4),
            worker=WorkerConfig(gamma=0.5, rho=0.005, h_min=5, h_max=15,
                                batch_size=10),
            n_samples=1000,
            dim=10,
            sep=6.0,
            classes_per_device=2,
            seed=seed,
            eval_every=1,
        )
        problem = build_problem(cfg)
        fed = _gradients_to_fraction(
            run_fedasync_sampled(cfg, problem=problem).records)
        favg = _gradients_to_fraction(
            run_fedavg(replace(cfg, total_epochs=150), problem=problem,
                       favg=FedAvgConfig(k=10, local_steps=10)).records)
        sgd = _gradients_to_fraction(
            run_serial_sgd(replace(cfg, total_epochs=3000), problem=problem).records)
        assert fed is not None and favg is not None and sgd is not None
        async_wins += fed <= favg
        sgd_fastest += sgd <= min(fed, favg)
    assert async_wins >= 8, f"async at least as fast in {async_wins}/10 seeds"
    assert sgd_fastest >= 8, f"serial SGD fastest in {sgd_fastest}/10 seeds"
    assert time.perf_counter() - t0 < 300.0


def _random_message(rng):
    kind = int(rng.integers(0, 6))
    big = int(rng.integers(-(2**63), 2**63 - 1))
    small = int(rng.integers(0, 2**31))
    scale = 10.0 ** int(rng.integers(-300, 301))
    vec = rng.standard_normal(int(rng.integers(0, 33))) * scale
    if kind == 0:
        return Trigger(epoch=big)
    if kind == 1:
        return PullRequest(worker_id=small)
    if kind == 2:
        return PullResponse(epoch=big, params=vec)
    if kind == 3:
        return Push(worker_id=small, tau=big,
                    local_iters=int(rng.integers(0, 2**31)), params=vec)
    if kind == 4:
        return PushAck(accepted=bool(rng.integers(0, 2)), current_epoch=big)
    return Shutdown()


def test_criterion_08_wire_protocol_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(10_000):
        msg = _random_message(rng)
        assert same_message(decode(encode(msg)), msg)
    # non-finite and signed-zero payloads must survive bit-for-bit
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    out = decode(encode(PullResponse(params=specials, epoch=0)))
    assert out.params.tobytes() == specials.tobytes()

    with pytest.raises(UnknownTagError):
        decode(b"\x00\x00\x00\x01\x2a")
    with pytest.raises(FrameError):
        decode(b"\x00\x00\x00\x00")
    with pytest.raises(OversizeFrameError):
        decode(b"\xff\xff\xff\xff")
    frame = encode(Push(worker_id=1, tau=2, local_iters=4, params=np.ones(3)))
    for cut in range(len(frame)):
        assert decode_frame(frame[:cut]) is None
    with pytest.raises(FrameError):
        decode(frame[:-1])
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_loopback_matches_simulator(tmp_path):
    t0 = time.perf_counter()
    overrides = [
        "task=quadratic",
        "n_workers=1",
        "total_epochs=30",
        "max_staleness=0",
        "h_min=2",
        "h_max=4",
        "batch_size=8",
        "n_samples=80",
        "dim=5",
        "seed=7",
    ]
    out = tmp_path / "served"
    srv = subprocess.Popen(
        [sys.executable, "-m", "fedasync", "serve", "--bind", "127.0.0.1:0",
         "--out", str(out), "--timeout", "60"] + overrides,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = srv.stdout.readline().strip()
        assert line.startswith("listening "), line
        _, host, port = line.split()
        wrk = subprocess.run(
            [sys.executable, "-m", "fedasync", "worker", "--connect",
             f"{host}:{port}", "--worker-id", "0"] + overrides,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert wrk.returncode == 0, wrk.stderr
        _, err = srv.communicate(timeout=60)
    except BaseException:
        srv.kill()
        raise
    assert srv.returncode == 0, err

    spec = parse_config(None, ["algorithm=fedasync-sampled"] + overrides,
                        require_algorithm=False)
    sim = run_fedasync_sampled(spec.cfg)
    served = np.loadtxt(out / "final_params.txt", ndmin=1)
    assert np.max(np.abs(served - sim.final_params)) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    base = [
        "task=quadratic",
        "n_workers=4",
        "total_epochs=12",
        "n_samples=80",
        "dim=5",
        "h_min=2",
        "h_max=5",
        "batch_size=8",
        "repeats=2",
        "eval_every=4",
    ]
    serialized = [
        "task=quadratic",
        "n_workers=1",
        "total_epochs=8",
        "max_staleness=0",
        "n_samples=80",
        "dim=5",
        "h_min=2",
        "h_max=4",
        "batch_size=8",
        "repeats=2",
    ]
    variants = {
        "fedasync-sampled": base + ["max_staleness=2"],
        "fedasync-latency": base + ["max_staleness=2"],
        "fedasync-net": serialized,
        "fedavg": base + ["k=4"],
        "sgd": base,
    }
    for algo, overrides in variants.items():
        first = tmp_path / f"{algo}-a"
        second = tmp_path / f"{algo}-b"
        for out in (first, second):
            rc = main(["run", "--out", str(out), f"algorithm={algo}"] + overrides)
            assert rc == 0, algo
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "summary.csv" in names
        for name in names:
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, f"{algo}: {name} differs between reruns"
