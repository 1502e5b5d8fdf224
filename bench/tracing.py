"""Per-layer spans, recorded from outside the package.

``Tracer.installed()`` wraps the public functions of each fedasync module
and patches every wrapper in where the calling module looks the name up
(``from x import f`` copies the name, so a function is patched in each
module that imported it). Each wrapper records one span: its duration,
the part of it that child spans cover (so self time is the difference),
and one value read from the call's result. Spans nest per thread. They
are kept in memory, reduced to per-layer metrics by ``Tracer.metrics``.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

import fedasync.baselines as baselines
import fedasync.cli as cli
import fedasync.numerics as numerics
import fedasync.simulator as simulator
import fedasync.transport as transport
import fedasync.worker as worker

RUNNERS = (
    "runner.sampled", "runner.latency", "runner.fedavg", "runner.net_init", "runner.net_wait",
)
WRITERS = ("metrics.write_metrics_csv", "metrics.save_params")
# (metric, span, scale): timings reported as the median span duration
MEDIANS = (
    ("numerics.grad_us", "numerics.grad", 1e6),
    ("data.sample_us", "data.sample_minibatch", 1e6),
    ("data.build_problem_s", "data.build_problem", 1.0),
    ("server.apply_us", "server.apply_update", 1e6),
    ("simulator.eval_ms", "simulator.make_record", 1e3),
    ("transport.encode_us", "transport.encode", 1e6),
    ("cli.parse_config_ms", "cli.parse_config", 1e3),
)
# (metric, message type): worker-side waits, by the message that ended them
WAITS = (
    ("transport.trigger_wait_ms", "Trigger"),
    ("transport.pull_wait_ms", "PullResponse"),
    ("transport.ack_wait_ms", "PushAck"),
)


def _state_of(result):
    return getattr(result, "state", None)


def _sites():
    """``(span name, [(owner, attribute), ...], note)``; ``note(result)``
    gives the value kept with the span, or None."""
    objectives = (numerics.QuadraticObjective, numerics.LogisticObjective, numerics.MlpObjective)
    in_runners = (simulator, baselines, transport)
    return [
        ("numerics.loss", [(c, "loss") for c in objectives], None),
        ("numerics.grad", [(c, "grad") for c in objectives], None),
        ("numerics.accuracy", [(c, "accuracy") for c in objectives], None),
        ("data.sample_minibatch", [(worker, "sample_minibatch")], None),
        ("data.build_problem", [(m, "build_problem") for m in in_runners], None),
        (
            "worker.local_train",
            [(m, "local_train") for m in in_runners],
            lambda upd: upd.local_iters,
        ),
        ("server.apply_update", [(m, "apply_update") for m in (simulator, transport)], None),
        ("simulator.make_record", [(m, "make_record") for m in in_runners], None),
        ("runner.sampled", [(cli, "run_fedasync_sampled")], _state_of),
        ("runner.latency", [(cli, "run_fedasync_latency")], _state_of),
        ("runner.fedavg", [(cli, "run_fedavg")], _state_of),
        ("runner.net_init", [(transport.TransportServer, "__init__")], None),
        ("runner.net_wait", [(transport.TransportServer, "wait")], _state_of),
        ("transport.encode", [(transport, "encode")], len),
        ("transport.read_message", [(transport, "read_message")], lambda m: type(m).__name__),
        ("metrics.write_metrics_csv", [(cli, "write_metrics_csv")], None),
        ("metrics.save_params", [(cli, "save_params")], None),
        ("cli.parse_config", [(cli, "parse_config")], None),
    ]


class _Spans:
    """All spans of one name: durations, child-covered time, notes."""

    def __init__(self):
        self.dur = array("d")
        self.child = array("d")
        self.notes: list = []

    def __len__(self):
        return len(self.dur)


class Tracer:
    def __init__(self):
        self.spans: dict[str, _Spans] = {name: _Spans() for name, _, _ in _sites()}
        self.spans["cli.main"] = _Spans()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        spans = self.spans[name]
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.dur.append(dur)
                spans.child.append(frame[0])
                if note is not None:
                    spans.notes.append(None if result is None else note(result))

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn, None)(*args)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owners, note in _sites():
                for owner, attr in owners:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def samples(self) -> dict[str, np.ndarray]:
        """The samples behind each timing metric, in the metric's unit."""
        out = {metric: np.asarray(self.spans[span].dur) * scale for metric, span, scale in MEDIANS}
        train = self.spans["worker.local_train"]
        steps = np.asarray(train.notes, dtype=float)
        out["worker.step_us"] = np.asarray(train.dur) / steps * 1e6
        out["worker.step_self_us"] = (np.asarray(train.dur) - np.asarray(train.child)) / steps * 1e6
        reads = self.spans["transport.read_message"]
        for metric, kind in WAITS:
            out[metric] = np.array([d for d, k in zip(reads.dur, reads.notes) if k == kind]) * 1e3
        return out

    def metrics(self, repeats_run: int, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics over every traced call. A layer that made no
        call on this workload reads 0."""
        sp = self.spans

        def total(*names):
            return sum(float(np.sum(sp[n].dur)) for n in names)

        def self_time(*names):
            return total(*names) - sum(float(np.sum(sp[n].child)) for n in names)

        def per(x, base):
            return x / base if base else 0.0

        out = {name: float(np.median(v)) if len(v) else 0.0 for name, v in self.samples().items()}
        states = [s for n in RUNNERS for s in sp[n].notes if s is not None]
        epochs = sum(s.epoch for s in states)
        kgrad = sum(s.n_gradients for s in states) / 1000.0
        net_epochs = sum(s.epoch for s in sp["runner.net_wait"].notes if s is not None)
        fedavg_rounds = sum(s.epoch for s in sp["runner.fedavg"].notes if s is not None)
        runner_time = total(*RUNNERS)
        writer_time = total(*WRITERS)
        main_time = total("cli.main")
        kernels = len(sp["numerics.loss"]) + len(sp["numerics.grad"]) + len(sp["numerics.accuracy"])
        out.update({
            "numerics.kernel_calls_per_kgrad": per(kernels, kgrad),
            "data.sample_calls_per_kgrad": per(len(sp["data.sample_minibatch"]), kgrad),
            "server.accepted_per_push": per(epochs, epochs + sum(s.n_rejected for s in states)),
            "server.history_len_end": float(np.median([len(s.history) for s in states])),
            "simulator.eval_share": per(total("simulator.make_record"), runner_time),
            "simulator.loop_self_share": per(
                self_time("runner.sampled", "runner.latency"), runner_time
            ),
            "baselines.round_self_ms": per(self_time("runner.fedavg"), fedavg_rounds) * 1e3,
            "transport.frames_per_update": per(len(sp["transport.encode"]), net_epochs),
            "transport.bytes_per_update": per(float(sum(sp["transport.encode"].notes)), net_epochs),
            "metrics.write_ms_per_rep": per(writer_time, repeats_run) * 1e3,
            "cli.overhead_share": per(main_time - runner_time - writer_time, main_time),
            "trace.overhead_share": overhead_share,
        })
        return out
