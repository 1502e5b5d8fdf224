"""End-to-end benchmark of ``fedasync run``, with a traced per-layer run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the package is imported from its
``src/`` directory, never from an installed copy. One caller in this
process drives ``fedasync.cli.main(["run", ...])`` in a closed loop over
whole rounds of the workload's calls (see ``workloads.py``); the first
call is warm-up. Every call's output files are checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each call
twice, untraced then traced, and prints the per-layer metrics
(``tracing.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all``
runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import speed
from checks import CheckError, check_call
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SETUP_RUNS = 9
SETUP_REF_RUNS = 10

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from fedasync.cli import parse_config\n"
    "from fedasync.simulator import build_problem\n"
    "build_problem(parse_config(None, sys.argv[2:]).cfg)\n"
)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``kind`` "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(values) -> str:
    """Median, the highest of p90/p99/p99.9 with ten samples beyond it, and n."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    text = f"median {np.median(values):.6g}"
    for p in (99.9, 99.0, 90.0):
        if n >= 40 and n * (100.0 - p) / 100.0 >= 10:
            text += f", p{p:g} {np.percentile(values, p):.6g}"
            break
    return text + f", n={n}"


def measure_setup(wl, call_seed: int) -> tuple[float, float]:
    """Corrected and raw seconds from a fresh interpreter to a built problem.

    The median of ``SETUP_RUNS`` children, after one untimed run that
    fills the bytecode cache. The child runs on whichever core it gets,
    so one speed factor from the reference timed between all the
    children corrects the median; per-child brackets only added spread.
    """
    argv = [sys.executable, "-I", "-c", SETUP_CODE, SRC]
    argv += [f"{k}={v}" for k, v in wl.config.items()] + [f"seed={call_seed}"]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    walls, shares, refs = [], [], speed.time_reference(SETUP_REF_RUNS)
    for _ in range(SETUP_RUNS):
        cpu0 = speed.cpu_seconds()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append(time.perf_counter() - t0)
        shares.append((speed.cpu_seconds() - cpu0) / walls[-1])
        refs += speed.time_reference(SETUP_REF_RUNS)
    raw = statistics.median(walls)
    ref = [statistics.median(refs)]
    return speed.correct(raw, raw * statistics.median(shares), ref).corrected, raw


class Caller:
    """Makes the calls of one run and checks what each one wrote."""

    def __init__(self, wl, out_dir: str):
        self.wl = wl
        self.out_dir = out_dir
        self.bracket = speed.time_reference()
        self.first_files: dict[int, dict[str, bytes]] = {}
        self.first_result: dict[int, tuple[float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def call(self, call_seed: int, tracer=None):
        """One ``fedasync run``; returns ``(Timing, gradients, to_target)``,
        or None if the call failed."""
        from fedasync import cli

        out = os.path.join(self.out_dir, f"call{self._n:05d}")
        self._n += 1
        argv = self.wl.argv(out, call_seed)
        stdout = io.StringIO()

        def go():
            with contextlib.redirect_stdout(stdout):
                try:
                    if tracer is not None:
                        return tracer.span("cli.main", cli.main, argv)
                    return cli.main(argv)
                except (Exception, SystemExit) as exc:  # counted as a failed call
                    return exc

        self.attempted += 1
        rc, timing, self.bracket = speed.timed(go, self.bracket)
        files = {}
        if os.path.isdir(out):
            for name in os.listdir(out):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            shutil.rmtree(out)
        if rc != 0:
            self.failed += 1
            print(f"  call seed={call_seed} failed: {rc!r}", file=sys.stderr)
            return None
        try:
            if self.wl.in_process and call_seed in self.first_files:
                if files != self.first_files[call_seed]:
                    raise CheckError(f"seed {call_seed}: files differ from the first call's")
                result = self.first_result[call_seed]
            else:
                result = check_call(
                    self.wl.config, call_seed, files, stdout.getvalue(), self.wl.optimum_check
                )
                self.first_files.setdefault(call_seed, files)
                self.first_result.setdefault(call_seed, result)
        except CheckError as exc:
            self.problems.append(str(exc))
            print(f"  call seed={call_seed}: CHECK FAILED: {exc}", file=sys.stderr)
            return None
        return timing, result[0], result[1]


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = os.path.join(OUT, f"{wl.name}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        return _run_workload(wl, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_workload(wl, seed, seconds, trace, out_dir) -> dict:
    seeds = wl.call_seeds(seed)
    if not trace:
        setup, setup_raw = measure_setup(wl, seeds[0])
    caller = Caller(wl, out_dir)
    caller.call(seeds[0])  # warm-up, checked but not counted
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        for s in seeds:
            plain.append(caller.call(s))
            if tracer is not None:
                with tracer.installed():
                    traced.append(caller.call(s, tracer))
        rounds += 1
        if rounds == 1:
            # after a fixed amount of work, so that it does not depend on
            # how many rounds fit in the run (loopback runs leak a thread)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = time.perf_counter() - t0
    done = [c for c in plain if c is not None]
    if not done:
        raise SystemExit(f"{wl.name}: every counted call failed; no metric to report")
    rates = [g / t.corrected for t, g, _ in done]
    raw_rates = [g / t.wall for t, g, _ in done]
    print(
        f"{wl.name}: seed {seed}, {rounds} rounds, {caller.attempted} calls "
        f"({caller.failed} failed) in {elapsed:.1f} s"
    )
    print(f"  gradients_per_s corrected: {tail(rates)}; raw: {tail(raw_rates)}")
    refs_us = [t.reference * 1e6 for t, _, _ in done]
    q1, _, q3 = statistics.quantiles(refs_us, n=4) if len(refs_us) > 1 else (0.0, 0.0, 0.0)
    print(
        f"  reference us per call: {tail(refs_us)}, quartile spread "
        f"{(q3 - q1) / statistics.median(refs_us):.4f}; speed factor f: "
        + tail([t.speed for t, _, _ in done])
        + "; cpu share s: " + tail([t.cpu_share for t, _, _ in done])
    )
    if trace:
        traced_rates = [g / t.corrected for t, g, _ in (c for c in traced if c is not None)]
        overhead = 1.0 - statistics.median(traced_rates) / statistics.median(rates)
        metrics = tracer.metrics(wl.repeats * len(traced), overhead)
        units = declared_units("per_layer")
        for name, values in sorted(tracer.samples().items()):
            if len(values):
                print(f"  {name} ({units[name]}): {tail(values)}")
    else:
        metrics = {
            "setup_s": setup,
            "gradients_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
            "gradients_to_target": statistics.fmean(g for _, _, g in done),
        }
        print(f"  setup_s raw: {setup_raw:.4f} s (median of {SETUP_RUNS})")
        units = declared_units("end_to_end")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    return {
        "correct": not caller.problems,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
        if "metrics" not in result:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    print()
    for name, result in rows:
        cells = ", ".join(
            f"{m} {e['value']:.6g} {e['unit']}" for m, e in result["metrics"].items()
        )
        print(f"{name:18s} {result['attempted']:4d} calls, {result['failed']} failed: {cells}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedasync", "cli.py")):
        print(f"no fedasync sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fedasync

    if not os.path.abspath(fedasync.__file__).startswith(SRC + os.sep):
        print(f"fedasync imported from {fedasync.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    else:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
