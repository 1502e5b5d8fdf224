"""Page faults and system time of evaluation rows and of whole calls.

    python3 probes/eval_faults.py [--src DIR] [--workload NAME] [--rows N] [--calls N]

Builds the problem of one benchmark workload (its ``fedasync run`` config
from ``bench/workloads.py``) with the package found in ``--src`` (default:
this checkout's ``src/``), so one probe compares two trees. It then times
``--rows`` evaluation rows (``simulator.make_record``) on two models in
turn, as a run's rows see a new model each time, and ``--calls`` whole
``fedasync run`` calls of the workload after one warm-up call. Each part
reads ``resource.getrusage`` before and after: minor page faults and
system CPU time. Prints one JSON object: per row and per call, the mean
wall time, minor faults and system time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_minflt, ru.ru_stime


def _per(before, after, count):
    wall, faults, stime = (b - a for a, b in zip(before, after))
    return {"wall_us": wall / count * 1e6, "minflt": faults / count, "stime_us": stime / count * 1e6}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--workload", default="fedavg-mlp-rounds")
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--calls", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import numpy as np

    from fedasync import cli
    from fedasync.server import ServerState
    from fedasync.simulator import build_problem, make_record
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tokens = [f"{k}={v}" for k, v in wl.config.items()]
    problem = build_problem(cli.parse_config(None, tokens).cfg)
    rng = np.random.default_rng(0)
    states = [ServerState.create(problem.x0 + 0.1 * rng.standard_normal(problem.x0.shape))
              for _ in range(2)]
    for state in states:  # warm-up
        make_record(problem, state, 0.0)
    before = _usage()
    for i in range(args.rows):
        make_record(problem, states[i % 2], 0.0)
    rows = _per(before, _usage(), args.rows)

    out = tempfile.mkdtemp(prefix="eval_faults-")
    try:
        def call(n):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(wl.argv(os.path.join(out, f"call{n}"), wl.call_seeds(0)[0]))

        call(0)  # warm-up
        before = _usage()
        for n in range(1, args.calls + 1):
            call(n)
        calls = _per(before, _usage(), args.calls)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"src": os.path.abspath(args.src), "workload": wl.name,
                      "rows": args.rows, "per_row": rows, "calls": args.calls,
                      "per_call": calls}))


if __name__ == "__main__":
    main()
