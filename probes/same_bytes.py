"""Byte-compare what two source trees write, command by command.

    python3 probes/same_bytes.py OTHER_SRC

Runs one list of ``python -m fedasync`` commands twice, once with this
checkout's ``src/`` and once with ``OTHER_SRC`` (another tree's ``src/``,
such as a ``git archive`` copy of the parent commit), each command in a
subprocess whose ``PYTHONPATH`` is that tree:

* ``fedasync run`` for the five algorithms on the three tasks, with
  ``repeats=2``, ``jsonl=true`` and ``eval_every=1``, plus one MLP with
  ``hidden=105`` under the sampled mode and one under FedAvg with
  ``k=3``, and one latency run whose constant delays land pushes at tied
  times, rejected ones among them. ``fedasync-net`` runs one worker, the
  case whose order of events is fixed;
* ``fedasync compare --out`` over each task's five summaries;
* ``fedasync gen-data`` for each task;
* refusals, each of one configuration problem, that must exit 2 and
  write nothing: ``run`` with ``n_classes > dim``, with an ``eval_frac``
  that leaves no training row and with too few training rows to shard,
  and ``gen-data`` with an unknown key.

Each tree's commands run in a directory of their own, with the same
relative paths, and each command's exit status, stdout and stderr are
kept as files beside what it wrote. Prints the first file and line that
differ and exits 1, or prints how many files matched and exits 0 (1 if a
command exited otherwise than it should in both trees).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIZE = ["n_samples=200", "dim=8", "total_epochs=40", "eval_every=1", "h_min=1", "h_max=5",
        "batch_size=8", "repeats=2", "jsonl=true", "seed=3"]
TASKS = {  # the keys that shape each task's data
    "quadratic": ["task=quadratic"],
    "logistic": ["task=logistic"],
    "mlp": ["task=mlp", "n_classes=3"],
}
ALGORITHMS = {
    "fedasync-sampled": ["n_workers=4", "max_staleness=3"],
    "fedasync-latency": ["n_workers=4", "max_staleness=3", "compute_means=1.0,3.0"],
    "fedavg": ["n_workers=4", "k=2"],
    "sgd": ["n_workers=4"],
    "fedasync-net": ["n_workers=1", "max_staleness=0"],
}


REFUSALS = {  # name -> keys with one problem; the run writes nothing
    "refuse/n_classes": ["run", "algorithm=sgd", "task=mlp", "n_classes=12", "dim=10"],
    "refuse/eval_frac": ["run", "algorithm=sgd", "eval_frac=0.9999"],
    "refuse/shards": ["run", "algorithm=sgd", "n_workers=5000"],
    "refuse_data.txt": ["gen-data", "n_samples=20", "bogus=1"],
}


def commands() -> list[tuple[str, list[str]]]:
    """``(name, fedasync argv)`` in the order they run; ``name`` is the
    output path the command writes, relative to its tree's directory (a
    refusal's name is in :data:`REFUSALS`, and it writes nothing)."""
    out = []
    for task, task_keys in TASKS.items():
        for algorithm, keys in ALGORITHMS.items():
            name = f"run/{task}/{algorithm}"
            model = ["hidden=6"] if task == "mlp" else []
            out.append((name, ["run", "--out", name, f"algorithm={algorithm}",
                               *SIZE, *keys, *task_keys, *model]))
    wide = "run/mlp/hidden-105"
    out.append((wide, ["run", "--out", wide, "algorithm=fedasync-sampled", *SIZE,
                       "n_workers=4", "max_staleness=3", "task=mlp", "n_classes=3",
                       "hidden=105"]))
    wide = "run/mlp/fedavg-hidden-105"
    out.append((wide, ["run", "--out", wide, "algorithm=fedavg", *SIZE, "n_workers=4", "k=3",
                       "task=mlp", "n_classes=3", "hidden=105"]))
    ties = "run/quadratic/latency-ties"
    out.append((ties, ["run", "--out", ties, "algorithm=fedasync-latency", *SIZE, "n_workers=4",
                       "max_staleness=1", "delay_kind=constant", "compute_means=1.0,2.0",
                       "network_mean=0.0", "task=quadratic"]))
    for task in TASKS:
        summaries = [f"run/{task}/{algorithm}/summary.csv" for algorithm in ALGORITHMS]
        name = f"compare_{task}.csv"
        out.append((name, ["compare", *summaries, "--out", name]))
    for task, task_keys in TASKS.items():
        name = f"data_{task}.txt"
        out.append((name, ["gen-data", "--out", name, "n_samples=200", "dim=8", "seed=3",
                           *task_keys]))
    for name, (command, *keys) in REFUSALS.items():
        out.append((name, [command, "--out", name, *keys]))
    return out


def run_tree(src: str, workdir: str) -> list[str]:
    """Run every command with ``src`` first on the path; the names of those
    that exited otherwise than they should: non-zero, or a refusal not 2."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    os.makedirs(os.path.join(workdir, "run"))
    os.makedirs(os.path.join(workdir, "log"))
    failed = []
    for name, argv in commands():
        done = subprocess.run([sys.executable, "-m", "fedasync", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True)
        with open(os.path.join(workdir, "log", name.replace("/", "_")), "w") as fh:
            fh.write(f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
        if done.returncode != (2 if name in REFUSALS else 0):
            failed.append(name)
    return failed


def files_under(top: str) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), top) for d, _, names in os.walk(top) for f in names
    )


def first_difference(a_top: str, b_top: str) -> str | None:
    """Where the trees' outputs first differ, or None."""
    a_files, b_files = files_under(a_top), files_under(b_top)
    if a_files != b_files:
        only = sorted(set(a_files).symmetric_difference(b_files))
        return f"{only[0]}: written by one tree only"
    for rel in a_files:
        with open(os.path.join(a_top, rel), "rb") as fa, open(os.path.join(b_top, rel), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        a_lines, b_lines = a.splitlines(), b.splitlines()
        for n, (x, y) in enumerate(zip(a_lines, b_lines), start=1):
            if x != y:
                return f"{rel}:{n}\n  this: {x[:200]!r}\n  other: {y[:200]!r}"
        n = min(len(a_lines), len(b_lines)) + 1
        return f"{rel}:{n}: one file ends here ({len(a_lines)} against {len(b_lines)} lines)"
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    other = argv[0]
    if not os.path.isfile(os.path.join(other, "fedasync", "__init__.py")):
        print(f"{other!r} holds no fedasync package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        this_dir, other_dir = os.path.join(tmp, "this"), os.path.join(tmp, "other")
        failed = run_tree(os.path.join(ROOT, "src"), this_dir)
        run_tree(other, other_dir)
        diff = first_difference(this_dir, other_dir)
        if diff is not None:
            print(f"differ at {diff}")
            return 1
        if failed:  # the same failure in both trees compares nothing
            print(f"same bytes, but these exited wrongly in both trees: {', '.join(failed)}")
            return 1
        print(f"same bytes: {len(files_under(this_dir))} files from {len(commands())} commands")
        return 0


if __name__ == "__main__":
    sys.exit(main())
