"""Experiment front end.

Subcommands: ``run`` (R seeded repetitions of any algorithm, metrics +
summary files), ``compare`` (align summaries on the gradients axis),
``serve`` / ``worker`` (the TCP deployment), and ``gen-data`` (write a
dataset to a text file). Configuration is a flat ``key=value`` text
file; the same ``key=value`` tokens on the command line override it.
Every emitted file carries the fully resolved configuration as ``#``
header comments. A configuration problem ends any subcommand with exit
status 2 and every problem listed (caught once, in :func:`main`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd
from fedasync.data import gen_classification, gen_regression, save_dataset
from fedasync.metrics import (
    CSV_HEADER,  # not used here; bench/test_checks.py reads cli.CSV_HEADER
    FIELDS,
    MetricsRecord,
    cell,
    read_csv,
    save_params,
    write_csv,
    write_metrics_csv,
    write_metrics_jsonl,
)
from fedasync.server import STRATEGIES, ServerConfig
from fedasync.simulator import (
    DELAY_KINDS,
    DelayModel,
    ExperimentConfig,
    RunFailure,
    RunResult,
    TASKS,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.transport import TransportServer, worker_loop
from fedasync.worker import DivergenceError, WorkerConfig

ALGORITHMS = ("fedasync-sampled", "fedasync-latency", "fedasync-net", "fedavg", "sgd")

# One row per configuration key: (kind, default). Kind drives parsing;
# "auto" defaults are resolved after the whole map is known.
KEYS: dict[str, tuple[str, object]] = {
    "algorithm": ("algorithm", None),
    "task": ("choice:" + ",".join(TASKS), "quadratic"),
    "n_workers": ("int", 10),
    "total_epochs": ("int", 200),
    "seed": ("int", 0),
    "repeats": ("int", 10),
    "eval_every": ("int", 1),
    "n_samples": ("int", 1000),
    "dim": ("int", 10),
    "n_classes": ("int", 2),
    "sep": ("float", 3.0),
    "noise_std": ("float", 0.1),
    "hidden": ("int", 16),
    "eval_frac": ("float", 0.2),
    "classes_per_device": ("int", 0),
    "alpha": ("float", 0.6),
    "strategy": ("choice:" + ",".join(STRATEGIES), "constant"),
    "poly_a": ("float", 0.5),
    "hinge_a": ("float", 10.0),
    "hinge_b": ("int", 4),
    "max_staleness": ("int", 4),
    "gamma": ("float", 0.1),
    "rho": ("float", 0.005),
    "h_min": ("int", 5),
    "h_max": ("int", 15),
    "batch_size": ("batch", "auto"),
    "k": ("int", 10),
    "local_steps": ("auto_int", "auto"),
    "delay_kind": ("choice:" + ",".join(DELAY_KINDS), "exponential"),
    "compute_means": ("floats", [1.0]),
    "network_mean": ("float", 0.1),
    "threshold_frac": ("float", 0.1),
    "jsonl": ("bool", False),
}


class ConfigError(Exception):
    """All configuration problems found in one pass, reported together."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems)
        )


@dataclass
class RunSpec:
    """A fully validated experiment request."""

    algorithm: str | None
    cfg: ExperimentConfig
    repeats: int
    favg: FedAvgConfig
    threshold_frac: float
    jsonl: bool
    resolved: dict[str, str]  # provenance header: every key, final value


def _parse_raw(key: str, raw: str, problems: list[str]):
    kind = KEYS[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "batch":
            if raw in ("full", "auto"):
                return raw
            return int(raw)
        if kind == "auto_int":
            return "auto" if raw == "auto" else int(raw)
        if kind == "floats":
            return [float(tok) for tok in raw.split(",") if tok]
        if kind == "algorithm":
            if raw not in ALGORITHMS:
                problems.append(
                    f"algorithm must be one of {', '.join(ALGORITHMS)}; got {raw!r}"
                )
                return None
            return raw
        if kind.startswith("choice:"):
            choices = kind.split(":", 1)[1].split(",")
            if raw not in choices:
                problems.append(
                    f"{key} must be one of {', '.join(choices)}; got {raw!r}"
                )
                return None
            return raw
    except (TypeError, ValueError):
        problems.append(f"{key}: cannot parse {raw!r} as {kind.split(':')[0]}")
        return None
    raise AssertionError(f"unhandled kind {kind}")


def _read_config_file(path: str, problems: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    problems.append(f"{path}:{line_no}: expected key=value, got {line!r}")
                    continue
                out[key.strip()] = value.strip()
    except OSError as exc:
        problems.append(f"cannot read config file {path}: {exc}")
    return out


def _range_checks(v: dict, explicit: set[str], problems: list[str]) -> None:
    def bad(key, msg):
        problems.append(f"{key}: {msg} (got {v[key]!r})")

    if v["alpha"] is not None and not 0.0 < v["alpha"] <= 1.0:
        bad("alpha", "must be in (0, 1]")
    for key in ("gamma", "rho", "noise_std", "network_mean"):
        if v[key] is not None and v[key] < 0:
            bad(key, "must be >= 0")
    for key in ("sep", "poly_a", "hinge_a", "threshold_frac"):
        if v[key] is not None and v[key] <= 0:
            bad(key, "must be > 0")
    for key in (
        "n_workers",
        "total_epochs",
        "repeats",
        "eval_every",
        "n_samples",
        "dim",
        "hidden",
        "k",
    ):
        if v[key] is not None and v[key] < 1:
            bad(key, "must be >= 1")
    for key in ("hinge_b", "max_staleness", "classes_per_device"):
        if v[key] is not None and v[key] < 0:
            bad(key, "must be >= 0")
    if v["n_classes"] is not None and v["n_classes"] < 2:
        bad("n_classes", "must be >= 2")
    if v["eval_frac"] is not None and not 0.0 < v["eval_frac"] < 1.0:
        bad("eval_frac", "must be in (0, 1)")
    if v["h_min"] is not None and v["h_max"] is not None and not 1 <= v["h_min"] <= v["h_max"]:
        problems.append(f"h_min/h_max: need 1 <= h_min <= h_max (got {v['h_min']}, {v['h_max']})")
    if isinstance(v["batch_size"], int) and v["batch_size"] < 1:
        bad("batch_size", "must be >= 1, 'full', or 'auto'")
    if isinstance(v["local_steps"], int) and v["local_steps"] < 1:
        bad("local_steps", "must be >= 1 or 'auto'")
    if v["compute_means"] is not None:
        if not v["compute_means"]:
            bad("compute_means", "needs at least one value")
        elif any(m < 0 for m in v["compute_means"]):
            bad("compute_means", "all values must be >= 0")


def _consistency_checks(v: dict, explicit: set[str], problems: list[str]) -> None:
    algo = v.get("algorithm")
    strategy = v["strategy"]
    if strategy != "polynomial" and "poly_a" in explicit:
        problems.append(f"poly_a is only meaningful with strategy=polynomial (strategy={strategy})")
    if strategy != "hinge" and ("hinge_a" in explicit or "hinge_b" in explicit):
        problems.append(f"hinge_a/hinge_b are only meaningful with strategy=hinge (strategy={strategy})")
    if strategy == "hinge" and "hinge_b" not in explicit:
        problems.append("strategy=hinge requires an explicit hinge_b")
    task = v["task"]
    if task == "quadratic":
        for key in ("sep", "n_classes", "hidden"):
            if key in explicit:
                problems.append(f"{key} does not apply to the quadratic task")
    else:
        if "noise_std" in explicit:
            problems.append(f"noise_std does not apply to the {task} task")
        if task == "logistic" and "hidden" in explicit:
            problems.append("hidden does not apply to the logistic task")
        if task == "logistic" and "n_classes" in explicit and v["n_classes"] != 2:
            problems.append(f"task=logistic is binary; n_classes must be 2 (got {v['n_classes']})")
    if algo is not None:
        if algo != "fedavg":
            for key in ("k", "local_steps"):
                if key in explicit:
                    problems.append(f"{key} only applies to algorithm=fedavg (algorithm={algo})")
        if algo != "fedasync-latency":
            for key in ("delay_kind", "compute_means", "network_mean"):
                if key in explicit:
                    problems.append(
                        f"{key} only applies to algorithm=fedasync-latency (algorithm={algo})"
                    )
        if algo in ("fedavg", "sgd") and "max_staleness" in explicit:
            problems.append(f"max_staleness does not apply to algorithm={algo}")


def parse_config(
    config_path: str | None,
    overrides: list[str],
    require_algorithm: bool = True,
) -> RunSpec:
    """Merge defaults, file entries, and overrides into a RunSpec.

    Every problem found (unknown key, bad value, out-of-range value,
    inconsistent combination) is collected and reported in one
    :class:`ConfigError`.
    """
    problems: list[str] = []
    raw: dict[str, str] = {}
    if config_path is not None:
        raw.update(_read_config_file(config_path, problems))
    for tok in overrides:
        key, sep, value = tok.partition("=")
        if not sep:
            problems.append(f"override {tok!r}: expected key=value")
            continue
        raw[key.strip()] = value.strip()

    values = {key: spec[1] for key, spec in KEYS.items()}
    explicit = set()
    for key, rawval in raw.items():
        if key not in KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        explicit.add(key)
        parsed = _parse_raw(key, rawval, problems)
        if parsed is not None:
            values[key] = parsed

    if require_algorithm and values["algorithm"] is None and "algorithm" not in explicit:
        problems.append("algorithm is required (one of " + ", ".join(ALGORITHMS) + ")")

    _range_checks(values, explicit, problems)
    if not problems:
        _consistency_checks(values, explicit, problems)
    if problems:
        raise ConfigError(problems)

    # auto defaults that depend on other keys
    batch = values["batch_size"]
    if batch == "auto":
        batch = 20 if values["task"] == "quadratic" else 50
    elif batch == "full":
        batch = None
    local_steps = values["local_steps"]
    if local_steps == "auto":
        local_steps = None

    algo = values["algorithm"]
    mode = "latency" if algo == "fedasync-latency" else "sampled"
    compute_means = values["compute_means"]
    try:
        cfg = _build_experiment(values, mode, batch, compute_means)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    resolved = {}
    for key in KEYS:
        val = values[key]
        if key == "batch_size":
            val = "full" if batch is None else batch
        elif key == "local_steps":
            val = "auto" if local_steps is None else local_steps
        elif key == "compute_means":
            val = ",".join(repr(float(m)) for m in compute_means)
        elif key == "jsonl":
            val = "true" if val else "false"
        resolved[key] = "" if val is None else str(val)
    return RunSpec(
        algorithm=algo,
        cfg=cfg,
        repeats=values["repeats"],
        favg=FedAvgConfig(k=values["k"], local_steps=local_steps),
        threshold_frac=values["threshold_frac"],
        jsonl=values["jsonl"],
        resolved=resolved,
    )


def _build_experiment(values, mode, batch, compute_means) -> ExperimentConfig:
    return ExperimentConfig(
        task=values["task"],
        n_workers=values["n_workers"],
        total_epochs=values["total_epochs"],
        server=ServerConfig(
            alpha=values["alpha"],
            strategy=values["strategy"],
            poly_a=values["poly_a"],
            hinge_a=values["hinge_a"],
            hinge_b=values["hinge_b"],
            max_staleness=values["max_staleness"],
        ),
        worker=WorkerConfig(
            gamma=values["gamma"],
            rho=values["rho"],
            h_min=values["h_min"],
            h_max=values["h_max"],
            batch_size=batch,
        ),
        mode=mode,
        n_samples=values["n_samples"],
        dim=values["dim"],
        n_classes=values["n_classes"],
        sep=values["sep"],
        noise_std=values["noise_std"],
        hidden=values["hidden"],
        eval_frac=values["eval_frac"],
        classes_per_device=values["classes_per_device"],
        seed=values["seed"],
        eval_every=values["eval_every"],
        delay=DelayModel(
            compute_means=compute_means[0] if len(compute_means) == 1 else compute_means,
            network_mean=values["network_mean"],
            kind=values["delay_kind"],
        ),
    )


def _run_net(cfg: ExperimentConfig) -> RunResult:
    """fedasync-net inside one process: real sockets, worker threads.

    A worker error stops the server at once, so the other workers take
    their Shutdown, and is raised here; a divergence becomes a
    RunFailure, as in the other runners.
    """
    import threading

    server = TransportServer(cfg)
    host, port = server.start()
    errors: list[Exception] = []

    def work(w: int) -> None:
        try:
            worker_loop((host, port), cfg, w, problem=server.problem)
        except Exception as exc:
            errors.append(exc)
            server.stop()

    workers = [
        threading.Thread(target=work, args=(w,), daemon=True) for w in range(cfg.n_workers)
    ]
    for t in workers:
        t.start()
    deadline = time.monotonic() + 600.0
    for t in workers:
        t.join(max(0.0, deadline - time.monotonic()))
    timed_out = any(t.is_alive() for t in workers)
    server.stop()
    result = server.wait()
    if timed_out:
        raise TimeoutError("workers did not finish within 600 s")
    if errors:
        if isinstance(errors[0], DivergenceError):
            raise RunFailure(result.records, result.state.epoch, errors[0]) from errors[0]
        raise errors[0]
    if result.state.epoch < cfg.total_epochs:
        raise RuntimeError(
            f"workers stopped at epoch {result.state.epoch} of {cfg.total_epochs}"
        )
    return result


def _dispatch(spec: RunSpec, cfg: ExperimentConfig) -> RunResult:
    if spec.algorithm == "fedasync-sampled":
        return run_fedasync_sampled(cfg)
    if spec.algorithm == "fedasync-latency":
        return run_fedasync_latency(cfg)
    if spec.algorithm == "fedasync-net":
        return _run_net(cfg)
    if spec.algorithm == "fedavg":
        return run_fedavg(cfg, favg=spec.favg)
    if spec.algorithm == "sgd":
        return run_serial_sgd(cfg)
    raise AssertionError(f"unhandled algorithm {spec.algorithm}")


def _rep_header(spec: RunSpec, rep: int) -> dict[str, object]:
    header = dict(spec.resolved)
    header["rep"] = rep
    header["rep_seed"] = spec.cfg.seed + rep
    return header


def _mean_rows(all_records: list[list[MetricsRecord]]) -> list[dict[str, float | None]]:
    """Average rep curves row by row (reps share the eval schedule);
    a column with any None (accuracy on regression) stays None."""
    rows = []
    for group in zip(*all_records):
        row: dict[str, float | None] = {}
        for name in FIELDS:
            values = [getattr(r, name) for r in group]
            row[name] = None if None in values else float(np.mean(values))
        rows.append(row)
    return rows


def _load_summary(path: str) -> tuple[dict[str, str], list[dict]]:
    header, rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, [
        {name: (None if part == "" else float(part)) for name, part in zip(FIELDS, row)}
        for row in rows
    ]


def gradients_to_threshold(rows: list[dict], frac: float) -> float | None:
    """Gradients at the first eval point with loss <= frac * initial loss."""
    if not rows:
        return None
    target = rows[0]["loss"] * frac
    for row in rows:
        if row["loss"] <= target:
            return row["gradients"]
    return None


def cmd_run(args) -> int:
    spec = parse_config(args.config, args.overrides)
    try:
        os.makedirs(args.out, exist_ok=False)
    except FileExistsError:
        print(f"refusing to write into existing directory {args.out!r}", file=sys.stderr)
        return 2

    all_records: list[list[MetricsRecord]] = []
    failed = False
    for rep in range(spec.repeats):
        cfg = replace(spec.cfg, seed=spec.cfg.seed + rep)
        rep_path = os.path.join(args.out, f"rep{rep:03d}.csv")
        header = _rep_header(spec, rep)
        try:
            result = _dispatch(spec, cfg)
        except RunFailure as exc:
            rows = (rec.cells() for rec in exc.records)
            write_csv(rep_path, rows, header, footer=f"run-failed: {exc}")
            print(f"rep {rep}: FAILED: {exc}", file=sys.stderr)
            failed = True
            continue
        write_metrics_csv(result.records, rep_path, header)
        if spec.jsonl:
            write_metrics_jsonl(result.records, os.path.join(args.out, f"rep{rep:03d}.jsonl"))
        all_records.append(result.records)
        save_params(result.final_params, os.path.join(args.out, f"rep{rep:03d}_params.txt"))
    if failed:
        return 1

    rows = _mean_rows(all_records)
    summary_header = dict(spec.resolved)
    summary_header["reps_averaged"] = spec.repeats
    summary_path = os.path.join(args.out, "summary.csv")
    write_csv(summary_path, ([cell(row[n]) for n in FIELDS] for row in rows), summary_header)

    final = rows[-1]
    reached = gradients_to_threshold(rows, spec.threshold_frac)
    acc = "n/a" if final["accuracy"] is None else f"{final['accuracy']:.4f}"
    reach = "never" if reached is None else f"{reached:.1f}"
    print(
        f"{spec.algorithm}: final loss {final['loss']:.6g}, accuracy {acc}, "
        f"gradients {final['gradients']:.1f}; "
        f"gradients to {spec.threshold_frac:g}x initial loss: {reach}"
    )
    print(f"summary written to {summary_path}")
    return 0


_OBJECTIVE_KEYS = (
    "task", "n_samples", "dim", "n_classes", "sep", "noise_std",
    "hidden", "eval_frac", "seed",
)


def cmd_compare(args) -> int:
    loaded = []
    for path in args.summaries:
        try:
            header, rows = _load_summary(path)
        except (OSError, ValueError) as exc:
            print(f"cannot load {path}: {exc}", file=sys.stderr)
            return 2
        loaded.append((path, header, rows))
    base = loaded[0][1]
    for path, header, _ in loaded[1:]:
        diffs = [
            key
            for key in _OBJECTIVE_KEYS
            if header.get(key) != base.get(key)
        ]
        if diffs:
            detail = ", ".join(
                f"{key}: {base.get(key)!r} vs {header.get(key)!r}" for key in diffs
            )
            print(
                f"refusing to compare {loaded[0][0]} with {path}: "
                f"objective mismatch ({detail})",
                file=sys.stderr,
            )
            return 2

    print(f"{'run':40s} {'final_loss':>12s} {'final_acc':>10s} {'gradients':>11s} {'to_threshold':>13s}")
    for path, header, rows in loaded:
        final = rows[-1]
        reached = gradients_to_threshold(rows, args.threshold)
        acc = "n/a" if final["accuracy"] is None else f"{final['accuracy']:.4f}"
        reach = "never" if reached is None else f"{reached:.1f}"
        print(
            f"{path[-40:]:40s} {final['loss']:>12.6g} {acc:>10s} "
            f"{final['gradients']:>11.1f} {reach:>13s}"
        )

    if args.out:
        merged = (
            [path] + [cell(row[n]) for n in FIELDS] for path, _, rows in loaded for row in rows
        )
        write_csv(args.out, merged, columns=["run", *FIELDS])
        print(f"merged table written to {args.out}")
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_serve(args) -> int:
    spec = parse_config(args.config, args.overrides, require_algorithm=False)
    try:
        host, port = _parse_hostport(args.bind)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=False)
    except FileExistsError:
        print(f"refusing to write into existing directory {args.out!r}", file=sys.stderr)
        return 2
    server = TransportServer(spec.cfg, host=host, port=port)
    bound_host, bound_port = server.start()
    print(f"listening {bound_host} {bound_port}", flush=True)
    try:
        result = server.wait(timeout=args.timeout)
    except TimeoutError as exc:
        print(exc, file=sys.stderr)
        return 1
    write_metrics_csv(result.records, os.path.join(args.out, "metrics.csv"), spec.resolved)
    save_params(result.final_params, os.path.join(args.out, "final_params.txt"))
    print(
        f"served {result.state.epoch} epochs, "
        f"{result.state.n_gradients} gradients, "
        f"{result.state.n_rejected} rejected"
    )
    return 0


def cmd_worker(args) -> int:
    spec = parse_config(args.config, args.overrides, require_algorithm=False)
    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    pushes, accepted = worker_loop((host, port), spec.cfg, args.worker_id)
    print(f"worker {args.worker_id}: {pushes} pushes, {accepted} accepted")
    return 0


def cmd_gen_data(args) -> int:
    spec = parse_config(args.config, args.overrides, require_algorithm=False)
    cfg = spec.cfg
    if os.path.exists(args.out):
        print(f"refusing to overwrite existing file {args.out!r}", file=sys.stderr)
        return 2
    if cfg.task == "quadratic":
        ds = gen_regression(cfg.n_samples, cfg.dim, cfg.noise_std, cfg.seed)
    elif cfg.task == "logistic":
        ds = gen_classification(cfg.n_samples, cfg.dim, 2, cfg.sep, cfg.seed)
    else:
        ds = gen_classification(cfg.n_samples, cfg.dim, cfg.n_classes, cfg.sep, cfg.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedasync",
        description="Asynchronous federated optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("-c", "--config", default=None, help="flat key=value config file")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help="config overrides applied after the file",
        )

    p_run = sub.add_parser("run", help="run R seeded repetitions of one algorithm")
    add_config_args(p_run)
    p_run.add_argument("--out", required=True, help="output directory (must not exist)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two or more summary files")
    p_cmp.add_argument("summaries", nargs="+", help="summary.csv paths")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="loss threshold as a fraction of initial loss (default 0.1)",
    )
    p_cmp.add_argument("--out", default=None, help="write a merged CSV here")
    p_cmp.set_defaults(func=cmd_compare)

    p_srv = sub.add_parser("serve", help="run the TCP server to completion")
    add_config_args(p_srv)
    p_srv.add_argument("--bind", default="127.0.0.1:0", help="HOST:PORT (port 0 = any)")
    p_srv.add_argument("--out", required=True, help="output directory (must not exist)")
    p_srv.add_argument(
        "--timeout", type=float, default=600.0, help="abort if not finished (seconds)"
    )
    p_srv.set_defaults(func=cmd_serve)

    p_wrk = sub.add_parser("worker", help="connect one worker to a server")
    add_config_args(p_wrk)
    p_wrk.add_argument("--connect", required=True, help="server HOST:PORT")
    p_wrk.add_argument("--worker-id", type=int, required=True)
    p_wrk.set_defaults(func=cmd_worker)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset to a file")
    add_config_args(p_gen)
    p_gen.add_argument("--out", required=True, help="output file (must not exist)")
    p_gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
