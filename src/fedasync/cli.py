"""Experiment front end.

Subcommands: ``run`` (R seeded repetitions of any algorithm, metrics +
summary files), ``compare`` (align summaries on the gradients axis),
``serve`` / ``worker`` (the TCP deployment), and ``gen-data`` (write a
dataset to a text file). Configuration is a flat ``key=value`` text
file; the same ``key=value`` tokens on the command line override it.

Each key is one row of :data:`KEYS`: the dataclass that owns its field,
its command-line default, how its text parses, and the algorithm, task
or strategy values it applies to. Its bound is the rule on that field
(:mod:`fedasync.rules`). Parsing, the range and applicability checks,
the construction of the configuration objects, and the ``# key=value``
header that every emitted file carries all come from these rows. The
conditions that span keys are the configuration classes' own
(``conflicts``); :func:`parse_config` reports them with the problems of
the keys, so a configuration problem ends any subcommand before it
writes anything, with exit status 2 and every problem listed (caught
once, in :func:`main`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd
from fedasync.data import save_dataset
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
from fedasync.rules import FINITE_POSITIVE, at_least, one_of, optional, rule_of, validate
from fedasync.server import ProtocolError, ServerConfig
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    RunFailure,
    RunResult,
    generate_dataset,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.transport import FrameError, TransportServer, worker_loop
from fedasync.worker import DivergenceError, WorkerConfig

# Each runner is looked up when called, so a patched cli.run_* sees every run.
_RUNNERS: dict[str, Callable[[RunSpec, ExperimentConfig], RunResult]] = {
    "fedasync-sampled": lambda spec, cfg: run_fedasync_sampled(cfg),
    "fedasync-latency": lambda spec, cfg: run_fedasync_latency(cfg),
    "fedasync-net": lambda spec, cfg: _run_net(cfg),
    "fedavg": lambda spec, cfg: run_fedavg(cfg, favg=spec.favg),
    "sgd": lambda spec, cfg: run_serial_sgd(cfg),
}
ALGORITHMS = tuple(_RUNNERS)


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

    algorithm: str | None = field(metadata=optional(one_of(ALGORITHMS)))
    cfg: ExperimentConfig
    repeats: int = field(metadata=at_least(1))
    favg: FedAvgConfig
    threshold_frac: float = field(metadata=FINITE_POSITIVE)
    jsonl: bool
    resolved: dict[str, str]  # provenance header: every key, final value

    def __post_init__(self):
        validate(self)


@dataclass(frozen=True)
class Key:
    """One configuration key.

    ``owner`` is the dataclass whose field the key sets (the field named
    ``attr``, else the key itself), and the rule on that field is the
    key's bound. ``default`` is the command-line value when the key is
    unset; it may differ from the field's default. ``parse`` reads the
    key's text. The key applies only where key ``by`` has one of the
    values in ``applies`` (everywhere when ``by`` is empty). In the
    header, None prints as ``blank``.
    """

    owner: type
    default: object
    parse: Callable[[str], object] = str
    by: str = ""
    applies: tuple[str, ...] = ()
    attr: str = ""
    blank: str = ""


def _flag(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok]


def _batch(raw: str) -> int | str | None:
    """``full`` is None (the whole shard); ``auto`` is the task's default."""
    return raw if raw == "auto" else None if raw == "full" else int(raw)


def _steps(raw: str) -> int | None:
    return None if raw == "auto" else int(raw)


ASYNC = ("fedasync-sampled", "fedasync-latency", "fedasync-net")
LATENCY = ("fedasync-latency",)
CLASSIFY = ("logistic", "mlp")

KEYS: dict[str, Key] = {
    "algorithm": Key(RunSpec, None),
    "task": Key(ExperimentConfig, "quadratic"),
    "n_workers": Key(ExperimentConfig, 10, int),
    "total_epochs": Key(ExperimentConfig, 200, int),
    "seed": Key(ExperimentConfig, 0, int),
    "repeats": Key(RunSpec, 10, int),
    "eval_every": Key(ExperimentConfig, 1, int),
    "n_samples": Key(ExperimentConfig, 1000, int),
    "dim": Key(ExperimentConfig, 10, int),
    "n_classes": Key(ExperimentConfig, 2, int, "task", CLASSIFY),
    "sep": Key(ExperimentConfig, 3.0, float, "task", CLASSIFY),
    "noise_std": Key(ExperimentConfig, 0.1, float, "task", ("quadratic",)),
    "hidden": Key(ExperimentConfig, 16, int, "task", ("mlp",)),
    "eval_frac": Key(ExperimentConfig, 0.2, float),
    "classes_per_device": Key(ExperimentConfig, 0, int),
    "alpha": Key(ServerConfig, 0.6, float),
    "strategy": Key(ServerConfig, "constant"),
    "poly_a": Key(ServerConfig, 0.5, float, "strategy", ("polynomial",)),
    "hinge_a": Key(ServerConfig, 10.0, float, "strategy", ("hinge",)),
    "hinge_b": Key(ServerConfig, 4, int, "strategy", ("hinge",)),
    "max_staleness": Key(ServerConfig, 4, int, "algorithm", ASYNC),
    "gamma": Key(WorkerConfig, 0.1, float),
    "rho": Key(WorkerConfig, 0.005, float),
    "h_min": Key(WorkerConfig, 5, int),
    "h_max": Key(WorkerConfig, 15, int),
    "batch_size": Key(WorkerConfig, "auto", _batch, blank="full"),
    "k": Key(FedAvgConfig, 10, int, "algorithm", ("fedavg",)),
    "local_steps": Key(FedAvgConfig, None, _steps, "algorithm", ("fedavg",), blank="auto"),
    "delay_kind": Key(DelayModel, "exponential", str, "algorithm", LATENCY, attr="kind"),
    "compute_means": Key(DelayModel, [1.0], _floats, "algorithm", LATENCY),
    "network_mean": Key(DelayModel, 0.1, float, "algorithm", LATENCY),
    "threshold_frac": Key(RunSpec, 0.1, float),
    "jsonl": Key(RunSpec, False, _flag),
}


def _raw_keys(path: str | None, overrides: list[str], problems: list[str]) -> dict[str, str]:
    """The ``key=value`` texts of the config file at ``path``, then of the
    command line, which win; a line or token not ``key=value`` is a problem."""
    raw: dict[str, str] = {}
    if path is not None:
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
                    raw[key.strip()] = value.strip()
        except OSError as exc:
            problems.append(f"cannot read config file {path}: {exc}")
    for tok in overrides:
        key, sep, value = tok.partition("=")
        if not sep:
            problems.append(f"override {tok!r}: expected key=value")
            continue
        raw[key.strip()] = value.strip()
    return raw


def _show(value, blank: str) -> str:
    """A value as the ``# key=value`` header prints it."""
    if value is None:
        return blank
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return str(value)


def parse_config(
    config_path: str | None,
    overrides: list[str],
    require_algorithm: bool = True,
) -> RunSpec:
    """Merge defaults, file entries, and overrides into a RunSpec.

    Every problem found (unknown key, bad value, out-of-range value,
    inconsistent combination) is collected and reported in one
    :class:`ConfigError`. No data is generated here.
    """
    problems: list[str] = []
    return _spec(_raw_keys(config_path, overrides, problems), problems, require_algorithm)


def _spec(raw: dict[str, str], problems: list[str], require_algorithm: bool) -> RunSpec:
    """The RunSpec of the raw keys, or a :class:`ConfigError` listing
    ``problems`` and every problem of the keys. A key that breaks its
    rule is checked no further; a class's rules across fields
    (``conflicts``) are checked once all of its keys hold."""
    values = {key: row.default for key, row in KEYS.items()}
    explicit, bad = set(), set()
    for key, text in raw.items():
        if key not in KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        explicit.add(key)
        try:
            values[key] = KEYS[key].parse(text)
        except ValueError:
            problems.append(f"{key}: cannot parse {text!r}")
            bad.add(key)
    if values["batch_size"] == "auto":
        values["batch_size"] = 20 if values["task"] == "quadratic" else 50

    if require_algorithm and values["algorithm"] is None:
        problems.append("algorithm is required (one of " + ", ".join(ALGORITHMS) + ")")
    for key, row in KEYS.items():
        rule = rule_of(row.owner, row.attr or key)
        if rule is not None and not rule.holds(values[key]):  # a default holds its rule
            problems.append(f"{key}: {rule.text} (got {values[key]!r})")
            bad.add(key)
    for key, row in KEYS.items():
        by = row.by  # "" for a key that applies everywhere, and values.get("") is None
        if key in explicit - bad and by not in bad and values.get(by) not in (None, *row.applies):
            only = "/".join(row.applies)
            problems.append(f"{key} only applies to {by}={only} ({by}={values[by]})")
    if values["strategy"] == "hinge" and "hinge_b" not in explicit:
        problems.append("strategy=hinge requires an explicit hinge_b")
    k, n_workers = values["k"], values["n_workers"]
    if values["algorithm"] == "fedavg" and not {"k", "n_workers"} & bad and k > n_workers:
        problems.append(f"k: must be <= n_workers (got {k} > {n_workers})")

    args: dict[type, dict[str, object]] = defaultdict(dict)
    for key, row in KEYS.items():
        args[row.owner][row.attr or key] = values[key]
    for owner in (ExperimentConfig, WorkerConfig, DelayModel):
        if not any(KEYS[key].owner is owner for key in bad):
            problems += owner.conflicts(**args[owner])
    if problems:
        raise ConfigError(problems)
    resolved = {key: _show(values[key], row.blank) for key, row in KEYS.items()}
    cfg = ExperimentConfig(
        **args[ExperimentConfig],
        server=ServerConfig(**args[ServerConfig]),
        worker=WorkerConfig(**args[WorkerConfig]),
        delay=DelayModel(**args[DelayModel]),
    )
    favg = FedAvgConfig(**args[FedAvgConfig])
    return RunSpec(**args[RunSpec], cfg=cfg, favg=favg, resolved=resolved)


def _run_net(cfg: ExperimentConfig) -> RunResult:
    """fedasync-net inside one process: real loopback sockets, and no
    thread. The server's loop drives the workers inside ``wait``; a
    worker error ends the run there, after every socket is closed, and a
    divergence becomes a RunFailure, as in the other runners.
    """
    server = TransportServer(cfg)
    server.bind()
    for w in range(cfg.n_workers):
        server.attach_worker(w)
    return server.wait()


def _rep_header(spec: RunSpec, rep: int) -> dict[str, object]:
    header = dict(spec.resolved)
    header["rep"] = rep
    header["rep_seed"] = spec.cfg.seed + rep
    return header


def _mean_rows(all_records: list[list[MetricsRecord]]) -> list[dict[str, float | None]]:
    """Average rep curves row by row (reps share the eval schedule); a
    cell with any None (accuracy on regression) stays None. One ``np.mean``
    per column, over a row per eval point and a column per rep, gives
    each cell the bits ``np.mean`` of its own values would."""
    groups = list(zip(*all_records))
    rows: list[dict[str, float | None]] = [{} for _ in groups]
    for name in FIELDS:
        cells = [[getattr(r, name) for r in group] for group in groups]
        for row, values, mean in zip(rows, cells, np.mean(np.array(cells, float), axis=1).tolist()):
            row[name] = None if None in values else mean
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


def _final_cells(rows: list[dict], frac: float) -> tuple[str, str]:
    """The last row's accuracy and the gradients to ``frac`` x initial
    loss, as printed: ``n/a`` without accuracy, ``never`` if not reached."""
    acc, reached = rows[-1]["accuracy"], gradients_to_threshold(rows, frac)
    acc_text = "n/a" if acc is None else f"{acc:.4f}"
    return acc_text, "never" if reached is None else f"{reached:.1f}"


def cmd_run(args) -> int:
    spec = parse_config(args.config, args.overrides)
    try:
        os.makedirs(args.out, exist_ok=False)
    except FileExistsError:
        print(f"refusing to write into existing directory {args.out!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot create directory {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2

    all_records: list[list[MetricsRecord]] = []
    failed = False
    for rep in range(spec.repeats):
        cfg = replace(spec.cfg, seed=spec.cfg.seed + rep)
        rep_path = os.path.join(args.out, f"rep{rep:03d}.csv")
        header = _rep_header(spec, rep)
        try:
            result = _RUNNERS[spec.algorithm](spec, cfg)
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
    acc, reach = _final_cells(rows, spec.threshold_frac)
    print(
        f"{spec.algorithm}: final loss {final['loss']:.6g}, accuracy {acc}, "
        f"gradients {final['gradients']:.1f}; "
        f"gradients to {spec.threshold_frac:g}x initial loss: {reach}"
    )
    print(f"summary written to {summary_path}")
    return 0


_DATA_KEYS = ("task", "n_samples", "dim", "n_classes", "sep", "noise_std", "seed")
_OBJECTIVE_KEYS = (*_DATA_KEYS, "hidden", "eval_frac")


def cmd_compare(args) -> int:
    rule = rule_of(RunSpec, "threshold_frac")
    if not rule.holds(args.threshold):
        print(f"--threshold {rule.text}, got {args.threshold!r}", file=sys.stderr)
        return 2
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

    if args.out:
        merged = ([path] + [cell(row[n]) for n in FIELDS] for path, _, rows in loaded for row in rows)
        try:
            write_csv(args.out, merged, columns=["run", *FIELDS])
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2

    print(f"{'run':40s} {'final_loss':>12s} {'final_acc':>10s} {'gradients':>11s} {'to_threshold':>13s}")
    for path, header, rows in loaded:
        final = rows[-1]
        acc, reach = _final_cells(rows, args.threshold)
        print(
            f"{path[-40:]:40s} {final['loss']:>12.6g} {acc:>10s} "
            f"{final['gradients']:>11.1f} {reach:>13s}"
        )

    if args.out:
        print(f"merged table written to {args.out}")
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"port must be in 0-65535, got {text!r}")
    return host, int(port)


def _net_spec(args) -> RunSpec:
    """``serve`` and ``worker`` run fedasync-net, so their keys are checked
    as its keys; any other ``algorithm`` is refused with them."""
    problems: list[str] = []
    raw = _raw_keys(args.config, args.overrides, problems)
    algorithm = raw.get("algorithm", "fedasync-net")
    if algorithm != "fedasync-net":
        problems.append(f"algorithm: {args.command} runs fedasync-net (got {algorithm!r})")
    raw["algorithm"] = "fedasync-net"
    return _spec(raw, problems, require_algorithm=True)


def cmd_serve(args) -> int:
    rule = FINITE_POSITIVE["rule"]
    if not rule.holds(args.timeout):
        print(f"--timeout {rule.text}, got {args.timeout!r}", file=sys.stderr)
        return 2
    spec = _net_spec(args)
    try:
        host, port = _parse_hostport(args.bind)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if os.path.exists(args.out):
        print(f"refusing to write into existing directory {args.out!r}", file=sys.stderr)
        return 2
    server = TransportServer(spec.cfg, host=host, port=port)
    try:
        bound_host, bound_port = server.bind()
    except OSError as exc:  # the port is taken, or the host is not ours
        print(f"cannot listen on {host}:{port}: {exc}", file=sys.stderr)
        return 1
    try:
        os.makedirs(args.out)
    except OSError as exc:
        server.close()
        print(f"cannot create directory {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"listening {bound_host} {bound_port}", flush=True)
    try:
        result = server.wait(timeout=args.timeout)
    except (TimeoutError, ConnectionError) as exc:
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
    spec = _net_spec(args)
    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    n = spec.cfg.n_workers
    if not 0 <= args.worker_id < n:
        print(f"--worker-id must be in 0..{n - 1}, got {args.worker_id}", file=sys.stderr)
        return 2
    try:
        pushes, accepted = worker_loop((host, port), spec.cfg, args.worker_id)
    # refused, reset, closed mid-task, junk, or a model that is not this config's
    except (OSError, FrameError, ProtocolError) as exc:
        print(f"connection to {host}:{port} failed: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"worker {args.worker_id}: FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"worker {args.worker_id}: {pushes} pushes, {accepted} accepted")
    return 0


def cmd_gen_data(args) -> int:
    """Write the dataset; only the keys that shape it (:data:`_DATA_KEYS`)
    may be set, on the command line or in the config file. Any other key
    is refused along with the problems of the keys that shape it."""
    problems: list[str] = []
    raw = _raw_keys(args.config, args.overrides, problems)
    for key in sorted(raw.keys() & KEYS.keys() - set(_DATA_KEYS)):
        problems.append(f"{key}: gen-data does not read it")
        del raw[key]
    spec = _spec(raw, problems, require_algorithm=False)
    if os.path.exists(args.out):
        print(f"refusing to overwrite existing file {args.out!r}", file=sys.stderr)
        return 2
    ds = generate_dataset(spec.cfg)
    try:
        save_dataset(ds, args.out)
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s tree, built once per process; parsing
    leaves a parser as it was, so every :func:`main` call can share it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # a diverging run or worker reports the failure in one line, so
    # numpy's overflow and invalid-value warnings on the way are noise
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return args.func(args)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
