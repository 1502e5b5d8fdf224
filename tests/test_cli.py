"""End-to-end tests for the experiment command line."""

import re
import resource
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedasync.transport as transport
from fedasync.baselines import FedAvgConfig
from fedasync.cli import (
    KEYS,
    ConfigError,
    RunSpec,
    _mean_rows,
    gradients_to_threshold,
    main,
    parse_config,
)
from fedasync.data import gen_classification
from fedasync.metrics import FIELDS, MetricsRecord, load_params, read_csv
from fedasync.rules import rule_of
from fedasync.server import ServerConfig
from fedasync.simulator import DelayModel, ExperimentConfig, run_fedasync_sampled
from fedasync.worker import WorkerConfig

SMALL = [
    "task=quadratic",
    "n_workers=4",
    "total_epochs=30",
    "n_samples=80",
    "dim=5",
    "h_min=2",
    "h_max=5",
    "batch_size=8",
]


def _rows(path):
    """The metrics rows of a CSV file as dicts of numbers; an empty cell is left out."""
    return [{k: float(v) for k, v in zip(FIELDS, row) if v} for row in read_csv(path)[1]]


class TestParseConfig:
    def test_defaults(self):
        spec = parse_config(None, ["algorithm=fedasync-sampled"])
        assert spec.algorithm == "fedasync-sampled"
        assert spec.repeats == 10
        assert spec.threshold_frac == 0.1
        assert spec.jsonl is False
        cfg = spec.cfg
        assert cfg.task == "quadratic"
        assert cfg.n_workers == 10
        assert cfg.total_epochs == 200
        assert cfg.worker.gamma == 0.1
        assert cfg.worker.rho == 0.005
        assert cfg.worker.h_min == 5 and cfg.worker.h_max == 15
        assert cfg.worker.batch_size == 20
        assert cfg.server.alpha == 0.6
        assert cfg.server.strategy == "constant"
        assert cfg.server.max_staleness == 4

    def test_config_file_echoing_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment defaults\n\nalgorithm=fedasync-sampled\ngamma=0.1\nrho=0.005\n"
        )
        spec = parse_config(str(path), [])
        assert spec.cfg.worker.gamma == 0.1
        assert spec.cfg.worker.rho == 0.005

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("algorithm=sgd\ngamma=0.2\n")
        spec = parse_config(str(path), ["gamma=0.3"])
        assert spec.cfg.worker.gamma == 0.3

    def test_missing_algorithm_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(None, [])
        assert any("algorithm is required" in p for p in err.value.problems)

    def test_alpha_range_error_cites_interval(self):
        with pytest.raises(ConfigError) as err:
            parse_config(None, ["algorithm=sgd", "alpha=1.5"])
        [problem] = err.value.problems
        assert "alpha" in problem and "(0, 1]" in problem

    def test_all_problems_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config(None, ["alpha=1.5", "gamma=-1", "bogus=3"])
        text = "\n".join(err.value.problems)
        assert "alpha" in text
        assert "gamma" in text
        assert "bogus" in text
        assert "algorithm is required" in text
        assert len(err.value.problems) == 4

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(None, ["algorithm=sgd", "learning_rate=0.1"])

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(None, ["algorithm=sgd", "n_workers=many"])

    def test_hinge_requires_explicit_b(self):
        with pytest.raises(ConfigError, match="hinge_b"):
            parse_config(
                None, ["algorithm=fedasync-sampled", "strategy=hinge", "hinge_a=10"]
            )

    def test_hinge_with_b_accepted(self):
        spec = parse_config(
            None, ["algorithm=fedasync-sampled", "strategy=hinge", "hinge_b=4"]
        )
        assert spec.cfg.server.strategy == "hinge"
        assert spec.cfg.server.hinge_b == 4

    def test_strategy_knob_consistency(self):
        with pytest.raises(ConfigError, match="poly_a"):
            parse_config(None, ["algorithm=sgd", "poly_a=0.3"])

    def test_task_key_consistency(self):
        with pytest.raises(ConfigError, match="sep"):
            parse_config(None, ["algorithm=sgd", "task=quadratic", "sep=2.0"])
        with pytest.raises(ConfigError, match="noise_std"):
            parse_config(None, ["algorithm=sgd", "task=logistic", "noise_std=0.1"])

    def test_algorithm_key_consistency(self):
        with pytest.raises(ConfigError, match="max_staleness"):
            parse_config(None, ["algorithm=fedavg", "max_staleness=2"])
        with pytest.raises(ConfigError, match="network_mean"):
            parse_config(None, ["algorithm=fedasync-sampled", "network_mean=0.5"])

    def test_batch_size_words(self):
        spec = parse_config(None, ["algorithm=sgd", "batch_size=full"])
        assert spec.cfg.worker.batch_size is None
        assert spec.resolved["batch_size"] == "full"
        spec = parse_config(None, ["algorithm=sgd", "task=logistic"])
        assert spec.cfg.worker.batch_size == 50

    def test_malformed_config_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("algorithm=sgd\ngamma 0.2\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(str(path), [])


# Configurations that once passed parse_config and then failed after
# --out was made: (command, overrides, keys the error must name).
LATE_ERRORS = [
    ("run", ["task=logistic", "sep=inf"], ["sep"]),
    ("run", ["noise_std=inf"], ["noise_std"]),
    ("run", ["task=mlp", "n_classes=12", "dim=10"], ["n_classes"]),
    ("run", ["algorithm=fedavg", "k=20", "n_workers=10"], ["k"]),
    ("run", ["n_workers=5000"], ["n_workers"]),
    ("run", ["n_workers=200", "classes_per_device=5"], ["n_workers"]),
    ("run", ["eval_frac=0.9999"], ["eval_frac"]),
    ("run", ["task=logistic", "classes_per_device=3"], ["classes_per_device"]),
    ("run", ["n_samples=5", "dim=10"], ["n_samples"]),
    ("run", ["seed=-1"], ["seed"]),
    ("run", ["gamma=nan", "alpha=2"], ["alpha", "gamma"]),
    ("gen-data", ["task=mlp", "n_classes=12"], ["n_classes"]),
]


def _out_of_range():
    """``(key, text)`` for every key whose field has a rule, and every
    text among -1, nan and inf that parses as the key's type."""
    for key, row in KEYS.items():
        if rule_of(row.owner, row.attr or key) is None:
            continue
        for text in ("-1", "nan", "inf"):
            try:
                row.parse(text)
            except ValueError:
                continue
            yield key, text


class TestKeySchema:
    @pytest.mark.parametrize("key, text", list(_out_of_range()))
    def test_rule_guards_key_and_field(self, key, text):
        with pytest.raises(ConfigError) as err:
            parse_config(None, ["algorithm=sgd", f"{key}={text}"])
        [problem] = err.value.problems
        assert problem.startswith(f"{key}: ")
        spec = parse_config(None, ["algorithm=sgd"])
        owned = {
            RunSpec: spec,
            ExperimentConfig: spec.cfg,
            ServerConfig: spec.cfg.server,
            WorkerConfig: spec.cfg.worker,
            DelayModel: spec.cfg.delay,
            FedAvgConfig: spec.favg,
        }
        row = KEYS[key]
        name = row.attr or key
        with pytest.raises(ValueError, match=f"^{name} "):
            replace(owned[row.owner], **{name: row.parse(text)})

    @pytest.mark.parametrize(
        "command, overrides, keys",
        LATE_ERRORS,
        ids=[f"{command} {' '.join(overrides)}" for command, overrides, _ in LATE_ERRORS],
    )
    def test_error_before_any_output(self, tmp_path, capsys, command, overrides, keys):
        out = tmp_path / "out"
        if command == "run" and not overrides[0].startswith("algorithm="):
            overrides = ["algorithm=sgd", *overrides]
        assert main([command, *overrides, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        for key in keys:
            assert f"  - {key}: " in err
        assert not out.exists()

    def test_readme_table_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        named = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                named.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert named == set(KEYS)


class TestCmdRun:
    def test_refuses_existing_directory(self, tmp_path, capsys):
        out = tmp_path / "exists"
        out.mkdir()
        rc = main(["run", "algorithm=sgd", "--out", str(out)])
        assert rc == 2
        assert "refusing" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["run", "algorithm=sgd", "alpha=2.0", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_single_rep_files_and_monotone_gradients(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["run", "--out", str(out), "algorithm=fedasync-sampled", "repeats=1", "seed=3"]
            + SMALL
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "rep000.csv",
            "rep000_params.txt",
            "summary.csv",
        ]
        grads = [r["gradients"] for r in _rows(out / "rep000.csv")]
        assert all(b > a for a, b in zip(grads, grads[1:]))
        text = (out / "rep000.csv").read_text()
        assert "# gamma=0.1" in text
        assert "# rep_seed=3" in text
        stdout = capsys.readouterr().out
        assert "final loss" in stdout and "summary written" in stdout

    def test_summary_rows_are_rep_means(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["run", "--out", str(out), "algorithm=fedasync-sampled", "repeats=3"] + SMALL
        )
        assert rc == 0
        reps = [_rows(out / f"rep{r:03d}.csv") for r in range(3)]
        from fedasync.cli import _load_summary

        header, rows = _load_summary(out / "summary.csv")
        assert header["reps_averaged"] == "3"
        assert len(rows) == len(reps[0])
        for i, row in enumerate(rows):
            assert row["loss"] == float(np.mean([rec[i]["loss"] for rec in reps]))
            assert row["gradients"] == float(np.mean([rec[i]["gradients"] for rec in reps]))
        # the last summary row is the mean of the per-rep final records
        assert rows[-1]["loss"] == float(np.mean([rec[-1]["loss"] for rec in reps]))

    def test_same_spec_twice_is_byte_identical(self, tmp_path):
        args = ["algorithm=fedasync-latency", "repeats=2"] + SMALL
        assert main(["run", "--out", str(tmp_path / "a")] + args) == 0
        assert main(["run", "--out", str(tmp_path / "b")] + args) == 0
        for name in ("summary.csv", "rep000.csv", "rep001.csv", "rep000_params.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_leaves_marker_and_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "run",
                "--out",
                str(out),
                "algorithm=sgd",
                "repeats=1",
                "total_epochs=30",
                "gamma=1e40",
                "h_min=1",
                "h_max=1",
                "batch_size=full",
                "n_samples=40",
                "dim=4",
            ]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()
        assert "# run-failed:" in (out / "rep000.csv").read_text()

    def test_jsonl_sidecar(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["run", "--out", str(out), "algorithm=sgd", "repeats=1", "jsonl=true"] + SMALL
        )
        assert rc == 0
        assert (out / "rep000.jsonl").exists()


_CELL = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    st.integers(-(2**53), 2**53),
)


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


class TestMeanRows:
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:overflow")
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda reps: st.lists(
                st.lists(st.fixed_dictionaries({n: _CELL for n in FIELDS}), min_size=reps, max_size=reps),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_matches_per_cell_mean_bit_for_bit(self, table):
        # table[row][rep]; _mean_rows takes one record list per rep
        reps = [[MetricsRecord(**row[r]) for row in table] for r in range(len(table[0]))]
        got = _mean_rows(reps)
        assert len(got) == len(table)
        for row, cells in zip(got, table):
            for name in FIELDS:
                values = [c[name] for c in cells]
                want = None if None in values else float(np.mean(values))
                assert _bits(row[name]) == _bits(want), (name, values)


class TestCmdCompare:
    def _small_run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        rc = main(
            ["run", "--out", str(out), "algorithm=fedasync-sampled", "repeats=2"]
            + SMALL
            + list(extra)
        )
        assert rc == 0
        return out / "summary.csv"

    def test_compare_with_itself_shows_no_difference(self, tmp_path, capsys):
        summary = self._small_run(tmp_path, "a")
        merged = tmp_path / "merged.csv"
        capsys.readouterr()  # drop the run's own output
        rc = main(["compare", str(summary), str(summary), "--out", str(merged)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        table = [ln for ln in lines if str(summary)[-40:] in ln]
        assert len(table) == 2 and table[0] == table[1]
        rows = merged.read_text().splitlines()
        assert rows[0].startswith("run,epoch,")
        data = [ln.partition(",")[2] for ln in rows[1:]]
        assert data[: len(data) // 2] == data[len(data) // 2 :]

    def test_mismatched_objectives_refused(self, tmp_path, capsys):
        a = self._small_run(tmp_path, "a")
        b = self._small_run(tmp_path, "b", extra=["dim=6"])
        rc = main(["compare", str(a), str(b)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "objective mismatch" in err and "dim" in err

    def test_unreadable_summary(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err

    def test_summary_row_with_too_few_fields(self, tmp_path, capsys):
        summary = self._small_run(tmp_path, "a")
        lines = summary.read_text().splitlines()
        lines[-1] = lines[-1].rpartition(",")[0]
        summary.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["compare", str(summary), str(summary)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot load {summary}:" in err and "7 fields, expected 8" in err

    def test_summary_without_rows(self, tmp_path, capsys):
        summary = self._small_run(tmp_path, "a")
        kept = [ln for ln in summary.read_text().splitlines(True) if ln.startswith("#")]
        summary.write_text("".join(kept) + "epoch,gradients,loss,grad_norm_sq,"
                           "accuracy,alpha_t,staleness,sim_time\n")
        capsys.readouterr()
        rc = main(["compare", str(summary), str(summary)])
        assert rc == 2
        assert f"cannot load {summary}:" in capsys.readouterr().err

    def test_fedasync_beats_fedavg_per_gradient(self, tmp_path, capsys):
        # paired desk-scale comparison at the quadratic defaults: the
        # asynchronous run should hit the 10% loss threshold with no
        # more gradients than the synchronous baseline on most seeds
        fa = tmp_path / "fedasync"
        fv = tmp_path / "fedavg"
        assert (
            main(["run", "--out", str(fa), "algorithm=fedasync-sampled", "max_staleness=0"])
            == 0
        )
        assert main(["run", "--out", str(fv), "algorithm=fedavg"]) == 0

        def thresholds(out_dir):
            costs = []
            for rep in range(10):
                rows = _rows(out_dir / f"rep{rep:03d}.csv")
                costs.append(gradients_to_threshold(rows, 0.1))
            return costs

        async_cost = thresholds(fa)
        sync_cost = thresholds(fv)
        assert all(c is not None for c in async_cost + sync_cost)
        wins = sum(a <= s for a, s in zip(async_cost, sync_cost))
        assert wins >= 8

        rc = main(["compare", str(fa / "summary.csv"), str(fv / "summary.csv")])
        assert rc == 0
        assert "to_threshold" in capsys.readouterr().out


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        rc = main(
            ["gen-data", "task=logistic", "n_samples=60", "dim=4", "--out", str(out)]
        )
        assert rc == 0
        assert "wrote 60 samples" in capsys.readouterr().out
        rows = np.loadtxt(out, ndmin=2)
        ref = gen_classification(60, 4, 2, 3.0, 0)
        np.testing.assert_array_equal(rows[:, 1:], ref.features)
        np.testing.assert_array_equal(rows[:, 0], ref.targets)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_refuses_keys_that_do_not_shape_the_data(self, tmp_path, capsys, from_file):
        out = tmp_path / "d.txt"
        keys = ["k=3", "delay_kind=constant", "local_steps=2", "max_staleness=9"]
        argv = ["gen-data", "--out", str(out), "n_samples=60"]
        if from_file:
            conf = tmp_path / "c.txt"
            conf.write_text("\n".join(keys) + "\n")
            argv += ["-c", str(conf)]
        else:
            argv += keys
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        for key in ("k", "delay_kind", "local_steps", "max_staleness"):
            assert f"{key}: gen-data does not read it" in err
        assert not out.exists()

    def test_refuses_existing_file(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        out.write_text("precious\n")
        rc = main(["gen-data", "--out", str(out)])
        assert rc == 2
        assert "refusing" in capsys.readouterr().err
        assert out.read_text() == "precious\n"


class TestServeWorkerCommands:
    def test_loopback_processes_match_simulator(self, tmp_path):
        overrides = [
            "task=quadratic",
            "n_workers=1",
            "total_epochs=8",
            "max_staleness=0",
            "h_min=2",
            "h_max=4",
            "batch_size=8",
            "n_samples=80",
            "dim=5",
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
            assert wrk.stdout.strip() == "worker 0: 8 pushes, 8 accepted"
            rest, err = srv.communicate(timeout=60)
        except BaseException:
            srv.kill()
            raise
        assert srv.returncode == 0, err
        assert "served 8 epochs" in rest

        spec = parse_config(None, ["algorithm=fedasync-sampled"] + overrides,
                            require_algorithm=False)
        sim = run_fedasync_sampled(spec.cfg)
        np.testing.assert_array_equal(load_params(out / "final_params.txt"),
                                      sim.final_params)
        assert (out / "metrics.csv").exists()

    def test_serve_exits_when_every_worker_is_gone(self, tmp_path):
        # the worker completes one task and vanishes: serve reports the
        # epoch reached and exits 1 without waiting out --timeout
        from fedasync.transport import PullRequest, Push, _Buffer, encode, read_message

        out = tmp_path / "served"
        srv = subprocess.Popen(
            [sys.executable, "-m", "fedasync", "serve", "--bind", "127.0.0.1:0",
             "--out", str(out), "--timeout", "60", "task=quadratic", "n_workers=1",
             "total_epochs=8", "max_staleness=0", "n_samples=80", "dim=5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, host, port = srv.stdout.readline().split()
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                buf = _Buffer(5)  # dim=5
                sock.sendall(encode(PullRequest(worker_id=0)))
                read_message(sock, buf)  # Trigger
                resp = read_message(sock, buf)
                sock.sendall(encode(Push(0, resp.epoch, 1, resp.params)))
                assert read_message(sock, buf).accepted
            _, err = srv.communicate(timeout=30)
        except BaseException:
            srv.kill()
            raise
        assert srv.returncode == 1
        assert "every worker disconnected at epoch 1 of 8" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["serve", "worker"])
    @pytest.mark.parametrize(
        "override", ["k=3", "delay_kind=constant", "local_steps=2", "algorithm=fedavg"]
    )
    def test_keys_that_do_not_apply_to_fedasync_net_are_refused(
        self, tmp_path, capsys, command, override
    ):
        # both commands run fedasync-net; a key it never reads is an error,
        # reported before --out is made or a connection is tried
        out = tmp_path / "served"
        flags = {
            "serve": ["--bind", "127.0.0.1:0", "--out", str(out), "--timeout", "0.5"],
            "worker": ["--connect", "127.0.0.1:1", "--worker-id", "0"],
        }[command]
        assert main([command, *flags, override]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert f"  - {override.split('=')[0]}" in err
        assert not out.exists()

    def test_algorithm_from_config_file_is_checked(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("algorithm=sgd\n")
        out = tmp_path / "served"
        assert main(["serve", "-c", str(path), "--out", str(out), "--timeout", "0.5"]) == 2
        assert "algorithm: serve runs fedasync-net" in capsys.readouterr().err
        assert not out.exists()

    def test_serve_survives_running_out_of_file_descriptors(self, tmp_path, monkeypatch):
        # serve runs with a soft RLIMIT_NOFILE of 32, and 48 idle
        # connections arrive while the worker holds the one task slot
        overrides = ["task=quadratic", "n_workers=1", "total_epochs=5", "max_staleness=0",
                     "n_samples=80", "dim=5"]
        cfg = parse_config(None, ["algorithm=fedasync-net"] + overrides).cfg
        pulled, go = threading.Event(), threading.Event()
        train = transport.local_train

        def held_until_go(*args, **kwargs):
            pulled.set()
            assert go.wait(timeout=30)
            return train(*args, **kwargs)

        def lower_fd_limit():  # in the child only
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))

        monkeypatch.setattr(transport, "local_train", held_until_go)
        out = tmp_path / "served"
        srv = subprocess.Popen(
            [sys.executable, "-m", "fedasync", "serve", "--bind", "127.0.0.1:0",
             "--out", str(out), "--timeout", "60"] + overrides,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lower_fd_limit,
        )
        idle, loop = [], {}
        try:
            _, host, port = srv.stdout.readline().split()
            address = (host, int(port))
            worker = threading.Thread(
                target=lambda: loop.update(result=transport.worker_loop(address, cfg, 0))
            )
            worker.start()
            assert pulled.wait(timeout=30)
            idle = [socket.create_connection(address, timeout=30) for _ in range(48)]
            assert "cannot accept" in srv.stderr.readline()
            go.set()
            worker.join(timeout=30)
            for sock in idle:
                sock.close()
            rest, _ = srv.communicate(timeout=30)
        except BaseException:
            srv.kill()
            srv.communicate()
            raise
        finally:
            go.set()
            for sock in idle:
                sock.close()
        assert loop["result"] == (5, 5)
        assert srv.returncode == 0
        assert "served 5 epochs" in rest

    def test_worker_reports_a_refused_connection_in_one_line(self, capsys):
        with socket.socket() as probe:  # a port that was bound, then closed
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = ["worker", "--connect", f"127.0.0.1:{port}", "--worker-id", "0",
                "task=quadratic", "n_samples=80", "dim=5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"127.0.0.1:{port}" in err and "refused" in err
