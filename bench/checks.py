"""Checks on the files one ``fedasync run`` call writes.

Nothing here imports fedasync. The data sets are regenerated from the
draw laws the package documents (``(seed, domain, index)`` seed
sequences; data domain 1, index 0 for the samples and 2 for the
train/eval split), and losses are recomputed with the formulas in the
package README. Every check compares the program's output with such an
independent computation, or with a property the method must have; none
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "epoch,gradients,loss,grad_norm_sq,accuracy,alpha_t,staleness,sim_time"
LOSS_RTOL = 1e-9
# sampled-quad: the final loss may not sit further above the
# least-squares optimum than this (observed 1.00-1.02).
OPTIMUM_FACTOR = 1.5


class CheckError(AssertionError):
    """An output that a correct program cannot produce."""


# -- inputs, regenerated ----------------------------------------------------


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, index]))


def dataset(cfg: dict, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Full data set of one repetition, before the train/eval split."""
    n, dim = int(cfg["n_samples"]), int(cfg["dim"])
    rng = _rng(seed, 0)
    if cfg["task"] == "quadratic":
        X = rng.standard_normal((n, dim))
        w_true = rng.standard_normal(dim)
        noise = rng.standard_normal(n) * float(cfg["noise_std"])
        return X, X @ w_true + noise
    classes = int(cfg["n_classes"])
    labels = rng.permutation(np.arange(n, dtype=np.int64) % classes)
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = float(cfg["sep"]) / math.sqrt(2.0)
    return means[labels] + rng.standard_normal((n, dim)), labels


def split(cfg: dict, seed: int):
    """``(X_train, y_train, X_eval, y_eval)`` of one repetition."""
    X, y = dataset(cfg, seed)
    n = len(y)
    n_eval = max(1, int(round(n * float(cfg["eval_frac"]))))
    order = _rng(seed, 2).permutation(n)
    ev, tr = np.sort(order[:n_eval]), np.sort(order[n_eval:])
    return X[tr], y[tr], X[ev], y[ev]


# -- objectives, as the README states them -----------------------------------


def quadratic_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    r = X @ w - y
    return float(0.5 * np.dot(r, r) / X.shape[0])


def _mlp_logits(p: np.ndarray, X: np.ndarray, hidden: int, classes: int) -> np.ndarray:
    d = X.shape[1]
    sizes = [d * hidden, hidden, hidden * classes, classes]
    if p.shape != (sum(sizes),):
        raise CheckError(f"params file has {p.shape[0]} values, the mlp needs {sum(sizes)}")
    W1, b1, W2, b2 = np.split(p, np.cumsum(sizes)[:-1])
    A = np.tanh(X @ W1.reshape(d, hidden) + b1)
    return A @ W2.reshape(hidden, classes) + b2


def mlp_loss(p, X, y, hidden: int, classes: int) -> float:
    z = _mlp_logits(p, X, hidden, classes)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(y)), y]))


def mlp_accuracy(p, X, y, hidden: int, classes: int) -> float:
    return float(np.mean(_mlp_logits(p, X, hidden, classes).argmax(axis=1) == y))


def decay(cfg: dict, staleness: int) -> float:
    strategy = cfg.get("strategy", "constant")
    if strategy == "constant":
        return 1.0
    if strategy == "polynomial":
        return float((staleness + 1) ** -float(cfg["poly_a"]))
    b = int(cfg["hinge_b"])
    return 1.0 if staleness <= b else 1.0 / (float(cfg["hinge_a"]) * (staleness - b) + 1.0)


# -- output files -------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict[str, str], list[dict]]:
    """``(# key=value header, rows)`` of a metrics or summary CSV."""
    header: dict[str, str] = {}
    rows: list[dict] = []
    names = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif names is None:
            if line != CSV_HEADER:
                raise CheckError(f"unexpected CSV header {line!r}")
            names = line.split(",")
        elif line:
            parts = line.split(",")
            if len(parts) != len(names):
                raise CheckError(f"row {line!r} has {len(parts)} fields")
            rows.append({k: (None if v == "" else float(v)) for k, v in zip(names, parts)})
    if names is None or not rows:
        raise CheckError("CSV has no header or no rows")
    return header, rows


def parse_params(text: str) -> np.ndarray:
    return np.array([float(line) for line in text.splitlines() if line.strip()])


def gradients_to_target(rows: list[dict], frac: float) -> float | None:
    """Gradients at the first row whose loss is at or below ``frac`` times row 0's."""
    target = rows[0]["loss"] * frac
    return next((r["gradients"] for r in rows if r["loss"] <= target), None)


def mean_rows(curves: list[list[dict]]) -> list[dict]:
    """Row-wise mean of loss and gradients over curves with one eval schedule."""
    n = min(len(c) for c in curves)
    return [
        {key: float(np.mean([c[i][key] for c in curves])) for key in ("loss", "gradients")}
        for i in range(n)
    ]


def check_rows(cfg: dict, rows: list[dict]) -> None:
    """Properties every metrics row of one repetition must have."""
    algo = cfg["algorithm"]
    total = int(cfg["total_epochs"])
    every = int(cfg["eval_every"])
    epochs = [int(r["epoch"]) for r in rows]
    expected = [0] + [e for e in range(1, total + 1) if e % every == 0 or e == total]
    if epochs != expected:
        raise CheckError(f"evaluation epochs {epochs[:5]}... differ from the schedule")
    if algo == "fedavg":
        steps = int(cfg["local_steps"]) * int(cfg["k"])
        lo = hi = steps
    else:
        lo, hi = int(cfg["h_min"]), int(cfg["h_max"])
    K = int(cfg.get("max_staleness", 0))
    alpha = float(cfg.get("alpha", 0.0))
    previous_time = 0.0
    for i, r in enumerate(rows):
        e, g, s = int(r["epoch"]), r["gradients"], r["staleness"]
        if not lo * e <= g <= hi * e or (algo == "fedavg" and g != lo * e):
            raise CheckError(f"epoch {e}: gradients {g} outside [{lo * e}, {hi * e}]")
        if s != int(s) or s < 0 or s > K:
            raise CheckError(f"epoch {e}: staleness {s} outside [0, {K}]")
        want = 0.0 if i == 0 or algo == "fedavg" else alpha * decay(cfg, int(s))
        if not math.isclose(r["alpha_t"], want, rel_tol=1e-12, abs_tol=0.0):
            raise CheckError(f"epoch {e}: alpha_t {r['alpha_t']!r}, expected {want!r}")
        if r["sim_time"] < previous_time:
            raise CheckError(f"epoch {e}: sim_time fell from {previous_time} to {r['sim_time']}")
        previous_time = r["sim_time"]
        if not math.isfinite(r["loss"]) or r["loss"] < 0:
            raise CheckError(f"epoch {e}: loss {r['loss']!r}")


def check_final(
    cfg: dict, seed: int, rows: list[dict], params: np.ndarray, optimum: bool = False
) -> None:
    """The last row against the params file and the data, recomputed here.

    With ``optimum`` (quadratic task only), the final loss must also lie
    between the least-squares optimum and ``OPTIMUM_FACTOR`` times it.
    """
    X, y, Xe, ye = split(cfg, seed)
    last = rows[-1]
    if cfg["task"] == "quadratic":
        loss = quadratic_loss(params, X, y)
    else:
        hidden, classes = int(cfg["hidden"]), int(cfg["n_classes"])
        loss = mlp_loss(params, X, y, hidden, classes)
        acc = mlp_accuracy(params, Xe, ye, hidden, classes)
        if not math.isclose(last["accuracy"], acc, rel_tol=1e-12):
            raise CheckError(f"last row accuracy {last['accuracy']!r}, recomputed {acc!r}")
        if acc <= 1.0 / classes:
            raise CheckError(f"held-out accuracy {acc} is not above chance")
    if not math.isclose(last["loss"], loss, rel_tol=LOSS_RTOL):
        raise CheckError(f"last row loss {last['loss']!r}, recomputed from params {loss!r}")
    if optimum:
        best = quadratic_loss(np.linalg.lstsq(X, y, rcond=None)[0], X, y)
        if loss < best * (1.0 - 1e-12) or loss > best * OPTIMUM_FACTOR:
            raise CheckError(
                f"final loss {loss!r} outside [1, {OPTIMUM_FACTOR}] x optimum {best!r}"
            )


def check_call(
    cfg: dict, seed: int, files: dict[str, bytes], stdout: str, optimum: bool = False
) -> tuple[float, float]:
    """Check every file of one call.

    Returns the gradients absorbed over all repetitions, and the
    gradients at which the summary first reached ``threshold_frac``
    times its initial loss (its last row's gradients if it never did).

    ``cfg`` is the workload's full config without ``seed``; ``seed`` is
    the call's base seed, so repetition r ran with ``seed + r``.
    """
    repeats = int(cfg["repeats"])
    expected = {f"rep{r:03d}{suffix}" for r in range(repeats) for suffix in (".csv", "_params.txt")}
    expected.add("summary.csv")
    if set(files) != expected:
        raise CheckError(f"output files {sorted(files)} differ from {sorted(expected)}")
    curves = []
    for r in range(repeats):
        header, rows = parse_csv(files[f"rep{r:03d}.csv"].decode("ascii"))
        for key, value in cfg.items():
            if key in header and header[key] != value:
                raise CheckError(f"rep {r}: header says {key}={header[key]}, asked for {value}")
        if header.get("rep_seed") != str(seed + r):
            raise CheckError(f"rep {r}: rep_seed {header.get('rep_seed')}, expected {seed + r}")
        check_rows(cfg, rows)
        params = parse_params(files[f"rep{r:03d}_params.txt"].decode("ascii"))
        check_final(cfg, seed + r, rows, params, optimum)
        curves.append(rows)
    _, summary = parse_csv(files["summary.csv"].decode("ascii"))
    want = mean_rows(curves)
    if len(summary) != len(want) or any(
        not math.isclose(a["loss"], b["loss"], rel_tol=1e-12)
        or not math.isclose(a["gradients"], b["gradients"], rel_tol=1e-12)
        for a, b in zip(summary, want)
    ):
        raise CheckError("summary.csv is not the row-wise mean of the repetitions")
    frac = float(cfg["threshold_frac"])
    reached = gradients_to_target(summary, frac)
    printed = f"gradients to {frac:g}x initial loss: " + (
        "never" if reached is None else f"{reached:.1f}"
    )
    if printed not in stdout:
        raise CheckError(f"stdout lacks {printed!r}: {stdout!r}")
    absorbed = sum(rows[-1]["gradients"] for rows in curves)
    return absorbed, summary[-1]["gradients"] if reached is None else reached
