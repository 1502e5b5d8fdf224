"""Run metrics: a fixed schema, written byte-deterministically.

Two sinks share one schema: CSV with ``#`` config comments, and JSONL.
:func:`write_csv` and :func:`read_csv` are the one CSV reader/writer,
used for the per-repetition metrics, the summaries and merged tables.
Floats are rendered with shortest round-trip repr and no line carries a
timestamp, so re-running the same seeded configuration reproduces the
files exactly, byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

CSV_HEADER = "epoch,gradients,loss,grad_norm_sq,accuracy,alpha_t,staleness,sim_time"
FIELDS = CSV_HEADER.split(",")
INT_FIELDS = ("epoch", "gradients", "staleness")  # written with str(); the rest are floats


@dataclass
class MetricsRecord:
    """One evaluation row.

    ``epoch`` counts applied updates (0 is the pre-training baseline),
    ``gradients`` the cumulative local gradient steps the server has
    absorbed. ``accuracy`` is ``None`` for regression tasks.
    ``sim_time`` is only meaningful in the discrete-event mode; other
    modes write 0.0.
    """

    epoch: int
    gradients: int
    loss: float
    grad_norm_sq: float
    accuracy: float | None
    alpha_t: float
    staleness: int
    sim_time: float

    def cells(self) -> list[str]:
        return [str(v) if n in INT_FIELDS else cell(v) for n, v in self._named()]

    def json_obj(self) -> dict:
        return {n: v if n in INT_FIELDS or v is None else float(v) for n, v in self._named()}

    def _named(self) -> list[tuple[str, object]]:
        return [(n, getattr(self, n)) for n in FIELDS]


def cell(value: float | None) -> str:
    """One float cell: shortest round-trip repr, empty for None."""
    return "" if value is None else repr(float(value))


def write_csv(
    path: str,
    rows: Iterable[Sequence[str]],
    comments: dict[str, object] | None = None,
    columns: Sequence[str] = FIELDS,
    footer: str | None = None,
) -> None:
    """The one CSV format: ``# key=value`` comment lines in the order
    given, the ``columns`` header, one line per row of cells, and an
    optional ``# footer`` line after the rows."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        if footer is not None:
            fh.write(f"# {footer}\n")


def read_csv(path: str) -> tuple[dict[str, str], list[list[str]]]:
    """Read a file in the :func:`write_csv` format with the metrics columns.

    Returns the ``# key=value`` comments and the rows as lists of cells.
    Other ``#`` lines and blank lines are skipped. The header must be
    :data:`CSV_HEADER` and every row must have one cell per column.
    """
    comments: dict[str, str] = {}
    rows: list[list[str]] = []
    header_seen = False
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                comments[key] = value
                continue
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ValueError(f"{path}:{line_no}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(FIELDS):
                raise ValueError(
                    f"{path}:{line_no}: {len(parts)} fields, expected {len(FIELDS)}"
                )
            rows.append(parts)
    if not header_seen:
        raise ValueError(f"{path}: no header line found")
    return comments, rows


def write_metrics_csv(
    records: list[MetricsRecord], path: str, config: dict[str, object] | None = None
) -> None:
    """Write records as CSV, preceded by ``# key=value`` config comments.

    The comment block reflects only the configuration handed in (never
    clocks or hostnames); keys are emitted in the order given.
    """
    write_csv(path, (rec.cells() for rec in records), config)


def write_metrics_jsonl(records: list[MetricsRecord], path: str) -> None:
    """Write records as one JSON object per line, keys in schema order."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec.json_obj()) + "\n")


def save_params(params, path: str) -> None:
    """One coordinate per line, shortest round-trip repr, so
    ``numpy.loadtxt(path, ndmin=1)`` reads the vector back bit for bit."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v in params:
            fh.write(repr(float(v)) + "\n")
