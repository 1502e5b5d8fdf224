"""Byte-for-byte reference outputs of ``fedasync run`` and ``fedasync compare``.

Each case runs the command line on a small configuration and compares
the sha256 digest of every file it writes with the digest recorded
below. The digests pin the metrics CSVs, params files, JSONL sidecars,
summaries, the ``# run-failed:`` marker of a diverging run and the
merged ``compare --out`` table, so a refactor that changes a single
byte of output fails here. Floats depend on numpy's kernels, so the
check runs only under the numpy version the digests were made with.

To print fresh digests (after a deliberate output change):
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedasync.cli import main

NUMPY_VERSION = "2.4.6"

QUAD = ["task=quadratic", "n_samples=80", "dim=5", "h_min=2", "h_max=5", "repeats=2"]

# name -> (expected exit code, fedasync run overrides)
CASES: dict[str, tuple[int, list[str]]] = {
    "sampled": (
        0,
        ["algorithm=fedasync-sampled", "n_workers=4", "total_epochs=30", "eval_every=4",
         "batch_size=8", "jsonl=true"] + QUAD,
    ),
    "latency": (
        0,
        ["algorithm=fedasync-latency", "task=logistic", "n_workers=4", "total_epochs=30",
         "eval_every=3", "n_samples=80", "dim=5", "h_min=2", "h_max=5", "batch_size=full",
         "repeats=2", "max_staleness=2"],
    ),
    "fedavg": (
        0,
        ["algorithm=fedavg", "task=mlp", "n_classes=3", "hidden=4", "n_workers=4", "k=2",
         "total_epochs=20", "eval_every=3", "n_samples=90", "dim=5", "h_min=2", "h_max=4",
         "batch_size=6", "repeats=2"],
    ),
    "sgd": (0, ["algorithm=sgd", "n_workers=4", "total_epochs=30", "batch_size=8"] + QUAD),
    "net": (
        0,
        ["algorithm=fedasync-net", "n_workers=1", "total_epochs=20", "eval_every=3",
         "batch_size=8"] + QUAD,
    ),
    "diverging": (
        1,
        ["algorithm=fedasync-sampled", "n_workers=2", "total_epochs=60", "eval_every=2",
         "gamma=1e40", "batch_size=full", "repeats=1", "task=quadratic", "n_samples=40",
         "dim=4", "h_min=2", "h_max=5"],
    ),
}

# summaries merged by ``fedasync compare --out`` (same objective keys)
COMPARED = ("sampled", "sgd")

# made with numpy 2.4.6 (NUMPY_VERSION)
DIGESTS: dict[str, dict[str, str]] = {
    'sampled': {
        'rep000.csv': '56ffa0b2373399433e31867d0e07d2ba95eb55048c0c24076bdaf8c97915119a',
        'rep000.jsonl': '0722e528be0e4d84333fdf4d012f89e3077e4cc2bbec52fec4dddaa00004c3dd',
        'rep000_params.txt': 'b9af3ad4ebc9dcc962796dbf23beb29a749947ea32d3a9f5e0988ccbde987ac0',
        'rep001.csv': '7fc9633721816606995a5cc6745482492302133813c90c332b6d774ab860813d',
        'rep001.jsonl': 'e58c0190f9601bbdf979e37a904698159a8bfd1d530fa1e7b26751a4c9eeb64c',
        'rep001_params.txt': 'da2e2974580c025a5df7d23d6d4b4753bc7dd381fec803cac668dbae2893d4df',
        'summary.csv': '00ea6aeccac6904298238a939648466f93d6b15d0990fd0a41a159990e90c474',
    },
    'latency': {
        'rep000.csv': 'e99c8442e46ff29b1addada1b5961e29e99c2e08a7ffeda6fd73179bbcf76531',
        'rep000_params.txt': '40778b4faf068a3eb8ec304f1540a3f6bbbd56515659b2b14865143469099021',
        'rep001.csv': '63e3187be951bfdc2269a8d3b758e0c5f93d8afe3157fc059d3ffcf53b3a331d',
        'rep001_params.txt': 'f18e911d08b63b73e4d566f57bbeda2fb3be31f3feb1656dbb63529aee53efa5',
        'summary.csv': '8844d1263e8965a11eeeb321cc1c5d81e67c4949eb07e77b96c52b80559273c0',
    },
    'fedavg': {
        'rep000.csv': 'c8ea1bae1e2161a6fdd3c26e02ae92b806f15ac7a34cffdcc6691313af0cb3d6',
        'rep000_params.txt': '59b7ef727051be16f9903cc8290eea0acdbaf24651bf9955fe806ebe57e0101e',
        'rep001.csv': '18e64c79c711b0dfa1bfa8a4c80ce067a2ab880867fe4cff47b33e80af8d2b85',
        'rep001_params.txt': 'f1bd74becab09d5c748611267723ceaf76b39c7eb28bb2bca7ba8daa204e6126',
        'summary.csv': 'c3f50b429861fdc893ca3a1cc5fc43428520f9a2a5eb6ac2ce36d6dab17322e9',
    },
    'sgd': {
        'rep000.csv': '1d649c3fe2f9673171efb18cf872d8faa8f53da0b39187f7299f6f48daaaf3de',
        'rep000_params.txt': '48851890ee5be27e66abcfb8973f44bc02298d748ce85a5da67622d21b42e9b9',
        'rep001.csv': '3bd807d38452e14b9a026dec0a77dc27dc6ee5ee35328f00b47fbc3e9db3fbea',
        'rep001_params.txt': '92a8b52080722abe0c84104d76fd529f518afc6b0423f8fde5fb355fc651f0e1',
        'summary.csv': '6cd4864da87fc01b5cf430ee78f41fe85cbe9c2ec88f7ad49bce4ef8bbea3852',
    },
    'net': {
        'rep000.csv': '6d228a95473f63e69a075990d0163cc99594274e311d10d02600ebd3c647096c',
        'rep000_params.txt': '3db84a1f90b8f99ae2187aec1008310c4db5503940449410597479b109e1009d',
        'rep001.csv': '3f1a24ecfffba231b0878842744d42770a153b738f34783bdc3faaa8778dd104',
        'rep001_params.txt': '9d5f95a38e4a78bf0af28372811a8f3d4413fbe0610b4bae3b5ee50012816ccf',
        'summary.csv': 'abb29c2a66dc398d1817dc7703ba14ebd950eda1eea76b2b4295e9ceb3d74e2c',
    },
    'diverging': {
        'rep000.csv': '35aa70388fcda218373f40998a91f7a466f647fdfbc3de2ac28043c61e6f0546',
    },
    'compare': {
        'merged.csv': '726a1a955656ad1d8ef9256fbe6f8312da79db64b6018f45302b8b91b5aa52d5',
    },
}


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def _run_all(root: Path) -> dict[str, dict[str, str]]:
    """Run every case under ``root``; returns the digests per case."""
    out: dict[str, dict[str, str]] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the diverging case overflows
        for name, (code, overrides) in CASES.items():
            rc = main(["run", "--out", str(root / name)] + overrides)
            assert rc == code, f"{name}: exit code {rc}, expected {code}"
            out[name] = _digests(root / name)
    summaries = [str(root / name / "summary.csv") for name in COMPARED]
    # labels are paths; run from root so they do not depend on where root is
    merged = root / "compare" / "merged.csv"
    merged.parent.mkdir()
    assert main(["compare", *summaries, "--out", str(merged)]) == 0
    label_free = merged.read_text().replace(str(root) + "/", "")
    out["compare"] = {merged.name: hashlib.sha256(label_free.encode()).hexdigest()}
    return out


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were made with numpy {NUMPY_VERSION}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("name", [*CASES, "compare"])
def test_outputs_match_reference_digests(produced, name):
    assert produced[name] == DIGESTS[name]


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        result = _run_all(Path(tmp))
    print(f"# numpy {np.__version__}", file=sys.stderr)
    print("DIGESTS: dict[str, dict[str, str]] = {")
    for name, files in result.items():
        print(f"    {name!r}: {{")
        for fname, digest in files.items():
            print(f"        {fname!r}: {digest!r},")
        print("    },")
    print("}")
