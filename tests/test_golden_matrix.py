"""Byte-for-byte reference outputs of ``fedasync run`` across the whole
algorithm × task matrix.

``tests/test_golden.py`` pins six hand-picked cases. This file pins every
one of the five algorithms on each of the three tasks at tiny sizes, with
an evaluation row after every epoch, so every bound kernel (the step, the
training-split evaluation and the held-out score) writes into the CSVs.
One wide network (``hidden=64``) under the sampled mode runs the MLP's
work arrays at a width where the row max folds many rows. The TCP
algorithm runs one worker, whose order of events is fixed. The same
matrix, run with every objective's checked one-shot forms made to raise,
shows that a run calls only the bound kernels.

To print fresh digests (after a deliberate output change):
``PYTHONPATH=src python tests/test_golden_matrix.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from fedasync.cli import main
from fedasync.numerics import LogisticObjective, MlpObjective, QuadraticObjective
from test_golden import NUMPY_VERSION, _digests

ALGORITHMS = ("fedasync-sampled", "fedasync-latency", "fedavg", "sgd", "fedasync-net")
TINY = ["n_samples=40", "dim=3", "total_epochs=8", "eval_every=1", "h_min=1", "h_max=3",
        "batch_size=4", "repeats=1"]
TASK = {
    "quadratic": ["task=quadratic"],
    "logistic": ["task=logistic"],
    "mlp": ["task=mlp", "n_classes=3", "hidden=4"],
}
ALGORITHM = {
    "fedasync-sampled": ["n_workers=2", "max_staleness=2"],
    "fedasync-latency": ["n_workers=2", "max_staleness=2"],
    "fedavg": ["n_workers=2", "k=2"],
    "sgd": ["n_workers=2"],
    "fedasync-net": ["n_workers=1"],
}


def _overrides(algorithm: str, task: str) -> list[str]:
    return [f"algorithm={algorithm}", *TINY, *ALGORITHM[algorithm], *TASK[task]]


# name -> fedasync run overrides
CASES: dict[str, list[str]] = {
    f"{algorithm}/{task}": _overrides(algorithm, task)
    for algorithm in ALGORITHMS
    for task in TASK
}
CASES["fedasync-sampled/wide-mlp"] = [
    "algorithm=fedasync-sampled", "task=mlp", "hidden=64", "n_classes=4", "n_samples=100",
    "dim=6", "n_workers=2", "total_epochs=6", "eval_every=1", "h_min=1", "h_max=2",
    "batch_size=8", "repeats=1",
]

# made with numpy 2.4.6 (NUMPY_VERSION)
DIGESTS: dict[str, dict[str, str]] = {
    'fedasync-sampled/quadratic': {
        'rep000.csv': '49d49ef121c93cc560142e968f77ffbcbf4c81371675e74dbdfd3324cba011f3',
        'rep000_params.txt': '845e6892985fc6400b383affcdda6f0ef26e5ac62d55704d7441f8afc604bbed',
        'summary.csv': '4b8b4014c5b5f602c69ee769e6e957f4408e5d52af57a00732e880d24a038e7d',
    },
    'fedasync-sampled/logistic': {
        'rep000.csv': 'c76b32de5c5a28e75d532fd333b5a25b618ec947bbcdcde6b0e1cb81d01834fe',
        'rep000_params.txt': 'fce52d70702e35dc128a3b57b9f870b536bc013184d8ec9bcf3da60f2624b3f8',
        'summary.csv': '31f199a3fad2801c86a16ee36774186537454bb507a6c8620617a825ead6faa9',
    },
    'fedasync-sampled/mlp': {
        'rep000.csv': 'b2d22b9be91cffaa9154f44eed0f990e7ea1dff71a70a24a0b40abae33f5564d',
        'rep000_params.txt': 'a757ff5d88cf31b6dca232f0206449ccaf935837bc0ce44478bd0e82244acc2d',
        'summary.csv': '80f12665d2545d69abdbf5cac33ab1f84b54e0d939daec3e276d380387cf848c',
    },
    'fedasync-latency/quadratic': {
        'rep000.csv': 'efa19b436f04db79a58cf03f12b1b5060879aa2a2807474f69c4657f3ca8f0b0',
        'rep000_params.txt': '7315bc5fbfcdaa7424faa7262acc10df7659df710a2e318c7d7241d8eb5b98fa',
        'summary.csv': '7c48bf77373ce291f0f88bee80bb42397e1f972e35b815e515accbd9a20ea972',
    },
    'fedasync-latency/logistic': {
        'rep000.csv': '136b49368f220ef4f9700b0762dddd32042a5ce22d2808c996b7facd858f2b4b',
        'rep000_params.txt': '02f0ee37cb45923d370acd19dc624fe64fa132b2f283624998a7b1847420cec1',
        'summary.csv': '8d49c5a2da7f1c6dae6279a5b8747334229e97323b9c52584e09f84e30866da4',
    },
    'fedasync-latency/mlp': {
        'rep000.csv': 'da129de00d7ab0fbf31dd791252bddee66b18a9a8eb294f6d64cc609b7553ba7',
        'rep000_params.txt': '125f516088b5eee3e6af76d9ff6547f487460a0a5aa00bf4cf64952747a198a3',
        'summary.csv': '630dc9587ac0f783c8fccd42604db5327eb7d1b25a5c93e513811a53594d14e1',
    },
    'fedavg/quadratic': {
        'rep000.csv': '391330d12acac094bcde5e3b0bd43b5c611f6d6ce42ccb7199999ec5b00811b3',
        'rep000_params.txt': 'dedf00fe244834fb2aa1e0abae978e190f24bc007d8599f32bb4ff7485058438',
        'summary.csv': 'cb1dcbbb509937f7ba501aa52a1dc447b44268568a3bd15132904e698d3114f1',
    },
    'fedavg/logistic': {
        'rep000.csv': '66878113a98260c1cde5b76bed41f7f75ddfd0575de5c174d24185e4b08bb448',
        'rep000_params.txt': 'e559f3df600f423fe83e202970379199018cf07fce9b36dd33332e02ff801078',
        'summary.csv': '3beb72c7858f559ba72de4ee51cc4e0294417a5147a6137a15db934835320652',
    },
    'fedavg/mlp': {
        'rep000.csv': 'a74fa9860f56b99d5ad2f599a88858639cef542179ae5c5a57f1e6852147d095',
        'rep000_params.txt': 'e965b0efa0cf2cdb53451e8ce0685aefdf462425720c01664acf5b65562605f4',
        'summary.csv': 'a2d301a981afea0c39133f96bb0193a9e1e831e55c4aadcf5a61891235397189',
    },
    'sgd/quadratic': {
        'rep000.csv': '3c9c8b3fb43610425412bacdd806bf394d7fa1aa5f4d6e50b4f0ad1865040b09',
        'rep000_params.txt': 'bec77098fd04c7f7df7e98ac7f5b33a401ecea6539dbb1723d7a88baf48b06d2',
        'summary.csv': '66d715f8565c434dd860d15b12209f0b8a73262750f7ec869a1f9eb56cc7450a',
    },
    'sgd/logistic': {
        'rep000.csv': 'c273c4d1e71945583c49a59d7e45b53600496b2249a6868311be4fd97c38a371',
        'rep000_params.txt': '3c5520057288dc7beed12d2555e83c6d8ce6b6b772c023f1fa193795830856d5',
        'summary.csv': '486caf810f9ce294cae9469bd80f74641f0df1e89c327dad01292f71b8ad9e69',
    },
    'sgd/mlp': {
        'rep000.csv': 'fb6e874a5193bb86d0617fbe295cc45eb442f6333d856e71655f20729b14b840',
        'rep000_params.txt': '4811f4c5fc6d7eb0bd0f41638fdc0644d5cd3dae7e10d70bc338f4e8258ea50a',
        'summary.csv': '7bf297951c4acf3b9d4e54e230b80fbea714f125561d5a7d7f508297e03e82f6',
    },
    'fedasync-net/quadratic': {
        'rep000.csv': 'db85843a2651ee8473098c851b09e0d1fb49895c68ad6fdf9df9b6dc6f264140',
        'rep000_params.txt': 'e3e82d2d0eb4e44f3d55a9abf996dce0326fa2f0ce27d5cf50d024c15af2ba39',
        'summary.csv': '6544bbfbf43377b6c15beb6759daad86ff3c0ff7ab741de9352a6fb0cd423e95',
    },
    'fedasync-net/logistic': {
        'rep000.csv': '4343b388413fd76405e0edb0cb119ad0fc66a81e67c3c881c22be2c57e54bf93',
        'rep000_params.txt': '68870d4487c8f4cbd318368878c00212bda87555819bff08c9a0bf47d579d7de',
        'summary.csv': '54512c03ef54cc88cb5ddfe6b0ccca2e6e48fdcfd1704591eb2f7a20faa309d3',
    },
    'fedasync-net/mlp': {
        'rep000.csv': 'f21c9a51c5f8ee7d9f33b87c08736e65d934719a7187b95bb717fef8c09f0f5d',
        'rep000_params.txt': '6f009ef58ae9f89c07763128cfff59c7f37da543e5d6ea720d50dd614d394858',
        'summary.csv': '4c84cb83e0c5f7521a18f7d40875007cdac4ddbd0a18ae4838cf45c74d35f758',
    },
    'fedasync-sampled/wide-mlp': {
        'rep000.csv': 'd24b72ffc74bceffbf713fbc17ef05878e8d98fad8a234f2ffae108bb10365e8',
        'rep000_params.txt': '0bd7f20d9447fb8addbf96e216a4cec79ba240490e2a286fce3a2005c327738f',
        'summary.csv': '68098b3be8feb6ae3570e92d2fa472b2bbab95abcb889db7ff3724e2c11176e4',
    },
}


def _run_all(root: Path) -> dict[str, dict[str, str]]:
    """Run every case under ``root``; returns the digests per case."""
    out: dict[str, dict[str, str]] = {}
    for name, overrides in CASES.items():
        directory = root / name
        assert main(["run", "--out", str(directory)] + overrides) == 0, name
        out[name] = _digests(directory)
    return out


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden_matrix"))


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were made with numpy {NUMPY_VERSION}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("name", CASES)
def test_outputs_match_reference_digests(produced, name):
    assert produced[name] == DIGESTS[name]


def test_no_run_calls_the_one_shot_forms(tmp_path, monkeypatch):
    def refuse(self, *args):
        raise AssertionError(f"a run called a one-shot form of {type(self).__name__}")

    for objective in (QuadraticObjective, LogisticObjective, MlpObjective):
        for name in ("loss", "grad", "accuracy"):
            monkeypatch.setattr(objective, name, refuse)
    _run_all(tmp_path)


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
