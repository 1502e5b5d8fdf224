"""Synthetic datasets, device sharding, and minibatch sampling.

All randomness flows through ``numpy.random.Generator`` instances derived
from ``(seed, domain, index)`` seed sequences, so every consumer of the
same logical stream sees the same draws regardless of which process or
execution mode it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Stream domains. Keeping them distinct means e.g. latency draws can never
# perturb a worker's minibatch sequence.
DATA_DOMAIN = 1
WORKER_DOMAIN = 2
DELAY_DOMAIN = 3
SERVER_DOMAIN = 4
INIT_DOMAIN = 5


def domain_rng(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` of ``domain`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, domain, index]))


def worker_rng(seed: int, worker_id: int) -> np.random.Generator:
    """The training stream (batch and step-count draws) of one worker."""
    return domain_rng(seed, WORKER_DOMAIN, worker_id)


def delay_rng(seed: int, worker_id: int) -> np.random.Generator:
    """The latency stream of one worker, separate from its training stream."""
    return domain_rng(seed, DELAY_DOMAIN, worker_id)


@dataclass
class Dataset:
    """A full task: feature matrix, targets, and task metadata.

    Attributes
    ----------
    features : ndarray
        ``(n_samples, dim)`` float64 matrix.
    targets : ndarray
        ``(n_samples,)`` vector; float64 for regression, int64 class ids
        for classification.
    task : str
        ``"regression"`` or ``"classification"``.
    n_classes : int
        Number of classes; 0 for regression.
    true_params : ndarray or None
        The planted parameter vector for synthetic regression tasks, kept
        so tests can measure recovery. Not persisted by ``save_dataset``.
    """

    features: np.ndarray
    targets: np.ndarray
    task: str
    n_classes: int = 0
    true_params: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError(
                f"targets shape {self.targets.shape} does not match "
                f"{self.features.shape[0]} samples"
            )
        if self.task == "classification" and self.n_classes < 2:
            raise ValueError(f"classification needs n_classes >= 2, got {self.n_classes}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Shard:
    """One device's slice of a dataset."""

    device_id: int
    features: np.ndarray
    targets: np.ndarray
    indices: np.ndarray  # positions in the parent dataset

    def __len__(self) -> int:
        return self.features.shape[0]


def gen_regression(
    n_samples: int, dim: int, noise_std: float, seed: int
) -> Dataset:
    """Linear-model data with a planted parameter vector.

    Draw law (one generator, ``domain_rng(seed, DATA_DOMAIN)``, in this
    order): features ``standard_normal((n_samples, dim))``, planted
    vector ``standard_normal(dim)``, noise ``standard_normal(n_samples)``
    scaled by ``noise_std``. Targets are ``X @ w_true + noise``.
    """
    if dim < 1 or n_samples < dim:
        raise ValueError(f"need n_samples >= dim >= 1, got ({n_samples}, {dim})")
    if not np.isfinite(noise_std) or noise_std < 0.0:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    rng = domain_rng(seed, DATA_DOMAIN)
    X = rng.standard_normal((n_samples, dim))
    w_true = rng.standard_normal(dim)
    noise = rng.standard_normal(n_samples) * noise_std
    return Dataset(
        features=X,
        targets=X @ w_true + noise,
        task="regression",
        true_params=w_true,
    )


def gen_classification(
    n_samples: int, dim: int, n_classes: int, sep: float, seed: int
) -> Dataset:
    """Gaussian-blob classification with pairwise mean distance ``sep``.

    Class ``k`` has mean ``(sep / sqrt(2)) * e_k`` (requires
    ``n_classes <= dim``) and unit isotropic noise. Labels are balanced:
    ``arange(n) % n_classes`` permuted by the generator. Draw law (one
    generator, ``domain_rng(seed, DATA_DOMAIN)``): the label permutation,
    then ``standard_normal((n_samples, dim))`` noise.
    """
    if n_samples < 1 or dim < 1:
        raise ValueError(f"need n_samples >= 1 and dim >= 1, got ({n_samples}, {dim})")
    if n_classes < 2:
        raise ValueError(f"need n_classes >= 2, got {n_classes}")
    if n_classes > dim:
        raise ValueError(
            f"need n_classes <= dim to place the class means, "
            f"got {n_classes} > {dim}"
        )
    if not np.isfinite(sep) or sep <= 0.0:
        raise ValueError(f"sep must be finite and > 0, got {sep!r}")
    rng = domain_rng(seed, DATA_DOMAIN)
    labels = rng.permutation(np.arange(n_samples, dtype=np.int64) % n_classes)
    means = np.zeros((n_classes, dim))
    means[np.arange(n_classes), np.arange(n_classes)] = sep / np.sqrt(2.0)
    X = means[labels] + rng.standard_normal((n_samples, dim))
    return Dataset(features=X, targets=labels, task="classification", n_classes=n_classes)


def partition_non_iid(
    dataset: Dataset, n_devices: int, classes_per_device: int, seed: int
) -> list[Shard]:
    """Split a dataset into per-device shards with label skew.

    The skewed path sorts samples by target (stable sort; class id for
    classification, raw value for regression), cuts the sorted order into
    ``n_devices * classes_per_device`` contiguous equal-size blocks, and
    deals the blocks out in order, ``classes_per_device`` consecutive
    blocks per device. Each device therefore sees a narrow, contiguous
    range of the label spectrum (at most ``classes_per_device`` distinct
    labels when class counts divide the blocks evenly), and devices far
    apart in id see disjoint ranges.

    For classification ``classes_per_device`` must lie in
    ``[1, n_classes]``; the value ``n_classes`` disables the skew, giving
    a seeded uniform split with shard sizes differing by at most one.
    For regression the knob counts target-range blocks per device, with
    0 selecting the uniform split. The skewed path consumes no
    randomness at all.
    """
    n = len(dataset)
    if not 1 <= n_devices <= n:
        raise ValueError(f"need 1 <= n_devices <= {n} samples, got {n_devices}")
    if dataset.task == "classification":
        if not 1 <= classes_per_device <= dataset.n_classes:
            raise ValueError(
                f"classes_per_device must be in [1, {dataset.n_classes}], "
                f"got {classes_per_device}"
            )
        uniform = classes_per_device == dataset.n_classes
    else:
        if classes_per_device < 0:
            raise ValueError(
                f"classes_per_device must be >= 0, got {classes_per_device}"
            )
        uniform = classes_per_device == 0
    if uniform:
        if n < n_devices:
            raise ValueError(f"cannot split {n} samples across {n_devices} devices")
        rng = domain_rng(seed, DATA_DOMAIN, 1)
        order = rng.permutation(n)
        parts = np.array_split(order, n_devices)
    else:
        n_blocks = n_devices * classes_per_device
        if n < n_blocks:
            raise ValueError(
                f"cannot form {n_blocks} blocks from {n} samples; "
                f"reduce n_devices or classes_per_device"
            )
        order = np.argsort(dataset.targets, kind="stable")
        blocks = np.array_split(order, n_blocks)
        parts = [
            np.concatenate(blocks[i * classes_per_device : (i + 1) * classes_per_device])
            for i in range(n_devices)
        ]
    shards = []
    for device_id, idx in enumerate(parts):
        idx = np.sort(idx)
        shards.append(
            Shard(
                device_id=device_id,
                features=dataset.features[idx],
                targets=dataset.targets[idx],
                indices=idx,
            )
        )
    return shards


def sample_minibatch(
    shard: Shard, batch_size: int, rng: np.random.Generator, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` uniform with-replacement minibatches from one shard, as
    ``(features, targets)`` with a leading axis of length ``steps``.

    Draw law: a single ``rng.integers(0, len(shard), size=batch_size)``
    call, so one batch costs exactly one generator invocation.

    The ``steps`` batches are drawn by one ``rng.integers(0, len(shard),
    size=(steps, batch_size))`` call. Row ``h`` and the stream position
    afterwards equal those of ``steps`` successive single-batch draws, so
    the draw law per batch is unchanged. The gather holds ``steps *
    batch_size`` feature rows in memory.
    """
    if len(shard) == 0:
        raise ValueError("cannot sample from an empty shard")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    idx = rng.integers(0, len(shard), size=(steps, batch_size))
    return shard.features[idx], shard.targets[idx]


def eval_rows(n: int, eval_frac: float) -> int:
    """Rows of ``n`` that :func:`train_eval_split` holds out: at least one."""
    return max(1, int(round(n * eval_frac)))


def train_eval_split(dataset: Dataset, eval_frac: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-and-cut into train and held-out evaluation sets."""
    if not 0.0 < eval_frac < 1.0:
        raise ValueError(f"eval_frac must be in (0, 1), got {eval_frac!r}")
    n = len(dataset)
    n_eval = eval_rows(n, eval_frac)
    if n_eval >= n:
        raise ValueError(f"eval_frac {eval_frac!r} leaves no training data")
    rng = domain_rng(seed, DATA_DOMAIN, 2)
    order = rng.permutation(n)
    eval_idx = np.sort(order[:n_eval])
    train_idx = np.sort(order[n_eval:])

    def _take(idx):
        return Dataset(
            features=dataset.features[idx],
            targets=dataset.targets[idx],
            task=dataset.task,
            n_classes=dataset.n_classes,
            true_params=dataset.true_params,
        )

    return _take(train_idx), _take(eval_idx)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset as plain text: one header line, one row per sample.

    Header: ``# task=<task> n_samples=<n> dim=<d> n_classes=<c>``.
    Rows: the target first, then the features, space separated. Floats
    use shortest round-trip repr, so ``numpy.loadtxt`` reads the rows back
    bit-exactly.
    ``true_params`` is not persisted.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"# task={dataset.task} n_samples={len(dataset)} "
            f"dim={dataset.dim} n_classes={dataset.n_classes}\n"
        )
        classify = dataset.task == "classification"
        for target, row in zip(dataset.targets, dataset.features):
            head = str(int(target)) if classify else repr(float(target))
            fh.write(head + " " + " ".join(repr(float(v)) for v in row) + "\n")
