"""Datasets: synthetic generation, Dirichlet partitioning, binary/CSV IO.

The synthetic generator draws one Gaussian blob per class (unit isotropic
covariance, mean uniformly on a sphere whose radius controls how separable
the classes are). Partitioning follows the per-class Dirichlet convention:
for each class a proportion vector over clients is drawn from Dir(alpha) and
the class samples are dealt out by largest-remainder rounding.
"""

from __future__ import annotations

import csv as csv_module
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
from .rng import derive_rng

DATASET_MAGIC = b"FEDDS1"
_MAX_CLASSES = 1 << 16  # labels are stored as u16


@dataclass
class Dataset:
    """Feature matrix (n, d) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 1:
            raise ParameterError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} != ({n},)")
        if self.num_classes < 1:
            raise ParameterError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ParameterError("labels must lie in [0, num_classes)")
        if not np.isfinite(self.features).all():
            raise ParameterError("features must be finite")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.num_classes,
            name if name is not None else self.name,
        )

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class ClientPartition:
    """Indices into a parent dataset owned by one client."""

    client_id: int
    sample_indices: np.ndarray

    def __len__(self) -> int:
        return self.sample_indices.shape[0]


@dataclass(frozen=True)
class PartitionSpec:
    num_clients: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.num_clients < 1:
            raise ParameterError(f"num_clients must be >= 1, got {self.num_clients}")
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    feature_dim: int,
    class_separation: float,
    seed: int,
) -> Dataset:
    """One Gaussian blob per class; fully determined by the seed.

    Class means are drawn uniformly on the sphere of radius class_separation
    (all classes coincide at the origin when the separation is 0), sample
    noise is standard normal. Means and noise come from independent streams
    so datasets with the same seed share their class geometry.
    """
    if num_classes < 1 or samples_per_class < 1 or feature_dim < 1:
        raise ParameterError("num_classes, samples_per_class and feature_dim must be >= 1")
    if class_separation < 0.0:
        raise ParameterError(f"class_separation must be >= 0, got {class_separation}")
    mean_rng = derive_rng(seed, 0)
    noise_rng = derive_rng(seed, 1)
    features = np.empty((num_classes * samples_per_class, feature_dim))
    for cls in range(num_classes):
        direction = mean_rng.normal(size=feature_dim)
        direction /= np.linalg.norm(direction)
        mean = class_separation * direction
        rows = slice(cls * samples_per_class, (cls + 1) * samples_per_class)
        features[rows] = noise_rng.normal(size=(samples_per_class, feature_dim)) + mean
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    name = f"synthetic-c{num_classes}-d{feature_dim}-sep{class_separation:g}-seed{seed}"
    return Dataset(features, labels, num_classes, name)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, closest to proportions * total."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")  # ties -> lower index
        counts[order[:shortfall]] += 1
    return counts


def dirichlet_partition(dataset: Dataset, spec: PartitionSpec) -> list[ClientPartition]:
    """Split a dataset into per-client index sets via per-class Dir(alpha).

    The result is a disjoint cover of [0, n). Clients left empty by the draw
    are repaired by moving one sample from the currently largest client, so
    every client can train.
    """
    n = len(dataset)
    if spec.num_clients > n:
        raise ParameterError(
            f"cannot give {spec.num_clients} clients nonempty shares of {n} samples"
        )
    rng = derive_rng(spec.seed)
    assigned: list[list[np.ndarray]] = [[] for _ in range(spec.num_clients)]
    alpha_vec = np.full(spec.num_clients, spec.alpha, dtype=np.float64)
    for cls in range(dataset.num_classes):
        class_indices = np.flatnonzero(dataset.labels == cls)
        if class_indices.size == 0:
            continue
        proportions = rng.dirichlet(alpha_vec)
        if not np.isfinite(proportions).all() or proportions.sum() <= 0.0:
            # extreme alpha underflow; fall back to an even split
            proportions = np.full(spec.num_clients, 1.0 / spec.num_clients)
        counts = _largest_remainder(proportions, class_indices.size)
        start = 0
        for client, count in enumerate(counts):
            if count:
                assigned[client].append(class_indices[start : start + count])
            start += count

    sizes = [sum(a.size for a in chunks) for chunks in assigned]
    flat = [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
        for chunks in assigned
    ]
    # repair: every client must end up with at least one sample
    while min(sizes) == 0:
        needy = sizes.index(0)
        donor = int(np.argmax(sizes))
        moved = flat[donor][-1]
        flat[donor] = flat[donor][:-1]
        flat[needy] = np.append(flat[needy], moved)
        sizes[donor] -= 1
        sizes[needy] += 1
    return [
        ClientPartition(client_id=i, sample_indices=np.sort(arr))
        for i, arr in enumerate(flat)
    ]


def partition_covers(partitions: list[ClientPartition], n: int) -> bool:
    """True when the partitions are a disjoint cover of range(n)."""
    if not partitions:
        return n == 0
    merged = np.concatenate([p.sample_indices for p in partitions])
    if merged.size != n:
        return False
    return bool(np.array_equal(np.sort(merged), np.arange(n)))


def stratified_split(
    dataset: Dataset, holdout_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split into (main, holdout) keeping per-class proportions.

    Roughly holdout_fraction of each class goes to the holdout; both sides
    must stay nonempty.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ParameterError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    rng = derive_rng(seed)
    holdout_parts = []
    main_parts = []
    for cls in range(dataset.num_classes):
        class_indices = np.flatnonzero(dataset.labels == cls)
        if class_indices.size == 0:
            continue
        shuffled = rng.permutation(class_indices)
        k = int(round(holdout_fraction * class_indices.size))
        holdout_parts.append(shuffled[:k])
        main_parts.append(shuffled[k:])
    main_idx = np.sort(np.concatenate(main_parts)) if main_parts else np.empty(0, np.int64)
    hold_idx = np.sort(np.concatenate(holdout_parts)) if holdout_parts else np.empty(0, np.int64)
    if main_idx.size == 0 or hold_idx.size == 0:
        raise ParameterError("stratified split left one side empty")
    return (
        dataset.subset(main_idx, name=f"{dataset.name}/main"),
        dataset.subset(hold_idx, name=f"{dataset.name}/holdout"),
    )


def concat_datasets(parts: list[Dataset]) -> Dataset:
    """Stack datasets with identical feature width and class count."""
    if not parts:
        raise ParameterError("concat_datasets needs at least one dataset")
    first = parts[0]
    for ds in parts[1:]:
        if ds.feature_dim != first.feature_dim or ds.num_classes != first.num_classes:
            raise ShapeError("datasets to concatenate must share shape and classes")
    return Dataset(
        np.concatenate([ds.features for ds in parts], axis=0),
        np.concatenate([ds.labels for ds in parts]),
        first.num_classes,
        "+".join(ds.name for ds in parts),
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write the binary dataset format.

    Layout: magic "FEDDS1", u64 sample count, u64 feature dim, u64 class
    count, u64 name length + utf-8 name, float64 features (row-major), u16
    labels. All integers and floats little-endian.
    """
    if dataset.num_classes > _MAX_CLASSES:
        raise ParameterError(f"num_classes {dataset.num_classes} exceeds u16 label range")
    name_bytes = dataset.name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(
            struct.pack(
                "<QQQQ",
                len(dataset),
                dataset.feature_dim,
                dataset.num_classes,
                len(name_bytes),
            )
        )
        fh.write(name_bytes)
        # from the array's own buffer: a copy here doubled generate's peak memory
        fh.write(dataset.features.astype("<f8", copy=False))
        fh.write(dataset.labels.astype("<u2"))


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset(); round-trips bitwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError(f"truncated dataset file while reading {what}", offset)
        piece = blob[offset : offset + count]
        offset += count
        return piece

    magic = take(len(DATASET_MAGIC), "magic")
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}", 0)
    n, dim, num_classes, name_len = struct.unpack("<QQQQ", take(32, "header"))
    if n == 0 or dim == 0 or num_classes == 0:
        raise FormatError("header counts must be positive", 6)
    if num_classes > _MAX_CLASSES:
        raise FormatError(f"num_classes {num_classes} exceeds u16 label range", 22)
    name_start = offset
    try:
        name = take(name_len, "name").decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"dataset name is not UTF-8 ({exc.reason})", name_start + exc.start
        ) from None
    features_start = offset
    features = np.frombuffer(take(8 * n * dim, "features"), dtype="<f8").reshape(n, dim)
    labels_start = offset
    labels = np.frombuffer(take(2 * n, "labels"), dtype="<u2").astype(np.int64)
    if offset != len(blob):
        raise FormatError("trailing bytes after dataset payload", offset)
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise FormatError(
            f"label {labels[bad[0]]} >= num_classes {num_classes}",
            labels_start + 2 * int(bad[0]),
        )
    if not np.isfinite(features).all():
        raise FormatError("non-finite feature values", features_start)
    return Dataset(features.copy(), labels, int(num_classes), name)


def write_csv(path, header, rows) -> None:
    """Write a header row, then `rows`, as CSV: comma separated, LF endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_module.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def mean_client_label_entropy(dataset: Dataset, partitions: list[ClientPartition]) -> float:
    """Average per-client Shannon entropy of the label distribution (nats)."""
    entropies = []
    for part in partitions:
        counts = np.bincount(dataset.labels[part.sample_indices], minlength=dataset.num_classes)
        probs = counts / counts.sum()
        nz = probs > 0
        entropies.append(float(-(probs[nz] * np.log(probs[nz])).sum()))
    return float(np.mean(entropies))


__all__ = [
    "Dataset",
    "ClientPartition",
    "PartitionSpec",
    "generate_synthetic",
    "dirichlet_partition",
    "partition_covers",
    "stratified_split",
    "save_dataset",
    "load_dataset",
    "write_csv",
    "mean_client_label_entropy",
]
