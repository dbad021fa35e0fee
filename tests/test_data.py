"""Synthetic data, Dirichlet partitioning, dataset IO, loader fuzz."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data, nn
from fedsim.errors import FormatError, ParameterError
from fedsim.federation import evaluate_model, pretrain


def test_generate_synthetic_is_deterministic():
    a = data.generate_synthetic(3, 20, 6, 2.5, seed=99)
    b = data.generate_synthetic(3, 20, 6, 2.5, seed=99)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = data.generate_synthetic(3, 20, 6, 2.5, seed=100)
    assert not np.array_equal(a.features, c.features)


def test_generate_synthetic_shapes_and_labels():
    ds = data.generate_synthetic(4, 15, 8, 1.0, seed=1)
    assert ds.features.shape == (60, 8)
    assert np.array_equal(np.bincount(ds.labels), np.full(4, 15))


def test_zero_separation_is_indistinguishable():
    # both classes share one distribution; a linear probe stays near chance
    # on held-out draws from the same distribution
    ds = data.generate_synthetic(2, 300, 8, 0.0, seed=5)
    held_out = data.generate_synthetic(2, 300, 8, 0.0, seed=6)
    probe = nn.build_mlp(8, (), 2, split_index=0, seed=0)
    trained = pretrain(probe, ds, epochs=50, learning_rate=0.1, momentum=0.5,
                       batch_size=32, seed=3)
    accuracy, _ = evaluate_model(trained, held_out)
    assert abs(accuracy - 0.5) < 0.05


def test_wide_separation_is_learnable():
    ds = data.generate_synthetic(4, 50, 8, 10.0, seed=6)
    model = nn.build_mlp(8, (16,), 4, split_index=0, seed=1)
    trained = pretrain(model, ds, epochs=50, learning_rate=0.1, momentum=0.5,
                       batch_size=32, seed=4)
    accuracy, _ = evaluate_model(trained, ds)
    assert accuracy > 0.95


def test_generate_synthetic_validates_arguments():
    with pytest.raises(ParameterError):
        data.generate_synthetic(0, 10, 4, 1.0, seed=1)
    with pytest.raises(ParameterError):
        data.generate_synthetic(2, 10, 4, -1.0, seed=1)


# --- dirichlet partition -----------------------------------------------------


def test_single_client_gets_everything():
    ds = data.generate_synthetic(3, 10, 4, 1.0, seed=2)
    parts = data.dirichlet_partition(ds, data.PartitionSpec(1, 0.3, seed=7))
    assert len(parts) == 1
    assert np.array_equal(parts[0].sample_indices, np.arange(30))


def test_partition_is_disjoint_cover():
    rng = np.random.default_rng(11)
    for _ in range(20):
        num_classes = int(rng.integers(2, 6))
        ds = data.generate_synthetic(num_classes, int(rng.integers(5, 40)), 4, 1.0,
                                     seed=int(rng.integers(1 << 30)))
        spec = data.PartitionSpec(
            num_clients=int(rng.integers(1, 12)),
            alpha=float(rng.uniform(0.05, 10.0)),
            seed=int(rng.integers(1 << 30)),
        )
        parts = data.dirichlet_partition(ds, spec)
        assert data.partition_covers(parts, len(ds))
        assert all(len(p) >= 1 for p in parts)


@st.composite
def partition_cases(draw):
    """(dataset, spec) with K <= n clients, K = n often, alpha down to 5e-324."""
    n = draw(st.integers(1, 60))
    num_classes = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    num_clients = draw(st.one_of(st.just(n), st.integers(1, n)))
    alpha = draw(st.one_of(st.sampled_from([5e-324, 1e-300]), st.floats(5e-324, 100.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    dataset = data.Dataset(np.zeros((n, 1)), np.array(labels), num_classes)
    return dataset, data.PartitionSpec(num_clients, alpha, seed)


@settings(max_examples=300)
@given(partition_cases())
def test_partition_is_a_disjoint_nonempty_cover_for_any_size_and_alpha(case):
    dataset, spec = case
    parts = data.dirichlet_partition(dataset, spec)
    assert [p.client_id for p in parts] == list(range(spec.num_clients))
    assert all(len(p) >= 1 for p in parts)
    assert data.partition_covers(parts, len(dataset))


def test_partition_determinism():
    ds = data.generate_synthetic(5, 30, 4, 1.0, seed=3)
    spec = data.PartitionSpec(8, 0.2, seed=21)
    a = data.dirichlet_partition(ds, spec)
    b = data.dirichlet_partition(ds, spec)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.sample_indices, pb.sample_indices)


def test_partition_rejects_more_clients_than_samples():
    ds = data.generate_synthetic(2, 3, 4, 1.0, seed=4)  # n=6
    with pytest.raises(ParameterError):
        data.dirichlet_partition(ds, data.PartitionSpec(7, 0.5, seed=1))


def test_empty_client_repair_keeps_everyone_nonempty():
    # tiny dataset + strong concentration forces empty draws before repair
    ds = data.generate_synthetic(2, 30, 4, 1.0, seed=8)
    for seed in range(10):
        parts = data.dirichlet_partition(ds, data.PartitionSpec(25, 0.05, seed=seed))
        assert all(len(p) >= 1 for p in parts)
        assert data.partition_covers(parts, len(ds))


def test_heterogeneity_ordering_across_alpha(mean_client_label_entropy):
    means = []
    for alpha in (0.1, 0.5, 10.0):
        entropies = []
        for seed in range(5):
            ds = data.generate_synthetic(10, 50, 4, 1.0, seed=123)
            parts = data.dirichlet_partition(ds, data.PartitionSpec(10, alpha, seed=seed))
            entropies.append(mean_client_label_entropy(ds, parts))
        means.append(float(np.mean(entropies)))
    assert means[0] < means[1] < means[2]


def test_large_alpha_approaches_global_distribution():
    # total-variation distance between client and global label mix
    ds = data.generate_synthetic(10, 100, 4, 1.0, seed=31)  # n = 1000 >= 100 * N
    global_dist = np.bincount(ds.labels, minlength=ds.num_classes) / len(ds)
    worst = 0.0
    for seed in range(5):
        parts = data.dirichlet_partition(ds, data.PartitionSpec(5, 1000.0, seed=seed))
        for part in parts:
            counts = np.bincount(ds.labels[part.sample_indices], minlength=ds.num_classes)
            client_dist = counts / counts.sum()
            tv = 0.5 * np.abs(client_dist - global_dist).sum()
            worst = max(worst, float(tv))
    assert worst < 0.1


# --- stratified split ----------------------------------------------------------


def test_stratified_split_proportions_and_cover():
    ds = data.generate_synthetic(5, 40, 4, 1.0, seed=9)
    main, holdout = data.stratified_split(ds, 0.25, seed=17)
    assert len(main) + len(holdout) == len(ds)
    assert np.array_equal(np.bincount(holdout.labels), np.full(5, 10))
    again_main, again_holdout = data.stratified_split(ds, 0.25, seed=17)
    assert np.array_equal(main.features, again_main.features)
    assert np.array_equal(holdout.features, again_holdout.features)


def test_stratified_split_rejects_degenerate_fraction():
    ds = data.generate_synthetic(2, 5, 4, 1.0, seed=10)
    with pytest.raises(ParameterError):
        data.stratified_split(ds, 0.0, seed=1)
    with pytest.raises(ParameterError):
        data.stratified_split(ds, 1.0, seed=1)


# --- binary io ------------------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    ds = data.generate_synthetic(6, 25, 7, 2.0, seed=12)
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    loaded = data.load_dataset(path)
    assert np.array_equal(ds.features, loaded.features)
    assert np.array_equal(ds.labels, loaded.labels)
    assert loaded.num_classes == ds.num_classes
    assert loaded.name == ds.name


def test_dataset_bad_magic(tmp_path):
    ds = data.generate_synthetic(2, 5, 3, 1.0, seed=13)
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        data.load_dataset(path)


def test_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.feds"
    path.write_bytes(b"")
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    assert err.value.offset == 0


def test_dataset_truncated_payload(tmp_path):
    ds = data.generate_synthetic(2, 5, 3, 1.0, seed=14)
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    assert err.value.offset is not None


def test_dataset_label_out_of_range(tmp_path):
    ds = data.generate_synthetic(2, 5, 3, 1.0, seed=15)
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[-2:] = (9999).to_bytes(2, "little")  # last label >= num_classes
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="num_classes") as err:
        data.load_dataset(path)
    assert err.value.offset == len(blob) - 2


def test_dataset_name_that_is_not_utf8_is_a_format_error(tmp_path):
    ds = data.generate_synthetic(2, 5, 3, 1.0, seed=16)
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    name_start = len(data.DATASET_MAGIC) + 32
    blob[name_start + 3] = 0xFF  # never valid in UTF-8
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8") as err:
        data.load_dataset(path)
    assert err.value.offset == name_start + 3


def mutations(blob):
    """Every truncation of `blob`, then every single-bit flip of it."""
    truncations = [blob[:cut] for cut in range(len(blob))]
    flips = []
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flips.append(bytes(flipped))
    return truncations, flips


def load_or_format_error(load, path, blob):
    """load(path) with `blob` written there, or None after a FormatError
    whose offset lies inside the file."""
    path.write_bytes(blob)
    try:
        return load(path)
    except FormatError as exc:
        assert exc.offset is not None and 0 <= exc.offset <= len(blob)
        return None


def test_dataset_loader_survives_every_truncation_and_bit_flip(tmp_path):
    # a multi-byte character in the name, so flips can break a UTF-8 sequence
    ds = data.generate_synthetic(3, 2, 4, 1.0, seed=17)
    ds = data.Dataset(ds.features, ds.labels, 3, "blobs/\u00e9t\u00e9")
    path = tmp_path / "ds.feds"
    data.save_dataset(ds, path)
    truncations, flips = mutations(path.read_bytes())
    for blob in truncations:
        assert load_or_format_error(data.load_dataset, path, blob) is None
    loaded = [load_or_format_error(data.load_dataset, path, blob) for blob in flips]
    for got in loaded:
        # a flip in a feature, a label, the name or num_classes can be valid
        assert got is None or got.features.shape == ds.features.shape
    assert any(got is None for got in loaded) and any(got is not None for got in loaded)


def test_checkpoint_loader_survives_every_truncation_and_bit_flip(tmp_path):
    model = nn.build_mlp(3, (2,), 2, split_index=2, seed=18)
    path = tmp_path / "model.ckpt"
    nn.save_model(model, path)

    def shapes(m):
        return [layer.weights.shape if layer.kind == "dense" else None for layer in m.layers]

    def finite(m):
        dense = [layer for layer in m.layers if layer.kind == "dense"]
        return all(np.isfinite(l.weights).all() and np.isfinite(l.bias).all() for l in dense)

    truncations, flips = mutations(path.read_bytes())
    for blob in truncations:
        assert load_or_format_error(nn.load_model, path, blob) is None
    loaded = [load_or_format_error(nn.load_model, path, blob) for blob in flips]
    for got in loaded:
        # a flip in a weight, a bias, split_index or num_classes can be valid,
        # but never one that makes a parameter NaN or infinite
        assert got is None or (shapes(got) == shapes(model) and finite(got))
    assert any(got is None for got in loaded) and any(got is not None for got in loaded)
