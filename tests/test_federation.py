"""Pretraining, local updates, aggregation, round loop."""

import dataclasses
import gc
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsim import data, federation, nn, selection
from fedsim import rng as streams
from fedsim.data import ClientPartition, PartitionSpec
from fedsim.errors import ConfigError, NumericError, ParameterError, ProtocolError
from fedsim.federation import (
    SECONDS_PER_FLOP,
    ClientUpdate,
    FederationConfig,
    UpdateFold,
    aggregate,
    client_local_update,
    evaluate_model,
    fedprox_local_update,
    initial_model,
    pretrain,
    read_reports_csv,
    run_federation,
    sample_participants,
    write_reports_csv,
)
from fedsim.rng import derive_rng, derive_seed


def small_setup(num_classes=4, samples_per_class=60, dim=8, sep=3.0, seed=77,
                num_clients=5, alpha=0.5):
    pool = data.generate_synthetic(num_classes, samples_per_class, dim, sep, seed)
    target, source = data.stratified_split(pool, 0.3, seed + 1)
    train, test = data.stratified_split(target, 0.2, seed + 2)
    partitions = data.dirichlet_partition(train, PartitionSpec(num_clients, alpha, seed + 3))
    return source, train, test, partitions


def small_config(**overrides):
    base = dict(
        strategy="fedft_eds",
        rounds=3,
        local_epochs=2,
        num_clients=5,
        participation_fraction=1.0,
        p_ds=0.5,
        rho=0.1,
        learning_rate=0.1,
        momentum=0.5,
        prox_mu=0.01,
        batch_size=16,
        pretrain_epochs=4,
        split_index=4,
        hidden_sizes=(16, 16),
        master_seed=11,
    )
    base.update(overrides)
    return FederationConfig(**base)


def pretrained_run(config, source, train, parts, test, **kwargs):
    """run_federation from `initial_model`: (reports, the trained global model)."""
    model = initial_model(config, source, train)
    return run_federation(config, model, train, parts, test, **kwargs), model


# --- config validation ------------------------------------------------------


def test_config_rejects_bad_values():
    for overrides in (
        dict(strategy="magic"),
        dict(rounds=-1),
        dict(local_epochs=0),
        dict(participation_fraction=0.0),
        dict(participation_fraction=1.5),
        dict(p_ds=0.0),
        dict(rho=0.0),
        dict(learning_rate=0.0),
        dict(momentum=1.0),
        dict(prox_mu=-0.1),
        dict(batch_size=0),
        dict(split_index=5),  # would leave no trainable dense layer
        dict(hidden_sizes=(0,)),
        dict(num_clients=20, participation_fraction=0.01),
    ):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()


def test_config_effective_fields():
    assert small_config(strategy="fedavg", split_index=4).effective_split_index == 0
    assert small_config(strategy="fedprox", split_index=4).effective_split_index == 0
    assert small_config(strategy="fedft_eds", split_index=4).effective_split_index == 4
    assert small_config(strategy="fedft_all", p_ds=0.3).effective_p_ds == 1.0
    assert small_config(strategy="fedft_eds", p_ds=0.3).effective_p_ds == 0.3


# --- pretrain ------------------------------------------------------------------


def test_pretrain_zero_epochs_returns_unchanged_copy():
    source, *_ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=5)
    out = pretrain(model, source, 0, 0.1, 0.5, 32, seed=9)
    assert out is not model
    for a, b in zip(model.layers, out.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_pretrain_reduces_loss():
    source, *_ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=5)
    after_one = pretrain(model, source, 1, 0.1, 0.5, 32, seed=9)
    after_fifty = pretrain(model, source, 50, 0.1, 0.5, 32, seed=9)
    _, loss_one = evaluate_model(after_one, source)
    _, loss_fifty = evaluate_model(after_fifty, source)
    assert loss_fifty < loss_one


def test_pretrain_trains_every_layer_and_restores_split():
    source, *_ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=5)
    out = pretrain(model, source, 3, 0.1, 0.5, 32, seed=9)
    assert out.split_index == 2
    # the lower (frozen-during-FL) layer moved during pretraining
    assert not np.array_equal(model.layers[0].weights, out.layers[0].weights)


def test_pretrain_is_deterministic():
    source, *_ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=5)
    a = pretrain(model, source, 5, 0.1, 0.5, 32, seed=9)
    b = pretrain(model, source, 5, 0.1, 0.5, 32, seed=9)
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, nn.DenseLayer):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


# --- evaluation -------------------------------------------------------------------


def test_evaluation_holds_one_layer_output_at_a_time():
    # a full-model (split 0) evaluation keeps no activation it does not read:
    # at most a layer's input and output are alive, never every layer's
    model = nn.build_mlp(32, (128, 128), 10, split_index=0, seed=12)
    rng = np.random.default_rng(13)
    test = data.Dataset(rng.normal(size=(1000, 32)), rng.integers(0, 10, 1000), 10)
    layer_bytes = 1000 * 128 * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        evaluate_model(model, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * layer_bytes


# --- local updates ----------------------------------------------------------------


def test_local_update_zero_learning_rate_keeps_theta():
    source, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=6)
    before = nn.copy_theta(model)
    subset = train.subset(parts[0].sample_indices)
    opt = nn.OptimizerState(learning_rate=0.0, momentum=0.5)
    update = client_local_update(0, model, subset, 3, opt, 16, [1, 2, 3])
    for a, b in zip(before, update.theta):
        assert np.array_equal(a, b)


def test_local_update_single_sample_single_step():
    _, train, _, _ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=8)
    subset = train.subset(np.array([3]))
    reference = model.copy()
    grads = nn.backward(reference, subset.features, subset.labels)
    expected = {
        idx: (
            reference.layers[idx].weights - 0.1 * dw,
            reference.layers[idx].bias - 0.1 * db,
        )
        for idx, (dw, db) in grads.by_layer.items()
    }
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.0)
    client_local_update(0, model, subset, 1, opt, 16, [4])
    for idx, (w_exp, b_exp) in expected.items():
        assert np.array_equal(model.layers[idx].weights, w_exp)
        assert np.array_equal(model.layers[idx].bias, b_exp)


def test_local_update_keeps_frozen_part_bitwise():
    _, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=9)
    frozen = [(model.layers[0].weights.copy(), model.layers[0].bias.copy())]
    subset = train.subset(parts[1].sample_indices)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    client_local_update(1, model, subset, 4, opt, 8, [10, 11, 12, 13])
    assert np.array_equal(model.layers[0].weights, frozen[0][0])
    assert np.array_equal(model.layers[0].bias, frozen[0][1])


def test_local_update_reports_selected_count_and_time():
    _, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=10)
    subset = train.subset(parts[0].sample_indices)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    update = client_local_update(0, model, subset, 2, opt, 16, [1, 2])
    assert update.selected_count == len(subset)


def test_fedprox_mu_zero_equals_plain_update():
    _, train, _, parts = small_setup()
    subset = train.subset(parts[2].sample_indices)
    seeds = [21, 22, 23]
    plain_model = nn.build_mlp(8, (16,), 4, split_index=2, seed=12)
    prox_model = plain_model.copy()
    plain = client_local_update(
        2, plain_model, subset, 3, nn.OptimizerState(0.1, 0.5), 8, seeds
    )
    prox = fedprox_local_update(
        2, prox_model, subset, 3, nn.OptimizerState(0.1, 0.5), 0.0, 8, seeds
    )
    for a, b in zip(plain.theta, prox.theta):
        assert np.array_equal(a, b)


def test_fedprox_first_step_equals_plain_sgd():
    # theta - theta_t is zero when the round starts, so even a huge mu
    # leaves the very first step untouched
    _, train, _, _ = small_setup()
    subset = train.subset(np.arange(8))
    plain_model = nn.build_mlp(8, (16,), 4, split_index=2, seed=13)
    prox_model = plain_model.copy()
    plain = client_local_update(
        0, plain_model, subset, 1, nn.OptimizerState(0.1, 0.0), 32, [7]
    )
    prox = fedprox_local_update(
        0, prox_model, subset, 1, nn.OptimizerState(0.1, 0.0), 1e6, 32, [7]
    )
    for a, b in zip(plain.theta, prox.theta):
        assert np.array_equal(a, b)


def test_fedprox_applies_proximal_pull_on_later_steps():
    # two batches in one epoch: the second step must see g + mu * (theta - theta_t)
    _, train, _, _ = small_setup()
    subset = train.subset(np.arange(16))
    mu, lr = 1.0, 0.1
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=14)
    reference = model.copy()
    fedprox_local_update(
        0, model, subset, 1, nn.OptimizerState(lr, 0.0), mu, 8, [31]
    )

    # manual replay with nn primitives
    replay = reference.copy()
    theta_ref = {
        idx: (replay.layers[idx].weights.copy(), replay.layers[idx].bias.copy())
        for idx in replay.trainable_layer_indices()
    }
    order = derive_rng(31).permutation(16)
    for start in (0, 8):
        chosen = order[start : start + 8]
        xb, yb = subset.features[chosen], subset.labels[chosen]
        grads = nn.backward(replay, xb, yb)
        for idx, (dw, db) in grads.by_layer.items():
            layer = replay.layers[idx]
            ref_w, ref_b = theta_ref[idx]
            layer.weights = layer.weights - lr * (dw + mu * (layer.weights - ref_w))
            layer.bias = layer.bias - lr * (db + mu * (layer.bias - ref_b))
    for idx in replay.trainable_layer_indices():
        assert np.allclose(model.layers[idx].weights, replay.layers[idx].weights, atol=1e-15)
        assert np.allclose(model.layers[idx].bias, replay.layers[idx].bias, atol=1e-15)


def test_fedprox_with_too_few_epoch_seeds_fails_before_training():
    _, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=15)
    before = nn.copy_theta(model)
    subset = train.subset(parts[0].sample_indices)
    with pytest.raises(ParameterError, match="epoch seeds"):
        fedprox_local_update(0, model, subset, 3, nn.OptimizerState(0.1, 0.5), 0.01, 8, [1, 2])
    for a, b in zip(before, nn.copy_theta(model)):
        assert np.array_equal(a, b)

# --- aggregation -------------------------------------------------------------------


def mk_update(client_id, arrays, count):
    return ClientUpdate(
        client_id=client_id,
        theta=[np.asarray(a, dtype=np.float64) for a in arrays],
        selected_count=count,
    )


def test_aggregate_identical_updates_is_fixed_point():
    theta = [np.array([0.5, -2.0]), np.array([[3.0]])]
    updates = [mk_update(i, [a.copy() for a in theta], 7) for i in range(3)]
    merged = aggregate(updates)
    for got, expected in zip(merged, theta):
        assert np.abs(got - expected).max() < 1e-12


def test_aggregate_equal_counts_average():
    merged = aggregate(
        [mk_update(0, [np.array([1.0, 3.0])], 5), mk_update(1, [np.array([3.0, 5.0])], 5)]
    )
    assert np.array_equal(merged[0], np.array([2.0, 4.0]))


def test_aggregate_weighted_by_counts():
    merged = aggregate(
        [mk_update(0, [np.array([4.0])], 10), mk_update(1, [np.array([0.0])], 30)]
    )
    assert np.array_equal(merged[0], np.array([1.0]))


def test_aggregate_is_order_independent():
    rng = np.random.default_rng(15)
    updates = [
        mk_update(i, [rng.normal(size=(3, 2)), rng.normal(size=3)], int(rng.integers(1, 20)))
        for i in range(6)
    ]
    forward_order = aggregate(updates)
    reversed_order = aggregate(list(reversed(updates)))
    for a, b in zip(forward_order, reversed_order):
        assert np.array_equal(a, b)


def test_aggregate_matches_direct_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        k = int(rng.integers(1, 8))
        counts = rng.integers(1, 50, size=k)
        thetas = [rng.normal(size=5) for _ in range(k)]
        updates = [mk_update(i, [thetas[i]], int(counts[i])) for i in range(k)]
        merged = aggregate(updates)[0]
        oracle = sum(c * t for c, t in zip(counts, thetas)) / counts.sum()
        assert np.abs(merged - oracle).max() < 1e-12


def test_aggregate_convex_combination_bound():
    rng = np.random.default_rng(17)
    thetas = [rng.normal(size=(4, 3)) for _ in range(5)]
    updates = [mk_update(i, [t], int(rng.integers(1, 9))) for i, t in enumerate(thetas)]
    merged = aggregate(updates)[0]
    stacked = np.stack(thetas)
    assert (merged >= stacked.min(axis=0) - 1e-12).all()
    assert (merged <= stacked.max(axis=0) + 1e-12).all()


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        aggregate([])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, [np.zeros(2)], 1), mk_update(0, [np.zeros(2)], 1)])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, [np.zeros(2)], 1), mk_update(1, [np.zeros(3)], 1)])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, [np.zeros(2)], 0)])


PROPERTY = settings(max_examples=80)


@st.composite
def client_updates(draw, min_size=1):
    """Updates with distinct ids in random order, counts >= 1, shared shapes."""
    shapes = draw(st.lists(hnp.array_shapes(max_dims=2, max_side=4), min_size=1, max_size=3))
    k = draw(st.integers(min_size, 6))
    ids = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True))
    counts = draw(st.lists(st.integers(1, 500), min_size=k, max_size=k))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    return [
        mk_update(cid, [draw(hnp.arrays(np.float64, shape, elements=values)) for shape in shapes], n)
        for cid, n in zip(ids, counts)
    ]


@PROPERTY
@given(st.data())
def test_aggregate_is_bitwise_permutation_invariant(data_):
    updates = data_.draw(client_updates())
    shuffled = data_.draw(st.permutations(updates))
    for a, b in zip(aggregate(updates), aggregate(shuffled)):
        assert np.array_equal(a, b)


@PROPERTY
@given(client_updates())
def test_aggregate_stays_within_the_inputs_to_a_few_ulps(updates):
    merged = aggregate(updates)
    for p, result in enumerate(merged):
        stacked = np.stack([u.theta[p] for u in updates])
        # each weight, product and partial sum rounds once
        slack = 4 * len(updates) * np.spacing(np.abs(stacked).max(axis=0))
        assert (result >= stacked.min(axis=0) - slack).all()
        assert (result <= stacked.max(axis=0) + slack).all()


@PROPERTY
@given(client_updates())
def test_fold_in_ascending_order_equals_aggregate(updates):
    fold = UpdateFold(sum(u.selected_count for u in updates))
    for update in sorted(updates, key=lambda u: u.client_id):
        fold.add(update)
    for a, b in zip(fold.result(), aggregate(updates)):
        assert np.array_equal(a, b)


@PROPERTY
@given(
    client_updates(min_size=2),
    st.sampled_from(["duplicate id", "out of order", "zero count", "shape", "total"]),
)
def test_fold_rejects_a_broken_stream(updates, fault):
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.selected_count for u in ordered)
    first, last = ordered[0], ordered[-1]
    if fault == "duplicate id":
        ordered[1] = dataclasses.replace(ordered[1], client_id=first.client_id)
    elif fault == "out of order":
        ordered[0], ordered[1] = ordered[1], ordered[0]
    elif fault == "zero count":
        total -= last.selected_count
        ordered[-1] = dataclasses.replace(last, selected_count=0)
    elif fault == "shape":
        grown = [np.append(last.theta[0], 0.0), *last.theta[1:]]
        ordered[-1] = dataclasses.replace(last, theta=grown)
    else:
        total += 1
    fold = UpdateFold(total)
    with pytest.raises(ProtocolError):
        for update in ordered:
            fold.add(update)
        fold.result()


# --- participant sampling -------------------------------------------------------------


def test_sample_participants_full_participation():
    assert np.array_equal(sample_participants(7, 1.0, 3), np.arange(7))


def test_sample_participants_count_rule():
    picked = sample_participants(100, 0.1, 9)
    assert picked.shape == (10,)
    assert len(set(picked.tolist())) == 10


def test_sample_participants_deterministic():
    assert np.array_equal(sample_participants(50, 0.2, 4), sample_participants(50, 0.2, 4))


def test_sample_participants_frequency():
    hits = np.zeros(10)
    rounds = 200
    for seed in range(600, 600 + rounds):
        for cid in sample_participants(10, 0.2, seed):
            hits[cid] += 1
    rates = hits / rounds
    assert (np.abs(rates - 0.2) <= 0.06).all()


# --- run_federation ----------------------------------------------------------------------


def test_run_zero_rounds_returns_pretrained_model():
    source, train, test, parts = small_setup()
    config = small_config(rounds=0)
    reports, final = pretrained_run(config, source, train, parts, test)
    assert reports == []
    expected = pretrain(
        nn.build_mlp(8, config.hidden_sizes, 4, config.split_index,
                     derive_seed(config.master_seed, streams.INIT)),
        source,
        config.pretrain_epochs,
        config.learning_rate,
        config.momentum,
        config.batch_size,
        derive_seed(config.master_seed, streams.PRETRAIN),
    )
    for a, b in zip(final.layers, expected.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)


def test_pretrained_weights_do_not_depend_on_the_strategy():
    # pretraining trains every layer, so runs can share one pretrained model
    source, train, _, _ = small_setup()
    models = [
        initial_model(small_config(strategy=s), source, train) for s in federation.STRATEGIES
    ]
    for model in models[1:]:
        for a, b in zip(model.layers, models[0].layers):
            if isinstance(a, nn.DenseLayer):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)


def test_single_client_fedavg_equals_centralized_training():
    pool = data.generate_synthetic(3, 40, 6, 2.0, seed=55)
    target, source = data.stratified_split(pool, 0.3, 56)
    train, test = data.stratified_split(target, 0.2, 57)
    parts = [ClientPartition(0, np.arange(len(train)))]
    config = FederationConfig(
        strategy="fedavg",
        rounds=4,
        local_epochs=3,
        num_clients=1,
        participation_fraction=1.0,
        p_ds=1.0,
        rho=0.1,
        learning_rate=0.1,
        momentum=0.5,
        prox_mu=0.01,
        batch_size=16,
        pretrain_epochs=0,
        split_index=0,
        hidden_sizes=(12,),
        master_seed=91,
    )
    _, final = pretrained_run(config, source, train, parts, test)

    # independent oracle: drive the nn primitives directly with the same
    # seed schedule (fresh momentum each round, per-epoch shuffles)
    oracle = nn.build_mlp(6, (12,), 3, split_index=0,
                          seed=derive_seed(91, streams.INIT))
    for round_no in range(1, 5):
        opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
        for epoch in range(3):
            seed = derive_seed(91, streams.SHUFFLE, round_no, 0, epoch)
            order = derive_rng(seed).permutation(len(train))
            for start in range(0, len(train), 16):
                chosen = order[start : start + 16]
                xb, yb = train.features[chosen], train.labels[chosen]
                nn.sgd_step(oracle, nn.backward(oracle, xb, yb), opt)
    for a, b in zip(final.layers, oracle.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_eds_with_unit_settings_matches_fedft_all():
    source, train, test, parts = small_setup()
    eds = small_config(strategy="fedft_eds", rho=1.0, p_ds=1.0)
    everything = small_config(strategy="fedft_all", p_ds=1.0)
    reports_eds, _ = pretrained_run(eds, source, train, parts, test)
    reports_all, _ = pretrained_run(everything, source, train, parts, test)
    assert reports_eds == reports_all


def test_phi_is_bitwise_constant_across_rounds():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=4)
    seen_phi = []

    def hook(round_no, client_id, model):
        seen_phi.append((model.layers[0].weights.copy(), model.layers[0].bias.copy()))

    _, final = pretrained_run(config, source, train, parts, test, client_model_hook=hook)
    reference_w, reference_b = seen_phi[0]
    for weights, bias in seen_phi[1:]:
        assert np.array_equal(weights, reference_w)
        assert np.array_equal(bias, reference_b)
    assert np.array_equal(final.layers[0].weights, reference_w)


def test_run_federation_deterministic_across_threads():
    source, train, test, parts = small_setup()
    config = small_config(rounds=3)
    reports_a, final_a = pretrained_run(config, source, train, parts, test, threads=1)
    reports_b, final_b = pretrained_run(config, source, train, parts, test, threads=3)
    assert reports_a == reports_b
    for la, lb in zip(final_a.layers, final_b.layers):
        if isinstance(la, nn.DenseLayer):
            assert np.array_equal(la.weights, lb.weights)


def test_communication_cost_smaller_for_partial_updates():
    source, train, test, parts = small_setup()
    fedft = small_config(strategy="fedft_eds", rounds=1)
    fedavg = small_config(strategy="fedavg", rounds=1, p_ds=1.0)
    reports_ft, _ = pretrained_run(fedft, source, train, parts, test)
    reports_avg, _ = pretrained_run(fedavg, source, train, parts, test)
    assert reports_ft[0].comm_bytes < reports_avg[0].comm_bytes


def test_run_federation_validates_partitions():
    source, train, test, parts = small_setup()
    config = small_config()
    start = initial_model(config, source, train)
    with pytest.raises(ConfigError):
        run_federation(config, start, train, parts[:-1], test)
    broken = parts[:-1] + [ClientPartition(4, parts[-1].sample_indices[:-1])]
    with pytest.raises(ConfigError):
        run_federation(config, start, train, broken, test)


def _other_shape(dataset, feature_dim=None, num_classes=None):
    """`dataset` with its feature width or class count changed."""
    features = dataset.features
    if feature_dim is not None:
        features = np.resize(features, (len(dataset), feature_dim))
    return data.Dataset(features, dataset.labels, num_classes or dataset.num_classes)


@pytest.mark.parametrize("change", [dict(feature_dim=5), dict(num_classes=6)])
def test_initial_model_rejects_a_source_unlike_train(change):
    source, train, _, _ = small_setup()
    with pytest.raises(ConfigError, match="source dataset"):
        initial_model(small_config(), _other_shape(source, **change), train)


@pytest.mark.parametrize("change", [dict(feature_dim=5), dict(num_classes=6)])
def test_run_federation_rejects_a_test_set_unlike_train(change):
    source, train, test, parts = small_setup()
    config = small_config()
    start = initial_model(config, source, train)
    with pytest.raises(ConfigError, match="test dataset"):
        run_federation(config, start, train, parts, _other_shape(test, **change))


@pytest.mark.parametrize(
    "mismatch",
    ["input width", "hidden sizes", "class count", "split", "fedavg split"],
)
def test_run_federation_rejects_a_start_model_unlike_config_and_train(mismatch):
    source, train, test, parts = small_setup()
    config = small_config()
    widths = dict(input_dim=8, hidden_sizes=config.hidden_sizes, num_classes=4)
    split = config.split_index
    if mismatch == "input width":
        widths["input_dim"] = 7
    elif mismatch == "hidden sizes":
        widths["hidden_sizes"] = (16, 15)
    elif mismatch == "class count":
        widths["num_classes"] = 5
    elif mismatch == "split":
        split = 2
    else:  # fedavg trains the whole model, so a head-only start is wrong for it
        config = small_config(strategy="fedavg")
    start = nn.build_mlp(**widths, split_index=split, seed=1)
    with pytest.raises(ConfigError, match="start model"):
        run_federation(config, start, train, parts, test)


def test_numeric_failure_names_round_and_client():
    source, train, test, parts = small_setup()
    config = small_config(learning_rate=1e200, rounds=2, local_epochs=4, strategy="fedavg",
                          p_ds=1.0, pretrain_epochs=0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"round \d+, client \d+"):
            pretrained_run(config, source, train, parts, test)


def test_report_time_is_nondecreasing_and_accuracy_in_range():
    source, train, test, parts = small_setup()
    reports, _ = pretrained_run(small_config(rounds=4), source, train, parts, test)
    times = [r.cumulative_client_train_time for r in reports]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in reports)


# --- frozen-feature cache ------------------------------------------------------------


def _flops_per_sample(widths, split):
    """(forward, backward) multiply-adds per sample of the MLP with these
    layer widths, written out from the layer list; backward covers the
    layers from `split` on."""
    layers = []  # (is dense, in, out): dense, relu, ..., dense
    for i in range(len(widths) - 1):
        layers.append((True, widths[i], widths[i + 1]))
        if i < len(widths) - 2:
            layers.append((False, widths[i + 1], widths[i + 1]))
    forward = sum(2 * i * o + o if dense else o for dense, i, o in layers)
    backward = 2 * widths[-1]
    for index in range(len(layers) - 1, split - 1, -1):
        dense, i, o = layers[index]
        backward += 2 * i * o + o if dense else o
        if dense and index > split:
            backward += 2 * i * o
    return forward, backward


@pytest.mark.parametrize("fraction", [1.0, 0.6])
@pytest.mark.parametrize("strategy", federation.STRATEGIES)
def test_device_time_charges_the_full_model_with_the_cache(strategy, fraction):
    source, train, test, parts = small_setup()
    config = small_config(strategy=strategy, rounds=3, participation_fraction=fraction)
    reports, _ = pretrained_run(config, source, train, parts, test)
    # Only fedft_eds scores (one full forward per sample). Training costs the
    # full forward, frozen part included, plus the backward through what is
    # trained: everything for fedavg and fedprox, the head for the rest.
    split = 0 if strategy in ("fedavg", "fedprox") else config.split_index
    forward, backward = _flops_per_sample((8, *config.hidden_sizes, 4), split)
    p_ds = 1.0 if strategy == "fedft_all" else config.p_ds
    expected = 0.0
    for report in reports:
        assert len(report.participants) == round(fraction * config.num_clients)
        for cid in report.participants:
            n = len(parts[cid])
            scoring = n * forward * SECONDS_PER_FLOP if strategy == "fedft_eds" else 0.0
            kept = max(1, int(p_ds * n))
            visits = config.local_epochs * kept
            expected += scoring + visits * (forward + backward) * SECONDS_PER_FLOP
        assert report.cumulative_client_train_time == expected


def test_frozen_layers_stay_the_pretrained_ones_with_the_cache():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=2)
    final = initial_model(config, source, train)
    pretrained = final.copy()
    hooked = []
    run_federation(
        config, final, train, parts, test, client_model_hook=lambda r, c, m: hooked.append(m)
    )
    assert len(hooked) == config.rounds * config.num_clients
    for model in (final, *hooked):
        assert model.split_index == config.split_index
        assert len(model.layers) == len(pretrained.layers)
        for i in pretrained.frozen_layer_indices():
            assert np.array_equal(model.layers[i].weights, pretrained.layers[i].weights)
            assert np.array_equal(model.layers[i].bias, pretrained.layers[i].bias)
    # each hooked model carries its client's own head, not the global one
    head = config.split_index
    assert not np.array_equal(hooked[0].layers[head].weights, hooked[1].layers[head].weights)


def _uncached_rounds(config, source, train, parts, test):
    """The round loop replayed on the full model and the raw features, from
    the public primitives; every client takes part and selects at random."""
    master = config.master_seed
    model = initial_model(config, source, train)
    rows, cumulative = [], 0.0
    for round_no in range(1, config.rounds + 1):
        updates = []
        for part in parts:
            cid = part.client_id
            chosen = selection.select_random(
                part, config.p_ds, derive_seed(master, streams.SELECTION, round_no)
            )
            subset = train.subset(chosen.selected_indices)
            seeds = [
                derive_seed(master, streams.SHUFFLE, round_no, cid, epoch)
                for epoch in range(config.local_epochs)
            ]
            opt = nn.OptimizerState(config.learning_rate, config.momentum)
            if config.strategy == "fedprox":
                update = fedprox_local_update(
                    cid, model.copy(), subset, config.local_epochs, opt, config.prox_mu,
                    config.batch_size, seeds,
                )
            else:
                update = client_local_update(
                    cid, model.copy(), subset, config.local_epochs, opt, config.batch_size, seeds
                )
            train_cost = nn.forward_flops_per_sample(model) + nn.backward_flops_per_sample(model)
            cumulative += 0.0 + config.local_epochs * len(subset) * train_cost * SECONDS_PER_FLOP
            updates.append(update)
        nn.set_theta(model, aggregate(updates))
        rows.append((*evaluate_model(model, test), cumulative))
    return rows, model


@pytest.mark.parametrize("strategy", ["fedavg", "fedprox"])
def test_split_zero_reports_are_unchanged_by_the_cache(strategy):
    source, train, test, parts = small_setup()
    config = small_config(strategy=strategy, rounds=3, p_ds=0.5)
    reports, final = pretrained_run(config, source, train, parts, test)
    expected_rows, expected_model = _uncached_rounds(config, source, train, parts, test)
    rows = [(r.test_accuracy, r.test_loss, r.cumulative_client_train_time) for r in reports]
    assert rows == expected_rows
    for a, b in zip(final.layers, expected_model.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


# --- streaming aggregation ---------------------------------------------------------


def test_a_round_holds_at_most_two_client_updates(monkeypatch):
    live = weakref.WeakSet()

    class TrackedUpdate(ClientUpdate):
        __hash__ = object.__hash__  # a WeakSet hashes its members

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)

    monkeypatch.setattr(federation, "ClientUpdate", TrackedUpdate)
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedavg", rounds=3, p_ds=1.0)
    held = []

    def hook(round_no, client_id, model):
        gc.collect()
        held.append(len(live))

    pretrained_run(config, source, train, parts, test, threads=1, client_model_hook=hook)
    assert len(held) == config.rounds * config.num_clients
    assert 1 <= max(held) <= 2


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_slow_hook_holds_at_most_two_jobs_per_thread_ahead(monkeypatch, threads):
    live, made_on = weakref.WeakSet(), set()

    class TrackedUpdate(ClientUpdate):
        __hash__ = object.__hash__  # a WeakSet hashes its members

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)
            made_on.add(threading.current_thread())

    monkeypatch.setattr(federation, "ClientUpdate", TrackedUpdate)
    source, train, test, parts = small_setup(num_clients=20)
    config = small_config(strategy="fedavg", rounds=3, p_ds=1.0, num_clients=20)
    held = []

    def hook(round_no, client_id, model):
        # the workers finish jobs faster than the hook takes them; an update
        # is in no reference cycle, so it leaves `live` when its last
        # reference goes, without a gc.collect() (30 ms a call here)
        time.sleep(0.01)
        held.append(len(live))

    pretrained_run(config, source, train, parts, test, threads=threads, client_model_hook=hook)
    assert len(held) == config.rounds * config.num_clients
    assert 1 <= max(held) <= 2 * threads + 1
    if threads == 1:  # every job runs inline, on the caller's thread
        assert made_on == {threading.main_thread()}
    else:
        assert threading.main_thread() not in made_on


def test_hooks_fire_in_client_order_selection_first_with_three_threads():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=3, participation_fraction=0.6)
    events, threads = [], set()

    def record(kind):
        def hook(round_no, client_id, _):
            threads.add(threading.current_thread())
            events.append((round_no, client_id, kind))
        return hook

    reports, _ = pretrained_run(
        config, source, train, parts, test, threads=3,
        client_model_hook=record("model"), selection_hook=record("selection"),
    )
    assert threads == {threading.main_thread()}
    for report in reports:
        assert report.participants == sorted(report.participants)
    assert events == [
        (report.round, cid, kind)
        for report in reports
        for cid in report.participants
        for kind in ("selection", "model")
    ]


def test_reports_round_trip_through_csv(tmp_path):
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_rds", rounds=3, participation_fraction=0.6)
    reports, _ = pretrained_run(config, source, train, parts, test)
    for report in reports:
        assert report.total_selected == sum(
            selection.selection_count(len(parts[c]), config.p_ds) for c in report.participants
        )
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, config.strategy, path)
    # comm_bytes is not a column
    assert read_reports_csv(path) == [dataclasses.replace(r, comm_bytes=0) for r in reports]


@pytest.mark.parametrize(
    "text",
    [
        "round,strategy,test_acc\n1,fedavg,0.5\n",
        "round,strategy,participants,test_acc,test_loss,cum_client_time_s,total_selected\n"
        "1,fedavg,0;1,0.5\n",
    ],
    ids=["missing columns", "short row"],
)
def test_malformed_reports_csv_is_a_config_error_naming_the_file(tmp_path, text):
    path = tmp_path / "reports.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="reports.csv"):
        read_reports_csv(path)
