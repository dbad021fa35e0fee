"""Pretraining, local updates, aggregation, round loop."""

import numpy as np
import pytest

from fedsim import data, nn, selection
from fedsim import rng as streams
from fedsim.data import ClientPartition, PartitionSpec
from fedsim.errors import ConfigError, NumericError, ParameterError, ProtocolError
from fedsim.federation import (
    SECONDS_PER_FLOP,
    ClientUpdate,
    FederationConfig,
    aggregate,
    client_local_update,
    evaluate_model,
    fedprox_local_update,
    initial_model,
    pretrain,
    run_federation,
    sample_participants,
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
    assert update.train_time_seconds > 0.0


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


# --- aggregation -------------------------------------------------------------------


def mk_update(client_id, arrays, count):
    return ClientUpdate(
        client_id=client_id,
        theta=[np.asarray(a, dtype=np.float64) for a in arrays],
        selected_count=count,
        train_time_seconds=0.0,
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
    reports, final = run_federation(config, source, train, parts, test)
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
    _, final = run_federation(config, source, train, parts, test)

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
    reports_eds, _ = run_federation(eds, source, train, parts, test)
    reports_all, _ = run_federation(everything, source, train, parts, test)
    assert reports_eds == reports_all


def test_phi_is_bitwise_constant_across_rounds():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=4)
    seen_phi = []

    def hook(round_no, client_id, model):
        seen_phi.append((model.layers[0].weights.copy(), model.layers[0].bias.copy()))

    _, final = run_federation(config, source, train, parts, test, client_model_hook=hook)
    reference_w, reference_b = seen_phi[0]
    for weights, bias in seen_phi[1:]:
        assert np.array_equal(weights, reference_w)
        assert np.array_equal(bias, reference_b)
    assert np.array_equal(final.layers[0].weights, reference_w)


def test_run_federation_deterministic_across_threads():
    source, train, test, parts = small_setup()
    config = small_config(rounds=3)
    reports_a, final_a = run_federation(config, source, train, parts, test, threads=1)
    reports_b, final_b = run_federation(config, source, train, parts, test, threads=3)
    assert reports_a == reports_b
    for la, lb in zip(final_a.layers, final_b.layers):
        if isinstance(la, nn.DenseLayer):
            assert np.array_equal(la.weights, lb.weights)


def test_communication_cost_smaller_for_partial_updates():
    source, train, test, parts = small_setup()
    fedft = small_config(strategy="fedft_eds", rounds=1)
    fedavg = small_config(strategy="fedavg", rounds=1, p_ds=1.0)
    reports_ft, _ = run_federation(fedft, source, train, parts, test)
    reports_avg, _ = run_federation(fedavg, source, train, parts, test)
    assert reports_ft[0].comm_bytes < reports_avg[0].comm_bytes


def test_run_federation_validates_partitions():
    source, train, test, parts = small_setup()
    config = small_config()
    with pytest.raises(ConfigError):
        run_federation(config, source, train, parts[:-1], test)
    broken = parts[:-1] + [ClientPartition(4, parts[-1].sample_indices[:-1])]
    with pytest.raises(ConfigError):
        run_federation(config, source, train, broken, test)


def test_numeric_failure_names_round_and_client():
    source, train, test, parts = small_setup()
    config = small_config(learning_rate=1e200, rounds=2, local_epochs=4, strategy="fedavg",
                          p_ds=1.0, pretrain_epochs=0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"round \d+, client \d+"):
            run_federation(config, source, train, parts, test)


def test_report_time_is_nondecreasing_and_accuracy_in_range():
    source, train, test, parts = small_setup()
    reports, _ = run_federation(small_config(rounds=4), source, train, parts, test)
    times = [r.cumulative_client_train_time for r in reports]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in reports)


# --- frozen-feature cache ------------------------------------------------------------


def test_device_time_charges_the_full_model_with_the_cache():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=3)
    reports, final = run_federation(config, source, train, parts, test)
    # every client takes part; scoring costs one full forward per sample,
    # training the full forward (frozen part included) plus the head backward
    forward = nn.forward_flops_per_sample(final)
    train_cost = forward + nn.backward_flops_per_sample(final)
    assert forward > nn.forward_flops_per_sample(
        nn.Model(final.layers[config.split_index:], 0, final.num_classes)
    )
    expected = 0.0
    for _ in range(config.rounds):
        for part in parts:
            kept = selection.selection_count(len(part), config.p_ds)
            visits = config.local_epochs * kept
            expected += len(part) * forward * SECONDS_PER_FLOP + visits * train_cost * SECONDS_PER_FLOP
    assert reports[-1].cumulative_client_train_time == expected


def test_frozen_layers_stay_the_pretrained_ones_with_the_cache():
    source, train, test, parts = small_setup()
    config = small_config(strategy="fedft_eds", rounds=2)
    pretrained = initial_model(config, source, train)
    hooked = []
    _, final = run_federation(
        config, source, train, parts, test, client_model_hook=lambda r, c, m: hooked.append(m)
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
            cumulative += 0.0 + update.train_time_seconds
            updates.append(update)
        nn.set_theta(model, aggregate(updates))
        rows.append((*evaluate_model(model, test), cumulative))
    return rows, model


@pytest.mark.parametrize("strategy", ["fedavg", "fedprox"])
def test_split_zero_reports_are_unchanged_by_the_cache(strategy):
    source, train, test, parts = small_setup()
    config = small_config(strategy=strategy, rounds=3, p_ds=0.5)
    reports, final = run_federation(config, source, train, parts, test)
    expected_rows, expected_model = _uncached_rounds(config, source, train, parts, test)
    rows = [(r.test_accuracy, r.test_loss, r.cumulative_client_train_time) for r in reports]
    assert rows == expected_rows
    for a, b in zip(final.layers, expected_model.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
