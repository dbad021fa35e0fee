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

from fedsim import data, federation, nn
from fedsim import rng as streams
from fedsim.data import ClientPartition, PartitionSpec, partition_covers
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
    participant_count,
    plan_run,
    read_reports_csv,
    run_federation,
    selection_count,
    write_reports_csv,
)
from fedsim.rng import derive_rng, derive_seed
from fedsim.selection import select_random


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


def head_and_rows(model, dataset):
    """`model.head()`, and `dataset` with each row replaced by its frozen
    features: what the round loop trains a client's copy of."""
    rows = nn.layer_output(model, dataset.features, model.split_index)
    return model.head(), data.Dataset(rows, dataset.labels, dataset.num_classes)


def opt_for(model, lr, momentum, prox_mu=0.0):
    """An optimizer for a local update of `model`, as the round loop makes it."""
    return nn.OptimizerState.like(model.params, lr, momentum, prox_mu)


def small_plan(config, train, alpha=0.5):
    """The plan of `config` on `train`, at small_setup's default alpha."""
    return plan_run(config, train, alpha)


def pretrained_run(config, source, train, test, **kwargs):
    """run_federation of `small_plan` from `initial_model`: (reports, the
    trained global model)."""
    model = initial_model(config, source, train)
    return run_federation(small_plan(config, train), model, test, **kwargs), model


# --- config validation ------------------------------------------------------


def test_config_rejects_bad_values():
    for overrides in (
        dict(strategy="magic"),
        dict(rounds=-1),
        dict(local_epochs=0),
        dict(participation_fraction=0.0),
        dict(participation_fraction=1.5),
        dict(p_ds=0.0),
        dict(p_ds=1.2),
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


@pytest.mark.parametrize("key", ["learning_rate", "prox_mu", "rho"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_a_non_finite_rate(key, value):
    # the CLI's parser blocks these values, but API callers do not pass it
    with pytest.raises(ConfigError, match=key):
        small_config(**{key: value}).validate()


def test_each_strategy_name_resolves_to_its_three_settings():
    # (whole_model, selector, proximal); the names keep the CLI's choice order
    table = {name: dataclasses.astuple(s) for name, s in federation.STRATEGIES.items()}
    assert list(table) == ["fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all"]
    assert table == {
        "fedavg": (True, "random", False),
        "fedprox": (True, "random", True),
        "fedft_rds": (False, "random", False),
        "fedft_eds": (False, "entropy", False),
        "fedft_all": (False, "all", False),
    }


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
    # at most one block's layer input and output are alive, never every
    # layer's nor a whole split's, beside the (n, classes) logits, softmax
    # steps and probabilities
    n, classes = 5000, 10
    model = nn.build_mlp(32, (128, 128), classes, split_index=0, seed=12)
    rng = np.random.default_rng(13)
    test = data.Dataset(rng.normal(size=(n, 32)), rng.integers(0, classes, n), classes)
    block_bytes = nn.BLOCK_ROWS * 128 * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        evaluate_model(model, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * block_bytes + 5 * n * classes * 8


# --- local updates ----------------------------------------------------------------


def test_local_update_zero_learning_rate_keeps_theta():
    source, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=6)
    before = model.theta.copy()
    head, subset = head_and_rows(model, train.subset(parts[0].sample_indices))
    opt = opt_for(head, 0.0, 0.5)
    update = client_local_update(0, head, subset, 16, [1, 2, 3], head.copy(), opt)
    assert np.array_equal(before, update.theta)


def test_local_update_single_sample_single_step(head_views):
    _, train, _, _ = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=8)
    head, subset = head_and_rows(model, train.subset(np.array([3])))
    reference = head.copy()
    grads = nn.backward(reference, subset.features, subset.labels)
    expected = {
        idx: (
            reference.layers[idx].weights - 0.1 * dw,
            reference.layers[idx].bias - 0.1 * db,
        )
        for idx, (dw, db) in head_views(reference, grads).items()
    }
    opt = opt_for(head, 0.1, 0.0)
    update = client_local_update(0, head, subset, 16, [4], head.copy(), opt)
    trained = head_views(head, update.theta)
    for idx, (w_exp, b_exp) in expected.items():
        assert np.array_equal(trained[idx][0], w_exp)
        assert np.array_equal(trained[idx][1], b_exp)


def test_local_update_keeps_frozen_part_bitwise(monkeypatch):
    # the client's copy of the head trains alone; the model whose head was
    # given stays, frozen part and head
    _, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=9)
    frozen = [(model.layers[0].weights.copy(), model.layers[0].bias.copy())]
    given = model.params.copy()
    trained = []
    run_epochs = federation._run_epochs

    def spy(client, *args):
        trained.append(client)
        run_epochs(client, *args)

    monkeypatch.setattr(federation, "_run_epochs", spy)
    head, subset = head_and_rows(model, train.subset(parts[1].sample_indices))
    opt = opt_for(head, 0.1, 0.5)
    update = client_local_update(1, head, subset, 8, [10, 11, 12, 13], head.copy(), opt)
    (client,) = trained
    assert np.array_equal(model.layers[0].weights, frozen[0][0])
    assert np.array_equal(model.layers[0].bias, frozen[0][1])
    assert client.params.size == model.theta.size
    assert np.shares_memory(update.theta, client.params)
    assert not np.array_equal(client.theta, model.theta)
    assert np.array_equal(model.params, given)


@pytest.mark.parametrize("prox_mu, vectors", [(0.0, 3), (0.01, 4)])
def test_a_local_update_holds_few_head_sized_vectors(prox_mu, vectors):
    # A 500-500-10 head on 4-row batches, so that only the head's vectors
    # count: the client's copy (the upload), the gradient and the velocity,
    # and with FedProx the pull mu * (theta - theta_t). The round loop makes
    # them all; the update itself makes none.
    head = nn.build_mlp(500, (500,), 10, split_index=0, seed=26)
    rng = np.random.default_rng(26)
    subset = data.Dataset(rng.normal(size=(8, 500)), rng.integers(0, 10, 8), 10)
    head_bytes = sum(l.weights.nbytes + l.bias.nbytes for l in head.layers if l.kind == "dense")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        client, opt = head.copy(), opt_for(head, 0.1, 0.5, prox_mu)
        made, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if prox_mu == 0.0:
            update = client_local_update(0, head, subset, 4, [5, 6], client, opt)
        else:
            update = fedprox_local_update(0, head, subset, 4, [5, 6], client, opt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= (vectors + 0.25) * head_bytes
    assert made - before >= vectors * head_bytes
    assert peak - made <= 0.25 * head_bytes
    assert update.theta.nbytes == head_bytes


def test_local_update_reports_selected_count_and_time():
    _, train, _, parts = small_setup()
    model = nn.build_mlp(8, (16,), 4, split_index=0, seed=10)
    subset = train.subset(parts[0].sample_indices)
    opt = opt_for(model, 0.1, 0.5)
    update = client_local_update(0, model, subset, 16, [1, 2], model.copy(), opt)
    assert update.selected_count == len(subset)


def test_fedprox_mu_zero_equals_plain_update():
    _, train, _, parts = small_setup()
    subset = train.subset(parts[2].sample_indices)
    seeds = [21, 22, 23]
    plain_model = nn.build_mlp(8, (16,), 4, split_index=0, seed=12)
    prox_model = plain_model.copy()
    plain = client_local_update(
        2, plain_model, subset, 8, seeds, plain_model.copy(), opt_for(plain_model, 0.1, 0.5)
    )
    prox = fedprox_local_update(
        2, prox_model, subset, 8, seeds, prox_model.copy(), opt_for(prox_model, 0.1, 0.5, 0.0)
    )
    assert np.array_equal(plain.theta, prox.theta)


def test_fedprox_first_step_equals_plain_sgd():
    # theta - theta_t is zero when the round starts, so even a huge mu
    # leaves the very first step untouched
    _, train, _, _ = small_setup()
    subset = train.subset(np.arange(8))
    plain_model = nn.build_mlp(8, (16,), 4, split_index=0, seed=13)
    prox_model = plain_model.copy()
    plain = client_local_update(
        0, plain_model, subset, 32, [7], plain_model.copy(), opt_for(plain_model, 0.1, 0.0)
    )
    prox = fedprox_local_update(
        0, prox_model, subset, 32, [7], prox_model.copy(), opt_for(prox_model, 0.1, 0.0, 1e6)
    )
    assert np.array_equal(plain.theta, prox.theta)


def test_fedprox_applies_proximal_pull_on_later_steps(head_views):
    # two batches in one epoch: the second step must see g + mu * (theta - theta_t)
    _, train, _, _ = small_setup()
    mu, lr = 1.0, 0.1
    model = nn.build_mlp(8, (16,), 4, split_index=2, seed=14)
    head, subset = head_and_rows(model, train.subset(np.arange(16)))
    reference = head.copy()
    update = fedprox_local_update(0, head, subset, 8, [31], head.copy(), opt_for(head, lr, 0.0, mu))
    trained = head_views(head, update.theta)

    # manual replay with nn primitives
    replay = reference.copy()
    dense = [idx for idx, layer in enumerate(replay.layers) if layer.kind == "dense"]
    theta_ref = {
        idx: (replay.layers[idx].weights.copy(), replay.layers[idx].bias.copy())
        for idx in dense
    }
    order = derive_rng(31).permutation(16)
    for start in (0, 8):
        chosen = order[start : start + 8]
        xb, yb = subset.features[chosen], subset.labels[chosen]
        grads = nn.backward(replay, xb, yb)
        for idx, (dw, db) in head_views(replay, grads).items():
            layer = replay.layers[idx]
            ref_w, ref_b = theta_ref[idx]
            layer.weights[...] = layer.weights - lr * (dw + mu * (layer.weights - ref_w))
            layer.bias[...] = layer.bias - lr * (db + mu * (layer.bias - ref_b))
    for idx in dense:
        assert np.allclose(trained[idx][0], replay.layers[idx].weights, atol=1e-15)
        assert np.allclose(trained[idx][1], replay.layers[idx].bias, atol=1e-15)


def reference_training(model, features, labels, epochs, lr, momentum, batch_size, seeds, mu):
    """Mini-batch heavy-ball SGD with the FedProx pull, one array per layer.

    Written out from the formulas: a forward pass, the softmax, backprop over
    every layer, g + mu * (theta - theta_t) when mu != 0,
    then v <- momentum * v + g and theta <- theta - lr * v. Returns the
    {dense index: (weights, bias)} after training and the velocities.
    """
    params = {
        i: (layer.weights.copy(), layer.bias.copy())
        for i, layer in enumerate(model.layers)
        if isinstance(layer, nn.DenseLayer)
    }
    anchor = dict(params)
    velocity = {i: (np.zeros_like(w), np.zeros_like(b)) for i, (w, b) in params.items()}
    n = features.shape[0]
    for epoch in range(epochs):
        order = derive_rng(seeds[epoch]).permutation(n)
        for start in range(0, n, batch_size):
            chosen = order[start : start + batch_size]
            xb, yb = features[chosen], labels[chosen]
            outputs = []
            x = xb
            for i in range(len(model.layers)):
                x = x @ params[i][0].T + params[i][1] if i in params else np.maximum(x, 0.0)
                outputs.append(x)
            shifted = outputs[-1] - outputs[-1].max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            delta = exp / exp.sum(axis=1, keepdims=True)
            delta[np.arange(len(yb)), yb] -= 1.0
            delta = delta / len(yb)
            grads = {}
            for i in range(len(model.layers) - 1, -1, -1):
                if i in params:
                    grads[i] = (delta.T @ (xb if i == 0 else outputs[i - 1]), delta.sum(axis=0))
                    if i > 0:
                        delta = delta @ params[i][0]
                else:
                    delta = delta * (outputs[i] > 0.0)
            for i in grads:
                pulled = [
                    g + mu * (p - a) if mu != 0.0 else g
                    for g, p, a in zip(grads[i], params[i], anchor[i])
                ]
                velocity[i] = tuple(momentum * v + g for v, g in zip(velocity[i], pulled))
                params[i] = tuple(p - lr * v for p, v in zip(params[i], velocity[i]))
    return params, velocity


@st.composite
def training_cases(draw):
    """A random MLP and split, data with a partial last batch allowed, and
    random training settings; momentum and prox_mu include 0."""
    input_dim = draw(st.integers(1, 6))
    hidden = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    num_classes = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    model = nn.build_mlp(input_dim, hidden, num_classes, 0, seed)
    model.split_index = draw(st.integers(0, 2 * len(hidden)))
    rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(seed)
    dataset = data.Dataset(
        rng.normal(size=(rows, input_dim)), rng.integers(0, num_classes, rows), num_classes
    )
    return dict(
        model=model,
        dataset=dataset,
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 12)),
        lr=draw(st.floats(1e-3, 0.5)),
        momentum=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.95)),
        mu=draw(st.sampled_from([0.0]) | st.floats(0.0, 2.0)),
        seed=seed,
    )


def assert_trained_like(model, velocity, expected, expected_velocity):
    """`model` holds `expected`; `velocity`, per head layer, the expected one."""
    for i, (weights, bias) in expected.items():
        assert np.array_equal(model.layers[i].weights, weights)
        assert np.array_equal(model.layers[i].bias, bias)
    assert sorted(velocity) == sorted(expected_velocity)
    for i, (vw, vb) in expected_velocity.items():
        assert np.array_equal(velocity[i][0], vw) and np.array_equal(velocity[i][1], vb)


@settings(max_examples=60)
@given(training_cases())
def test_local_update_and_pretrain_equal_the_per_layer_formulas(head_views, case):
    model, dataset, epochs = case["model"], case["dataset"], case["epochs"]
    lr, momentum, batch_size = case["lr"], case["momentum"], case["batch_size"]
    seeds = [case["seed"] + epoch for epoch in range(epochs)]
    # a client trains the head above the drawn split on the frozen features
    head, rows = head_and_rows(model, dataset)
    expected, expected_velocity = reference_training(
        head, rows.features, rows.labels, epochs, lr, momentum, batch_size, seeds, case["mu"],
    )
    given = model.params.copy()
    # an optimizer left over from an earlier job: the update zeroes its velocity
    opt = opt_for(head, lr, momentum, case["mu"])
    opt.velocity.fill(np.nan)
    trained = head.copy()
    update = fedprox_local_update(0, head, rows, batch_size, seeds, trained, opt)
    assert np.array_equal(model.params, given)
    assert update.theta is trained.params
    assert_trained_like(trained, head_views(head, opt.velocity), expected, expected_velocity)
    arrays = [a for i in sorted(expected_velocity) for a in expected[i]]
    assert update.theta.shape == model.theta.shape
    assert np.array_equal(update.theta, np.concatenate([a.ravel() for a in arrays]))

    # pretrain trains every layer with its own seed schedule and no pull
    pretrain_seeds = [derive_seed(case["seed"], epoch) for epoch in range(epochs)]
    whole = model.copy()
    whole.split_index = 0
    expected, expected_velocity = reference_training(
        whole, dataset.features, dataset.labels, epochs, lr, momentum, batch_size,
        pretrain_seeds, 0.0,
    )
    used = []
    step = nn.sgd_step

    def spy(model_, opt_, anchor=None):
        used.append(opt_)
        return step(model_, opt_, anchor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "sgd_step", spy)
        out = pretrain(model, dataset, epochs, lr, momentum, batch_size, seed=case["seed"])
    assert out.split_index == model.split_index
    assert len({id(o) for o in used}) == 1
    assert_trained_like(out, head_views(whole, used[0].velocity), expected, expected_velocity)


@pytest.mark.parametrize("prox_mu", [0.0, 0.01])
def test_a_wrapping_tracer_sees_every_step_of_a_local_update(monkeypatch, prox_mu):
    # perfbench/tracing.py times the step by wrapping these three nn names
    _, train, _, _ = small_setup()
    subset = train.subset(np.arange(37))
    counts = {"forward": 0, "backward": 0, "sgd_step": 0}
    forwards_per_backward = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "backward":
                forwards_per_backward.append(counts["forward"])
                result = fn(*args, **kwargs)
                forwards_per_backward[-1] = counts["forward"] - forwards_per_backward[-1]
                return result
            return fn(*args, **kwargs)

        return wrapped

    for name in counts:
        monkeypatch.setattr(nn, name, counting(name, getattr(nn, name)))
    model = nn.build_mlp(8, (16,), 4, split_index=0, seed=16)
    opt = opt_for(model, 0.1, 0.5, prox_mu)
    fedprox_local_update(0, model, subset, 8, [1, 2, 3], model.copy(), opt)
    steps = 3 * 5  # E epochs of ceil(37 / 8) batches
    assert counts["backward"] == counts["sgd_step"] == steps
    assert forwards_per_backward == [1] * steps
    assert counts["forward"] == steps

# --- aggregation -------------------------------------------------------------------


def mk_update(client_id, theta, count):
    return ClientUpdate(
        client_id=client_id, theta=np.asarray(theta, dtype=np.float64), selected_count=count
    )


def test_aggregate_identical_updates_is_fixed_point():
    theta = np.array([[0.5, -2.0], [3.0, 1.0]])
    updates = [mk_update(i, theta.copy(), 7) for i in range(3)]
    assert np.abs(aggregate(updates) - theta).max() < 1e-12


def test_aggregate_equal_counts_average():
    merged = aggregate([mk_update(0, [1.0, 3.0], 5), mk_update(1, [3.0, 5.0], 5)])
    assert np.array_equal(merged, np.array([2.0, 4.0]))


def test_aggregate_weighted_by_counts():
    merged = aggregate([mk_update(0, [4.0], 10), mk_update(1, [0.0], 30)])
    assert np.array_equal(merged, np.array([1.0]))


def test_aggregate_is_order_independent():
    rng = np.random.default_rng(15)
    updates = [mk_update(i, rng.normal(size=(3, 2)), int(rng.integers(1, 20))) for i in range(6)]
    forward_order = aggregate(updates)
    reversed_order = aggregate(list(reversed(updates)))
    assert np.array_equal(forward_order, reversed_order)


def test_aggregate_matches_direct_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        k = int(rng.integers(1, 8))
        counts = rng.integers(1, 50, size=k)
        thetas = [rng.normal(size=5) for _ in range(k)]
        updates = [mk_update(i, thetas[i], int(counts[i])) for i in range(k)]
        merged = aggregate(updates)
        oracle = sum(c * t for c, t in zip(counts, thetas)) / counts.sum()
        assert np.abs(merged - oracle).max() < 1e-12


def test_aggregate_convex_combination_bound():
    rng = np.random.default_rng(17)
    thetas = [rng.normal(size=(4, 3)) for _ in range(5)]
    updates = [mk_update(i, t, int(rng.integers(1, 9))) for i, t in enumerate(thetas)]
    merged = aggregate(updates)
    stacked = np.stack(thetas)
    assert (merged >= stacked.min(axis=0) - 1e-12).all()
    assert (merged <= stacked.max(axis=0) + 1e-12).all()


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        aggregate([])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, np.zeros(2), 1), mk_update(0, np.zeros(2), 1)])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, np.zeros(2), 1), mk_update(1, np.zeros(3), 1)])
    with pytest.raises(ProtocolError):
        aggregate([mk_update(0, np.zeros(2), 0)])


PROPERTY = settings(max_examples=80)


@st.composite
def client_updates(draw, min_size=1):
    """Updates with distinct ids in random order, counts >= 1, one shared shape."""
    shape = draw(hnp.array_shapes(max_dims=2, max_side=4))
    k = draw(st.integers(min_size, 6))
    ids = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True))
    counts = draw(st.lists(st.integers(1, 500), min_size=k, max_size=k))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    return [
        mk_update(cid, draw(hnp.arrays(np.float64, shape, elements=values)), n)
        for cid, n in zip(ids, counts)
    ]


@PROPERTY
@given(st.data())
def test_aggregate_is_bitwise_permutation_invariant(data_):
    updates = data_.draw(client_updates())
    shuffled = data_.draw(st.permutations(updates))
    assert np.array_equal(aggregate(updates), aggregate(shuffled))


@PROPERTY
@given(client_updates())
def test_aggregate_stays_within_the_inputs_to_a_few_ulps(updates):
    merged = aggregate(updates)
    stacked = np.stack([u.theta for u in updates])
    # each weight, product and partial sum rounds once
    slack = 4 * len(updates) * np.spacing(np.abs(stacked).max(axis=0))
    assert (merged >= stacked.min(axis=0) - slack).all()
    assert (merged <= stacked.max(axis=0) + slack).all()


@PROPERTY
@given(client_updates())
def test_fold_in_ascending_order_equals_aggregate(updates):
    fold = UpdateFold(sum(u.selected_count for u in updates), updates[0].theta.shape)
    for update in sorted(updates, key=lambda u: u.client_id):
        fold.add(update)
    assert np.array_equal(fold.result(), aggregate(updates))


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
        ordered[-1] = dataclasses.replace(last, theta=np.append(last.theta, 0.0))
    else:
        total += 1
    fold = UpdateFold(total, first.theta.shape)
    with pytest.raises(ProtocolError):
        for update in ordered:
            fold.add(update)
        fold.result()


# --- the run plan ------------------------------------------------------------------------


def test_selection_count_rule():
    assert selection_count(7, 0.5) == 3
    assert selection_count(7, 1.0) == 7
    assert selection_count(3, 0.01) == 1  # never empty
    # floor of the decimal product; binary floating point gives 28 and 56
    assert selection_count(100, 0.29) == 29
    assert selection_count(100, 0.57) == 57


def test_plan_participants_full_participation():
    _, train, _, _ = small_setup()
    plan = small_plan(small_config(num_clients=7, rounds=3), train)
    assert plan.participants == [list(range(7))] * 3


def test_plan_participants_count_rule():
    _, train, _, _ = small_setup()
    config = small_config(num_clients=100, participation_fraction=0.1, rounds=4)
    for picked in small_plan(config, train).participants:
        assert len(picked) == len(set(picked)) == 10


def test_plan_participants_deterministic():
    _, train, _, _ = small_setup()
    config = small_config(num_clients=50, participation_fraction=0.2, rounds=3)
    assert small_plan(config, train).participants == small_plan(config, train).participants


def test_plan_participants_frequency():
    _, train, _, _ = small_setup()
    rounds = 200
    config = small_config(num_clients=10, participation_fraction=0.2, rounds=rounds)
    hits = np.zeros(10)
    for picked in small_plan(config, train).participants:
        hits[picked] += 1
    rates = hits / rounds
    assert (np.abs(rates - 0.2) <= 0.06).all()


@settings(max_examples=200)
@given(
    pool=st.integers(1, 60),
    clients=st.integers(1, 60),
    taking=st.integers(1, 60),
    p_ds=st.floats(0.01, 1.0),
    rounds=st.integers(0, 4),
    strategy=st.sampled_from(list(federation.STRATEGIES)),
)
def test_the_plan_covers_the_pool_and_fixes_every_count(pool, clients, taking, p_ds, rounds,
                                                         strategy):
    clients = min(clients, pool)  # a pool smaller than the client count is rejected
    taking = min(taking, clients)
    config = small_config(strategy=strategy, num_clients=clients, rounds=rounds, p_ds=p_ds,
                          participation_fraction=taking / clients)
    train = data.Dataset(np.zeros((pool, 2)), np.arange(pool) % 3, 3)
    plan = small_plan(config, train)
    assert partition_covers(plan.partitions, pool)
    assert [p.client_id for p in plan.partitions] == list(range(clients))
    for part, kept in zip(plan.partitions, plan.kept, strict=True):
        if strategy == "fedft_all":
            assert kept == len(part)
        else:
            assert kept == selection_count(len(part), p_ds)
    assert participant_count(clients, config.participation_fraction) == taking
    assert len(plan.participants) == rounds
    for picked in plan.participants:
        assert len(picked) == taking
        assert picked == sorted(set(picked))
        assert all(0 <= c < clients for c in picked)
    whole = strategy in ("fedavg", "fedprox")
    assert plan.split_index == (0 if whole else config.split_index)


def test_a_random_selection_run_derives_one_selection_seed_per_round(monkeypatch):
    # every client of a round draws its rows from the round's one seed
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedprox", rounds=4, participation_fraction=0.6)
    start, plan = initial_model(config, source, train), small_plan(config, train)
    derived, real = [], federation.derive_seed

    def spy(*path):
        derived.append(path)
        return real(*path)

    monkeypatch.setattr(federation, "derive_seed", spy)
    reports = run_federation(plan, start, test)
    assert [len(r.participants) for r in reports] == [3] * config.rounds
    selections = [path for path in derived if path[1:2] == (streams.SELECTION,)]
    rounds = range(1, config.rounds + 1)
    assert selections == [(config.master_seed, streams.SELECTION, r) for r in rounds]


def test_a_pool_too_small_for_its_clients_cannot_be_planned():
    _, train, _, _ = small_setup()
    with pytest.raises(ParameterError, match=f"{len(train) + 1} clients"):
        small_plan(small_config(num_clients=len(train) + 1), train)


def test_each_round_runs_the_participants_and_kept_counts_of_its_plan():
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=4, participation_fraction=0.6)
    plan = small_plan(config, train)
    reports = run_federation(plan, initial_model(config, source, train), test)
    assert len(reports) == len(plan.participants) == config.rounds
    for report in reports:
        assert report.participants == plan.participants[report.round - 1]
        assert report.total_selected == sum(plan.kept[c] for c in report.participants)


# --- run_federation ----------------------------------------------------------------------


def test_run_zero_rounds_returns_pretrained_model():
    source, train, test, _ = small_setup()
    config = small_config(rounds=0)
    reports, final = pretrained_run(config, source, train, test)
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
        assert np.array_equal(model.params, models[0].params)
        for a, b in zip(model.layers, models[0].layers):
            if isinstance(a, nn.DenseLayer):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
    assert all(model.split_index == 0 for model in models)


def test_pretraining_trains_only_whole_models(monkeypatch):
    source, train, _, _ = small_setup()
    splits, backward = [], nn.backward

    def spy(model, *args, **kwargs):
        splits.append(model.split_index)
        return backward(model, *args, **kwargs)

    monkeypatch.setattr(nn, "backward", spy)
    for strategy in federation.STRATEGIES:
        initial_model(small_config(strategy=strategy, split_index=2), source, train)
    assert splits and set(splits) == {0}


@pytest.mark.parametrize("strategy", federation.STRATEGIES)
def test_the_run_sets_the_split_its_strategy_trains(strategy):
    # whatever split the start model was built at, the run trains the same
    # layers and ends at the strategy's own split
    source, train, test, _ = small_setup()
    config = small_config(strategy=strategy, split_index=2, rounds=2)
    plan = small_plan(config, train)
    pretrained = initial_model(config, source, train)
    last_dense = nn.default_split_index(config.hidden_sizes)
    results = []
    for split in (0, config.split_index, last_dense):
        start = nn.Model(pretrained.layers, split, pretrained.num_classes)
        reports = run_federation(plan, start, test)
        trained = 0 if strategy in ("fedavg", "fedprox") else config.split_index
        assert start.split_index == trained
        results.append((reports, start.params))
    for reports, params in results[1:]:
        assert reports == results[0][0]
        assert np.array_equal(params, results[0][1])


def test_single_client_fedavg_equals_centralized_training():
    pool = data.generate_synthetic(3, 40, 6, 2.0, seed=55)
    target, source = data.stratified_split(pool, 0.3, 56)
    train, test = data.stratified_split(target, 0.2, 57)
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
    _, final = pretrained_run(config, source, train, test)

    # independent oracle: drive the nn primitives directly with the same
    # seed schedule (fresh momentum each round, per-epoch shuffles)
    oracle = nn.build_mlp(6, (12,), 3, split_index=0,
                          seed=derive_seed(91, streams.INIT))
    for round_no in range(1, 5):
        opt = nn.OptimizerState.like(oracle.params, learning_rate=0.1, momentum=0.5)
        for epoch in range(3):
            seed = derive_seed(91, streams.SHUFFLE, round_no, 0, epoch)
            order = derive_rng(seed).permutation(len(train))
            for start in range(0, len(train), 16):
                chosen = order[start : start + 16]
                xb, yb = train.features[chosen], train.labels[chosen]
                nn.backward(oracle, xb, yb, out=opt.grad)
                nn.sgd_step(oracle, opt)
    for a, b in zip(final.layers, oracle.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize(
    "left, right",
    [
        (dict(strategy="fedft_eds", p_ds=1.0, rho=1.0), dict(strategy="fedft_all")),
        (dict(strategy="fedft_eds", p_ds=1.0, rho=0.1), dict(strategy="fedft_all")),
        (dict(strategy="fedft_rds", p_ds=1.0), dict(strategy="fedft_all")),
        (dict(strategy="fedft_all", split_index=0), dict(strategy="fedavg", p_ds=1.0)),
        (dict(strategy="fedprox", prox_mu=0.0), dict(strategy="fedavg")),
    ],
    ids=["eds_p1_rho1", "eds_p1_rho0.1", "rds_p1", "all_split0_is_fedavg_p1", "fedprox_mu0"],
)
def test_strategies_that_the_table_makes_equal_run_bitwise_equal(left, right):
    # small_config's p_ds is 0.5, which fedft_all ignores: it trains on
    # everything, and at p_ds 1 no selector pays for scoring
    source, train, test, _ = small_setup()
    reports_left, final_left = pretrained_run(small_config(**left), source, train, test)
    reports_right, final_right = pretrained_run(small_config(**right), source, train, test)
    assert reports_left == reports_right
    assert np.array_equal(final_left.params, final_right.params)
    if "fedft_all" in (left["strategy"], right["strategy"]):
        assert all(r.total_selected == len(train) for r in reports_right)


def test_phi_is_bitwise_constant_across_rounds():
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=4)
    final = initial_model(config, source, train)
    seen_phi, uploads = [], {}

    def hook(round_no, client_id, theta):
        # the global model's phi, as each client's upload is folded
        seen_phi.append((final.layers[0].weights.copy(), final.layers[0].bias.copy()))
        uploads.setdefault(round_no, []).append(theta.copy())

    run_federation(small_plan(config, train), final, test, upload_hook=hook)
    assert len(seen_phi) == config.rounds * config.num_clients
    reference_w, reference_b = seen_phi[0]
    for weights, bias in seen_phi[1:]:
        assert np.array_equal(weights, reference_w)
        assert np.array_equal(bias, reference_b)
    assert np.array_equal(final.layers[0].weights, reference_w)
    # each upload is its client's own head, not the global one
    for thetas in uploads.values():
        assert not np.array_equal(thetas[0], thetas[1])


def test_run_federation_deterministic_across_threads():
    source, train, test, _ = small_setup()
    config = small_config(rounds=3)
    reports_a, final_a = pretrained_run(config, source, train, test, threads=1)
    reports_b, final_b = pretrained_run(config, source, train, test, threads=3)
    assert reports_a == reports_b
    for la, lb in zip(final_a.layers, final_b.layers):
        if isinstance(la, nn.DenseLayer):
            assert np.array_equal(la.weights, lb.weights)


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
    source, train, test, _ = small_setup()
    config = small_config()
    start = initial_model(config, source, train)
    with pytest.raises(ConfigError, match="test dataset"):
        run_federation(small_plan(config, train), start, _other_shape(test, **change))


@pytest.mark.parametrize("mismatch", ["input width", "hidden sizes", "class count"])
def test_run_federation_rejects_a_start_model_unlike_config_and_train(mismatch):
    source, train, test, _ = small_setup()
    config = small_config()
    widths = dict(input_dim=8, hidden_sizes=config.hidden_sizes, num_classes=4)
    if mismatch == "input width":
        widths["input_dim"] = 7
    elif mismatch == "hidden sizes":
        widths["hidden_sizes"] = (16, 15)
    else:
        widths["num_classes"] = 5
    start = nn.build_mlp(**widths, split_index=0, seed=1)
    with pytest.raises(ConfigError, match="start model"):
        run_federation(small_plan(config, train), start, test)


def test_numeric_failure_names_round_and_client():
    source, train, test, _ = small_setup()
    config = small_config(learning_rate=1e200, rounds=2, local_epochs=4, strategy="fedavg",
                          p_ds=1.0, pretrain_epochs=0)
    with pytest.raises(NumericError, match=r"round \d+, client \d+"):
        pretrained_run(config, source, train, test)


@pytest.mark.parametrize(
    "strategy, threads",
    [("fedavg", 2), ("fedprox", 1), ("fedprox", 2), ("fedft_eds", 1), ("fedft_eds", 2)],
)
def test_numeric_failure_names_round_and_client_for_each_trainer(strategy, threads):
    source, train, test, _ = small_setup()
    # a head-only step grows theta by at most lr * |features|, so only an lr
    # near the float64 limit makes it overflow
    config = small_config(learning_rate=1e308, rounds=2, local_epochs=4, strategy=strategy,
                          pretrain_epochs=0)
    with pytest.raises(NumericError, match=r"round 1, client \d+: .*non-finite"):
        pretrained_run(config, source, train, test, threads=threads)


def test_report_time_is_nondecreasing_and_accuracy_in_range():
    source, train, test, _ = small_setup()
    reports, _ = pretrained_run(small_config(rounds=4), source, train, test)
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


def test_the_backward_charge_of_a_head_is_that_of_the_layers_from_its_split():
    # the round loop charges backward_flops_per_sample(start.head())
    for widths in ((8, 16, 4), (8, 16, 16, 4), (6, 5, 7, 3, 2)):
        layers = nn.build_mlp(widths[0], widths[1:-1], widths[-1], 0, seed=1).layers
        for split in range(len(layers)):
            head = nn.Model(layers, split, widths[-1]).head()
            assert nn.backward_flops_per_sample(head) == _flops_per_sample(widths, split)[1]


@pytest.mark.parametrize("fraction", [1.0, 0.6])
@pytest.mark.parametrize("strategy", federation.STRATEGIES)
def test_device_time_charges_the_full_model_with_the_cache(strategy, fraction):
    source, train, test, _ = small_setup()
    config = small_config(strategy=strategy, rounds=3, participation_fraction=fraction)
    parts = small_plan(config, train).partitions
    reports, _ = pretrained_run(config, source, train, test)
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
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=2)
    final = initial_model(config, source, train)
    pretrained = final.copy()
    hooked = []

    def hook(round_no, client_id, theta):
        # the global model as each client's upload is folded, and the upload
        hooked.append((final.copy(), theta.copy()))

    run_federation(small_plan(config, train), final, test, upload_hook=hook)
    assert len(hooked) == config.rounds * config.num_clients
    for model in (final, *(global_model for global_model, _ in hooked)):
        assert model.split_index == config.split_index
        assert len(model.layers) == len(pretrained.layers)
        for i in range(config.split_index):
            if pretrained.layers[i].kind != "dense":
                continue
            assert np.array_equal(model.layers[i].weights, pretrained.layers[i].weights)
            assert np.array_equal(model.layers[i].bias, pretrained.layers[i].bias)
    # each upload is a head laid out like the global one, and its client's own
    uploads = [theta for _, theta in hooked]
    for theta in uploads:
        assert theta.shape == final.theta.shape
    assert not np.array_equal(uploads[0], uploads[1])


def test_the_round_loop_builds_one_model_per_client_round(monkeypatch):
    # the local update's copy of the global head, and no model for the hook
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=3, participation_fraction=0.6)
    start = initial_model(config, source, train)
    copies, copy = [], nn.Model.copy

    def counting(model):
        copies.append(model)
        return copy(model)

    monkeypatch.setattr(nn.Model, "copy", counting)
    reports = run_federation(
        small_plan(config, train), start, test, upload_hook=lambda r, c, theta: None
    )
    assert sum(len(r.participants) for r in reports) == config.rounds * 3
    assert len(copies) == config.rounds * 3


def test_pretrain_and_the_client_copies_are_laid_out_in_one_vector(monkeypatch, assert_laid_out):
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=1)
    start = initial_model(config, source, train)
    assert_laid_out(start)
    trained, step = {}, nn.sgd_step

    def spy(model, opt, anchor=None):
        trained[id(model)] = model
        return step(model, opt, anchor)

    monkeypatch.setattr(nn, "sgd_step", spy)
    run_federation(small_plan(config, train), start, test)
    assert len(trained) == config.num_clients
    for client in trained.values():
        assert client.split_index == 0
        assert client.params.size == client.theta.size == start.theta.size
        assert not np.shares_memory(client.params, start.params)
        assert_laid_out(client)


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
            chosen = select_random(
                part,
                selection_count(len(part), config.p_ds),
                derive_seed(master, streams.SELECTION, round_no),
            )
            subset = train.subset(chosen.selected_indices)
            seeds = [
                derive_seed(master, streams.SHUFFLE, round_no, cid, epoch)
                for epoch in range(config.local_epochs)
            ]
            if config.strategy == "fedprox":
                opt = opt_for(model, config.learning_rate, config.momentum, config.prox_mu)
                update = fedprox_local_update(
                    cid, model, subset, config.batch_size, seeds, model.copy(), opt
                )
            else:
                opt = opt_for(model, config.learning_rate, config.momentum)
                update = client_local_update(
                    cid, model, subset, config.batch_size, seeds, model.copy(), opt
                )
            train_cost = nn.forward_flops_per_sample(model) + nn.backward_flops_per_sample(model)
            cumulative += 0.0 + config.local_epochs * len(subset) * train_cost * SECONDS_PER_FLOP
            updates.append(update)
        np.copyto(model.theta, aggregate(updates))
        rows.append((*evaluate_model(model, test), cumulative))
    return rows, model


@pytest.mark.parametrize("strategy", ["fedavg", "fedprox"])
def test_split_zero_reports_are_unchanged_by_the_cache(strategy):
    source, train, test, _ = small_setup()
    config = small_config(strategy=strategy, rounds=3, p_ds=0.5)
    reports, final = pretrained_run(config, source, train, test)
    parts = small_plan(config, train).partitions
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
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedavg", rounds=3, p_ds=1.0)
    held = []

    def hook(round_no, client_id, theta):
        gc.collect()
        held.append(len(live))

    pretrained_run(config, source, train, test, threads=1, upload_hook=hook)
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
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedavg", rounds=3, p_ds=1.0, num_clients=20)
    held = []

    def hook(round_no, client_id, theta):
        # the workers finish jobs faster than the hook takes them; an update
        # is in no reference cycle, so it leaves `live` when its last
        # reference goes, without a gc.collect() (30 ms a call here)
        time.sleep(0.01)
        held.append(len(live))

    pretrained_run(config, source, train, test, threads=threads, upload_hook=hook)
    assert len(held) == config.rounds * config.num_clients
    assert 1 <= max(held) <= 2 * threads + 1
    if threads == 1:  # every job runs inline, on the caller's thread
        assert made_on == {threading.main_thread()}
    else:
        assert threading.main_thread() not in made_on


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("strategy", ["fedprox", "fedft_eds"])
def test_worker_threads_allocate_no_head_sized_array(monkeypatch, strategy, threads):
    # The round loop makes every head-sized vector a job trains on the main
    # thread, so that no worker's malloc arena keeps one. After each job's
    # first step on a worker, when every vector of the job exists, no live
    # allocation made on a worker thread is as large as the trained head.
    # The head (64-64-4 whole, or above split 2) outweighs a job's rows and
    # activations.
    source, train, test, _ = small_setup()
    config = small_config(strategy=strategy, rounds=2, hidden_sizes=(64, 64), split_index=2)
    start = initial_model(config, source, train)
    largest, checked, step = [], set(), nn.sgd_step

    def checked_step(model, opt, anchor=None):
        step(model, opt, anchor)
        if threading.current_thread() is not threading.main_thread() and id(model) not in checked:
            checked.add(id(model))  # each job trains its own model
            traces = tracemalloc.take_snapshot().traces
            # 32 frames hold a worker's whole stack, which starts in threading
            on_workers = (t for t in traces if t.traceback[0].filename == threading.__file__)
            largest.append(max((t.size for t in on_workers), default=0))

    monkeypatch.setattr(nn, "sgd_step", checked_step)
    tracemalloc.start(32)
    try:
        run_federation(small_plan(config, train), start, test, threads=threads)
    finally:
        tracemalloc.stop()
    assert largest, "no step ran on a worker thread"
    assert max(largest) < start.theta.nbytes


@pytest.mark.parametrize("strategy", ["fedprox", "fedft_eds"])
def test_a_round_makes_one_optimizer_per_job_that_can_run_at_once(monkeypatch, strategy):
    # 8 threads but 3 participants per round: no more than 3 jobs run at
    # once, so a round makes 3 optimizers, each on the main thread
    source, train, test, _ = small_setup()
    config = small_config(strategy=strategy, rounds=2, participation_fraction=0.6)
    start = initial_model(config, source, train)
    made, like = [], nn.OptimizerState.like

    def spy(params, *args):
        made.append((params.shape, threading.current_thread()))
        return like(params, *args)

    monkeypatch.setattr(nn.OptimizerState, "like", staticmethod(spy))
    reports = run_federation(small_plan(config, train), start, test, threads=8)
    assert [len(r.participants) for r in reports] == [3, 3]
    assert made == [(start.theta.shape, threading.main_thread())] * (3 * config.rounds)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("strategy", ["fedprox", "fedft_eds"])
def test_a_failing_job_ends_the_run_and_its_workers(strategy, threads):
    # Twenty runs each: a job that starts after another has failed must
    # still find an optimizer and end, or the pool's shutdown waits on it.
    source, train, test, _ = small_setup()
    config = small_config(learning_rate=1e308, rounds=2, local_epochs=4, strategy=strategy,
                          pretrain_epochs=0)
    plan = small_plan(config, train)
    start = initial_model(config, source, train)
    before = set(threading.enumerate())
    for _ in range(20):
        errors = []

        def run():
            try:
                run_federation(plan, start.copy(), test, threads=threads)
            except NumericError as exc:
                errors.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the run did not end after a job failed"
        assert len(errors) == 1 and "round 1, client" in str(errors[0])
        assert set(threading.enumerate()) == before


def test_hooks_fire_in_client_order_selection_first_with_three_threads():
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_eds", rounds=3, participation_fraction=0.6)
    events, threads = [], set()

    def record(kind):
        def hook(round_no, client_id, _):
            threads.add(threading.current_thread())
            events.append((round_no, client_id, kind))
        return hook

    reports, _ = pretrained_run(
        config, source, train, test, threads=3,
        upload_hook=record("upload"), selection_hook=record("selection"),
    )
    assert threads == {threading.main_thread()}
    for report in reports:
        assert report.participants == sorted(report.participants)
    assert events == [
        (report.round, cid, kind)
        for report in reports
        for cid in report.participants
        for kind in ("selection", "upload")
    ]


def test_reports_round_trip_through_csv(tmp_path):
    source, train, test, _ = small_setup()
    config = small_config(strategy="fedft_rds", rounds=3, participation_fraction=0.6)
    parts = small_plan(config, train).partitions
    reports, _ = pretrained_run(config, source, train, test)
    for report in reports:
        assert report.total_selected == sum(
            selection_count(len(parts[c]), config.p_ds) for c in report.participants
        )
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, config.strategy, path)
    assert read_reports_csv(path) == reports


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
