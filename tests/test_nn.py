"""Numerics: forward, tempered softmax, cross-entropy, backprop, SGD, IO."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.errors import FormatError, NumericError, ParameterError, ShapeError


def make_model(split_index=0, seed=1, input_dim=5, hidden=(8,), num_classes=4):
    return nn.build_mlp(input_dim, hidden, num_classes, split_index, seed)


def reference_forward(model, batch):
    """Per-sample scalar-loop forward pass, independent of the vectorized path."""
    out = []
    for row in batch:
        x = list(row)
        for layer in model.layers:
            if isinstance(layer, nn.DenseLayer):
                x = [
                    sum(layer.weights[i][j] * x[j] for j in range(len(x))) + layer.bias[i]
                    for i in range(layer.out_dim)
                ]
            else:
                x = [max(v, 0.0) for v in x]
        out.append(x)
    return np.array(out)


# --- forward ----------------------------------------------------------------


def test_forward_zero_network_gives_zero_logits():
    model = nn.Model(
        [nn.DenseLayer(np.zeros((3, 2)), np.zeros(3))], split_index=0, num_classes=3
    )
    logits, _ = nn.forward(model, np.array([[1.0, -2.0], [0.5, 4.0]]))
    assert np.array_equal(logits, np.zeros((2, 3)))


def test_forward_hand_arithmetic():
    model = nn.Model(
        [nn.DenseLayer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]))],
        split_index=0,
        num_classes=2,
    )
    logits, _ = nn.forward(model, np.array([[1.0, 1.0]]))
    assert np.array_equal(logits, np.array([[3.0, 2.0]]))


def test_forward_matches_independent_reference():
    model = make_model(seed=7)
    batch = np.random.default_rng(3).normal(size=(6, 5))
    logits, _ = nn.forward(model, batch)
    expected = reference_forward(model, batch)
    assert np.abs(logits - expected).max() < 1e-12


def test_forward_is_deterministic():
    model = make_model(seed=11)
    batch = np.random.default_rng(5).normal(size=(4, 5))
    first, _ = nn.forward(model, batch)
    second, _ = nn.forward(model, batch)
    assert np.array_equal(first, second)


def test_forward_rejects_bad_width():
    model = make_model()
    with pytest.raises(ShapeError):
        nn.forward(model, np.zeros((3, 9)))


def test_forward_rejects_nonfinite():
    model = make_model()
    model.layers[0].weights[0, 0] = np.inf
    with pytest.raises(NumericError):
        nn.forward(model, np.ones((2, 5)))


# --- frozen features (property tests) -----------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def split_models_and_batches(draw, relu_first=False):
    """A random-width MLP (optionally led by a relu), a split that leaves the
    logits layer in the head, and a batch with negative entries."""
    input_dim = draw(st.integers(1, 12))
    hidden = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=3)))
    num_classes = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    layers = nn.build_mlp(input_dim, hidden, num_classes, 0, seed).layers
    if relu_first:
        layers = [nn.ReluLayer(), *layers]
    split = draw(st.integers(0, len(layers) - 1))
    rows = draw(st.integers(1, 70))
    batch = np.random.default_rng(seed).normal(scale=2.0, size=(rows, input_dim))
    return nn.Model(layers, split, num_classes), batch


@PROPERTY
@given(st.one_of(split_models_and_batches(), split_models_and_batches(relu_first=True)))
def test_head_on_frozen_features_gives_the_full_logits(case):
    model, batch = case
    head = nn.Model(model.layers[model.split_index:], 0, model.num_classes)
    features = nn.frozen_features(model, batch)
    logits, activations = nn.forward(model, batch)
    if model.split_index == 0:
        assert features is batch
    else:
        assert np.array_equal(features, activations[model.split_index - 1])
    assert np.array_equal(nn.forward(head, features)[0], logits)


@PROPERTY
@given(st.one_of(split_models_and_batches(), split_models_and_batches(relu_first=True)))
def test_frozen_features_never_mutates_its_input(case):
    model, batch = case
    before = batch.copy()
    features = nn.frozen_features(model, batch)
    assert np.array_equal(batch, before)
    assert model.split_index == 0 or not np.shares_memory(features, batch)


def test_frozen_features_rejects_bad_width():
    with pytest.raises(ShapeError):
        nn.frozen_features(make_model(split_index=2), np.zeros((3, 4)))


# --- softmax with temperature -------------------------------------------


def test_softmax_uniform_on_equal_logits():
    probs = nn.softmax_with_temperature(np.zeros(3), 1.0)
    assert np.abs(probs - 1.0 / 3.0).max() < 1e-12


def test_softmax_reference_values():
    z = [1.0, 2.0, 3.0]
    denominator = sum(math.exp(v) for v in z)
    expected = np.array([math.exp(v) / denominator for v in z])
    probs = nn.softmax_with_temperature(np.array(z), 1.0)
    assert np.abs(probs - expected).max() < 1e-12
    # frozen reference evaluation
    assert np.abs(probs - np.array([0.09003057317038046, 0.24472847105479764, 0.6652409557748219])).max() < 1e-12


def test_softmax_hardening_forces_one_hot():
    probs = nn.softmax_with_temperature(np.array([1.0, 2.0]), 0.01)
    assert probs[0] < 1e-40
    assert abs(probs[1] - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(scale=5.0, size=6)
        rho = float(rng.uniform(0.05, 3.0))
        shift = float(rng.uniform(-100.0, 100.0))
        a = nn.softmax_with_temperature(z, rho)
        b = nn.softmax_with_temperature(z + shift, rho)
        assert np.abs(a - b).max() < 1e-12


def test_softmax_rho_one_is_standard_softmax():
    z = np.array([0.3, -1.2, 2.5, 0.0])
    expected = np.exp(z - z.max())
    expected /= expected.sum()
    assert np.abs(nn.softmax_with_temperature(z, 1.0) - expected).max() < 1e-12


def test_softmax_sums_to_one_and_no_overflow():
    z = np.array([700.0, -700.0, 0.0])
    probs = nn.softmax_with_temperature(z, 1.0)
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) < 1e-12


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        nn.softmax_with_temperature(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ParameterError):
        nn.softmax_with_temperature(np.array([1.0, 2.0]), -1.0)


def test_softmax_matrix_rows():
    z = np.random.default_rng(1).normal(size=(5, 3))
    probs = nn.softmax_with_temperature(z, 0.5)
    assert probs.shape == (5, 3)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


# --- cross entropy ----------------------------------------------------------


def test_cross_entropy_perfect_prediction():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert nn.cross_entropy_loss(probs, np.array([0, 1])) == 0.0


def test_cross_entropy_uniform_ten_classes():
    probs = np.full((4, 10), 0.1)
    loss = nn.cross_entropy_loss(probs, np.array([0, 3, 5, 9]))
    assert abs(loss - math.log(10.0)) < 1e-12


def test_cross_entropy_reference_value():
    loss = nn.cross_entropy_loss(np.array([[0.7, 0.2, 0.1]]), np.array([0]))
    assert abs(loss - (-math.log(0.7))) < 1e-12


def test_cross_entropy_rejects_bad_labels():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(ParameterError):
        nn.cross_entropy_loss(probs, np.array([2]))


def test_cross_entropy_rejects_unnormalized_rows():
    with pytest.raises(ParameterError):
        nn.cross_entropy_loss(np.array([[0.5, 0.4]]), np.array([0]))


# --- backward ----------------------------------------------------------------


def loss_of(model, batch, labels):
    logits, _ = nn.forward(model, batch)
    return nn.cross_entropy_loss(nn.softmax_with_temperature(logits, 1.0), labels)


def finite_difference(model, batch, labels, layer_idx, param, index, h=1e-5):
    target = getattr(model.layers[layer_idx], param)
    original = target[index]
    target[index] = original + h
    plus = loss_of(model, batch, labels)
    target[index] = original - h
    minus = loss_of(model, batch, labels)
    target[index] = original
    return (plus - minus) / (2.0 * h)


def test_backward_matches_finite_differences_everywhere():
    model = make_model(split_index=0, seed=5)
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(7, 5))
    labels = rng.integers(0, 4, size=7)
    grads = nn.backward(model, batch, labels)
    for layer_idx, (dw, db) in grads.by_layer.items():
        for param, grad in (("weights", dw), ("bias", db)):
            for index in np.ndindex(grad.shape):
                fd = finite_difference(model, batch, labels, layer_idx, param, index)
                g = grad[index]
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
                assert rel < 1e-5, f"layer {layer_idx} {param}{index}: {g} vs {fd}"


def test_backward_stationary_at_confident_minimum():
    # huge bias on the true class makes the softmax numerically one-hot
    model = nn.Model(
        [nn.DenseLayer(np.zeros((3, 2)), np.array([100.0, 0.0, 0.0]))],
        split_index=0,
        num_classes=3,
    )
    batch = np.random.default_rng(2).normal(size=(5, 2))
    labels = np.zeros(5, dtype=np.int64)
    grads = nn.backward(model, batch, labels)
    for dw, db in grads.by_layer.values():
        assert np.abs(dw).max() < 1e-6 and np.abs(db).max() < 1e-6


def test_backward_mean_invariance_under_duplication():
    model = make_model(split_index=0, seed=3)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(6, 5))
    labels = rng.integers(0, 4, size=6)
    single = nn.backward(model, batch, labels)
    doubled_batch = np.concatenate([batch, batch])
    doubled_labels = np.concatenate([labels, labels])
    doubled = nn.backward(model, doubled_batch, doubled_labels)
    for idx in single.by_layer:
        assert np.abs(single.by_layer[idx][0] - doubled.by_layer[idx][0]).max() < 1e-12
        assert np.abs(single.by_layer[idx][1] - doubled.by_layer[idx][1]).max() < 1e-12


def test_backward_does_not_depend_on_an_earlier_forward():
    model = make_model(split_index=0, seed=7)
    rng = np.random.default_rng(10)
    batch = rng.normal(size=(5, 5))
    labels = rng.integers(0, 4, size=5)
    alone = nn.backward(model, batch, labels)
    nn.forward(model, rng.normal(size=(3, 5)))
    after_other = nn.backward(model, batch, labels)
    assert sorted(alone.by_layer) == sorted(after_other.by_layer)
    for idx, (dw, db) in alone.by_layer.items():
        assert np.array_equal(dw, after_other.by_layer[idx][0])
        assert np.array_equal(db, after_other.by_layer[idx][1])


def test_backward_only_touches_head_layers():
    model = make_model(split_index=2, seed=6)  # layers: dense, relu, dense
    batch = np.random.default_rng(8).normal(size=(4, 5))
    labels = np.array([0, 1, 2, 3])
    grads = nn.backward(model, batch, labels)
    assert sorted(grads.by_layer) == [2]


# --- sgd ---------------------------------------------------------------------


def scalar_model(weight=1.0):
    return nn.Model(
        [nn.DenseLayer(np.array([[weight]]), np.array([0.0]))], split_index=0, num_classes=1
    )


def scalar_grad(g):
    return nn.Gradients({0: (np.array([[g]]), np.array([0.0]))})


def test_sgd_plain_step():
    model = scalar_model(1.0)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.0)
    nn.sgd_step(model, scalar_grad(0.5), opt)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_momentum_two_steps():
    model = scalar_model(1.0)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    nn.sgd_step(model, scalar_grad(1.0), opt)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.9, abs=1e-15)
    assert opt.velocity[0][0][0, 0] == pytest.approx(1.0, abs=1e-15)
    nn.sgd_step(model, scalar_grad(1.0), opt)
    assert opt.velocity[0][0][0, 0] == pytest.approx(1.5, abs=1e-15)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.75, abs=1e-15)


def test_sgd_zero_learning_rate_accumulates_velocity():
    model = scalar_model(1.0)
    opt = nn.OptimizerState(learning_rate=0.0, momentum=0.5)
    nn.sgd_step(model, scalar_grad(1.0), opt)
    nn.sgd_step(model, scalar_grad(1.0), opt)
    assert model.layers[0].weights[0, 0] == 1.0
    assert opt.velocity[0][0][0, 0] == pytest.approx(1.5, abs=1e-15)


def test_sgd_rejects_nonfinite_gradient():
    model = scalar_model()
    opt = nn.OptimizerState(learning_rate=0.1)
    with pytest.raises(NumericError):
        nn.sgd_step(model, scalar_grad(np.nan), opt)


def test_sgd_keeps_frozen_layers_bitwise_identical():
    model = make_model(split_index=2, seed=13)
    frozen_before = [model.layers[0].weights.copy(), model.layers[0].bias.copy()]
    rng = np.random.default_rng(14)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.5)
    batch = rng.normal(size=(8, 5))
    labels = rng.integers(0, 4, size=8)
    for _ in range(25):
        nn.sgd_step(model, nn.backward(model, batch, labels), opt)
    assert np.array_equal(model.layers[0].weights, frozen_before[0])
    assert np.array_equal(model.layers[0].bias, frozen_before[1])


# --- split_params ------------------------------------------------------------


def test_split_zero_means_whole_model_trainable():
    model = make_model(split_index=0)
    phi, theta = nn.split_params(model)
    assert phi == []
    assert sum(a.size for a in theta) == model.param_count


def test_split_at_end_means_empty_head():
    model = make_model(split_index=3)  # 3 layers: dense, relu, dense
    phi, theta = nn.split_params(model)
    assert theta == []
    assert sum(a.size for a in phi) == model.param_count


def test_split_partition_counts():
    layers = [
        nn.DenseLayer(np.zeros((4, 3)), np.zeros(4)),
        nn.ReluLayer(),
        nn.DenseLayer(np.zeros((4, 4)), np.zeros(4)),
        nn.DenseLayer(np.zeros((2, 4)), np.zeros(2)),
    ]
    model = nn.Model(layers, split_index=2, num_classes=2)
    phi, theta = nn.split_params(model)
    assert sum(a.size for a in phi) == 16
    assert sum(a.size for a in theta) == 20 + 10
    assert sum(a.size for a in phi) + sum(a.size for a in theta) == model.param_count


def test_mutating_theta_view_never_changes_phi():
    model = make_model(split_index=2, seed=20)
    phi, theta = nn.split_params(model)
    phi_snapshot = [a.copy() for a in phi]
    for arr in theta:
        arr += 123.0
    for before, after in zip(phi_snapshot, nn.split_params(model)[0]):
        assert np.array_equal(before, after)


# --- checkpoint io ------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = make_model(split_index=2, seed=77, hidden=(6, 5), num_classes=3)
    path = tmp_path / "model.ckpt"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert loaded.split_index == model.split_index
    assert loaded.num_classes == model.num_classes
    assert len(loaded.layers) == len(model.layers)
    for a, b in zip(model.layers, loaded.layers):
        assert a.kind == b.kind
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    model = make_model()
    nn.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        nn.load_model(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "short.ckpt"
    model = make_model()
    nn.save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(FormatError) as err:
        nn.load_model(path)
    assert err.value.offset is not None


def test_checkpoint_empty_file(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        nn.load_model(path)


def test_build_mlp_is_deterministic():
    a = nn.build_mlp(5, (8, 8), 3, 4, seed=123)
    b = nn.build_mlp(5, (8, 8), 3, 4, seed=123)
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, nn.DenseLayer):
            assert np.array_equal(la.weights, lb.weights)


def test_model_validates_chain_and_split():
    with pytest.raises(ShapeError):
        nn.Model(
            [
                nn.DenseLayer(np.zeros((4, 3)), np.zeros(4)),
                nn.DenseLayer(np.zeros((2, 5)), np.zeros(2)),
            ],
            split_index=0,
            num_classes=2,
        )
    with pytest.raises(ParameterError):
        nn.Model([nn.DenseLayer(np.zeros((2, 3)), np.zeros(2))], split_index=5, num_classes=2)
    with pytest.raises(ShapeError):
        nn.Model([nn.DenseLayer(np.zeros((2, 3)), np.zeros(2))], split_index=0, num_classes=9)
