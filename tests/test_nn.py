"""Numerics: forward, tempered softmax, cross-entropy, backprop, SGD, IO."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.errors import FormatError, NumericError, ParameterError, ShapeError


def make_model(split_index=0, seed=1, input_dim=5, hidden=(8,), num_classes=4):
    return nn.build_mlp(input_dim, hidden, num_classes, split_index, seed)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    with pytest.raises(NumericError):
        nn.layer_output(model, np.ones((2, 5)), len(model.layers))


# --- layer outputs and frozen features (property tests) ----------------------

PROPERTY = settings(max_examples=80)


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
    # layer_output at every stop is forward()'s activation there, bit for bit
    model, batch = case
    logits, activations = nn.forward(model, batch)
    assert nn.layer_output(model, batch, 0) is batch
    for stop in range(1, len(model.layers) + 1):
        assert bitwise_equal(nn.layer_output(model, batch, stop), activations[stop - 1])
    head = nn.Model(model.layers[model.split_index:], 0, model.num_classes)
    features = nn.layer_output(model, batch, model.split_index)
    assert bitwise_equal(nn.layer_output(head, features, len(head.layers)), logits)
    assert bitwise_equal(nn.forward(head, features)[0], logits)


@PROPERTY
@given(st.one_of(split_models_and_batches(), split_models_and_batches(relu_first=True)))
def test_frozen_features_never_mutates_its_input(case):
    model, batch = case
    before = batch.copy()
    for stop in range(len(model.layers) + 1):
        out = nn.layer_output(model, batch, stop)
        assert bitwise_equal(batch, before)
        assert stop == 0 or not np.shares_memory(out, batch)


# --- inference in blocks of rows ---------------------------------------------


class SpyWeights:
    """Dense weights that record the row count of every product taken with
    them: numpy defers `x @ spy.T` to `__rmatmul__`, as the spy opts out of
    ufuncs."""

    __array_ufunc__ = None

    def __init__(self, weights, rows):
        self.weights, self.shape, self.rows = weights, weights.shape, rows

    @property
    def T(self):
        return self

    def __rmatmul__(self, x):
        self.rows.append(len(x))
        return x @ self.weights.T


def wide_case(rows=1300):
    model = nn.build_mlp(6, (40, 24), 3, split_index=2, seed=21)
    batch = np.random.default_rng(22).normal(scale=2.0, size=(rows, 6))
    return model, batch


def test_layer_output_in_blocks_keeps_the_whole_batch_bits():
    # 1,040 rows run as two blocks of 520, which take the OpenBLAS kernels of
    # the whole batch's products: forward()'s activations, bit for bit. Blocks
    # of 512, 512 and 16 rows would not; the 16-row products into the
    # 64-wide layers round apart.
    model = nn.build_mlp(32, (64, 64), 10, 0, seed=21)
    batch = np.random.default_rng(22).normal(scale=2.0, size=(1040, 32))
    _, activations = nn.forward(model, batch)
    for stop in range(1, len(model.layers) + 1):
        assert bitwise_equal(nn.layer_output(model, batch, stop), activations[stop - 1])


@pytest.mark.parametrize("rows, blocks", [
    (1023, [1023]),
    (1024, [512, 512]),
    (1300, [650, 650]),
    (5000, [555, 556] * 4 + [556]),
])
def test_layer_output_multiplies_a_block_of_rows_at_a_time(rows, blocks):
    # n // 512 blocks of near-equal size, for BLOCK_ROWS 512
    model, batch = wide_case(rows)
    seen = []
    for layer in model.layers:
        if isinstance(layer, nn.DenseLayer):
            object.__setattr__(layer, "weights", SpyWeights(layer.weights, seen))
    nn.layer_output(model, batch, len(model.layers))
    # every block through each of the three dense layers in turn
    assert seen == [count for count in blocks for _ in range(3)]


def test_layer_output_checks_the_logits_of_the_last_block():
    model, batch = wide_case()
    batch[-1, 0] = np.nan  # quiet NaNs pass through the products without a warning
    nn.layer_output(model, batch, model.split_index)  # features are not checked
    with pytest.raises(NumericError):
        nn.layer_output(model, batch, len(model.layers))


def test_frozen_features_rejects_bad_width():
    model = make_model(split_index=2)
    with pytest.raises(ShapeError):
        nn.layer_output(model, np.zeros((3, 4)), model.split_index)
    for stop in (-1, len(model.layers) + 1):
        with pytest.raises(ParameterError):
            nn.layer_output(model, np.zeros((3, 5)), stop)


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
    # far below 0.01, but logits / rho still fit in float64
    probs = nn.softmax_with_temperature(np.array([20.0, -20.0]), 1e-300)
    assert np.array_equal(probs, np.array([1.0, 0.0]))


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


@pytest.mark.parametrize("rho", [1e-320, 5e-324, 2e-307])
def test_softmax_rejects_a_temperature_that_overflows_the_logits(rho):
    # 2e-307 keeps every logit / rho finite, but not their spread
    with pytest.raises(NumericError, match=f"rho {rho!r}"):
        nn.softmax_with_temperature(np.array([[20.0, -20.0], [1.0, 2.0]]), rho)


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


@pytest.mark.parametrize("labels", [np.array([0.0]), np.array([True])])
def test_cross_entropy_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ParameterError, match="integer"):
        nn.cross_entropy_loss(np.array([[0.5, 0.5]]), labels)


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


def test_backward_matches_finite_differences_everywhere(head_views):
    model = make_model(split_index=0, seed=5)
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(7, 5))
    labels = rng.integers(0, 4, size=7)
    grads = nn.backward(model, batch, labels)
    for layer_idx, (dw, db) in head_views(model, grads).items():
        for param, grad in (("weights", dw), ("bias", db)):
            for index in np.ndindex(grad.shape):
                fd = finite_difference(model, batch, labels, layer_idx, param, index)
                g = grad[index]
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
                assert rel < 1e-5, f"layer {layer_idx} {param}{index}: {g} vs {fd}"


def test_backward_stationary_at_confident_minimum(head_views):
    # huge bias on the true class makes the softmax numerically one-hot
    model = nn.Model(
        [nn.DenseLayer(np.zeros((3, 2)), np.array([100.0, 0.0, 0.0]))],
        split_index=0,
        num_classes=3,
    )
    batch = np.random.default_rng(2).normal(size=(5, 2))
    labels = np.zeros(5, dtype=np.int64)
    grads = nn.backward(model, batch, labels)
    for dw, db in head_views(model, grads).values():
        assert np.abs(dw).max() < 1e-6 and np.abs(db).max() < 1e-6


def test_backward_mean_invariance_under_duplication(head_views):
    model = make_model(split_index=0, seed=3)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(6, 5))
    labels = rng.integers(0, 4, size=6)
    single = head_views(model, nn.backward(model, batch, labels))
    doubled_batch = np.concatenate([batch, batch])
    doubled_labels = np.concatenate([labels, labels])
    doubled = head_views(model, nn.backward(model, doubled_batch, doubled_labels))
    for idx in single:
        assert np.abs(single[idx][0] - doubled[idx][0]).max() < 1e-12
        assert np.abs(single[idx][1] - doubled[idx][1]).max() < 1e-12


def test_backward_does_not_depend_on_an_earlier_forward(head_views):
    model = make_model(split_index=0, seed=7)
    rng = np.random.default_rng(10)
    batch = rng.normal(size=(5, 5))
    labels = rng.integers(0, 4, size=5)
    alone = head_views(model, nn.backward(model, batch, labels))
    nn.forward(model, rng.normal(size=(3, 5)))
    after_other = head_views(model, nn.backward(model, batch, labels))
    assert sorted(alone) == sorted(after_other)
    for idx, (dw, db) in alone.items():
        assert np.array_equal(dw, after_other[idx][0])
        assert np.array_equal(db, after_other[idx][1])


@pytest.mark.parametrize("labels", [np.array([0.5, 1.0]), np.array([0.0, 1.0]), np.array([True, False])])
def test_backward_rejects_labels_that_are_not_integers(labels):
    model = make_model()
    with pytest.raises(ParameterError, match="integer"):
        nn.backward(model, np.ones((2, 5)), labels)


def test_the_heads_gradient_on_frozen_features_is_the_tail_of_the_whole_one():
    # Training the head is training model.head() on layer_output's features:
    # at every split of each architecture, and for one row and for several,
    # that gradient is bitwise the whole model's gradient from the split on.
    architectures = [
        nn.build_mlp(5, (8,), 4, 0, seed=6).layers,
        nn.build_mlp(5, (6, 5), 3, 0, seed=7).layers,
        nn.build_mlp(4, (7, 3, 6), 5, 0, seed=8).layers,
        (nn.ReluLayer(), *nn.build_mlp(5, (9, 4), 4, 0, seed=9).layers),
    ]
    rng = np.random.default_rng(8)
    cases = 0
    for layers in architectures:
        model = nn.Model(layers, 0, layers[-1].out_dim)
        for rows in (1, 7):
            batch = rng.normal(scale=2.0, size=(rows, model.input_dim))
            labels = rng.integers(0, model.num_classes, rows)
            whole = nn.backward(model, batch, labels)
            assert whole.shape == model.params.shape
            for split in range(len(layers)):
                split_model = nn.Model(layers, split, model.num_classes)
                features = nn.layer_output(split_model, batch, split)
                head = nn.backward(split_model.head(), features, labels)
                assert head.shape == split_model.theta.shape
                assert bitwise_equal(head, whole[whole.size - head.size :])
                cases += 1
    assert cases == 2 * (3 + 5 + 7 + 6)


# --- sgd ---------------------------------------------------------------------


def scalar_model(weight=1.0):
    return nn.Model(
        [nn.DenseLayer(np.array([[weight]]), np.array([0.0]))], split_index=0, num_classes=1
    )


def scalar_step(model, opt, g, anchor=None):
    """One step of scalar_model on the flat gradient of its one weight g
    (then its bias, 0), written into the optimizer's gradient."""
    opt.grad[...] = [g, 0.0]
    nn.sgd_step(model, opt, anchor)


def test_sgd_plain_step():
    model = scalar_model(1.0)
    opt = nn.OptimizerState.like(model.params, learning_rate=0.1, momentum=0.0)
    scalar_step(model, opt, 0.5)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_momentum_two_steps():
    model = scalar_model(1.0)
    opt = nn.OptimizerState.like(model.params, learning_rate=0.1, momentum=0.5)
    velocity = opt.velocity
    scalar_step(model, opt, 1.0)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.9, abs=1e-15)
    assert opt.velocity[0] == pytest.approx(1.0, abs=1e-15)
    scalar_step(model, opt, 1.0)
    assert opt.velocity[0] == pytest.approx(1.5, abs=1e-15)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert opt.velocity is velocity  # the step makes no velocity of its own


def test_sgd_zero_learning_rate_accumulates_velocity():
    model = scalar_model(1.0)
    opt = nn.OptimizerState.like(model.params, learning_rate=0.0, momentum=0.5)
    scalar_step(model, opt, 1.0)
    scalar_step(model, opt, 1.0)
    assert model.layers[0].weights[0, 0] == 1.0
    assert opt.velocity[0] == pytest.approx(1.5, abs=1e-15)


def test_sgd_adds_the_proximal_pull_to_the_gradient():
    # g + mu * (w - anchor) = 0.5 + 2 * (1 - 0.75) = 1, so w = 1 - 0.1 * 1
    model = scalar_model(1.0)
    opt = nn.OptimizerState.like(model.params, learning_rate=0.1, prox_mu=2.0)
    scalar_step(model, opt, 0.5, anchor=np.array([0.75, 0.0]))
    assert model.layers[0].weights[0, 0] == pytest.approx(0.9, abs=1e-15)
    assert opt.velocity[0] == pytest.approx(1.0, abs=1e-15)


def test_the_optimizer_makes_a_pull_vector_only_for_a_proximal_step():
    params = np.zeros(6)
    plain = nn.OptimizerState.like(params, 0.1, 0.5)
    proximal = nn.OptimizerState.like(params, 0.1, 0.5, prox_mu=0.01)
    assert plain.pull is None
    assert proximal.pull.shape == proximal.grad.shape == proximal.velocity.shape == params.shape
    assert not proximal.velocity.any()
    with pytest.raises(dataclasses.FrozenInstanceError):
        proximal.velocity = np.zeros(6)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_optimizer_rejects_a_non_finite_learning_rate(rate):
    with pytest.raises(ParameterError, match="learning_rate"):
        nn.OptimizerState.like(np.zeros(2), learning_rate=rate, momentum=0.5)


@pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf")])
def test_optimizer_rejects_a_negative_or_non_finite_prox_mu(mu):
    with pytest.raises(ParameterError, match="prox_mu"):
        nn.OptimizerState.like(np.zeros(2), learning_rate=0.1, momentum=0.5, prox_mu=mu)


def test_sgd_rejects_nonfinite_gradient():
    model = scalar_model()
    opt = nn.OptimizerState.like(model.params, learning_rate=0.1)
    with pytest.raises(NumericError):
        scalar_step(model, opt, np.nan)


@pytest.mark.parametrize(
    "size",
    [8 * 5 + 8 + 36, 4 * 7 + 4, 0, 35],
    ids=["with a frozen layer", "a narrower layer", "no layer", "one short"],
)
def test_sgd_rejects_a_gradient_of_the_wrong_length(size):
    # the head, dense 2, has 4 * 8 + 4 = 36 values
    model = make_model(split_index=2, seed=21)  # dense, relu, dense
    before = model.params.copy()
    opt = nn.OptimizerState.like(np.zeros(size), 0.1)
    with pytest.raises(ShapeError, match="must match the model's"):
        nn.sgd_step(model.head(), opt)
    assert bitwise_equal(model.params, before)


def test_a_layer_cannot_be_pointed_off_the_model_vector():
    model = make_model(split_index=0, seed=24)
    layer = model.layers[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.bias = layer.bias.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.weights = np.zeros_like(layer.weights)
    with pytest.raises(TypeError):
        model.layers[2] = nn.DenseLayer(layer.weights.copy(), layer.bias.copy())
    assert np.shares_memory(model.layers[2].bias, model.params)


def test_a_non_finite_gradient_moves_no_parameter(head_views):
    # the one finite check covers the whole head before any layer moves
    model = make_model(split_index=0, seed=22)  # dense 0, relu, dense 2
    rng = np.random.default_rng(22)
    opt = nn.OptimizerState.like(model.params, 0.1, 0.5)
    nn.backward(model, rng.normal(size=(4, 5)), np.array([0, 1, 2, 3]), out=opt.grad)
    head_views(model, opt.grad)[2][1][0] = np.inf
    before = model.theta.copy()
    with pytest.raises(NumericError, match="layer 2"):
        nn.sgd_step(model, opt)
    assert bitwise_equal(model.theta, before)
    assert not opt.velocity.any()


def test_training_keeps_the_head_in_one_flat_vector_per_buffer(head_views):
    model = make_model(split_index=2, seed=23, hidden=(6, 5))  # head: dense 2, relu, dense 4
    rng = np.random.default_rng(23)
    batch, labels = rng.normal(size=(6, 5)), rng.integers(0, 4, 6)
    head_model, features = model.head(), nn.layer_output(model, batch, model.split_index)
    opt = nn.OptimizerState.like(model.theta, 0.1, 0.5)
    grad = opt.grad
    params = model.params
    for _ in range(3):
        assert nn.backward(head_model, features, labels, out=grad) is grad
        nn.sgd_step(head_model, opt)
    assert model.params is params and opt.velocity.shape == model.theta.shape
    head = [a for i in (2, 4) for a in (model.layers[i].weights, model.layers[i].bias)]
    assert bitwise_equal(model.theta, np.concatenate([a.ravel() for a in head]))
    assert all(np.shares_memory(a, model.theta) for a in head)
    assert not np.shares_memory(model.layers[0].weights, model.theta)
    with pytest.raises(ShapeError, match="out has shape"):
        nn.backward(head_model, features, labels, out=np.empty(model.theta.size - 1))


def test_sgd_keeps_frozen_layers_bitwise_identical():
    # the head is trained on the frozen features, as the round loop trains it
    model = make_model(split_index=2, seed=13)
    frozen_before = [model.layers[0].weights.copy(), model.layers[0].bias.copy()]
    rng = np.random.default_rng(14)
    batch = rng.normal(size=(8, 5))
    labels = rng.integers(0, 4, size=8)
    head, features = model.head(), nn.layer_output(model, batch, model.split_index)
    opt = nn.OptimizerState.like(head.params, learning_rate=0.1, momentum=0.5)
    theta_before = model.theta.copy()
    for _ in range(25):
        nn.backward(head, features, labels, out=opt.grad)
        nn.sgd_step(head, opt)
    assert not np.array_equal(model.theta, theta_before)
    assert np.array_equal(model.layers[0].weights, frozen_before[0])
    assert np.array_equal(model.layers[0].bias, frozen_before[1])


# --- theta ----------------------------------------------------------------------


def dense_param_sizes(layers):
    """Weight plus bias size of every dense layer in `layers`."""
    return sum(l.weights.size + l.bias.size for l in layers if l.kind == "dense")


def test_split_zero_means_whole_model_trainable():
    model = make_model(split_index=0)
    assert model.theta.size == model.params.size == dense_param_sizes(model.layers)
    dense = [l for l in model.layers if l.kind == "dense"]
    head = [a for l in dense for a in (l.weights, l.bias)]
    assert bitwise_equal(model.theta, np.concatenate([a.ravel() for a in head]))
    assert all(np.shares_memory(a, model.theta) for a in head)


def test_split_at_end_means_empty_head():
    model = make_model(split_index=3)  # 3 layers: dense, relu, dense
    assert model.theta.size == 0


def test_split_partition_counts():
    layers = [
        nn.DenseLayer(np.zeros((4, 3)), np.zeros(4)),
        nn.ReluLayer(),
        nn.DenseLayer(np.zeros((4, 4)), np.zeros(4)),
        nn.DenseLayer(np.zeros((2, 4)), np.zeros(2)),
    ]
    model = nn.Model(layers, split_index=2, num_classes=2)
    head = [a for l in model.layers[2:] for a in (l.weights, l.bias)]
    assert bitwise_equal(model.theta, np.concatenate([a.ravel() for a in head]))
    assert all(np.shares_memory(a, model.theta) for a in head)
    assert dense_param_sizes(layers[:2]) == 16
    assert model.theta.size == dense_param_sizes(layers[2:]) == 20 + 10


@pytest.mark.parametrize("path", ["build_mlp", "Model", "load_model", "copy"])
def test_every_model_is_laid_out_in_one_vector(tmp_path, assert_laid_out, path):
    model = make_model(split_index=2, seed=25, hidden=(6, 5))
    if path == "Model":
        model = nn.Model(model.layers, model.split_index, model.num_classes)
    elif path == "load_model":
        nn.save_model(model, tmp_path / "model.ckpt")
        model = nn.load_model(tmp_path / "model.ckpt")
    elif path == "copy":
        copy = model.copy()
        assert not np.shares_memory(copy.params, model.params)
        assert bitwise_equal(copy.params, model.params)
        model = copy
    assert_laid_out(model)
    model.split_index = 0  # theta follows the split
    assert_laid_out(model)


def test_a_models_head_is_stored_in_its_theta(assert_laid_out):
    model = make_model(split_index=2, seed=26, hidden=(6, 5))
    frozen = model.params[: model.params.size - model.theta.size].copy()
    head = model.head()
    assert head.split_index == 0 and len(head.layers) == len(model.layers) - 2
    assert_laid_out(head)
    head.params[...] = 7.0
    assert (model.theta == 7.0).all()
    assert bitwise_equal(model.params[: frozen.size], frozen)


def test_mutating_theta_view_never_changes_phi():
    model = make_model(split_index=2, seed=20)
    frozen = [l for l in model.layers[: model.split_index] if l.kind == "dense"]
    assert frozen
    snapshot = [(l.weights.copy(), l.bias.copy()) for l in frozen]
    model.theta[...] += 123.0
    for layer, (weights, bias) in zip(frozen, snapshot):
        assert bitwise_equal(layer.weights, weights)
        assert bitwise_equal(layer.bias, bias)


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


def test_checkpoint_rejects_nonfinite_weights(tmp_path):
    path = tmp_path / "nan.ckpt"
    nn.save_model(nn.build_mlp(3, (2,), 2, split_index=2, seed=18), path)
    blob = bytearray(path.read_bytes())
    # magic, the three-u64 header, then layer 0's kind tag and two u64 widths
    weights_at = len(nn.CHECKPOINT_MAGIC) + 24 + 1 + 16
    blob[weights_at + 8 : weights_at + 16] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite layer 0 weights") as err:
        nn.load_model(path)
    assert err.value.offset == weights_at


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
