"""Minimal dense/relu network with exact backprop and heavy-ball SGD.

A model is an ordered list of layers split at ``split_index`` into a frozen
lower part (the feature extractor) and a trainable upper part (the head).
Training does not read the split: `backward` and `sgd_step` train every
parameter of the model they are handed. Fine-tuning hands them
`Model.head()`, a model of the head alone stored in the tail of the whole
model's vector, and feeds it the frozen features; so the lower layers stay
bitwise constant no matter how many steps are taken. All arithmetic is
float64 so that determinism and oracle tolerances are meaningful.

A model's parameters are one float64 vector, `Model.params`: every dense
layer's weights (row-major) then bias, in layer order. Each layer's arrays
are views of it, and the head's parameters (`Model.theta`) are its tail.
Every vector a training step writes is laid out like `params` and held by
one `OptimizerState`: the gradient that `backward` writes, the FedProx pull
and the velocity. So the pull is one expression on whole vectors and
`sgd_step` moves every parameter with a few vector operations. Where each
check runs:

- `forward`: the batch's shape, and finite logits;
- `backward`: a nonempty batch, then the labels' shape, integer dtype and
  range, and the length of `out`; its softmax runs unchecked, as `forward`
  has checked the logits;
- `sgd_step`: the lengths of the gradient and the velocity; it adds the
  pull into the gradient, then one finiteness check covers the whole
  gradient before any parameter moves. It makes no vector: the velocity is
  the optimizer's;
- `OptimizerState`: a finite learning rate, a momentum in [0, 1) and a
  finite prox_mu >= 0 when made;
- the frozen layers: `Model.head()` views only the layers from the split on,
  so no step taken on the head can reach the layers below it.

The training loss always uses the standard softmax (temperature 1). The
temperature-scaled variant exists for the entropy-based data selection path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import FormatError, NumericError, ParameterError, ShapeError

CHECKPOINT_MAGIC = b"FEDFT1"
PROB_FLOOR = 1e-12  # clamp applied to probabilities before any log
_HALF_MAX = float(np.finfo(np.float64).max) / 2

_KIND_DENSE = 0
_KIND_RELU = 1


@dataclass(frozen=True)
class DenseLayer:
    """Affine layer ``y = x @ W.T + b`` with weights of shape (out, in).

    Frozen, so that no array can be swapped out of it: in a Model both are
    views of the model's `params`, and training writes through them.
    """

    weights: np.ndarray
    bias: np.ndarray

    kind: ClassVar[str] = "dense"

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weights.ndim != 2:
            raise ShapeError(f"dense weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match output width "
                f"{self.weights.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ReluLayer:
    """Elementwise max(x, 0); no parameters."""

    kind: ClassVar[str] = "relu"


Layer = Union[DenseLayer, ReluLayer]


class Model:
    """Feed-forward network; layers [0, split_index) are frozen, and `theta`
    and `head()` cover the rest.

    ``split_index`` may be anywhere in [0, len(layers)]: 0 means the whole
    model is trainable (the plain FedAvg configuration), len(layers) means
    nothing is (rejected upstream by the federation config).

    Building a model lays out a fresh `params` vector and copies the given
    layers' values into it; `layers` then holds layers whose arrays are
    views of `params`.
    """

    layers: tuple[Layer, ...]
    split_index: int
    num_classes: int
    params: np.ndarray

    def __init__(self, layers: Sequence[Layer], split_index: int, num_classes: int):
        if not layers:
            raise ShapeError("model needs at least one layer")
        if not 0 <= split_index <= len(layers):
            raise ParameterError(
                f"split_index {split_index} out of range for {len(layers)} layers"
            )
        width = None
        for i, layer in enumerate(layers):
            if isinstance(layer, DenseLayer):
                if width is not None and layer.in_dim != width:
                    raise ShapeError(
                        f"layer {i} expects input width {layer.in_dim}, got {width}"
                    )
                width = layer.out_dim
        last = layers[-1]
        if not isinstance(last, DenseLayer):
            raise ShapeError("final layer must be dense (it produces the logits)")
        if last.out_dim != num_classes:
            raise ShapeError(
                f"final layer width {last.out_dim} != num_classes {num_classes}"
            )
        self.split_index, self.num_classes = split_index, num_classes
        size = sum(l.weights.size + l.bias.size for l in layers if isinstance(l, DenseLayer))
        self._lay_out(np.empty(size), layers)
        for mine, given in zip(self.layers, layers):
            if isinstance(mine, DenseLayer):
                mine.weights[...] = given.weights
                mine.bias[...] = given.bias

    def _lay_out(self, params: np.ndarray, layers: Sequence[Layer]) -> None:
        """Make `params` this model's storage, nothing copied or checked.

        Each dense layer of `layers` is rebuilt on the next slices of
        `params`, its weights then its bias; `_starts[i]` is where layer i's
        slices start, and `_starts[-1]` the end.
        """
        self.params = params
        laid, self._starts, at = [], [], 0
        for layer in layers:
            self._starts.append(at)
            if isinstance(layer, DenseLayer):
                bias_at = at + layer.weights.size
                end = bias_at + layer.out_dim
                weights = params[at:bias_at].reshape(layer.weights.shape)
                layer = DenseLayer(weights, params[bias_at:end])
                at = end
            laid.append(layer)
        self._starts.append(at)
        self.layers = tuple(laid)

    def _on(self, params: np.ndarray, layers: Sequence[Layer], split_index: int) -> "Model":
        """A model stored in `params` (not copied), laid out like `layers`,
        which come from this already checked model."""
        model = object.__new__(Model)
        model.split_index, model.num_classes = split_index, self.num_classes
        model._lay_out(params, layers)
        return model

    @property
    def theta(self) -> np.ndarray:
        """The head's parameters: the view of `params` from layer split_index on."""
        return self.params[self._starts[self.split_index] :]

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                return layer.in_dim
        raise ShapeError("model has no dense layer")

    def copy(self) -> "Model":
        """An independent model with the same values, in one fresh vector."""
        return self._on(self.params.copy(), self.layers, self.split_index)

    def head(self) -> "Model":
        """The head as a model of its own (split 0), stored in this model's
        `theta`: writing either one's parameters writes both."""
        return self._on(self.theta, self.layers[self.split_index :], 0)


@dataclass(frozen=True)
class OptimizerState:
    """Heavy-ball SGD with an optional FedProx pull, and the vectors it writes.

    A step computes g <- g + prox_mu * (params - anchor), then
    v <- momentum * v + g and params <- params - lr * v. `grad`, `pull` and
    `velocity` are laid out like the trained model's `params`; `pull` exists
    only when prox_mu != 0. Make one with `like`. Frozen, so that no vector
    can be swapped out: steps write into them.
    """

    learning_rate: float
    momentum: float
    prox_mu: float
    grad: np.ndarray = field(repr=False)
    pull: Optional[np.ndarray] = field(repr=False)
    velocity: np.ndarray = field(repr=False)

    def __post_init__(self):
        # 0 is allowed so a step can accumulate velocity without moving
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ParameterError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.prox_mu < math.inf:
            raise ParameterError(f"prox_mu must be finite and >= 0, got {self.prox_mu}")

    @classmethod
    def like(
        cls, params: np.ndarray, learning_rate: float, momentum: float = 0.0, prox_mu: float = 0.0
    ) -> "OptimizerState":
        """Fresh vectors laid out like `params`, made in the order gradient,
        pull (only if prox_mu != 0), velocity; the velocity is zero."""
        grad = np.empty_like(params)
        pull = np.empty_like(params) if prox_mu != 0.0 else None
        return cls(learning_rate, momentum, prox_mu, grad, pull, np.zeros_like(params))


def _as_batch(model: Model, batch: np.ndarray) -> np.ndarray:
    """The batch as float64, checked to be (n, model.input_dim)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch width {batch.shape[1]} != model input width {model.input_dim}"
        )
    return batch


def forward(model: Model, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a (n, d) batch.

    Returns the (n, num_classes) logits and the list of per-layer outputs.
    """
    batch = _as_batch(model, batch)
    activations: list[np.ndarray] = []
    x = batch
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            x = x @ layer.weights.T
            x += layer.bias
        else:
            x = np.maximum(x, 0.0)
        activations.append(x)
    logits = activations[-1]
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    return logits, activations


def layer_output(model: Model, batch: np.ndarray, stop: int) -> np.ndarray:
    """Output of layers [0, stop) on a (n, d) batch, keeping no other layer's.

    Bitwise equal to forward()'s activation at stop - 1; stop 0 gives the
    batch itself, stop split_index the frozen features (the head's input).
    Bias and relu are applied in place, but only on arrays this call
    allocated, never on the caller's batch, so at most one layer's input and
    output exist at a time. Run to the last layer it returns the logits and,
    like forward(), raises NumericError if any is non-finite.
    """
    if not 0 <= stop <= len(model.layers):
        raise ParameterError(f"stop {stop} out of range for {len(model.layers)} layers")
    batch = _as_batch(model, batch)
    x = batch
    for layer in model.layers[:stop]:
        if isinstance(layer, DenseLayer):
            x = x @ layer.weights.T
            x += layer.bias
        elif x is batch:
            x = np.maximum(x, 0.0)
        else:
            np.maximum(x, 0.0, out=x)
    if stop == len(model.layers) and not np.isfinite(x).all():
        raise NumericError("forward pass produced non-finite logits")
    return x


def softmax_with_temperature(logits: np.ndarray, rho: float) -> np.ndarray:
    """Softmax of logits / rho, computed with max-subtraction.

    Accepts a vector or a matrix (row-wise). rho < 1 sharpens ("hardens")
    the distribution, rho > 1 softens it, rho = 1 is the standard softmax.
    A rho so small that logits / rho, or their shift by the row maximum,
    could overflow is a NumericError, found before any arithmetic so that no
    overflow warning is raised.
    """
    if not rho > 0.0:
        raise ParameterError(f"temperature rho must be > 0, got {rho}")
    z = np.asarray(logits, dtype=np.float64)
    # max and min are NaN or infinite when any logit is, so they check it too
    high, low = float(z.max()), float(z.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ParameterError("logits must be finite")
    # within half the float64 range, z / rho and its shifted values are finite
    if not max(high, -low) / rho <= _HALF_MAX:
        raise NumericError(f"temperature rho {rho!r} takes logits / rho out of float64 range")
    return _softmax(z / rho)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of finite float64 logits, in a fresh array (no checks)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _check_labels(labels: np.ndarray, num_classes: int, what: str) -> None:
    """Integer labels in [0, num_classes); `what` names the bound in the error."""
    if labels.dtype.kind not in "iu":
        raise ParameterError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ParameterError(f"label out of range for {what}")


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class.

    Probabilities are clamped at PROB_FLOOR before the log; each row must
    already sum to 1 (within 1e-9).
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ShapeError(f"probs must be 2-D, got shape {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} != ({probs.shape[0]},)")
    if probs.shape[0] == 0:
        raise ShapeError("probs must have at least one row")
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise ParameterError("probability rows must sum to 1 within 1e-9")
    _check_labels(labels, probs.shape[1], "probability width")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.clip(picked, PROB_FLOOR, None)).mean())


def backward(
    model: Model, batch: np.ndarray, labels: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact gradient of the mean cross-entropy w.r.t. every parameter.

    Runs its own forward pass over the batch, so the result depends only on
    the arguments. The gradient is one vector laid out like `model.params`,
    fresh or written into `out`, which is then returned. The gradient of the
    head alone is that of `model.head()` on the frozen features.
    """
    batch = np.asarray(batch, dtype=np.float64)
    logits, activations = forward(model, batch)
    labels = np.asarray(labels)
    n = batch.shape[0]
    if n == 0:
        raise ShapeError("batch must have at least one row")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    _check_labels(labels, model.num_classes, "num_classes")
    starts = model._starts
    grad = np.empty(starts[-1]) if out is None else out
    if grad.shape != (starts[-1],):
        raise ShapeError(f"out has shape {grad.shape}, the model {starts[-1]} values")

    # forward has checked the logits, and the softmax output is this call's
    # own array, so delta takes it over
    delta = _softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if isinstance(layer, DenseLayer):
            bias_at = starts[i + 1] - layer.out_dim
            dw = grad[starts[i] : bias_at].reshape(layer.weights.shape)
            np.matmul(delta.T, batch if i == 0 else activations[i - 1], out=dw)
            delta.sum(axis=0, out=grad[bias_at : starts[i + 1]])
            if i > 0:
                delta = delta @ layer.weights
        else:
            delta *= activations[i] > 0.0
    return grad


def sgd_step(model: Model, opt: OptimizerState, anchor: Optional[np.ndarray] = None) -> None:
    """Apply one heavy-ball SGD step to every parameter of `model`, in place.

    The gradient is `opt.grad`, laid out like `model.params`, as `backward`
    writes it. At a nonzero prox_mu the pull prox_mu * (params - anchor) is
    added into it first, `anchor` being laid out like `model.params` too.
    Nothing moves unless the whole gradient is then finite, and the error
    for one that is not names its first layer holding a non-finite value;
    the velocity is updated even when the learning rate is zero. The step
    then uses the gradient as scratch space and leaves lr * v in it, so it
    makes no vector the size of the model.
    """
    params, grad, velocity = model.params, opt.grad, opt.velocity
    if not grad.shape == velocity.shape == params.shape:
        raise ShapeError(
            f"gradient {grad.shape} and velocity {velocity.shape} must match "
            f"the model's {params.shape}"
        )
    if opt.prox_mu != 0.0:
        # kept as g + mu * (params - anchor): another grouping changes bits
        pull = np.subtract(params, anchor, out=opt.pull)
        pull *= opt.prox_mu
        grad += pull
    if not np.isfinite(grad).all():
        starts = model._starts  # a relu's slice is empty, so it is never named
        bad = next(
            i
            for i in range(len(model.layers))
            if not np.isfinite(grad[starts[i] : starts[i + 1]]).all()
        )
        raise NumericError(f"non-finite gradient at layer {bad}")
    velocity *= opt.momentum
    velocity += grad
    np.multiply(velocity, opt.learning_rate, out=grad)
    params -= grad


def forward_flops_per_sample(model: Model) -> int:
    """Deterministic per-sample cost of one forward pass (multiply-adds)."""
    total = 0
    width = model.input_dim
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            total += 2 * layer.in_dim * layer.out_dim + layer.out_dim
            width = layer.out_dim
        else:
            total += width
    return total


def backward_flops_per_sample(model: Model) -> int:
    """Per-sample cost of backprop through every layer of `model`: the
    gradient of each parameter, and delta down to the first layer's output.
    The cost of training the head alone is that of `model.head()`."""
    total = 2 * model.num_classes  # softmax + delta at the output
    width = model.num_classes
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if isinstance(layer, DenseLayer):
            total += 2 * layer.in_dim * layer.out_dim + layer.out_dim  # dW, db
            if i > 0:
                total += 2 * layer.in_dim * layer.out_dim  # delta propagation
            width = layer.in_dim
        else:
            total += width
    return total


def build_mlp(
    input_dim: int,
    hidden_sizes: tuple[int, ...],
    num_classes: int,
    split_index: int,
    seed: int,
) -> Model:
    """Dense/relu MLP with He-normal weights and zero biases.

    Layer list is dense, relu, dense, relu, ..., dense; the final dense
    layer maps to num_classes. For hidden_sizes of length H the final dense
    layer sits at index 2*H, which is the default split (head = classifier).
    """
    if input_dim < 1 or num_classes < 1:
        raise ParameterError("input_dim and num_classes must be >= 1")
    if any(h < 1 for h in hidden_sizes):
        raise ParameterError(f"hidden sizes must be >= 1, got {hidden_sizes}")
    from .rng import derive_rng

    rng = derive_rng(seed)
    layers: list[Layer] = []
    fan_in = input_dim
    for width in hidden_sizes:
        scale = np.sqrt(2.0 / fan_in)
        layers.append(DenseLayer(rng.normal(0.0, scale, (width, fan_in)), np.zeros(width)))
        layers.append(ReluLayer())
        fan_in = width
    scale = np.sqrt(2.0 / fan_in)
    layers.append(
        DenseLayer(rng.normal(0.0, scale, (num_classes, fan_in)), np.zeros(num_classes))
    )
    return Model(layers, split_index, num_classes)


def default_split_index(hidden_sizes: tuple[int, ...]) -> int:
    """Split placing only the final dense (classifier) layer in the head."""
    return 2 * len(hidden_sizes)


def save_model(model: Model, path) -> None:
    """Write a model checkpoint.

    Layout: magic "FEDFT1", then little-endian u64 layer count, split index
    and class count, then per layer a u8 kind tag (0 dense, 1 relu) followed
    for dense layers by u64 out/in widths, the row-major float64 weights and
    the float64 bias.
    """
    parts = [CHECKPOINT_MAGIC]
    parts.append(struct.pack("<QQQ", len(model.layers), model.split_index, model.num_classes))
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            parts.append(struct.pack("<BQQ", _KIND_DENSE, layer.out_dim, layer.in_dim))
            parts.append(layer.weights.astype("<f8").tobytes())
            parts.append(layer.bias.astype("<f8").tobytes())
        else:
            parts.append(struct.pack("<B", _KIND_RELU))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path) -> Model:
    """Read a model checkpoint written by save_model().

    Non-finite weights or biases are a FormatError at the array's offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError(f"truncated checkpoint while reading {what}", offset)
        piece = blob[offset : offset + count]
        offset += count
        return piece

    def take_finite(count: int, what: str) -> np.ndarray:
        start = offset
        values = np.frombuffer(take(8 * count, what), dtype="<f8")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite {what}", start)
        return values  # read-only; Model copies it into its own vector

    magic = take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", 0
        )
    layer_count, split_index, num_classes = struct.unpack("<QQQ", take(24, "header"))
    layers: list[Layer] = []
    for i in range(layer_count):
        (kind,) = struct.unpack("<B", take(1, f"layer {i} kind"))
        if kind == _KIND_DENSE:
            out_dim, in_dim = struct.unpack("<QQ", take(16, f"layer {i} shape"))
            if out_dim == 0 or in_dim == 0 or out_dim * in_dim > len(blob):
                raise FormatError(f"implausible layer {i} shape {out_dim}x{in_dim}", offset - 16)
            weights = take_finite(out_dim * in_dim, f"layer {i} weights")
            bias = take_finite(out_dim, f"layer {i} bias")
            layers.append(DenseLayer(weights.reshape(out_dim, in_dim), bias))
        elif kind == _KIND_RELU:
            layers.append(ReluLayer())
        else:
            raise FormatError(f"unknown layer kind tag {kind}", offset - 1)
    if offset != len(blob):
        raise FormatError("trailing bytes after checkpoint payload", offset)
    try:
        return Model(layers, split_index, num_classes)
    except (ShapeError, ParameterError) as exc:
        raise FormatError(f"inconsistent checkpoint contents: {exc}", offset) from exc
