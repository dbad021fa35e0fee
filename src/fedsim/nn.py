"""Minimal dense/relu network with exact backprop and heavy-ball SGD.

A model is an ordered list of layers split at ``split_index`` into a frozen
lower part (the feature extractor) and a trainable upper part (the head).
Gradients and optimizer updates touch only head parameters; the lower layers
stay bitwise constant no matter how many steps are taken. All arithmetic is
float64 so that determinism and oracle tolerances are meaningful.

The training loss always uses the standard softmax (temperature 1). The
temperature-scaled variant exists for the entropy-based data selection path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .errors import FormatError, NumericError, ParameterError, ShapeError

CHECKPOINT_MAGIC = b"FEDFT1"
PROB_FLOOR = 1e-12  # clamp applied to probabilities before any log

_KIND_DENSE = 0
_KIND_RELU = 1


@dataclass
class DenseLayer:
    """Affine layer ``y = x @ W.T + b`` with weights of shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    kind: ClassVar[str] = "dense"

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
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

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy())


@dataclass
class ReluLayer:
    """Elementwise max(x, 0); no parameters."""

    kind: ClassVar[str] = "relu"

    @property
    def param_count(self) -> int:
        return 0

    def copy(self) -> "ReluLayer":
        return ReluLayer()


Layer = Union[DenseLayer, ReluLayer]


@dataclass
class Model:
    """Feed-forward network; layers [0, split_index) are frozen.

    ``split_index`` may be anywhere in [0, len(layers)]: 0 means the whole
    model is trainable (the plain FedAvg configuration), len(layers) means
    nothing is (rejected upstream by the federation config).
    """

    layers: list[Layer]
    split_index: int
    num_classes: int

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        if not 0 <= self.split_index <= len(self.layers):
            raise ParameterError(
                f"split_index {self.split_index} out of range for {len(self.layers)} layers"
            )
        width = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                if width is not None and layer.in_dim != width:
                    raise ShapeError(
                        f"layer {i} expects input width {layer.in_dim}, got {width}"
                    )
                width = layer.out_dim
        last = self.layers[-1]
        if not isinstance(last, DenseLayer):
            raise ShapeError("final layer must be dense (it produces the logits)")
        if last.out_dim != self.num_classes:
            raise ShapeError(
                f"final layer width {last.out_dim} != num_classes {self.num_classes}"
            )

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                return layer.in_dim
        raise ShapeError("model has no dense layer")

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    def trainable_layer_indices(self) -> list[int]:
        """Indices of dense layers belonging to the trainable head."""
        return [
            i
            for i in range(self.split_index, len(self.layers))
            if isinstance(self.layers[i], DenseLayer)
        ]

    def frozen_layer_indices(self) -> list[int]:
        return [
            i
            for i in range(self.split_index)
            if isinstance(self.layers[i], DenseLayer)
        ]

    def copy(self) -> "Model":
        return Model(
            [layer.copy() for layer in self.layers],
            self.split_index,
            self.num_classes,
        )


@dataclass
class Gradients:
    """Weight/bias gradients for trainable dense layers, keyed by layer index."""

    by_layer: dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass
class OptimizerState:
    """Heavy-ball SGD state: v <- momentum * v + g, param <- param - lr * v."""

    learning_rate: float
    momentum: float = 0.0
    velocity: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        # 0 is allowed so a step can accumulate velocity without moving
        if self.learning_rate < 0.0:
            raise ParameterError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")


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
            x = x @ layer.weights.T + layer.bias
        else:
            x = np.maximum(x, 0.0)
        activations.append(x)
    logits = activations[-1]
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    return logits, activations


def frozen_features(model: Model, batch: np.ndarray) -> np.ndarray:
    """Output of the frozen layers [0, split_index) on a (n, d) batch.

    This is the input of the head, bitwise equal to the activation that
    forward() leaves at split_index - 1; with nothing frozen it is the batch
    itself. Bias and relu are applied in place, but only on arrays this call
    allocated, never on the caller's batch.
    """
    batch = _as_batch(model, batch)
    x = batch
    for layer in model.layers[: model.split_index]:
        if isinstance(layer, DenseLayer):
            x = x @ layer.weights.T
            x += layer.bias
        elif x is batch:
            x = np.maximum(x, 0.0)
        else:
            np.maximum(x, 0.0, out=x)
    return x


def softmax_with_temperature(logits: np.ndarray, rho: float) -> np.ndarray:
    """Softmax of logits / rho, computed with max-subtraction.

    Accepts a vector or a matrix (row-wise). rho < 1 sharpens ("hardens")
    the distribution, rho > 1 softens it, rho = 1 is the standard softmax.
    """
    if not rho > 0.0:
        raise ParameterError(f"temperature rho must be > 0, got {rho}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ParameterError("logits must be finite")
    scaled = z / rho
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=-1, keepdims=True)


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
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ParameterError("label out of range for probability width")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.clip(picked, PROB_FLOOR, None)).mean())


def backward(model: Model, batch: np.ndarray, labels: np.ndarray) -> Gradients:
    """Exact gradients of the mean cross-entropy w.r.t. head parameters.

    Runs its own forward pass over the batch, so the result depends only on
    the arguments. Frozen layers receive no gradients.
    """
    batch = np.asarray(batch, dtype=np.float64)
    logits, activations = forward(model, batch)
    labels = np.asarray(labels)
    n = batch.shape[0]
    if n == 0:
        raise ShapeError("batch must have at least one row")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ParameterError("label out of range for num_classes")

    probs = softmax_with_temperature(logits, 1.0)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(model.layers) - 1, model.split_index - 1, -1):
        layer = model.layers[i]
        if isinstance(layer, DenseLayer):
            layer_input = batch if i == 0 else activations[i - 1]
            grads[i] = (delta.T @ layer_input, delta.sum(axis=0))
            if i > model.split_index:
                delta = delta @ layer.weights
        else:
            delta = delta * (activations[i] > 0.0)
    return Gradients(by_layer=grads)


def sgd_step(model: Model, grads: Gradients, opt: OptimizerState) -> None:
    """Apply one heavy-ball SGD step to the head parameters, in place.

    Velocity buffers are created lazily per layer and updated even when the
    learning rate contribution is zero.
    """
    trainable = set(model.trainable_layer_indices())
    for idx in sorted(grads.by_layer):
        if idx not in trainable:
            raise ShapeError(f"gradient for non-trainable layer {idx}")
        layer = model.layers[idx]
        dw, db = grads.by_layer[idx]
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ShapeError(f"gradient shapes do not match layer {idx}")
        if not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise NumericError(f"non-finite gradient at layer {idx}")
        if idx not in opt.velocity:
            opt.velocity[idx] = (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        vw, vb = opt.velocity[idx]
        vw *= opt.momentum
        vw += dw
        vb *= opt.momentum
        vb += db
        layer.weights -= opt.learning_rate * vw
        layer.bias -= opt.learning_rate * vb


def split_params(model: Model) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of (frozen, trainable) parameters as two disjoint array lists."""
    phi = []
    for i in model.frozen_layer_indices():
        layer = model.layers[i]
        phi.extend([layer.weights, layer.bias])
    theta = []
    for i in model.trainable_layer_indices():
        layer = model.layers[i]
        theta.extend([layer.weights, layer.bias])
    return phi, theta


def get_theta(model: Model) -> list[np.ndarray]:
    """References to head parameter arrays, in deterministic order."""
    return split_params(model)[1]


def copy_theta(model: Model) -> list[np.ndarray]:
    return [arr.copy() for arr in get_theta(model)]


def set_theta(model: Model, values: list[np.ndarray]) -> None:
    """Copy new values into the head parameters."""
    target = get_theta(model)
    if len(values) != len(target):
        raise ShapeError(f"expected {len(target)} parameter arrays, got {len(values)}")
    for dst, src in zip(target, values):
        if dst.shape != src.shape:
            raise ShapeError(f"parameter shape {src.shape} != expected {dst.shape}")
        np.copyto(dst, src)


def theta_param_count(model: Model) -> int:
    return sum(arr.size for arr in get_theta(model))


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
    """Per-sample cost of backprop through the trainable head."""
    total = 2 * model.num_classes  # softmax + delta at the output
    width = model.num_classes
    for i in range(len(model.layers) - 1, model.split_index - 1, -1):
        layer = model.layers[i]
        if isinstance(layer, DenseLayer):
            total += 2 * layer.in_dim * layer.out_dim + layer.out_dim  # dW, db
            if i > model.split_index:
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
    """Read a model checkpoint written by save_model()."""
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
            weights = np.frombuffer(
                take(8 * out_dim * in_dim, f"layer {i} weights"), dtype="<f8"
            ).reshape(out_dim, in_dim)
            bias = np.frombuffer(take(8 * out_dim, f"layer {i} bias"), dtype="<f8")
            layers.append(DenseLayer(weights.copy(), bias.copy()))
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
