"""Model similarity (linear CKA), learning efficiency, entropy histograms."""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .data import Dataset
from .errors import ParameterError, ShapeError
from .federation import RoundReport
from .selection import entropy_rows

LAYER_LEVELS = ("low", "mid", "up")


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered kernel alignment between two activation matrices.

    Rows are samples (must match), columns are features (may differ). The
    score is ||Yc' Xc||_F^2 / (||Xc' Xc||_F ||Yc' Yc||_F) with column-centered
    inputs; 1 means identical representations up to rotation/scale, 0 means
    unrelated. Returns NaN when either input has no variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("linear_cka expects 2-D activation matrices")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    return _centered_cka(_centered(x), _centered(y))


def _centered(acts: np.ndarray) -> tuple[np.ndarray, float]:
    """Column-centered activations and the Frobenius norm of their Gram matrix."""
    if acts.shape[0] < 2:
        raise ParameterError("need at least 2 rows to center and compare")
    centered = acts - acts.mean(axis=0)
    return centered, np.linalg.norm(centered.T @ centered)


def _centered_cka(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """linear_cka of two `_centered` results."""
    (xc, x_norm), (yc, y_norm) = x, y
    if x_norm == 0.0 or y_norm == 0.0:
        return float("nan")
    cross = np.linalg.norm(yc.T @ xc) ** 2
    return float(cross / (x_norm * y_norm))


def probe_activations(model: nn.Model, features: np.ndarray, layer_level: str) -> np.ndarray:
    """Activations at a named depth: low/mid after the first/second relu,
    up at the logits (the output of the last dense layer).

    Without a second relu, mid falls back to low; without any relu, low is
    the output of the first layer. Only the layers up to the probed one run.
    """
    if layer_level not in LAYER_LEVELS:
        raise ParameterError(f"layer_level must be one of {LAYER_LEVELS}, got {layer_level!r}")
    if layer_level == "up":
        return nn.layer_output(model, features, len(model.layers))
    relu_positions = [
        i for i, layer in enumerate(model.layers) if isinstance(layer, nn.ReluLayer)
    ] or [0]
    if layer_level == "mid" and len(relu_positions) > 1:
        return nn.layer_output(model, features, relu_positions[1] + 1)
    return nn.layer_output(model, features, relu_positions[0] + 1)


def pairwise_cka(models: list[nn.Model], probe: Dataset, layer_level: str) -> np.ndarray:
    """CKA between every pair of models' activations on a shared probe set:
    the symmetric K x K matrix of the K models, in their order."""
    if len(models) < 2:
        raise ParameterError("pairwise_cka needs at least 2 models")
    signatures = [
        [
            (layer.kind, layer.weights.shape if isinstance(layer, nn.DenseLayer) else None)
            for layer in model.layers
        ]
        for model in models
    ]
    for k, signature in enumerate(signatures[1:], start=1):
        if signature != signatures[0]:
            raise ParameterError(f"model {k} architecture differs from model 0")
    # each model is centered once, not once per pair
    centered = [_centered(probe_activations(m, probe.features, layer_level)) for m in models]
    k = len(models)
    values = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            score = _centered_cka(centered[i], centered[j])
            values[i, j] = score
            values[j, i] = score
    return values


def mean_offdiagonal(values: np.ndarray) -> float:
    """Average similarity between distinct model pairs of a K x K matrix."""
    k = values.shape[0]
    mask = ~np.eye(k, dtype=bool)
    return float(values[mask].mean())


def learning_efficiency(reports: list[RoundReport]) -> float:
    """Best accuracy (percentage points) per second of summed client effort.

    NaN when no client time was spent.
    """
    if not reports:
        raise ParameterError("learning_efficiency needs at least one round report")
    best_acc_points = 100.0 * max(r.test_accuracy for r in reports)
    total_time = reports[-1].cumulative_client_train_time
    if total_time <= 0.0:
        return float("nan")
    return best_acc_points / total_time


def entropy_histogram(
    model: nn.Model, data: Dataset, rhos: tuple[float, ...], num_bins: int
) -> list[np.ndarray]:
    """Counts of per-sample prediction entropies over [0, ln num_classes],
    one array per temperature in `rhos`, all from one forward pass."""
    if num_bins < 2:
        raise ParameterError(f"num_bins must be >= 2, got {num_bins}")
    logits = nn.layer_output(model, data.features, len(model.layers))
    edges = histogram_edges(data.num_classes, num_bins)
    all_counts = []
    for rho in rhos:
        entropies = entropy_rows(nn.softmax_with_temperature(logits, rho))
        counts, _ = np.histogram(np.clip(entropies, 0.0, edges[-1]), bins=edges)
        all_counts.append(counts)
    return all_counts


def histogram_edges(num_classes: int, num_bins: int) -> np.ndarray:
    """Bin edges matching entropy_histogram."""
    upper = math.log(num_classes) if num_classes > 1 else 1.0
    return np.linspace(0.0, upper, num_bins + 1)
