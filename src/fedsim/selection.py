"""Per-round client data selection.

The entropy strategy runs one forward pass over the client's samples, turns
the logits into probabilities with the temperature-scaled softmax and keeps
the k highest-entropy samples. Temperatures below 1 sharpen the
probabilities so that samples the model is even mildly confident about drop
to near-zero entropy and fall out of the selection, leaving only genuinely
uncertain ones near the top. The random strategy is the matched baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import nn
from .data import ClientPartition, Dataset
from .errors import ParameterError
from .rng import derive_rng


@dataclass
class SelectionResult:
    """Outcome of one client's per-round data selection.

    selected_indices are ascending sample indices into the parent dataset;
    entropies (entropy strategy only) holds the score of every sample of the
    client, selected or not, aligned with client.sample_indices.
    """

    selected_indices: np.ndarray
    entropies: np.ndarray | None


def selection_count(n: int, p_ds: float) -> int:
    """Number of samples to keep: max(1, floor(p_ds * n)).

    The floor is taken of the exact product with p_ds as the decimal it is
    written as, so 0.29 of 100 is 29 (binary floating point gives 28).
    """
    if not 0.0 < p_ds <= 1.0:
        raise ParameterError(f"p_ds must be in (0, 1], got {p_ds}")
    if n < 1:
        raise ParameterError("cannot select from an empty client")
    return max(1, math.floor(Fraction(str(float(p_ds))) * n))


def compute_entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats of one probability vector; 0*log(0) is 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ParameterError(f"expected a probability vector, got shape {probs.shape}")
    if (probs < 0.0).any():
        raise ParameterError("probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise ParameterError("probabilities must sum to 1")
    return float(entropy_rows(probs[None, :])[0])


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of a probability matrix (no validation)."""
    terms = np.zeros_like(probs)
    nz = probs > 0.0
    terms[nz] = probs[nz] * np.log(probs[nz])
    return -terms.sum(axis=-1)


def top_k_by_entropy(sample_indices: np.ndarray, entropies: np.ndarray, k: int) -> np.ndarray:
    """The k highest-entropy sample indices, ties broken by ascending index.

    Returned in ascending sample-index order.
    """
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    entropies = np.asarray(entropies, dtype=np.float64)
    if sample_indices.shape != entropies.shape:
        raise ParameterError("sample_indices and entropies must align")
    # lexsort: last key is primary, so order by descending entropy then index
    order = np.lexsort((sample_indices, -entropies))
    return np.sort(sample_indices[order[:k]])


def select_by_entropy(
    model: nn.Model,
    dataset: Dataset,
    client: ClientPartition,
    p_ds: float,
    rho: float,
) -> SelectionResult:
    """Entropy-based selection: one forward pass, hardened softmax, top k."""
    indices = client.sample_indices
    k = selection_count(indices.size, p_ds)
    logits, _ = nn.forward(model, dataset.features[indices])
    probs = nn.softmax_with_temperature(logits, rho)
    entropies = entropy_rows(probs)
    return SelectionResult(top_k_by_entropy(indices, entropies, k), entropies)


def select_random(client: ClientPartition, p_ds: float, round_seed: int) -> SelectionResult:
    """Uniform selection without replacement, fixed by (round_seed, client_id)."""
    indices = client.sample_indices
    k = selection_count(indices.size, p_ds)
    rng = derive_rng(round_seed, client.client_id)
    picked = rng.choice(indices, size=k, replace=False)
    return SelectionResult(np.sort(picked), None)


def select_all(client: ClientPartition) -> SelectionResult:
    """Keep everything (p_ds = 1); used when no selection is configured."""
    if client.sample_indices.size < 1:
        raise ParameterError("cannot select from an empty client")
    return SelectionResult(np.asarray(client.sample_indices, dtype=np.int64).copy(), None)
