"""Per-round client data selection.

A selector picks which of a client's samples it trains on; how many, k, is
the run plan's (`federation.plan_run`), and each selector keeps exactly k.
The entropy strategy runs one forward pass over the client's samples, turns
the logits into probabilities with the temperature-scaled softmax and keeps
the k highest-entropy samples. Temperatures below 1 sharpen the
probabilities so that samples the model is even mildly confident about drop
to near-zero entropy and fall out of the selection, leaving only genuinely
uncertain ones near the top. The random strategy is the matched baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_count(client: ClientPartition, k: int) -> None:
    """ParameterError unless 1 <= k <= the client's sample count."""
    if not 1 <= k <= len(client):
        raise ParameterError(f"client {client.client_id} cannot keep {k} of {len(client)} samples")


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats, 0*log(0) being 0 (no validation)."""
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
    k: int,
    rho: float,
) -> SelectionResult:
    """Entropy-based selection: one forward pass, hardened softmax, top k."""
    _check_count(client, k)
    indices = client.sample_indices
    logits = nn.layer_output(model, dataset.features[indices], len(model.layers))
    probs = nn.softmax_with_temperature(logits, rho)
    entropies = entropy_rows(probs)
    return SelectionResult(top_k_by_entropy(indices, entropies, k), entropies)


def select_random(client: ClientPartition, k: int, round_seed: int) -> SelectionResult:
    """Uniform selection of k without replacement, fixed by (round_seed, client_id)."""
    _check_count(client, k)
    rng = derive_rng(round_seed, client.client_id)
    picked = rng.choice(client.sample_indices, size=k, replace=False)
    return SelectionResult(np.sort(picked), None)
