"""Shared test settings.

Property tests run the same examples on every run (derandomize, no example
database) and without a per-example deadline; each test sets only its own
`max_examples`.

`head_views` reads a vector laid out like a model's head (a gradient, a
velocity, an upload) layer by layer; `assert_laid_out` checks that a model's
layers are stored in its one parameter vector; `mean_client_label_entropy`
measures how heterogeneous a partition's label mixes are.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("fedsim", deadline=None, derandomize=True, database=None)
settings.load_profile("fedsim")


def _head_views(model, flat):
    """{head dense layer index: (weights, bias)}, as views of `flat`, a
    vector laid out like `model.theta`: each layer's weights (row-major) then
    bias, in layer order. Written out here, apart from nn's own layout."""
    views, at = {}, 0
    for i in range(model.split_index, len(model.layers)):
        layer = model.layers[i]
        if layer.kind != "dense":
            continue
        bias_at = at + layer.weights.size
        weights = flat[at:bias_at].reshape(layer.weights.shape)
        at = bias_at + layer.out_dim
        views[i] = (weights, flat[bias_at:at])
    assert at == flat.size, "the vector is not laid out like the head"
    return views


@pytest.fixture(scope="session")
def head_views():
    return _head_views


def _assert_laid_out(model):
    """Check that each dense layer's weights then bias are views of the next
    slices of `model.params`, with no gap, and that `model.theta` is its tail
    from the split on. Writes a ramp into params to see it, then restores it."""
    saved = model.params.copy()
    model.params[...] = np.arange(model.params.size)
    at, theta_at = 0, None
    for i, layer in enumerate(model.layers):
        if i == model.split_index:
            theta_at = at
        if layer.kind == "dense":
            for array in (layer.weights, layer.bias):
                assert np.array_equal(array.ravel(), np.arange(at, at + array.size))
                at += array.size
    assert at == model.params.size
    assert np.array_equal(model.theta, np.arange(at if theta_at is None else theta_at, at))
    model.params[...] = saved


@pytest.fixture(scope="session")
def assert_laid_out():
    return _assert_laid_out


def _mean_client_label_entropy(dataset, partitions):
    """Average per-client Shannon entropy of the label distribution (nats)."""
    entropies = []
    for part in partitions:
        counts = np.bincount(dataset.labels[part.sample_indices], minlength=dataset.num_classes)
        probs = counts / counts.sum()
        nz = probs > 0
        entropies.append(float(-(probs[nz] * np.log(probs[nz])).sum()))
    return float(np.mean(entropies))


@pytest.fixture(scope="session")
def mean_client_label_entropy():
    return _mean_client_label_entropy
