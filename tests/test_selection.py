"""Entropy scoring, top-fraction selection, random-selection baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data, federation, nn, selection
from fedsim.data import ClientPartition
from fedsim.errors import ParameterError


def brute_force_selection(sample_indices, entropies, k):
    """Independent oracle: score everything, full sort, take the prefix of k."""
    ranked = sorted(zip(sample_indices, entropies), key=lambda t: (-t[1], t[0]))
    return sorted(idx for idx, _ in ranked[:k])


def one_row_entropy(probs):
    """entropy_rows, the scorer selection runs, on a single probability vector."""
    return selection.entropy_rows(np.asarray(probs, dtype=np.float64)[None, :])[0]


def random_client(rng, dataset_size, client_size, client_id=0):
    indices = np.sort(rng.choice(dataset_size, size=client_size, replace=False))
    return ClientPartition(client_id=client_id, sample_indices=indices)


# --- entropy -------------------------------------------------------------------


def test_entropy_uniform_ten_classes():
    assert abs(one_row_entropy(np.full(10, 0.1)) - math.log(10)) < 1e-12


def test_entropy_one_hot_is_zero():
    probs = np.zeros(6)
    probs[2] = 1.0
    assert one_row_entropy(probs) == 0.0


def test_entropy_reference_value():
    probs = [0.7, 0.2, 0.1]
    expected = -sum(p * math.log(p) for p in probs)
    assert abs(one_row_entropy(np.array(probs)) - expected) < 1e-12
    assert abs(expected - 0.8018185525433373) < 1e-12


def test_entropy_monotone_in_temperature():
    rng = np.random.default_rng(77)
    for _ in range(200):
        z = rng.normal(scale=3.0, size=int(rng.integers(2, 10)))
        if np.ptp(z) == 0.0:
            continue
        rho_small, rho_large = sorted(rng.uniform(0.05, 5.0, size=2))
        if rho_small == rho_large:
            continue
        h_small = one_row_entropy(nn.softmax_with_temperature(z, rho_small))
        h_large = one_row_entropy(nn.softmax_with_temperature(z, rho_large))
        assert h_small < h_large


def test_entropy_constant_for_equal_logits():
    z = np.full(7, 3.25)
    for rho in (0.1, 1.0, 4.0):
        h = one_row_entropy(nn.softmax_with_temperature(z, rho))
        assert abs(h - math.log(7)) < 1e-12


# --- top-k rule -----------------------------------------------------------------


def test_top_k_hand_case():
    indices = np.array([10, 11, 12, 13])
    entropies = np.array([0.1, 0.9, 0.5, 0.7])
    chosen = selection.top_k_by_entropy(indices, entropies, 2)
    assert list(chosen) == [11, 13]


def test_top_k_tie_breaks_by_ascending_index():
    indices = np.array([5, 2, 9, 1])
    entropies = np.array([0.5, 0.5, 0.5, 0.5])
    chosen = selection.top_k_by_entropy(indices, entropies, 2)
    assert list(chosen) == [1, 2]


# --- entropy-based selection ------------------------------------------------------


def test_select_by_entropy_full_fraction_keeps_all_in_order():
    ds = data.generate_synthetic(3, 20, 5, 2.0, seed=1)
    model = nn.build_mlp(5, (8,), 3, split_index=0, seed=2)
    client = random_client(np.random.default_rng(3), len(ds), 12)
    result = selection.select_by_entropy(model, ds, client, 12, 0.5)
    assert np.array_equal(result.selected_indices, client.sample_indices)
    assert len(result.entropies) == 12


def test_select_by_entropy_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    ds = data.generate_synthetic(4, 50, 6, 1.5, seed=5)
    for trial in range(30):
        model = nn.build_mlp(6, (10,), 4, split_index=0, seed=int(rng.integers(1 << 30)))
        client = random_client(rng, len(ds), int(rng.integers(2, 180)))
        k = int(rng.integers(1, len(client) + 1))
        rho = float(rng.uniform(0.05, 2.0))
        result = selection.select_by_entropy(model, ds, client, k, rho)
        logits, _ = nn.forward(model, ds.features[client.sample_indices])
        probs = nn.softmax_with_temperature(logits, rho)
        entropies = [-(p[p > 0] * np.log(p[p > 0])).sum() for p in probs]
        expected = brute_force_selection(list(client.sample_indices), entropies, k)
        assert list(result.selected_indices) == expected, f"trial {trial}"


def test_select_by_entropy_reports_entropy_of_every_client_sample():
    ds = data.generate_synthetic(4, 30, 6, 1.5, seed=21)
    model = nn.build_mlp(6, (10,), 4, split_index=0, seed=22)
    client = random_client(np.random.default_rng(23), len(ds), 50)
    rho = 0.3
    result = selection.select_by_entropy(model, ds, client, 20, rho)
    assert result.entropies.shape == client.sample_indices.shape
    for i, idx in enumerate(client.sample_indices):
        logits, _ = nn.forward(model, ds.features[idx : idx + 1])
        probs = nn.softmax_with_temperature(logits[0], rho)
        expected = -(probs[probs > 0] * np.log(probs[probs > 0])).sum()
        assert result.entropies[i] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_selection_invariant_to_logit_shift():
    # adding a constant to every output bias shifts all logits equally
    ds = data.generate_synthetic(3, 30, 5, 1.0, seed=9)
    model = nn.build_mlp(5, (8,), 3, split_index=0, seed=10)
    client = random_client(np.random.default_rng(11), len(ds), 40)
    before = selection.select_by_entropy(model, ds, client, 16, 0.3)
    shifted = model.copy()
    shifted.layers[-1].bias[...] += 17.5
    after = selection.select_by_entropy(shifted, ds, client, 16, 0.3)
    assert np.array_equal(before.selected_indices, after.selected_indices)


def test_hardening_reduces_high_entropy_population():
    # per-sample entropy is monotone in temperature, so the count above any
    # threshold cannot grow when the temperature drops
    ds = data.generate_synthetic(4, 40, 6, 2.0, seed=12)
    model = nn.build_mlp(6, (12,), 4, split_index=0, seed=13)
    logits, _ = nn.forward(model, ds.features)
    threshold = 0.5 * math.log(4)
    counts = {}
    for rho in (0.1, 1.0):
        probs = nn.softmax_with_temperature(logits, rho)
        entropies = selection.entropy_rows(probs)
        counts[rho] = int((entropies > threshold).sum())
    assert counts[0.1] <= counts[1.0]


# --- random selection ----------------------------------------------------------------


def test_select_random_full_fraction():
    client = ClientPartition(0, np.arange(9))
    result = selection.select_random(client, 9, round_seed=5)
    assert np.array_equal(result.selected_indices, np.arange(9))
    assert result.entropies is None


def test_select_random_count_rule():
    client = ClientPartition(3, np.arange(100, 107))
    result = selection.select_random(client, 3, round_seed=8)
    assert len(result.selected_indices) == 3
    assert set(result.selected_indices) <= set(range(100, 107))


def test_select_random_deterministic_per_seed_and_client():
    client = ClientPartition(2, np.arange(50))
    a = selection.select_random(client, 15, round_seed=99)
    b = selection.select_random(client, 15, round_seed=99)
    assert np.array_equal(a.selected_indices, b.selected_indices)
    other_client = ClientPartition(5, np.arange(50))
    c = selection.select_random(other_client, 15, round_seed=99)
    assert not np.array_equal(a.selected_indices, c.selected_indices)


def test_select_random_varies_across_seeds():
    client = ClientPartition(0, np.arange(20))
    picks = {
        tuple(selection.select_random(client, 10, round_seed=s).selected_indices)
        for s in range(100)
    }
    # C(20,10) is huge; collisions among 100 draws should be rare
    assert len(picks) >= 95


def test_entropy_and_random_agree_at_full_fraction():
    ds = data.generate_synthetic(3, 20, 5, 1.0, seed=20)
    model = nn.build_mlp(5, (8,), 3, split_index=0, seed=21)
    client = random_client(np.random.default_rng(22), len(ds), 15)
    by_entropy = selection.select_by_entropy(model, ds, client, 15, 1.0)
    by_random = selection.select_random(client, 15, round_seed=1)
    assert np.array_equal(by_entropy.selected_indices, by_random.selected_indices)


@pytest.mark.parametrize("selector", ["entropy", "random"])
@pytest.mark.parametrize("extra", [-7, 1])  # k of 0 and one more than the client holds
def test_a_count_the_client_cannot_give_is_rejected(selector, extra):
    ds = data.generate_synthetic(3, 20, 5, 1.0, seed=24)
    model = nn.build_mlp(5, (8,), 3, split_index=0, seed=25)
    client = random_client(np.random.default_rng(26), len(ds), 7, client_id=4)
    k = 7 + extra
    with pytest.raises(ParameterError, match=f"client 4 cannot keep {k} of 7 samples$"):
        if selector == "entropy":
            selection.select_by_entropy(model, ds, client, k, 1.0)
        else:
            selection.select_random(client, k, round_seed=1)


# --- properties ----------------------------------------------------------------------

PROPERTY = settings(max_examples=60)
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True)
POOL = data.generate_synthetic(3, 40, 5, 1.5, seed=30)


@PROPERTY
@given(st.integers(1, 120), FRACTIONS, st.integers(0, 2**32), st.integers(0, 2**32))
def test_every_selector_keeps_the_selection_count_from_the_client(n, p_ds, seed, round_seed):
    # run_federation weights its fold by the plan's kept count, the k it hands
    # the selector, before any client selects
    rng = np.random.default_rng(seed)
    client = random_client(rng, len(POOL), n, client_id=int(rng.integers(100)))
    model = nn.build_mlp(5, (6,), 3, split_index=0, seed=seed)
    rho = float(rng.uniform(0.05, 2.0))
    k = federation.selection_count(n, p_ds)
    for select in (
        lambda k: selection.select_by_entropy(model, POOL, client, k, rho),
        lambda k: selection.select_random(client, k, round_seed),
    ):
        picked = select(k).selected_indices
        assert len(picked) == k
        assert (np.diff(picked) > 0).all()
        assert np.isin(picked, client.sample_indices).all()
        for bad in (0, n + 1):
            with pytest.raises(ParameterError):
                select(bad)


@PROPERTY
@given(st.data())
def test_top_k_follows_the_tie_rule_against_a_sorted_oracle(data_):
    n = data_.draw(st.integers(1, 40))
    indices = data_.draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    # few distinct levels, so most entropies tie
    levels = data_.draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3))
    entropies = data_.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    k = data_.draw(st.integers(1, n))
    chosen = selection.top_k_by_entropy(np.array(indices), np.array(entropies), k)
    ranked = sorted(zip(indices, entropies), key=lambda t: (-t[1], t[0]))
    assert list(chosen) == sorted(idx for idx, _ in ranked[:k])
