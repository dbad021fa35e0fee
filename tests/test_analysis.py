"""CKA similarity, learning efficiency, entropy histograms."""

import math

import numpy as np
import pytest

from fedsim import analysis, data, nn
from fedsim.errors import ParameterError, ShapeError
from fedsim.federation import RoundReport, pretrain


def report(round_no, acc, cum_time):
    return RoundReport(
        round=round_no,
        participants=[0],
        test_accuracy=acc,
        test_loss=0.0,
        cumulative_client_train_time=cum_time,
    )


# --- linear CKA ------------------------------------------------------------


def test_cka_self_similarity_is_one():
    x = np.random.default_rng(0).normal(size=(50, 7))
    assert abs(analysis.linear_cka(x, x) - 1.0) < 1e-9


def test_cka_orthogonal_and_scaling_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    assert abs(analysis.linear_cka(x, x @ q) - 1.0) < 1e-9
    assert abs(analysis.linear_cka(x, -3.7 * x) - 1.0) < 1e-9


def test_cka_independent_gaussians_are_dissimilar():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=(2000, 8))
        y = rng.normal(size=(2000, 8))
        assert analysis.linear_cka(x, y) < 0.05


def test_cka_is_symmetric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5))
    y = rng.normal(size=(40, 9))
    assert abs(analysis.linear_cka(x, y) - analysis.linear_cka(y, x)) < 1e-12


def test_cka_invariant_to_recentering():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 4)) + 100.0
    y = rng.normal(size=(30, 6)) - 42.0
    raw = analysis.linear_cka(x, y)
    centered = analysis.linear_cka(x - x.mean(axis=0), y - y.mean(axis=0))
    assert abs(raw - centered) < 1e-12


def test_cka_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=(20, int(rng.integers(1, 10))))
        y = rng.normal(size=(20, int(rng.integers(1, 10))))
        value = analysis.linear_cka(x, y)
        assert -1e-9 <= value <= 1.0 + 1e-9


def test_cka_degenerate_input_flags_undefined():
    x = np.ones((10, 3))  # zero variance after centering
    y = np.random.default_rng(6).normal(size=(10, 3))
    assert math.isnan(analysis.linear_cka(x, y))


def test_cka_rejects_mismatched_rows():
    with pytest.raises(ShapeError):
        analysis.linear_cka(np.zeros((4, 2)), np.zeros((5, 2)))


# --- pairwise CKA -----------------------------------------------------------


def probe_dataset(seed=7):
    return data.generate_synthetic(3, 30, 6, 2.0, seed=seed)


def test_pairwise_identical_models_all_ones():
    probe = probe_dataset()
    model = nn.build_mlp(6, (8, 8), 3, split_index=4, seed=8)
    matrix = analysis.pairwise_cka([model, model.copy(), model.copy()], probe, "mid")
    assert np.abs(matrix.values - 1.0).max() < 1e-9


def test_pairwise_two_models_matches_direct_computation():
    probe = probe_dataset()
    a = nn.build_mlp(6, (8, 8), 3, split_index=4, seed=9)
    b = nn.build_mlp(6, (8, 8), 3, split_index=4, seed=10)
    matrix = analysis.pairwise_cka([a, b], probe, "low")
    direct = analysis.linear_cka(
        analysis.probe_activations(a, probe.features, "low"),
        analysis.probe_activations(b, probe.features, "low"),
    )
    assert matrix.values.shape == (2, 2)
    assert abs(matrix.values[0, 1] - direct) < 1e-12
    assert abs(matrix.values[1, 0] - direct) < 1e-12


def test_pairwise_matrix_is_symmetric_with_unit_diagonal():
    probe = probe_dataset()
    models = [nn.build_mlp(6, (8, 8), 3, split_index=4, seed=s) for s in range(4)]
    matrix = analysis.pairwise_cka(models, probe, "up")
    assert np.abs(matrix.values - matrix.values.T).max() < 1e-12
    assert np.abs(np.diag(matrix.values) - 1.0).max() < 1e-9


@pytest.mark.parametrize("level", analysis.LAYER_LEVELS)
def test_pairwise_equals_linear_cka_bitwise_for_every_pair(level):
    probe = probe_dataset()
    models = [nn.build_mlp(6, (8, 8), 3, split_index=4, seed=s) for s in range(4)]
    matrix = analysis.pairwise_cka(models, probe, level)
    acts = [analysis.probe_activations(m, probe.features, level) for m in models]
    for i in range(len(models)):
        for j in range(i, len(models)):
            assert matrix.values[i, j] == analysis.linear_cka(acts[i], acts[j])
            assert matrix.values[j, i] == matrix.values[i, j]


def test_pairwise_rejects_a_single_row_probe():
    probe = probe_dataset().subset(np.array([0]))
    models = [nn.build_mlp(6, (8, 8), 3, split_index=4, seed=s) for s in range(2)]
    with pytest.raises(ParameterError):
        analysis.pairwise_cka(models, probe, "low")


def test_pairwise_rejects_architecture_mismatch():
    probe = probe_dataset()
    a = nn.build_mlp(6, (8, 8), 3, split_index=4, seed=11)
    b = nn.build_mlp(6, (8, 4), 3, split_index=4, seed=12)
    with pytest.raises(ParameterError):
        analysis.pairwise_cka([a, b], probe, "low")


def test_probe_levels_have_expected_widths():
    probe = probe_dataset()
    model = nn.build_mlp(6, (8, 5), 3, split_index=4, seed=13)
    low = analysis.probe_activations(model, probe.features, "low")
    mid = analysis.probe_activations(model, probe.features, "mid")
    up = analysis.probe_activations(model, probe.features, "up")
    assert low.shape[1] == 8
    assert mid.shape[1] == 5
    assert up.shape[1] == 3  # the logits


def test_probe_levels_are_three_different_arrays():
    probe = probe_dataset()
    model = nn.build_mlp(6, (64, 64), 3, split_index=4, seed=14)
    low, mid, up = (
        analysis.probe_activations(model, probe.features, level)
        for level in analysis.LAYER_LEVELS
    )
    logits, _ = nn.forward(model, probe.features)
    assert low.shape == mid.shape == (len(probe), 64)
    assert not np.array_equal(low, mid)
    assert np.array_equal(up, logits)


# --- learning efficiency ----------------------------------------------------


def test_learning_efficiency_direct_division():
    reports = [report(1, 0.5, 100.0), report(2, 0.8, 400.0)]
    assert analysis.learning_efficiency(reports) == pytest.approx(0.2)


def test_learning_efficiency_homogeneity():
    fast = [report(1, 0.6, 50.0)]
    slow = [report(1, 0.6, 100.0)]
    assert analysis.learning_efficiency(fast) == pytest.approx(
        2.0 * analysis.learning_efficiency(slow)
    )


def test_learning_efficiency_zero_time_is_flagged():
    assert math.isnan(analysis.learning_efficiency([report(1, 0.5, 0.0)]))


def test_learning_efficiency_ignores_non_improving_zero_time_rounds():
    base = [report(1, 0.7, 200.0)]
    extended = base + [report(2, 0.6, 200.0)]
    assert analysis.learning_efficiency(base) == analysis.learning_efficiency(extended)


def test_learning_efficiency_requires_reports():
    with pytest.raises(ParameterError):
        analysis.learning_efficiency([])


# --- entropy histogram -------------------------------------------------------


def test_histogram_uniform_model_masses_top_bin():
    ds = data.generate_synthetic(4, 25, 5, 1.0, seed=14)
    model = nn.Model(
        [nn.DenseLayer(np.zeros((4, 5)), np.zeros(4))], split_index=0, num_classes=4
    )
    (counts,) = analysis.entropy_histogram(model, ds, rhos=(1.0,), num_bins=10)
    assert counts[-1] == len(ds)
    assert counts[:-1].sum() == 0


def test_histogram_counts_are_conserved():
    ds = data.generate_synthetic(5, 30, 6, 2.0, seed=15)
    model = nn.build_mlp(6, (8,), 5, split_index=0, seed=16)
    all_counts = analysis.entropy_histogram(model, ds, rhos=(0.05, 1.0, 3.0), num_bins=12)
    assert len(all_counts) == 3
    for counts in all_counts:
        assert counts.sum() == len(ds)


def test_histogram_runs_one_forward_for_every_temperature(monkeypatch):
    ds = data.generate_synthetic(4, 30, 6, 2.0, seed=22)
    model = nn.build_mlp(6, (8,), 4, split_index=2, seed=23)
    calls = []
    run = nn.layer_output
    monkeypatch.setattr(nn, "layer_output", lambda *args: calls.append(1) or run(*args))
    rhos = (0.1, 0.5, 1.0, 2.0)
    together = analysis.entropy_histogram(model, ds, rhos, num_bins=15)
    assert len(calls) == 1
    # each temperature's counts are those of a call with that one temperature
    for rho, counts in zip(rhos, together):
        assert np.array_equal(counts, analysis.entropy_histogram(model, ds, (rho,), 15)[0])


def test_histogram_hardening_shifts_mass_down():
    ds = data.generate_synthetic(4, 60, 6, 3.0, seed=17)
    model = nn.build_mlp(6, (12,), 4, split_index=0, seed=18)
    model = pretrain(model, ds, 10, 0.1, 0.5, 32, seed=19)
    sharp, soft = analysis.entropy_histogram(model, ds, rhos=(0.01, 1.0), num_bins=20)
    quartile = 5
    assert sharp[:quartile].sum() >= soft[:quartile].sum()


def test_histogram_rejects_too_few_bins():
    ds = data.generate_synthetic(2, 5, 3, 1.0, seed=20)
    model = nn.build_mlp(3, (4,), 2, split_index=0, seed=21)
    with pytest.raises(ParameterError):
        analysis.entropy_histogram(model, ds, rhos=(1.0,), num_bins=1)
