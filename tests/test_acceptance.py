"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale federation
criteria (4-8) are directional replications on the synthetic desk preset;
all runs are fully seeded, so results are reproducible bit for bit.
"""

import math
import time
from copy import deepcopy

import numpy as np
import pytest

from fedsim import analysis, cli, data, nn, selection
from fedsim.data import PartitionSpec, dirichlet_partition
from fedsim.federation import (
    ClientUpdate,
    aggregate,
    run_federation,
)

SEEDS = (101, 102, 103, 104, 105)
CKA_SEEDS = (101, 102, 103)

# one-sided 5% critical value of Student t with 4 degrees of freedom
T_CRIT_ONE_SIDED_DF4 = 2.131847


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] criterion {num} {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def one_row_entropy(probs):
    """entropy_rows, the scorer selection runs, on a single probability vector."""
    return selection.entropy_rows(probs[None, :])[0]


# --- desk preset plumbing (mirrors the CLI exactly) -------------------------


def desk_config(master_seed, dataset_overrides=None, **federation_overrides):
    raw = deepcopy(cli.PRESETS["desk-default"])
    raw["federation"]["master_seed"] = str(master_seed)
    for key, value in federation_overrides.items():
        raw["federation"][key] = str(value)
    for key, value in (dataset_overrides or {}).items():
        raw["dataset"][key] = str(value)
    config = cli.ExperimentConfig(raw)
    config.validate()
    return config


def desk_inputs(config):
    """(pretrained model, train, test, partitions), built as `fedsim run` builds them."""
    start, train, test = cli._prepare_run(config, *cli._build_datasets(config))
    return start, train, test, cli._partition(config, train)


def desk_run(config, inputs, hook=None):
    """Round reports of a run from a copy of the pretrained model in `inputs`.

    One pretrained model serves every strategy: the run sets the split it
    trains, and trains its copy in place.
    """
    pretrained, train, test, partitions = inputs
    start = pretrained.copy()
    return run_federation(
        config.federation, start, train, partitions, test, upload_hook=hook
    )


_INPUTS: dict = {}
_RUN_CACHE: dict = {}


def cached_run(strategy, p_ds, pretrain_epochs, seed):
    key = (strategy, p_ds, pretrain_epochs, seed)
    if key not in _RUN_CACHE:
        config = desk_config(
            seed, strategy=strategy, p_ds=p_ds, pretrain_epochs=pretrain_epochs
        )
        if (pretrain_epochs, seed) not in _INPUTS:
            _INPUTS[pretrain_epochs, seed] = desk_inputs(config)
        _RUN_CACHE[key] = desk_run(config, _INPUTS[pretrain_epochs, seed])
    return _RUN_CACHE[key]


def final_accuracies(strategy, p_ds, pretrain_epochs):
    return np.array(
        [cached_run(strategy, p_ds, pretrain_epochs, s)[-1].test_accuracy for s in SEEDS]
    )


def mean_efficiency(strategy, p_ds, pretrain_epochs):
    values = [
        analysis.learning_efficiency(cached_run(strategy, p_ds, pretrain_epochs, s))
        for s in SEEDS
    ]
    return float(np.mean(values))


PRESET_PRETRAIN = int(cli.PRESETS["desk-default"]["federation"]["pretrain_epochs"])


# --- criterion 1: numerics suite ---------------------------------------------


def test_criterion_1_numerics_suite(head_views):
    started = time.perf_counter()
    rng = np.random.default_rng(11)

    # softmax shift invariance and rho=1 equivalence
    worst_shift = 0.0
    worst_standard = 0.0
    for _ in range(300):
        z = rng.normal(scale=4.0, size=int(rng.integers(2, 12)))
        rho = float(rng.uniform(0.05, 5.0))
        shift = float(rng.uniform(-50.0, 50.0))
        a = nn.softmax_with_temperature(z, rho)
        b = nn.softmax_with_temperature(z + shift, rho)
        worst_shift = max(worst_shift, float(np.abs(a - b).max()))
        standard = np.exp(z - z.max())
        standard /= standard.sum()
        worst_standard = max(
            worst_standard,
            float(np.abs(nn.softmax_with_temperature(z, 1.0) - standard).max()),
        )
    assert worst_shift <= 1e-12
    assert worst_standard <= 1e-12

    # entropy monotone in temperature, strict, on 1000 distinct-entry vectors
    checked = 0
    while checked < 1000:
        z = rng.normal(scale=3.0, size=int(rng.integers(2, 12)))
        if np.ptp(z) == 0.0:
            continue
        r1, r2 = np.sort(rng.uniform(0.05, 5.0, size=2))
        if r1 == r2:
            continue
        h1 = one_row_entropy(nn.softmax_with_temperature(z, r1))
        h2 = one_row_entropy(nn.softmax_with_temperature(z, r2))
        assert h1 < h2
        checked += 1

    # entropy anchor points
    assert abs(one_row_entropy(np.full(7, 1.0 / 7.0)) - math.log(7)) <= 1e-12
    one_hot = np.zeros(5)
    one_hot[3] = 1.0
    assert one_row_entropy(one_hot) == 0.0

    # backprop vs central finite differences, 100 random parameter probes
    model = nn.build_mlp(6, (10,), 4, split_index=0, seed=21)
    batch = rng.normal(size=(9, 6))
    labels = rng.integers(0, 4, size=9)
    nn.forward(model, batch)
    grads = head_views(model, nn.backward(model, batch, labels))

    def loss_at():
        logits, _ = nn.forward(model, batch)
        return nn.cross_entropy_loss(nn.softmax_with_temperature(logits, 1.0), labels)

    worst_rel = 0.0
    layer_keys = sorted(grads)
    for _ in range(100):
        layer_idx = layer_keys[int(rng.integers(len(layer_keys)))]
        which = int(rng.integers(2))
        target = model.layers[layer_idx].weights if which == 0 else model.layers[layer_idx].bias
        grad = grads[layer_idx][which]
        index = tuple(int(rng.integers(s)) for s in target.shape)
        h = 1e-5
        original = target[index]
        target[index] = original + h
        plus = loss_at()
        target[index] = original - h
        minus = loss_at()
        target[index] = original
        fd = (plus - minus) / (2.0 * h)
        g = grad[index]
        worst_rel = max(worst_rel, abs(g - fd) / max(abs(g), abs(fd), 1e-8))
    elapsed = time.perf_counter() - started
    _report(
        1,
        worst_rel < 1e-5 and elapsed < 30.0,
        f"numerics suite (worst softmax dev {worst_shift:.1e}, worst grad rel err "
        f"{worst_rel:.2e}, {elapsed:.1f}s < 30s)",
    )


# --- criterion 2: oracle equivalence ----------------------------------------


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(22)

    # selection vs brute-force sort oracle, 500 random instances
    dataset = data.generate_synthetic(5, 60, 6, 2.0, seed=7)
    mismatches = 0
    for trial in range(500):
        model = nn.build_mlp(6, (8,), 5, split_index=0, seed=int(rng.integers(1 << 30)))
        size = int(rng.integers(2, 200))
        indices = np.sort(rng.choice(len(dataset), size=size, replace=False))
        client = data.ClientPartition(client_id=0, sample_indices=indices)
        p_ds = float(rng.uniform(0.02, 1.0))
        rho = float(rng.uniform(0.05, 3.0))
        result = selection.select_by_entropy(model, dataset, client, p_ds, rho)
        logits, _ = nn.forward(model, dataset.features[indices])
        probs = nn.softmax_with_temperature(logits, rho)
        entropies = selection.entropy_rows(probs)
        k = max(1, int(math.floor(p_ds * size)))
        ranked = sorted(zip(indices.tolist(), entropies.tolist()), key=lambda t: (-t[1], t[0]))
        oracle = sorted(idx for idx, _ in ranked[:k])
        if list(result.selected_indices) != oracle:
            mismatches += 1

    # aggregation vs direct weighted average, 100 random cases
    worst_agg = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        counts = rng.integers(1, 100, size=k)
        thetas = [rng.normal(size=(3, 4)) for _ in range(k)]
        updates = [
            ClientUpdate(client_id=i, theta=thetas[i], selected_count=int(counts[i]))
            for i in range(k)
        ]
        merged = aggregate(updates)
        oracle = sum(c * t for c, t in zip(counts, thetas)) / counts.sum()
        worst_agg = max(worst_agg, float(np.abs(merged - oracle).max()))

    # partition law on 200 random specs
    cover_failures = 0
    for _ in range(200):
        num_classes = int(rng.integers(2, 8))
        ds = data.generate_synthetic(
            num_classes, int(rng.integers(4, 30)), 4, 1.0, seed=int(rng.integers(1 << 30))
        )
        spec = PartitionSpec(
            num_clients=int(rng.integers(1, min(15, len(ds)))),
            alpha=float(rng.uniform(0.05, 10.0)),
            seed=int(rng.integers(1 << 30)),
        )
        parts = dirichlet_partition(ds, spec)
        if not data.partition_covers(parts, len(ds)):
            cover_failures += 1
    elapsed = time.perf_counter() - started
    _report(
        2,
        mismatches == 0 and worst_agg <= 1e-12 and cover_failures == 0 and elapsed < 60.0,
        f"oracle equivalence (selection mismatches {mismatches}/500, aggregate dev "
        f"{worst_agg:.1e}, cover failures {cover_failures}/200, {elapsed:.1f}s < 60s)",
    )


# --- criterion 3: heterogeneity ordering --------------------------------------


def test_criterion_3_heterogeneity_ordering(mean_client_label_entropy):
    ds = data.generate_synthetic(10, 100, 8, 2.0, seed=33)
    means = []
    for alpha in (0.1, 0.5, 10.0):
        entropies = [
            mean_client_label_entropy(
                ds, dirichlet_partition(ds, PartitionSpec(12, alpha, seed))
            )
            for seed in range(5)
        ]
        means.append(float(np.mean(entropies)))
    _report(
        3,
        means[0] < means[1] < means[2],
        f"label entropy increases with alpha: {means[0]:.3f} < {means[1]:.3f} < {means[2]:.3f}",
    )


# --- criterion 4: pretraining benefit ----------------------------------------


def test_criterion_4_pretraining_benefit():
    started = time.perf_counter()
    with_pretrain = final_accuracies("fedavg", 1.0, PRESET_PRETRAIN)
    from_scratch = final_accuracies("fedavg", 1.0, 0)
    elapsed = time.perf_counter() - started
    margin = 100.0 * (with_pretrain.mean() - from_scratch.mean())
    _report(
        4,
        margin >= 2.0 and elapsed < 600.0,
        f"pretrained fedavg beats scratch by {margin:+.2f} points "
        f"({with_pretrain.mean():.4f} vs {from_scratch.mean():.4f}, "
        f"{elapsed:.0f}s for both configurations)",
    )


# --- criterion 5: entropy selection vs random selection ------------------------


def test_criterion_5_eds_vs_rds():
    eds = final_accuracies("fedft_eds", 0.5, PRESET_PRETRAIN)
    rds = final_accuracies("fedft_rds", 0.5, PRESET_PRETRAIN)
    diffs = rds - eds  # one-sided: is RDS better?
    mean_margin = 100.0 * (eds.mean() - rds.mean())
    if diffs.std(ddof=1) == 0.0:
        rds_favored = diffs.mean() > 0.0
        t_stat = float("nan")
    else:
        t_stat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
        rds_favored = t_stat > T_CRIT_ONE_SIDED_DF4
    _report(
        5,
        mean_margin >= 0.0 and not rds_favored,
        f"entropy selection vs random: {mean_margin:+.2f} points "
        f"({eds.mean():.4f} vs {rds.mean():.4f}); paired t for RDS advantage "
        f"{t_stat:.2f} < {T_CRIT_ONE_SIDED_DF4}",
    )


# --- criterion 6: half the data can beat all of it ------------------------------


def test_criterion_6_selection_vs_all_data():
    eds = final_accuracies("fedft_eds", 0.5, PRESET_PRETRAIN)
    everything = final_accuracies("fedft_all", 1.0, PRESET_PRETRAIN)
    gap = 100.0 * (eds.mean() - everything.mean())
    sign = "positive (selection wins)" if gap > 0 else "negative (full data wins)"
    _report(
        6,
        gap >= -0.5,
        f"eds(p_ds=0.5) vs training on everything: gap {gap:+.2f} points, sign {sign}",
    )


# --- criterion 7: learning efficiency --------------------------------------------


def test_criterion_7_learning_efficiency():
    eds_eff = mean_efficiency("fedft_eds", 0.1, PRESET_PRETRAIN)
    fedavg_eff = mean_efficiency("fedavg", 1.0, PRESET_PRETRAIN)
    ratio = eds_eff / fedavg_eff
    _report(
        7,
        ratio >= 2.0,
        f"efficiency ratio eds(0.1)/fedavg = {ratio:.2f} "
        f"({eds_eff:.1f} vs {fedavg_eff:.1f} accuracy points per second)",
    )


# --- criterion 8: CKA model shift --------------------------------------------------


def _one_round_client_models(seed, pretrain_epochs):
    # close-domain pretraining study: undiluted source, 10 clients, one round
    config = desk_config(
        seed,
        dataset_overrides={"source_offdomain_per_class": 0},
        strategy="fedavg",
        p_ds=1.0,
        num_clients=10,
        rounds=1,
        pretrain_epochs=pretrain_epochs,
    )
    inputs = desk_inputs(config)
    # the CLI's capture, on the pretrained model: the run trains a copy of it
    # and fedavg leaves no frozen part, so each upload is a whole model
    captured, hook = cli._round_one_capture(inputs[0])
    desk_run(config, inputs, hook=hook)
    return [m for _, m in sorted(captured, key=lambda item: item[0])], inputs[2]


def test_criterion_8_cka_model_shift():
    margins = {}
    for level in analysis.LAYER_LEVELS:
        diffs = []
        for seed in CKA_SEEDS:
            pre_models, test = _one_round_client_models(seed, 8)
            scr_models, _ = _one_round_client_models(seed, 0)
            pre_score = analysis.mean_offdiagonal(analysis.pairwise_cka(pre_models, test, level))
            scr_score = analysis.mean_offdiagonal(analysis.pairwise_cka(scr_models, test, level))
            diffs.append(pre_score - scr_score)
        margins[level] = float(np.mean(diffs))

    # supporting numerics: self-similarity and invariances
    rng = np.random.default_rng(88)
    x = rng.normal(size=(120, 9))
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    self_dev = abs(analysis.linear_cka(x, x) - 1.0)
    orth_dev = abs(analysis.linear_cka(x, x @ q) - 1.0)
    scale_dev = abs(analysis.linear_cka(x, 2.5 * x) - 1.0)

    ok = (
        all(m > 0.0 for m in margins.values())
        and self_dev <= 1e-9
        and orth_dev <= 1e-9
        and scale_dev <= 1e-9
    )
    detail = ", ".join(f"{lvl}={m:+.5f}" for lvl, m in margins.items())
    _report(
        8,
        ok,
        f"pretrained client models more similar after one round ({detail}); "
        f"self/orthogonal/scale deviations {self_dev:.1e}/{orth_dev:.1e}/{scale_dev:.1e}",
    )


# --- criterion 9: determinism -------------------------------------------------------


def test_criterion_9_byte_identical_reports(tmp_path):
    outputs = []
    for name, threads in (("one", 1), ("two", 3)):
        out = tmp_path / name
        assert cli.main([
            "generate", "--preset", "desk-default", "--out", str(out), "--seed", "424242",
        ]) == 0
        assert cli.main([
            "run", "--preset", "desk-default", "--out", str(out), "--seed", "424242",
            "--threads", str(threads),
        ]) == 0
        outputs.append((out / "reports.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    _report(
        9,
        identical,
        f"desk-default reports.csv byte-identical across reruns and thread counts "
        f"({len(outputs[0])} bytes)",
    )
