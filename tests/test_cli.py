"""End-to-end CLI behaviour: generate, run, compare, analyses, manifests."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import cli, data, federation, nn
from fedsim import rng as streams
from fedsim.errors import ConfigError, NumericError
from fedsim.federation import pretrain
from fedsim.rng import derive_seed
from fedsim.selection import SelectionResult

TINY = [
    "--dataset.samples_per_class", "40",
    "--dataset.num_classes", "4",
    "--dataset.feature_dim", "8",
    "--federation.num_clients", "5",
    "--federation.pretrain_epochs", "3",
    "--federation.hidden_sizes", "12,12",
    "--federation.split_index", "4",
    "--rounds", "2",
]


def run_cli(args):
    return cli.main([str(a) for a in args])


def exit_code(args):
    """main's return code, or the code of the SystemExit that argparse raises."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def generate(out_dir, seed=5, extra=()):
    code = run_cli(["generate", "--out", out_dir, "--seed", seed, *TINY, *extra])
    assert code == 0


def test_generate_writes_datasets_and_manifest(tmp_path):
    out = tmp_path / "exp"
    generate(out)
    assert (out / "source.feds").exists()
    assert (out / "target.feds").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert set(manifest["outputs"]) == {"source.feds", "target.feds"}
    for name, digest in manifest["outputs"].items():
        assert cli._sha256(out / name) == digest


def test_generate_same_seed_same_digests(tmp_path):
    generate(tmp_path / "a")
    generate(tmp_path / "b")
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())["outputs"]
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())["outputs"]
    assert a == b


def test_generate_creates_missing_directories(tmp_path):
    nested = tmp_path / "deep" / "nested" / "dir"
    generate(nested)
    assert (nested / "source.feds").exists()


def test_run_zero_rounds_checkpoint_is_pretrained_model(tmp_path):
    out = tmp_path / "t0"
    generate(out)
    code = run_cli(["run", "--out", out, "--seed", 5, *TINY, "--rounds", "0"])
    assert code == 0
    lines = (out / "reports.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    checkpoint = nn.load_model(out / "model.ckpt")

    source = data.load_dataset(out / "source.feds")
    expected = pretrain(
        nn.build_mlp(8, (12, 12), 4, 4, derive_seed(5, streams.INIT)),
        source, 3, 0.1, 0.5, 32, derive_seed(5, streams.PRETRAIN),
    )
    for a, b in zip(checkpoint.layers, expected.layers):
        if isinstance(a, nn.DenseLayer):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_run_is_byte_identical_across_reruns_and_threads(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((out_a, 1), (out_b, 4)):
        generate(out)
        code = run_cli(["run", "--out", out, "--seed", 5, "--threads", threads, *TINY])
        assert code == 0
    assert (out_a / "reports.csv").read_bytes() == (out_b / "reports.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


TOGGLES = [
    "--analysis.cka", "true",
    "--analysis.selection_dump", "true",
    "--analysis.entropy_histogram", "true",
]


@pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all"])
def test_every_output_is_byte_identical_across_threads(tmp_path, strategy):
    outputs = {}
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        generate(out)
        code = run_cli([
            "run", "--out", out, "--seed", 5, "--threads", threads, *TINY,
            "--strategy", strategy, *TOGGLES,
        ])
        assert code == 0
        outputs[threads] = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
        }
    assert {"reports.csv", "model.ckpt", "selection_dump.csv", "cka_up.csv"} <= set(outputs[1])
    assert outputs[1] == outputs[3]


def test_run_requires_datasets(tmp_path):
    out = tmp_path / "missing"
    code = run_cli(["run", "--out", out, "--seed", 5, *TINY])
    assert code == 2


def test_run_rejects_invalid_config_before_compute(tmp_path):
    out = tmp_path / "bad"
    generate(out)
    code = run_cli(["run", "--out", out, "--seed", 5, *TINY, "--p-ds", "1.5"])
    assert code == 2


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", ["--federation.prox_mu", "nan"]),
        ("run", ["--analysis.entropy_histogram", "true", "--analysis.histogram_rhos", "nan"]),
        ("generate", ["--dataset.class_separation", "nan"]),
        ("run", ["--federation.rho", "inf"]),
        ("run", ["--partition.alpha", "inf"]),
        ("run", ["--federation.prox_mu", "inf"]),
        ("run", ["--federation.learning_rate", "inf"]),
        ("run", ["--analysis.entropy_histogram", "true", "--analysis.histogram_rhos", "1.0,inf"]),
        ("run", ["--dataset.class_separation", "inf"]),
    ],
    ids=[
        "prox_mu", "histogram_rhos", "class_separation", "rho_inf", "alpha_inf", "prox_mu_inf",
        "learning_rate_inf", "histogram_rhos_inf", "class_separation_inf",
    ],
)
def test_nan_settings_are_rejected_before_compute(tmp_path, capsys, command, flags):
    out = tmp_path / "nan"
    if command == "run":
        generate(out)
    capsys.readouterr()
    assert run_cli([command, "--out", out, "--seed", 5, *TINY, *flags]) == 2
    assert flags[-2].split(".")[-1] in capsys.readouterr().err
    assert not (out / "reports.csv").exists()
    if command == "generate":
        assert not (out / "source.feds").exists()


def test_same_named_dataset_files_are_rejected(tmp_path, capsys):
    out = tmp_path / "same"
    paths = ["--dataset.source_path", "same.feds", "--dataset.target_path", "same.feds"]
    assert run_cli(["generate", "--out", out, "--seed", 5, *TINY, *paths]) == 2
    assert not (out / "same.feds").exists()
    assert "file names" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "analyze-cka", "entropy-hist"])
@pytest.mark.parametrize("setting, given, value", [("num_classes", 4, "5"), ("feature_dim", 8, "7")])
def test_dataset_files_that_disagree_with_the_config_are_rejected(
    tmp_path, capsys, command, setting, given, value
):
    # the files hold TINY's 4 classes of 8 features; the manifest would record
    # the config's values, so the run must not train on the files' ones
    out = tmp_path / "mismatch"
    generate(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli([command, "--out", out, "--seed", 5, *TINY, f"--dataset.{setting}", value]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'source.feds'} has {setting} {given}, but dataset.{setting} is {value}" in err
    assert not (out / "reports.csv").exists()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["run", "analyze-cka", "entropy-hist"])
@pytest.mark.parametrize("files, flags", [
    (("nope_s.feds", "nope_t.feds"), []),
    (("source.feds", "target.feds"), ["--dataset.num_classes", "5"]),
], ids=["missing", "mismatched"])
@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_rejected_dataset_files_leave_no_output_directory(
    tmp_path, capsys, command, files, flags, relative
):
    # the directory, two levels of it new, is made to resolve relative paths
    # in, and removed again when the files are rejected
    generate(tmp_path / "gen")
    given = [(Path("../../gen") if relative else tmp_path / "gen") / name for name in files]
    out = tmp_path / "new" / "out"
    args = [command, "--out", out, "--seed", 5, *TINY, *flags,
            "--dataset.source_path", given[0], "--dataset.target_path", given[1]]
    capsys.readouterr()
    assert run_cli(args) == 2
    assert f"dataset file {tmp_path / 'new' / 'out' / given[0]} " in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_a_generate_that_fails_makes_no_directory(tmp_path, capsys):
    out = tmp_path / "new" / "gen"
    flags = ["--dataset.samples_per_class", "1", "--dataset.source_fraction", "0.1"]
    assert run_cli(["generate", "--out", out, "--seed", 5, *TINY, *flags]) == 2
    assert "stratified split left one side empty" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def _in_a_new_directory(tmp_path, command, *flags):
    """Exit code of `command` on TINY files generated in tmp_path/gen and
    given by absolute path, with --out tmp_path/new/out, two levels of it new."""
    generate(tmp_path / "gen")
    paths = [tmp_path / "gen" / "source.feds", tmp_path / "gen" / "target.feds"]
    return run_cli([
        command, "--out", tmp_path / "new" / "out", "--seed", 5, *TINY, *flags,
        "--dataset.source_path", paths[0], "--dataset.target_path", paths[1],
    ])


@pytest.mark.parametrize("flags, message", [
    ([], "error: pretraining: forward pass produced non-finite logits"),
    (["--federation.pretrain_epochs", "0", "--p-ds", "1.0", "--strategy", "fedavg"],
     "error: round 1, client 0: forward pass produced non-finite logits"),
], ids=["pretraining", "round 1"])
def test_a_run_that_diverges_leaves_no_output_directory(tmp_path, capsys, flags, message):
    with np.errstate(all="ignore"):
        code = _in_a_new_directory(tmp_path, "run", "--federation.learning_rate", "1e200", *flags)
    assert code == 2
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "analyze-cka"])
def test_a_plan_that_cannot_be_made_is_rejected_before_pretraining(
    tmp_path, capsys, monkeypatch, command
):
    pretrained, real = [], federation.pretrain

    def spy(*args, **kwargs):
        pretrained.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(federation, "pretrain", spy)
    code = _in_a_new_directory(tmp_path, command, "--federation.num_clients", "500")
    assert code == 2
    assert "cannot give 500 clients nonempty shares of 52 samples" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    assert pretrained == []


def test_run_rejects_zero_threads_before_compute(tmp_path, capsys):
    out = tmp_path / "threads"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY, "--threads", "0"]) == 2
    assert not (out / "reports.csv").exists()
    assert "--threads" in capsys.readouterr().err


def test_convenience_flags_land_in_manifest(tmp_path):
    out = tmp_path / "flags"
    generate(out)
    code = run_cli([
        "run", "--out", out, "--seed", 5, *TINY,
        "--strategy", "fedft_rds", "--p-ds", "0.25", "--rho", "0.7",
    ])
    assert code == 0
    fed = json.loads((out / "manifest.json").read_text())["config"]["federation"]
    assert fed["strategy"] == "fedft_rds"
    assert fed["p_ds"] == 0.25
    assert fed["rho"] == 0.7
    assert fed["master_seed"] == 5


def test_config_file_layering(tmp_path):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(
        "[federation]\nstrategy = fedprox\nrounds = 1\n\n[partition]\nalpha = 0.9\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfg"
    generate(out)
    code = run_cli([
        "run", "--out", out, "--seed", 5, *TINY,
        "--config", config_path, "--federation.rounds", "2",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["federation"]["strategy"] == "fedprox"
    # dotted flag beats the config file
    assert manifest["config"]["federation"]["rounds"] == 2
    assert manifest["config"]["partition"]["alpha"] == 0.9


def test_compare_run_with_itself(tmp_path, capsys):
    out = tmp_path / "self"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY]) == 0
    summary = tmp_path / "summary.csv"
    code = run_cli(["compare", out, out, "--threshold", "0.5", "--out-file", summary])
    assert code == 0
    rows = summary.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[1:] == rows[2].split(",")[1:]
    blob = summary.read_bytes()  # LF line endings, as every CSV fedsim writes
    assert b"\r" not in blob and blob.count(b"\n") == 3 and blob.endswith(b"\n")


def test_compare_refuses_mismatched_datasets(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    generate(out_a, seed=5)
    assert run_cli(["run", "--out", out_a, "--seed", 5, *TINY]) == 0
    generate(out_b, seed=6)
    assert run_cli(["run", "--out", out_b, "--seed", 6, *TINY]) == 0
    code = run_cli(["compare", out_a, out_b])
    assert code == 2
    assert "refusing to compare" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("manifest.json", "{not json"),
        ("manifest.json", '{"command": "run"}'),
        ("manifest.json", json.dumps({"config": {"federation": {
            "strategy": "fedavg", "p_ds": "half", "participation_fraction": 1.0,
        }}})),
        ("reports.csv", "round,test_acc\n1,0.5\n"),
    ],
    ids=["manifest not json", "manifest without config", "non-numeric p_ds",
         "reports without columns"],
)
def test_compare_reports_a_malformed_run_directory(tmp_path, capsys, name, text):
    good, bad = tmp_path / "good", tmp_path / "bad"
    generate(good)
    assert run_cli(["run", "--out", good, "--seed", 5, *TINY, "--rounds", "1"]) == 0
    shutil.copytree(good, bad)
    (bad / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["compare", good, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad / name) in err


@pytest.mark.parametrize("command", ["analyze-cka", "entropy-hist", "generate"])
def test_compare_rejects_a_directory_that_is_not_a_run(tmp_path, capsys, command):
    run, other = tmp_path / "run", tmp_path / "other"
    generate(run)
    assert run_cli(["run", "--out", run, "--seed", 5, *TINY, "--rounds", "1"]) == 0
    generate(other)
    if command != "generate":
        assert run_cli([command, "--out", other, "--seed", 5, *TINY]) == 0
    capsys.readouterr()
    assert run_cli(["compare", run, other]) == 2
    err = capsys.readouterr().err
    assert str(other) in err
    assert f"`fedsim {command}`" in err


def test_compare_pretraining_wins_early(tmp_path):
    rows = {}
    for name, pre in (("pre", "10"), ("scratch", "0")):
        out = tmp_path / name
        generate(out)
        code = run_cli([
            "run", "--out", out, "--seed", 5, *TINY,
            "--strategy", "fedavg", "--rounds", "2",
            "--federation.pretrain_epochs", pre,
        ])
        assert code == 0
        rows[name] = out
    summary = tmp_path / "summary.csv"
    assert run_cli(["compare", rows["pre"], rows["scratch"], "--out-file", summary]) == 0
    parsed = summary.read_text().splitlines()
    best = {line.split(",")[0]: float(line.split(",")[4]) for line in parsed[1:]}
    assert best["pre"] >= best["scratch"]


def test_compare_threshold_sentinel(tmp_path):
    out = tmp_path / "sentinel"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY]) == 0
    summary = tmp_path / "never.csv"
    assert run_cli(["compare", out, out, "--threshold", "2.0", "--out-file", summary]) == 0
    for row in summary.read_text().splitlines()[1:]:
        assert row.endswith(",")  # absent, not zero


@pytest.mark.parametrize(
    "threshold",
    [["--threshold", "nan"], ["--threshold", "inf"], ["--threshold=-inf"]],
    ids=["nan", "inf", "-inf"],
)
def test_compare_rejects_a_non_finite_threshold(tmp_path, capsys, threshold):
    out = tmp_path / "run"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY, "--rounds", "1"]) == 0
    summary = tmp_path / "summary.csv"
    capsys.readouterr()
    code = exit_code(["compare", out, out, *threshold, "--out-file", summary])
    assert code == 2
    assert "--threshold" in capsys.readouterr().err
    assert not summary.exists()


def test_analyze_cka_outputs_matrices(tmp_path):
    out = tmp_path / "cka"
    generate(out)
    code = run_cli([
        "analyze-cka", "--out", out, "--seed", 5, *TINY, "--strategy", "fedavg",
    ])
    assert code == 0
    for level in ("low", "mid", "up"):
        rows = (out / f"cka_{level}.csv").read_text().splitlines()
        header = rows[0].split(",")
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert matrix.shape == (len(header), len(header))
        assert np.abs(np.diag(matrix) - 1.0).max() < 1e-9
        assert np.abs(matrix - matrix.T).max() < 1e-12


def test_entropy_hist_counts_conserved(tmp_path):
    out = tmp_path / "hist"
    generate(out)
    code = run_cli([
        "entropy-hist", "--out", out, "--seed", 5, *TINY,
        "--analysis.histogram_rhos", "1.0,0.1",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["analysis"]["histogram_rhos"] == [1.0, 0.1]
    written = sorted(p.name for p in out.glob("entropy_hist_rho*.csv"))
    assert written == ["entropy_hist_rho0.1.csv", "entropy_hist_rho1.csv"]
    target = data.load_dataset(out / "target.feds")
    train, _ = data.stratified_split(target, 0.2, derive_seed(5, streams.SPLIT, 1))
    train_size = len(train)
    for rho in ("1", "0.1"):
        rows = (out / f"entropy_hist_rho{rho}.csv").read_text().splitlines()
        counts = [int(r.split(",")[2]) for r in rows[1:]]
        assert sum(counts) == train_size


def _command_output(tmp_path, capsys, command, *flags):
    """(output directory, printed lines) of one command on fresh TINY data."""
    out = tmp_path / command
    generate(out)
    capsys.readouterr()
    assert run_cli([command, "--out", out, "--seed", 5, *TINY, *flags]) == 0
    return out, capsys.readouterr().out.splitlines()


def test_analyze_cka_is_the_first_round_of_run(tmp_path, capsys):
    cka, printed = _command_output(tmp_path, capsys, "analyze-cka", "--strategy", "fedavg")
    run, _ = _command_output(
        tmp_path, capsys, "run", "--strategy", "fedavg", "--rounds", "1", "--analysis.cka", "true"
    )
    for level in ("low", "mid", "up"):
        name = f"cka_{level}.csv"
        assert (cka / name).read_bytes() == (run / name).read_bytes()
    assert printed == [
        "low: mean off-diagonal CKA 0.9886",
        "mid: mean off-diagonal CKA 0.8930",
        "up: mean off-diagonal CKA 0.8374",
    ]


def test_the_cka_capture_builds_round_one_models_from_the_uploads():
    start = nn.build_mlp(8, (12, 12), 4, split_index=4, seed=3)
    captured, hook = cli._round_one_capture(start)
    uploads = {(r, c): np.full(start.theta.shape, 10.0 * r + c) for r in (1, 2) for c in (0, 2)}
    for (round_no, client_id), theta in uploads.items():
        hook(round_no, client_id, theta)
    assert [client_id for client_id, _ in captured] == [0, 2]
    frozen = start.params.size - start.theta.size
    for client_id, model in captured:
        assert model.split_index == start.split_index
        assert np.array_equal(model.params[:frozen], start.params[:frozen])
        assert np.array_equal(model.theta, uploads[1, client_id])
        assert not np.shares_memory(model.params, start.params)


def test_cka_builds_whole_models_for_round_one_participants_only(tmp_path):
    # a run with CKA copies one whole model more per round-1 participant than
    # the same run without, however many rounds it runs
    copies, copy = [], nn.Model.copy

    def counting(model):
        copies.append(model)
        return copy(model)

    made = {}
    for cka in ("false", "true"):
        out = tmp_path / f"cka_{cka}"
        generate(out)
        copies.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nn.Model, "copy", counting)
            assert run_cli([
                "run", "--out", out, "--seed", 5, *TINY, "--rounds", 3,
                "--federation.participation_fraction", "0.6", "--analysis.cka", cka,
            ]) == 0
        made[cka] = len(copies)
    clients = (tmp_path / "cka_true" / "cka_up.csv").read_text().splitlines()[0].split(",")
    assert made["true"] - made["false"] == len(clients) == 3


@pytest.mark.parametrize(
    "command",
    [["run", "--analysis.cka", "true"], ["analyze-cka"]],
    ids=["run", "analyze-cka"],
)
@pytest.mark.parametrize(
    "clients",
    [
        ["--federation.num_clients", "1"],
        ["--federation.num_clients", "4", "--federation.participation_fraction", "0.25"],
    ],
    ids=["one_client", "one_participant"],
)
def test_cka_with_one_participant_is_rejected_before_any_read(tmp_path, capsys, command, clients):
    out = tmp_path / "cka"
    assert run_cli([command[0], "--out", out, "--seed", 5, *TINY, *command[1:], *clients]) == 2
    assert "CKA needs 2 or more round-1 client models" in capsys.readouterr().err
    # rejected while building the config, before the output directory is
    # made: it does not exist either
    assert not out.exists()


def test_run_with_cka_and_no_rounds_is_rejected(tmp_path, capsys):
    out = tmp_path / "cka0"
    assert run_cli(["run", "--out", out, *TINY, "--analysis.cka", "true", "--rounds", "0"]) == 2
    assert "0 round(s)" in capsys.readouterr().err


def test_analyze_cka_runs_and_records_one_round_whatever_rounds_says(tmp_path, capsys):
    out, _ = _command_output(tmp_path, capsys, "analyze-cka", "--rounds", "0")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["federation"]["rounds"] == 1
    assert {"cka_low.csv", "cka_mid.csv", "cka_up.csv"} <= set(manifest["outputs"])


def test_entropy_hist_is_the_histogram_of_a_zero_round_run(tmp_path, capsys):
    hist, printed = _command_output(tmp_path, capsys, "entropy-hist")
    run, _ = _command_output(
        tmp_path, capsys, "run", "--rounds", "0", "--analysis.entropy_histogram", "true"
    )
    names = sorted(p.name for p in hist.glob("entropy_hist_rho*.csv"))
    assert names == sorted(p.name for p in run.glob("entropy_hist_rho*.csv"))
    assert len(names) == 3
    for name in names:
        assert (hist / name).read_bytes() == (run / name).read_bytes()
    assert printed == [
        "rho=1: 15/52 samples in the lower half",
        "rho=0.5: 31/52 samples in the lower half",
        "rho=0.1: 51/52 samples in the lower half",
    ]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("entropy-hist", ["--analysis.histogram_rhos", "1e-320"]),
        ("run", ["--strategy", "fedft_eds", "--rho", "1e-320"]),
    ],
    ids=["entropy-hist", "run"],
)
def test_a_temperature_that_overflows_the_logits_exits_2(tmp_path, capsys, command, flags):
    out = tmp_path / "tiny"
    generate(out)
    capsys.readouterr()
    assert run_cli([command, "--out", out, "--seed", 5, *TINY, *flags]) == 2
    err = capsys.readouterr().err
    assert "rho 1e-320" in err and "Traceback" not in err
    if command == "run":
        assert re.search(r"round 1, client \d+: ", err)


@pytest.mark.parametrize("strategy, split", [("fedavg", 0), ("fedft_eds", 2)])
def test_the_checkpoint_records_the_split_the_strategy_trained(tmp_path, strategy, split):
    out = tmp_path / strategy
    generate(out)
    settings = [*TINY, "--federation.split_index", "2", "--strategy", strategy]
    assert run_cli(["run", "--out", out, "--seed", 5, *settings]) == 0
    assert nn.load_model(out / "model.ckpt").split_index == split


def test_entropy_hist_does_not_partition_the_pool(tmp_path):
    # 200 clients cannot share the 52 TINY training samples, but entropy-hist
    # only pretrains, so the client count must not matter to it
    outs = {}
    for clients in ("5", "200"):
        out = outs[clients] = tmp_path / f"clients{clients}"
        generate(out)
        assert run_cli([
            "entropy-hist", "--out", out, "--seed", 5, *TINY, "--federation.num_clients", clients,
        ]) == 0
    names = sorted(p.name for p in outs["5"].glob("entropy_hist_rho*.csv"))
    assert len(names) == 3
    assert names == sorted(p.name for p in outs["200"].glob("entropy_hist_rho*.csv"))
    for name in names:
        assert (outs["5"] / name).read_bytes() == (outs["200"] / name).read_bytes()


@pytest.mark.parametrize("command", ["analyze-cka", "entropy-hist"])
def test_the_analysis_commands_ignore_the_analysis_toggles(tmp_path, capsys, command):
    # only `run` reads the toggles: each analysis command writes and prints
    # the same with all of them on as with none
    written = []
    for name, toggles in (("none", []), ("all", TOGGLES)):
        out = tmp_path / name
        generate(out)
        capsys.readouterr()
        assert run_cli([command, "--out", out, "--seed", 5, *TINY, *toggles]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written.append((outputs, sorted(p.name for p in out.iterdir()), capsys.readouterr().out))
    assert written[0] == written[1]


@pytest.mark.parametrize("rhos", ["1.0,1", "0.1,0.1000001", "", ",,"])
def test_histogram_rhos_sharing_a_file_name_are_rejected(tmp_path, capsys, rhos):
    out = tmp_path / "hist"
    generate(out)
    code = run_cli([
        "entropy-hist", "--out", out, "--seed", 5, *TINY, "--analysis.histogram_rhos", rhos,
    ])
    assert code == 2
    assert "histogram_rhos" in capsys.readouterr().err
    assert not list(out.glob("entropy_hist_rho*.csv"))


def test_run_with_cka_and_dump_toggles(tmp_path):
    out = tmp_path / "toggles"
    generate(out)
    code = run_cli([
        "run", "--out", out, "--seed", 5, *TINY,
        "--analysis.cka", "true",
        "--analysis.selection_dump", "true",
        "--analysis.entropy_histogram", "true",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = set(manifest["outputs"])
    assert {"cka_low.csv", "cka_mid.csv", "cka_up.csv", "selection_dump.csv"} <= outputs
    dump_rows = (out / "selection_dump.csv").read_text().splitlines()
    assert dump_rows[0] == "round,client_id,sample_index,entropy,selected"
    assert len(dump_rows) > 1
    # every emitted file digest matches
    for name, digest in manifest["outputs"].items():
        assert cli._sha256(out / name) == digest


def test_selection_dump_writes_one_row_per_partition_sample_in_its_order(tmp_path):
    partitions = [
        data.ClientPartition(0, np.array([4, 1, 3])),
        data.ClientPartition(1, np.array([0, 2])),
    ]
    path = tmp_path / "selection_dump.csv"
    with cli._selection_dump(path, partitions, 5) as hook:
        hook(1, 0, SelectionResult(np.array([1, 4]), np.array([0.5, 1e-17, 2.0 / 3.0])))
        hook(1, 1, SelectionResult(np.array([2]), None))
        hook(2, 0, SelectionResult(np.array([3]), None))  # flags of round 1 do not linger
    assert path.read_bytes().decode("utf-8").split("\n") == [
        "round,client_id,sample_index,entropy,selected",
        "1,0,4,0.5,1",
        "1,0,1,1e-17,1",
        "1,0,3,0.6666666666666666,0",
        "1,1,0,,0",
        "1,1,2,,1",
        "2,0,4,,0",
        "2,0,1,,0",
        "2,0,3,,1",
        "",
    ]
    assert not (tmp_path / "selection_dump.csv.tmp").exists()


def test_a_failed_run_leaves_no_selection_dump(tmp_path, capsys, monkeypatch):
    out = tmp_path / "failed"
    generate(out)
    temporary = out / "selection_dump.csv.tmp"

    def diverging_run(plan, start, test, threads, selection_hook, **hooks):
        for part in plan.partitions[:2]:
            selection_hook(1, part.client_id, SelectionResult(part.sample_indices[:1], None))
        assert temporary.exists()  # opened before the rounds, written as they run
        raise NumericError("round 1, client 1: non-finite parameters")

    monkeypatch.setattr(cli, "run_federation", diverging_run)
    code = run_cli(["run", "--out", out, "--seed", 5, *TINY, "--analysis.selection_dump", "true"])
    assert code == 2
    assert "non-finite parameters" in capsys.readouterr().err
    assert not (out / "selection_dump.csv").exists()
    assert not temporary.exists()


def test_a_run_whose_analysis_fails_leaves_the_directory_as_generate_left_it(tmp_path, capsys):
    # the rounds finish and the dump, reports and checkpoint are written;
    # then the histogram's temperature overflows the logits
    out = tmp_path / "failed"
    generate(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = run_cli([
        "run", "--out", out, "--seed", 5, *TINY, *TOGGLES, "--analysis.histogram_rhos", "1e-320",
    ])
    assert code == 2
    assert "rho 1e-320" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _traced_peak(out, *flags):
    """tracemalloc's peak in bytes over one TINY `run` in `out`."""
    gc.collect()  # garbage of earlier runs moves the peak by tens of KB
    tracemalloc.start()
    try:
        assert run_cli(["run", "--out", out, "--seed", 5, *TINY, *flags]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selection_dump_memory_does_not_grow_with_rounds(tmp_path):
    out = tmp_path / "dump"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY]) == 0  # first-run allocations
    extra = {}
    for rounds in (2, 12):
        dumped = _traced_peak(out, "--rounds", rounds, "--analysis.selection_dump", "true")
        extra[rounds] = dumped - _traced_peak(out, "--rounds", rounds)
    # rows held in memory until the run ends would add about 6.5 KB for each
    # round of 52 rows, about 65 KB over the 10 extra rounds
    assert abs(extra[12] - extra[2]) < 20_000


def test_compare_rejects_dotted_settings(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code = exit_code([
        "compare", tmp_path, tmp_path, "--federation.rounds", "3", "--out-file", summary,
    ])
    assert code == 2
    assert "unrecognized arguments: --federation.rounds 3" in capsys.readouterr().err
    assert not summary.exists()


def test_analyze_cka_runs_one_round_whatever_the_dotted_rounds_says(tmp_path, capsys):
    out, _ = _command_output(tmp_path, capsys, "analyze-cka", "--federation.rounds", "7")
    assert json.loads((out / "manifest.json").read_text())["config"]["federation"]["rounds"] == 1


@pytest.mark.parametrize(
    "text",
    [
        b"[federation]\nrounds = 1\nrounds = 2\n",
        b"rounds = 1\n",
        b"[federation]\nstrategy = fed%avg\n",
        b"[federation]\nstrategy = fed\xffavg\n",
        # configparser copies [DEFAULT] keys into every other section
        b"[DEFAULT]\nrounds = 5\n",
        b"[DEFAULT]\nrounds = 5\n[federation]\nlocal_epochs = 2\n",
        b"[DEFAULT]\nrounds = 5\n[dataset]\nnum_classes = 4\n",
    ],
    ids=[
        "duplicate key", "no section header", "bare percent", "not utf-8",
        "default alone", "default beside federation", "default beside dataset",
    ],
)
def test_a_malformed_config_file_exits_2_naming_it(tmp_path, capsys, text):
    config_path = tmp_path / "exp.ini"
    config_path.write_bytes(text)
    out = tmp_path / "gen"
    assert run_cli(["generate", "--out", out, *TINY, "--config", config_path]) == 2
    assert str(config_path) in capsys.readouterr().err
    assert not out.exists()


def test_a_config_path_that_is_not_a_readable_file_exits_2_saying_why(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run_cli(["generate", "--out", out, *TINY, "--config", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"config file {tmp_path} cannot be read: Is a directory" in err
    assert "not found" not in err
    missing = tmp_path / "missing.ini"
    assert run_cli(["generate", "--out", out, *TINY, "--config", missing]) == 2
    assert f"config file not found: {missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "run"])
def test_an_out_path_that_is_a_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli([command, "--out", out, "--seed", 5, *TINY]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_short_flags_beat_dotted_flags_which_beat_the_config_file(tmp_path):
    config_path = tmp_path / "exp.ini"
    config_path.write_text("[federation]\nrounds = 1\nlocal_epochs = 2\n", encoding="utf-8")
    out = tmp_path / "layers"
    code = run_cli([
        "generate", "--out", out, *TINY, "--config", config_path,
        "--federation.rounds", "9", "--rounds", "4", "--federation.local_epochs", "3",
    ])
    assert code == 0
    fed = json.loads((out / "manifest.json").read_text())["config"]["federation"]
    assert (fed["rounds"], fed["local_epochs"]) == (4, 3)


SHARED_OPTIONS = [
    "-h", "--help", "--config", "--preset", "--seed", "--out", "--threads",
    "--strategy", "--p-ds", "--rho", "--rounds", "--alpha",
]


@pytest.mark.parametrize(
    "command, options",
    [
        ("generate", SHARED_OPTIONS),
        ("run", SHARED_OPTIONS),
        ("analyze-cka", SHARED_OPTIONS),
        ("entropy-hist", SHARED_OPTIONS),
        ("compare", ["-h", "--help", "--threshold", "--out-file"]),
    ],
    ids=["generate", "run", "analyze-cka", "entropy-hist", "compare"],
)
def test_help_lists_the_shared_options_and_no_dotted_key(capsys, command, options):
    assert exit_code([command, "--help"]) == 0
    listed = [
        word.rstrip(",")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  -")
        for word in line.split()
        if word.startswith("-")
    ]
    assert listed == options


def test_every_setting_reads_the_same_from_a_dotted_flag_and_an_ini_file(tmp_path):
    flags, lines = [], []
    for section, keys in cli._SETTINGS.items():
        lines.append(f"[{section}]")
        for key, (_, default) in keys.items():
            flags += [f"--{section}.{key}", default]
            lines.append(f"{key} = {default}")
    config_path = tmp_path / "all.ini"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    snapshots = []
    for name, extra in (("flags", flags), ("ini", ["--config", config_path])):
        out = tmp_path / name
        assert run_cli(["generate", "--out", out, *extra]) == 0
        snapshots.append(json.loads((out / "manifest.json").read_text())["config"])
    assert snapshots[0] == snapshots[1]


def test_unknown_config_key_is_rejected(tmp_path):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[federation]\nwarp_speed = 9\n", encoding="utf-8")
    code = run_cli(["run", "--out", tmp_path / "x", "--config", config_path, "--seed", 1])
    assert code == 2


@pytest.mark.parametrize("source", ["ini", "flag"])
def test_an_unknown_strategy_is_rejected_naming_the_five(tmp_path, capsys, source):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[federation]\nstrategy = fedsgd\n", encoding="utf-8")
    given = ["--config", config_path] if source == "ini" else ["--strategy", "fedsgd"]
    code = exit_code(["run", "--out", tmp_path / "x", "--seed", 1, *given])
    assert code == 2
    err = capsys.readouterr().err
    names = ("fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all")
    if source == "ini":
        assert f"unknown strategy 'fedsgd', expected one of {names}" in err
    else:
        assert "invalid choice: 'fedsgd'" in err and all(repr(n) in err for n in names)


def test_fedsim_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDSIM_LOG", "INFO")
    out = tmp_path / "log"
    generate(out)
    assert run_cli(["run", "--out", out, "--seed", 5, *TINY, "--rounds", "1"]) == 0


def test_unknown_fedsim_log_level_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FEDSIM_LOG", "VERBOSE")
    assert run_cli(["generate", "--out", tmp_path / "log", "--seed", 5, *TINY]) == 2
    assert "FEDSIM_LOG" in capsys.readouterr().err
    assert not (tmp_path / "log").exists()


def test_python_m_fedsim_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "fedsim", "--version"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"fedsim {fedsim.__version__}\n"


@pytest.mark.parametrize("size", [0, 2048, (1 << 20) + 5])
def test_sha256_digests_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


# --- the dotted-flag grammar against argparse --------------------------------

DOTTED = [f"{section}.{key}" for section, keys in cli._SETTINGS.items() for key in keys]


def oracle_parse(words):
    """`run`'s namespace as argparse gives it with every setting declared as a
    hidden `--section.key` option beside the shared flags."""
    parser = argparse.ArgumentParser(prog="fedsim run", parents=[cli._shared_flags()])
    for dotted in DOTTED:
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="VALUE", help=argparse.SUPPRESS)
    args = parser.parse_args(words)
    args.settings = {}
    for dotted in DOTTED:
        value = vars(args).pop(dotted)
        if value is not None:
            section, key = dotted.split(".")
            args.settings.setdefault(section, {})[key] = value
    return args


def outcome(parse, words):
    """(config snapshot, out, threads) of a command line, or its exit status."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(words)
            config = cli.build_config(args)
        except SystemExit as exc:
            return exc.code
        except ConfigError:
            return 2
    return config.snapshot(), args.out, args.threads


# every option string of the oracle, for telling unique prefixes apart
ORACLE_OPTIONS = [f"--{d}" for d in DOTTED] + SHARED_OPTIONS


def prefixes(dotted, matching):
    """The proper prefixes of `dotted` that start `matching` oracle options."""
    return [
        dotted[:n]
        for n in range(1, len(dotted))
        if matching(sum(option.startswith(f"--{dotted[:n]}") for option in ORACLE_OPTIONS))
    ]


UNIQUE_PREFIXES = {dotted: prefixes(dotted, lambda count: count == 1) for dotted in DOTTED}
# prefixes no shared flag starts: `--a` could be `--alpha` as well as `--analysis.*`
AMBIGUOUS_PREFIXES = sorted({
    prefix
    for dotted in DOTTED
    for prefix in prefixes(dotted, lambda count: count > 1)
    if not any(flag.startswith(f"--{prefix}") for flag in SHARED_OPTIONS)
})
INT_KEYS = [
    f"{section}.{key}"
    for section, keys in cli._SETTINGS.items()
    for key, (parse, _) in keys.items()
    if parse is int
]
TEXTS = {
    int: st.integers(-3, 40).map(str),
    cli._parse_float: st.sampled_from(["0.5", "0.25", "1", "-0.5", "-.5", "-1e-3", "nan"]),
    cli._parse_bool: st.sampled_from(["true", "off", "maybe"]),
    cli._parse_int_tuple: st.sampled_from(["8,8", "16", "-4"]),
    cli._parse_float_tuple: st.sampled_from(["1.0,0.5", "0.1", "-1"]),
    str: st.sampled_from(["fedavg", "fedprox", "other.feds", "-"]),
}


@st.composite
def dotted_flag(draw):
    """One setting as `--key VALUE` or `--key=VALUE`, by its name or a unique prefix."""
    dotted = draw(st.sampled_from(DOTTED))
    name = draw(st.sampled_from([dotted, *UNIQUE_PREFIXES[dotted]]))
    section, key = dotted.split(".")
    parse, default = cli._SETTINGS[section][key]
    value = draw(st.one_of(st.just(default), TEXTS[parse]))
    return draw(st.sampled_from([[f"--{name}", value], [f"--{name}={value}"]]))


OTHER_WORDS = st.sampled_from([
    ["--rounds", "3"], ["--seed", "9"], ["--strategy", "fedprox"], ["--p-ds", "0.25"],
    ["--alpha", "0.5"], ["--threads", "2"], ["--preset", "desk-default"],
    ["--federation.warp_speed", "9"], ["--nosuch.key=1"], ["--federation", "1"],
    ["stray"], ["7"],
])


@st.composite
def negative_int_flag(draw):
    """An integer setting given a negative value; only the master seed takes one."""
    dotted = draw(st.one_of(st.just("federation.master_seed"), st.sampled_from(INT_KEYS)))
    name = draw(st.sampled_from([dotted, *UNIQUE_PREFIXES[dotted]]))
    return [f"--{name}", str(draw(st.integers(-99, -1)))]


AMBIGUOUS_FLAG = st.tuples(st.sampled_from(AMBIGUOUS_PREFIXES), st.sampled_from(["3", "0.5"])).map(
    lambda pair: [f"--{pair[0]}", pair[1]]
)


@st.composite
def run_lines(draw):
    """A `run` command line of dotted flags, shared flags, unknown keys and stray
    words, where a dotted flag may lack its value, at the end or before a flag."""
    piece = st.one_of(dotted_flag(), dotted_flag(), negative_int_flag(), AMBIGUOUS_FLAG, OTHER_WORDS)
    pieces = draw(st.lists(piece, max_size=7))
    if pieces and draw(st.booleans()):
        index = draw(st.integers(0, len(pieces) - 1))
        pieces[index] = [f"--{draw(st.sampled_from(DOTTED))}"]
    return [word for piece in pieces for word in piece]


@pytest.mark.parametrize(
    "words",
    [
        ["--federation.strategy", "--seed", "3", "fedavg"],
        ["--federation.r", "3"],
        ["--federation.rounds"],
        ["--federation.rounds", "-x"],
        ["--federation.rounds", "3", "stray"],
    ],
    ids=["value not next to its flag", "ambiguous prefix", "no value", "flag for value", "stray"],
)
def test_malformed_dotted_flags_exit_2(tmp_path, words):
    assert exit_code(["generate", "--out", tmp_path, *TINY, *words]) == 2
    assert not (tmp_path / "manifest.json").exists()


def test_dotted_flags_go_after_the_command(tmp_path):
    assert exit_code(["--federation.rounds=3", "generate", "--out", tmp_path, *TINY]) == 2
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "words, seed",
    [
        (["--federation.master_seed", "-3"], -3),
        (["--federation.master=-4"], -4),
        (["--federation.master_seed=1", "--federation.master_seed", "2"], 2),
    ],
    ids=["negative number", "prefix and equals", "later wins"],
)
def test_dotted_flag_forms(tmp_path, words, seed):
    assert exit_code(["generate", "--out", tmp_path, *TINY, *words]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["master_seed"] == seed


@settings(max_examples=400)
@given(run_lines())
def test_dotted_flags_parse_as_argparse_options_would(words):
    expected = outcome(oracle_parse, words)
    assert outcome(lambda w: cli.parse_args(["run", *w]), words) == expected
