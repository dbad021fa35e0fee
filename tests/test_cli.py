"""End-to-end CLI behaviour: generate, run, compare, analyses, manifests."""

import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import cli, data, nn
from fedsim import rng as streams
from fedsim.errors import NumericError
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
    # rejected while building the config: the output directory, made before
    # the dataset files are looked for, does not exist either
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


@pytest.mark.parametrize("rhos", ["1.0,1", "0.1,0.1000001"])
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

    def diverging_run(config, start, train, partitions, test, threads, selection_hook, **hooks):
        for part in partitions[:2]:
            selection_hook(1, part.client_id, SelectionResult(part.sample_indices[:1], None))
        assert temporary.exists()  # opened before the rounds, written as they run
        raise NumericError("round 1, client 1: non-finite parameters")

    monkeypatch.setattr(cli, "run_federation", diverging_run)
    code = run_cli(["run", "--out", out, "--seed", 5, *TINY, "--analysis.selection_dump", "true"])
    assert code == 2
    assert "non-finite parameters" in capsys.readouterr().err
    assert not (out / "selection_dump.csv").exists()
    assert not temporary.exists()


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


def test_unknown_config_key_is_rejected(tmp_path):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[federation]\nwarp_speed = 9\n", encoding="utf-8")
    code = run_cli(["run", "--out", tmp_path / "x", "--config", config_path, "--seed", 1])
    assert code == 2


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
