"""Experiment driver.

Commands: generate, run, compare, analyze-cka, entropy-hist. Experiment
settings come from layered sources, later ones winning: built-in defaults,
a named --preset, an INI --config file, dotted per-key flags
(--federation.rounds 50), and finally the short convenience flags
(--seed, --strategy, --p-ds, --rho, --rounds, --alpha).

Every command writes a manifest.json listing emitted files with sha256
digests; `compare` refuses to line up runs whose input datasets differ.
Set FEDSIM_LOG=INFO (or DEBUG) for progress output.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from copy import deepcopy
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, analysis, nn
from . import rng as streams
from .data import (
    ClientPartition,
    Dataset,
    PartitionSpec,
    concat_datasets,
    dirichlet_partition,
    generate_synthetic,
    load_dataset,
    open_csv,
    save_dataset,
    stratified_split,
    write_csv,
)
from .errors import ConfigError, FedsimError
from .federation import (
    STRATEGIES,
    FederationConfig,
    initial_model,
    participant_count,
    read_reports_csv,
    run_federation,
    write_reports_csv,
)
from .rng import derive_seed

log = logging.getLogger("fedsim.cli")

# --- configuration schema -------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",") if p.strip())


# section -> key -> (parser, desk default). The desk size is 10-class blobs,
# 20 clients and strongly non-IID data. The pretraining source is the larger
# share of the pool broadened with off-domain blobs, so the frozen features
# transfer while the head still has real work left during the federated
# rounds.
_SETTINGS = {
    "dataset": {
        "num_classes": (int, "10"),
        "samples_per_class": (int, "250"),
        "feature_dim": (int, "32"),
        "class_separation": (_parse_float, "2.3"),
        "source_fraction": (_parse_float, "0.6"),
        "source_offdomain_per_class": (int, "150"),
        "test_fraction": (_parse_float, "0.2"),
        "source_path": (str, "source.feds"),
        "target_path": (str, "target.feds"),
    },
    "partition": {
        "alpha": (_parse_float, "0.1"),
    },
    "federation": {
        "strategy": (str, "fedft_eds"),
        "rounds": (int, "30"),
        "local_epochs": (int, "5"),
        "num_clients": (int, "20"),
        "participation_fraction": (_parse_float, "1.0"),
        "p_ds": (_parse_float, "0.5"),
        "rho": (_parse_float, "0.1"),
        "learning_rate": (_parse_float, "0.1"),
        "momentum": (_parse_float, "0.5"),
        "prox_mu": (_parse_float, "0.01"),
        "batch_size": (int, "32"),
        "pretrain_epochs": (int, "13"),
        "split_index": (int, "2"),
        "hidden_sizes": (_parse_int_tuple, "64,64"),
        "master_seed": (int, "42"),
    },
    "analysis": {
        "cka": (_parse_bool, "false"),
        "entropy_histogram": (_parse_bool, "false"),
        "selection_dump": (_parse_bool, "false"),
        "histogram_bins": (int, "20"),
        "histogram_rhos": (_parse_float_tuple, "1.0,0.5,0.1"),
    },
}


def _overlay(base: dict, extra: dict) -> dict:
    for section, keys in extra.items():
        base.setdefault(section, {}).update(keys)
    return base


_DESK_DEFAULT = {
    section: {key: default for key, (_, default) in keys.items()}
    for section, keys in _SETTINGS.items()
}
PRESETS = {"desk-default": _DESK_DEFAULT}


class ExperimentConfig:
    """Typed view over the layered raw (string) configuration."""

    def __init__(self, raw: dict):
        typed: dict[str, dict] = {}
        for section, keys in raw.items():
            if section not in _SETTINGS:
                raise ConfigError(f"unknown config section [{section}]")
            typed[section] = {}
            for key, text in keys.items():
                if key not in _SETTINGS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                parser, _ = _SETTINGS[section][key]
                try:
                    typed[section][key] = parser(text)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
        self.dataset = typed["dataset"]
        self.alpha = typed["partition"]["alpha"]
        self.analysis = typed["analysis"]
        self.federation = FederationConfig(**typed["federation"])

    def validate(self) -> None:
        self.federation.validate()
        ds = self.dataset
        if ds["num_classes"] < 1 or ds["samples_per_class"] < 1 or ds["feature_dim"] < 1:
            raise ConfigError("synthetic dataset counts must be >= 1")
        if not ds["class_separation"] >= 0.0:
            raise ConfigError("dataset.class_separation must be >= 0")
        if not 0.0 < ds["source_fraction"] < 1.0:
            raise ConfigError("dataset.source_fraction must be in (0, 1)")
        if ds["source_offdomain_per_class"] < 0:
            raise ConfigError("dataset.source_offdomain_per_class must be >= 0")
        if not 0.0 < ds["test_fraction"] < 1.0:
            raise ConfigError("dataset.test_fraction must be in (0, 1)")
        # the files are written side by side and keyed by name in manifests
        if Path(ds["source_path"]).name == Path(ds["target_path"]).name:
            raise ConfigError(
                "dataset.source_path and dataset.target_path must have different "
                f"file names, both are {Path(ds['source_path']).name!r}"
            )
        if not self.alpha > 0.0:
            raise ConfigError(f"partition.alpha must be > 0, got {self.alpha}")
        if self.analysis["cka"]:
            _require_cka_pair(self.federation)
        if self.analysis["histogram_bins"] < 2:
            raise ConfigError("analysis.histogram_bins must be >= 2")
        rhos = self.analysis["histogram_rhos"]
        if not rhos or not all(r > 0.0 for r in rhos):
            raise ConfigError("analysis.histogram_rhos must be one or more positive temperatures")
        names = [_histogram_file_name(r) for r in rhos]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"analysis.histogram_rhos {list(rhos)} give the same file name twice "
                f"({', '.join(names)}); each temperature needs its own"
            )

    def snapshot(self) -> dict:
        """JSON-serializable view of the typed configuration."""
        out = {
            "dataset": dict(self.dataset),
            "partition": {"alpha": self.alpha},
            "federation": self.federation.as_dict(),
            "analysis": {
                key: (list(value) if isinstance(value, tuple) else value)
                for key, value in self.analysis.items()
            },
        }
        return out


def _require_cka_pair(federation: FederationConfig) -> None:
    """ConfigError unless round 1 yields at least two client models for CKA."""
    n = federation.num_clients
    count = participant_count(n, federation.participation_fraction)
    if federation.rounds < 1 or count < 2:
        raise ConfigError(
            f"CKA needs 2 or more round-1 client models, but {federation.rounds} round(s) "
            f"with {count} of {n} client(s) taking part give fewer"
        )


def _read_ini(path: Path) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.defaults():
            # configparser would copy these keys into every other section
            raise ConfigError(
                f"config file {path} has keys in [DEFAULT]; put each under "
                "its own section"
            )
        # values are interpolated as they are read out, so items() can fail too
        return {section: dict(parser.items(section)) for section in parser.sections()}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not a valid INI file: {exc}") from exc


_CONVENIENCE = {
    "seed": ("federation", "master_seed"),
    "strategy": ("federation", "strategy"),
    "p_ds": ("federation", "p_ds"),
    "rho": ("federation", "rho"),
    "rounds": ("federation", "rounds"),
    "alpha": ("partition", "alpha"),
}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "threads", 1) < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    raw = deepcopy(_DESK_DEFAULT)
    if getattr(args, "preset", None):
        _overlay(raw, deepcopy(PRESETS[args.preset]))
    if getattr(args, "config", None):
        _overlay(raw, _read_ini(args.config))
    _overlay(raw, args.settings)
    for flag, (section, key) in _CONVENIENCE.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw[section][key] = str(value)
    config = ExperimentConfig(raw)
    config.validate()
    return config


# --- manifest / hashing ---------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    out_dir: Path,
    command: str,
    config: ExperimentConfig,
    inputs: dict[str, Path],
    outputs: dict[str, Path],
    started: str,
) -> Path:
    manifest = {
        "tool": "fedsim",
        "version": __version__,
        "command": command,
        "master_seed": config.federation.master_seed,
        "config": config.snapshot(),
        "started_utc": started,
        "finished_utc": _utc_now(),
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "outputs": {name: _sha256(path) for name, path in sorted(outputs.items())},
    }
    path = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _dataset_paths(config: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    """The source then the target dataset file, keyed by file name.

    Relative paths are taken inside out_dir. The names differ (validated).
    """
    paths = [Path(config.dataset[key]) for key in ("source_path", "target_path")]
    return {p.name: (p if p.is_absolute() else out_dir / p) for p in paths}


# --- dataset plumbing -----------------------------------------------------


def _build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Synthesize the (source, target) pair for a run.

    One pool provides the target and the in-domain share of the pretraining
    source (disjoint samples, same class geometry); the source is then
    broadened with blobs drawn at unrelated class positions, standing in for
    a pretraining corpus that covers more than the downstream task.
    """
    ds = config.dataset
    master = config.federation.master_seed
    pool = generate_synthetic(
        num_classes=ds["num_classes"],
        samples_per_class=ds["samples_per_class"],
        feature_dim=ds["feature_dim"],
        class_separation=ds["class_separation"],
        seed=derive_seed(master, streams.DATASET, 0),
    )
    split_seed = derive_seed(master, streams.SPLIT, 0)
    target, source = stratified_split(pool, ds["source_fraction"], split_seed)
    if ds["source_offdomain_per_class"] > 0:
        offdomain = generate_synthetic(
            num_classes=ds["num_classes"],
            samples_per_class=ds["source_offdomain_per_class"],
            feature_dim=ds["feature_dim"],
            class_separation=ds["class_separation"],
            seed=derive_seed(master, streams.DATASET, 1),
        )
        source = concat_datasets([source, offdomain])
    source.name = f"{pool.name}/source"
    target.name = f"{pool.name}/target"
    return source, target


def _prepare_run(config: ExperimentConfig, source: Dataset, target: Dataset):
    """(start model, training pool, test split) of a run.

    The held-out test split comes off the target, and `initial_model` builds
    the start model and pretrains it on the source.
    """
    master = config.federation.master_seed
    train, test = stratified_split(
        target, config.dataset["test_fraction"], derive_seed(master, streams.SPLIT, 1)
    )
    return initial_model(config.federation, source, train), train, test


def _partition(config: ExperimentConfig, train: Dataset):
    """The clients' shares of the training pool, for the commands that train."""
    spec = PartitionSpec(
        num_clients=config.federation.num_clients,
        alpha=config.alpha,
        seed=derive_seed(config.federation.master_seed, streams.PARTITION),
    )
    return dirichlet_partition(train, spec)


def _open_run(config: ExperimentConfig, out: Path):
    """Set up `run`, `analyze-cka` or `entropy-hist` on the dataset files that
    `generate` wrote: (start time, output directory, source, `_prepare_run`
    result). A file whose class count or feature width differs from the
    config's is a ConfigError, so a manifest never records other values than
    the run trained on.

    The command holds the source to its end, as it did when the round loop
    took it. Freed mid-run, it leaves a heap on which later in-process
    `generate` runs page-fault: perfbench's desk-eds `setup_s` read 17–34%
    slower.
    """
    started = _utc_now()
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = list(_dataset_paths(config, out_dir).values())
    for path in paths:
        if not path.exists():
            raise ConfigError(
                f"dataset file {path} does not exist (run `fedsim generate` first)"
            )
    source, target = (load_dataset(path) for path in paths)
    for path, dataset in zip(paths, (source, target)):
        for name in ("num_classes", "feature_dim"):
            if getattr(dataset, name) != config.dataset[name]:
                raise ConfigError(
                    f"dataset file {path} has {name} {getattr(dataset, name)}, "
                    f"but dataset.{name} is {config.dataset[name]}"
                )
    return started, out_dir, source, _prepare_run(config, source, target)


def _round_one_capture(start: nn.Model):
    """An upload hook and the list of (client id, model) it fills: each
    round-1 client's model, a copy of the global model `start` with the
    client's upload as its head, built as the hook fires."""
    captured: list[tuple[int, nn.Model]] = []

    def hook(round_no: int, client_id: int, theta: np.ndarray) -> None:
        if round_no == 1:
            model = start.copy()
            np.copyto(model.theta, theta)
            captured.append((client_id, model))

    return captured, hook


@contextmanager
def _staged(out_dir: Path, outputs: dict[str, Path]):
    """Yield `stage(name)`, the temporary path that output `name` is written
    to, next to its final path in `out_dir`; `outputs` gets the final path.

    When the block exits normally every staged file is renamed into place;
    when it raises, every one is deleted, so a failed command leaves the
    directory as it found it.
    """
    staged: dict[Path, Path] = {}

    def stage(name: str) -> Path:
        outputs[name] = out_dir / name
        staged[outputs[name]] = out_dir / f"{name}.tmp"
        return staged[outputs[name]]

    try:
        yield stage
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        raise
    for path, tmp in staged.items():
        os.replace(tmp, path)


@contextmanager
def _selection_dump(path: Path, partitions: list[ClientPartition], pool_size: int):
    """Yield a selection hook that writes each client's dump rows to `path`
    as it fires.

    One row per sample of the client's partition, in the partition's order:
    round, client id, sample index, entropy (empty without entropy scores)
    and 1 if the sample was selected, else 0.
    """
    selected = np.zeros(pool_size, dtype=np.uint8)  # reused 0/1 flags over the pool
    header = ["round", "client_id", "sample_index", "entropy", "selected"]
    with open_csv(path, header) as writer:

        def hook(round_no: int, client_id: int, result) -> None:
            indices = partitions[client_id].sample_indices
            selected[result.selected_indices] = 1
            flags = selected[indices].tolist()
            selected[result.selected_indices] = 0
            if result.entropies is None:
                entropies = repeat("")
            else:
                entropies = map(repr, result.entropies.tolist())  # the strings _fmt gives
            writer.writerows(
                zip(repeat(round_no), repeat(client_id), indices.tolist(), entropies, flags)
            )

        yield hook


def _fmt(value: float) -> str:
    return repr(float(value))


# --- commands ---------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    config = build_config(args)
    started = _utc_now()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    source, target = _build_datasets(config)
    outputs = _dataset_paths(config, out_dir)
    source_path, target_path = outputs.values()
    save_dataset(source, source_path)
    save_dataset(target, target_path)
    write_manifest(out_dir, "generate", config, {}, outputs, started)
    print(f"wrote {source_path} ({len(source)} samples) and {target_path} ({len(target)} samples)")
    return 0


# The analysis commands are views of `run`: each writes its one analysis,
# whatever the analysis toggles say, and prints its lines in place of the
# run's reports, checkpoint and summary. `analyze-cka` runs the first round
# only, and `entropy-hist` takes the pretrained model, so it runs no round
# and partitions nothing.
_VIEWS = {"analyze-cka": "cka", "entropy-hist": "entropy_histogram"}


def cmd_run(args: argparse.Namespace) -> int:
    view = _VIEWS.get(args.command)
    if view == "cka":
        args.rounds = 1  # convenience flags are the last config layer: one round, always
    config = build_config(args)
    toggles = ("cka", "entropy_histogram", "selection_dump")
    analyses = {view} if view else {key for key in toggles if config.analysis[key]}
    trains = view != "entropy_histogram"
    if "cka" in analyses:  # validate checks it only when the toggle is on
        _require_cka_pair(config.federation)
    started, out_dir, _source, (start, train, test) = _open_run(config, args.out)
    captured, capture = _round_one_capture(start)
    outputs: dict[str, Path] = {}
    lines: list[str] = []
    # every output is renamed into place only once all of them are written
    with _staged(out_dir, outputs) as stage:
        if trains:
            partitions = _partition(config, train)
            dump = nullcontext()
            if "selection_dump" in analyses:
                dump = _selection_dump(stage("selection_dump.csv"), partitions, len(train))
            with dump as selection_hook:
                reports = run_federation(
                    config.federation,
                    start,
                    train,
                    partitions,
                    test,
                    threads=args.threads,
                    upload_hook=capture if "cka" in analyses else None,
                    selection_hook=selection_hook,
                )

        if not view:
            write_reports_csv(reports, config.federation.strategy, stage("reports.csv"))
            nn.save_model(start, stage("model.ckpt"))

        if "cka" in analyses:
            # one cka_<level>.csv per level over the round-1 models in client-id order
            captured.sort(key=lambda item: item[0])
            models = [m for _, m in captured]
            for level in analysis.LAYER_LEVELS:
                matrix = analysis.pairwise_cka(models, test, level)
                write_csv(
                    stage(f"cka_{level}.csv"),
                    [str(cid) for cid, _ in captured],
                    ([_fmt(v) for v in row] for row in matrix),
                )
                mean = analysis.mean_offdiagonal(matrix)
                lines.append(f"{level}: mean off-diagonal CKA {mean:.4f}")

        if "entropy_histogram" in analyses:
            # one entropy_hist_rho<rho>.csv per temperature of start's predictions on train
            rhos = config.analysis["histogram_rhos"]
            bins = config.analysis["histogram_bins"]
            edges = analysis.histogram_edges(train.num_classes, bins)
            for rho, counts in zip(rhos, analysis.entropy_histogram(start, train, rhos, bins)):
                write_csv(
                    stage(_histogram_file_name(rho)),
                    ["bin_low", "bin_high", "count"],
                    ([_fmt(edges[i]), _fmt(edges[i + 1]), int(n)] for i, n in enumerate(counts)),
                )
                low_half, total = int(counts[: len(counts) // 2].sum()), int(counts.sum())
                lines.append(f"rho={rho:g}: {low_half}/{total} samples in the lower half")

    write_manifest(
        out_dir, args.command, config, _dataset_paths(config, out_dir), outputs, started
    )
    if not view:
        best = max((r.test_accuracy for r in reports), default=float("nan"))
        lines = [
            f"{config.federation.strategy}: {len(reports)} rounds, "
            f"best test accuracy {best:.4f}, outputs in {out_dir}"
        ]
    for line in lines:
        print(line)
    return 0


def _histogram_file_name(rho: float) -> str:
    return f"entropy_hist_rho{rho:g}.csv"


def _load_run_summary(run_dir: Path, threshold: float) -> dict:
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{run_dir} has no manifest.json (not a completed run?)")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{manifest_path} is not valid JSON: {exc}") from exc
    try:
        command = manifest["command"]
        fed = manifest["config"]["federation"]
        strategy = fed["strategy"]
        p_ds, f_n = float(fed["p_ds"]), float(fed["participation_fraction"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest_path} lacks a run's federation settings: {exc!r}") from exc
    if command != "run":
        raise ConfigError(f"{run_dir} holds the output of `fedsim {command}`, not of a run")
    reports = read_reports_csv(run_dir / "reports.csv")
    best_acc = max((r.test_accuracy for r in reports), default=float("nan"))
    efficiency = analysis.learning_efficiency(reports) if reports else float("nan")
    rounds_to_threshold = None
    for r in reports:
        if r.test_accuracy >= threshold:
            rounds_to_threshold = r.round
            break
    return {
        "run": run_dir.name,
        "strategy": strategy,
        "p_ds": p_ds,
        "f_n": f_n,
        "best_acc": best_acc,
        "learning_efficiency": efficiency,
        "rounds_to_threshold": rounds_to_threshold,
        "inputs": manifest.get("inputs", {}),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    summaries = [_load_run_summary(Path(d), args.threshold) for d in args.run_dirs]
    reference = summaries[0]["inputs"]
    for summary in summaries[1:]:
        if summary["inputs"] != reference:
            raise ConfigError(
                f"run {summary['run']} used different input datasets than "
                f"{summaries[0]['run']}; refusing to compare"
            )
    header = ["run", "strategy", "p_ds", "f_n", "best_acc", "learning_efficiency", "rounds_to_threshold"]
    rows = []
    for s in summaries:
        rows.append(
            [
                s["run"],
                s["strategy"],
                f"{s['p_ds']:g}",
                f"{s['f_n']:g}",
                f"{s['best_acc']:.4f}",
                "nan" if math.isnan(s["learning_efficiency"]) else f"{s['learning_efficiency']:.4f}",
                "" if s["rounds_to_threshold"] is None else str(s["rounds_to_threshold"]),
            ]
        )
    widths = [max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        display = [cell if cell else "-" for cell in row]
        print("  ".join(display[i].ljust(widths[i]) for i in range(len(display))))
    if args.out_file:
        write_csv(args.out_file, header, rows)
    return 0


# --- argument parsing -------------------------------------------------------


def _shared_flags() -> argparse.ArgumentParser:
    """The flags of the four config commands, as their one parent parser."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, default=None, help="INI config file")
    shared.add_argument(
        "--preset", choices=sorted(PRESETS), default=None, help="named base configuration"
    )
    shared.add_argument("--seed", type=int, default=None, help="master seed")
    shared.add_argument("--out", type=Path, default=Path("fedsim-out"), help="output directory")
    shared.add_argument("--threads", type=int, default=1, help="parallel client workers")
    shared.add_argument("--strategy", choices=STRATEGIES, default=None)
    shared.add_argument("--p-ds", dest="p_ds", type=float, default=None)
    shared.add_argument("--rho", type=float, default=None)
    shared.add_argument("--rounds", type=int, default=None)
    shared.add_argument("--alpha", type=float, default=None)
    return shared


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. The dotted settings flags are not among its
    options: `parse_args` resolves them from what it leaves over."""
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Desk-scale federated fine-tuning simulator with entropy-based data selection.",
    )
    parser.add_argument("--version", action="version", version=f"fedsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_flags()]

    def config_command(name: str, help_text: str, func) -> None:
        command = sub.add_parser(name, help=help_text, parents=shared)
        command.set_defaults(func=func, command_parser=command)

    config_command("generate", "write the source/target dataset files", cmd_generate)
    config_command("run", "run a federation experiment", cmd_run)

    p_compare = sub.add_parser("compare", help="summarize completed runs side by side")
    p_compare.add_argument("run_dirs", nargs="+", help="run output directories")
    p_compare.add_argument(
        "--threshold", type=_parse_float, default=0.5, help="accuracy for rounds-to-threshold"
    )
    p_compare.add_argument("--out-file", type=Path, default=None, help="also write CSV here")
    p_compare.set_defaults(func=cmd_compare)

    config_command("analyze-cka", "one round, pairwise client-model CKA", cmd_run)
    config_command("entropy-hist", "entropy histograms of the pretrained model", cmd_run)
    return parser


class _Word(str):
    """A command-line word that knows its position, so that a dotted flag's
    value can be told from a stray word that argparse left next to it."""

    def __new__(cls, text: str, position: int):
        word = super().__new__(cls, text)
        word.position = position
        return word


_DOTTED_KEYS = [f"{section}.{key}" for section, keys in _SETTINGS.items() for key in keys]
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's own test


def _dotted_keys(word: str) -> list[str]:
    """The settings keys that `word`, as `--section.key[=VALUE]`, names by
    exact name or prefix: more than one for an ambiguous prefix."""
    name = word.partition("=")[0]
    if not name.startswith("--") or name == "--":
        return []
    prefix = name[2:]
    if prefix in _DOTTED_KEYS:
        return [prefix]
    return [key for key in _DOTTED_KEYS if key.startswith(prefix)]


def _is_value(word: str) -> bool:
    """Whether argparse takes `word` as the argument of the option before it."""
    if not word.startswith("-") or word == "-":
        return True
    return not _dotted_keys(word) and (_NEGATIVE_NUMBER.match(word) is not None or " " in word)


def _resolve_settings(
    parser: argparse.ArgumentParser, command: argparse.ArgumentParser, words: list[_Word]
) -> dict[str, dict[str, str]]:
    """The `--section.key VALUE` settings among the words argparse left over
    after a config command, as section -> key -> text.

    The grammar is argparse's for an option taking one argument:
    `--section.key VALUE` or `--section.key=VALUE`, where any unique prefix
    of `section.key` will do and VALUE starts with "-" only if it looks like
    a negative number. The later of two flags for one key wins. An ambiguous
    prefix or a missing value is an error of the command; any other word is
    an unrecognized argument.
    """
    settings: dict[str, dict[str, str]] = {}
    stray = []
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        keys = _dotted_keys(word)
        if not keys:
            stray.append(word)
            continue
        if len(keys) > 1:
            options = ", ".join(f"--{key}" for key in keys)
            command.error(f"ambiguous option: {word} could match {options}")
        _, equals, value = word.partition("=")
        if not equals:
            # a word argparse took for itself in between is not the value
            if i == len(words) or words[i].position != word.position + 1 or not _is_value(words[i]):
                command.error(f"argument --{keys[0]}: expected one argument")
            value = words[i]
            i += 1
        section, key = keys[0].split(".")
        settings.setdefault(section, {})[key] = str(value)
    if stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    return settings


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line. A config command's dotted settings go to
    `args.settings`; argparse's errors exit with status 2."""
    parser = build_parser()
    words = sys.argv[1:] if argv is None else argv
    args, rest = parser.parse_known_args([_Word(w, i) for i, w in enumerate(words)])
    command = getattr(args, "command_parser", None)
    # leftovers come in command-line order; any before the command are the
    # top level's, which takes no settings
    if rest and (command is None or rest[0].position < args.command.position):
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if command is not None:
        args.settings = _resolve_settings(parser, command, rest)
    return args


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FEDSIM_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(
            f"error: FEDSIM_LOG={level!r} is not a logging level "
            "(use DEBUG, INFO, WARNING, ERROR or CRITICAL)",
            file=sys.stderr,
        )
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = parse_args(argv)
    try:
        return args.func(args)
    except (FedsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
