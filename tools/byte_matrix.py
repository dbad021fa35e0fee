"""Check that two checkouts of fedsim write byte-identical outputs.

    python3 tools/byte_matrix.py PARENT CHANGE [--work DIR]

PARENT and CHANGE are fedsim checkouts (each with its own `src/`). For each
of them the same command matrix runs at the desk preset, seeds 7 and
424242, with `python -m fedsim` on that checkout's sources:

- `generate`;
- `run` with CKA, the entropy histograms and the selection dump, for all
  five strategies, at `--threads` 1 and 3;
- a plain `run`, with no analysis and so no hook, for `fedft_eds` and
  `fedprox` at `--threads` 3;
- `run` with all analyses at `--threads` 1 where a strategy's selector
  falls back to keeping everything or its FedProx pull is off:
  `fedft_eds --p-ds 1.0`, `fedft_rds --p-ds 1.0` and
  `fedprox --federation.prox_mu 0`;
- `run` with all analyses at `--threads` 1 for `fedft_eds` at
  `--federation.split_index 4`, a head of one dense layer (the preset's
  split is 2, and `fedavg` and `fedprox` train the whole model), and at
  `--federation.split_index 0`, a head strategy that trains the whole model;
- `run` with all analyses at `--threads` 8 and
  `--federation.participation_fraction 0.1`, 2 of the 20 clients per round,
  so fewer participants than threads;
- `analyze-cka` and `entropy-hist` at both thread counts, and again at
  `--threads` 1 with every analysis toggle on, which only `run` reads;
- `compare` over the ten runs of the seed;
- a second `generate` at `--dataset.source_fraction 0.3`, and on it `run`
  with all analyses at `--threads` 1 for `fedprox` and `fedft_eds` at
  `--dataset.test_fraction 0.6`: a test split of 1,050 rows and a training
  pool of 700, so that inference runs in blocks (`nn.BLOCK_ROWS`).

Every command runs in the same relative directory of its side's work
directory, so paths printed or recorded are alike. Every file written and
every command's stdout is then compared byte for byte; `manifest.json`
files are compared as JSON without `started_utc` and `finished_utc`. The
exit status is 1 if anything differs or a command fails, 0 otherwise. The
matrix runs 58 commands per side and takes a few minutes; it is not part
of the pytest suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 424242)
STRATEGIES = ("fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all")
PLAIN_STRATEGIES = ("fedft_eds", "fedprox")
# (name, flags): the runs at p_ds 1, where every selector keeps everything,
# and FedProx with no pull
FALLBACKS = (
    ("fedft_eds_p1", ["--strategy", "fedft_eds", "--p-ds", "1.0"]),
    ("fedft_rds_p1", ["--strategy", "fedft_rds", "--p-ds", "1.0"]),
    ("fedprox_mu0", ["--strategy", "fedprox", "--federation.prox_mu", "0"]),
)
# fedft_eds with only the classifier in the head, and with the whole model
SPLITS = tuple(
    (f"fedft_eds_split{split}", ["--strategy", "fedft_eds", "--federation.split_index", split])
    for split in ("4", "0")
)
THREADS = (1, 3)
PRESET = ["--preset", "desk-default"]
# runs read the datasets that the seed's `generate` wrote, one level up
DATASETS = ["--dataset.source_path", "../gen/source.feds",
            "--dataset.target_path", "../gen/target.feds"]
ANALYSES = ["--analysis.cka", "true", "--analysis.entropy_histogram", "true",
            "--analysis.selection_dump", "true"]
TIMESTAMPS = ("started_utc", "finished_utc")
# 1,750 target samples, of which 1,050 are held out for the test split
BLOCKS = ["--dataset.source_fraction", "0.3", "--dataset.test_fraction", "0.6"]
BLOCKS_DATASETS = ["--dataset.source_path", "../blocks_gen/source.feds",
                   "--dataset.target_path", "../blocks_gen/target.feds"]


def matrix() -> list[tuple[str, list[str]]]:
    """(stdout file, fedsim arguments) of every command, in run order."""
    commands = []
    for seed in SEEDS:
        at = f"s{seed}"
        seeded = [*PRESET, "--seed", str(seed)]
        commands.append((f"{at}/gen.stdout", ["generate", *seeded, "--out", f"{at}/gen"]))
        runs = []
        for strategy in STRATEGIES:
            for threads in THREADS:
                out = f"{at}/run_{strategy}_t{threads}"
                runs.append(out)
                commands.append((f"{out}.stdout", [
                    "run", *seeded, "--strategy", strategy, "--threads", str(threads),
                    "--out", out, *DATASETS, *ANALYSES,
                ]))
        for strategy in PLAIN_STRATEGIES:
            out = f"{at}/plain_{strategy}_t3"
            commands.append((f"{out}.stdout", [
                "run", *seeded, "--strategy", strategy, "--threads", "3", "--out", out, *DATASETS,
            ]))
        for name, flags in FALLBACKS:
            out = f"{at}/fallback_{name}"
            commands.append((f"{out}.stdout", [
                "run", *seeded, *flags, "--out", out, *DATASETS, *ANALYSES,
            ]))
        for name, flags in SPLITS:
            out = f"{at}/{name}"
            commands.append((f"{out}.stdout", [
                "run", *seeded, *flags, "--threads", "1", "--out", out, *DATASETS, *ANALYSES,
            ]))
        out = f"{at}/few_participants_t8"
        commands.append((f"{out}.stdout", [
            "run", *seeded, "--threads", "8", "--federation.participation_fraction", "0.1",
            "--out", out, *DATASETS, *ANALYSES,
        ]))
        for command in ("analyze-cka", "entropy-hist"):
            for threads in THREADS:
                out = f"{at}/{command}_t{threads}"
                commands.append((f"{out}.stdout", [
                    command, *seeded, "--threads", str(threads), "--out", out, *DATASETS,
                ]))
            out = f"{at}/{command}_toggled"
            commands.append((f"{out}.stdout", [
                command, *seeded, "--threads", "1", "--out", out, *DATASETS, *ANALYSES,
            ]))
        commands.append((f"{at}/compare.stdout",
                         ["compare", *runs, "--out-file", f"{at}/compare.csv"]))
        commands.append((f"{at}/blocks_gen.stdout",
                         ["generate", *seeded, *BLOCKS, "--out", f"{at}/blocks_gen"]))
        for strategy in PLAIN_STRATEGIES:
            out = f"{at}/blocks_{strategy}"
            commands.append((f"{out}.stdout", [
                "run", *seeded, *BLOCKS, "--strategy", strategy, "--threads", "1", "--out", out,
                *BLOCKS_DATASETS, *ANALYSES,
            ]))
    return commands


def run_side(checkout: Path, work: Path) -> list[str]:
    """Run the matrix on `checkout`'s sources inside `work`; the failures."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    failures = []
    for stdout_name, args in matrix():
        stdout = work / stdout_name
        stdout.parent.mkdir(parents=True, exist_ok=True)
        with open(stdout, "wb") as fh:
            done = subprocess.run([sys.executable, "-m", "fedsim", *args], cwd=work, env=env,
                                  stdout=fh, stderr=subprocess.PIPE)
        if done.returncode != 0:
            failures.append(f"{checkout}: `fedsim {' '.join(args)}` exited {done.returncode}: "
                            f"{done.stderr.decode(errors='replace').strip()}")
    return failures


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def manifest(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in TIMESTAMPS:
        data.pop(key, None)
    return data


def compare(parent: Path, change: Path) -> tuple[list[str], int]:
    """The differences between two finished work directories, and the
    number of files compared."""
    left, right = files(parent), files(change)
    differences = [f"only in {parent}: {name}" for name in sorted(left - right)]
    differences += [f"only in {change}: {name}" for name in sorted(right - left)]
    for name in sorted(left & right):
        a, b = parent / name, change / name
        if Path(name).name == "manifest.json":
            same = manifest(a) == manifest(b)
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            differences.append(f"differs: {name}")
    return differences, len(left & right)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for both sides' outputs (default: a new temporary one)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "fedsim" / "__init__.py").is_file():
            parser.error(f"{checkout} has no src/fedsim")
    work = args.work or Path(tempfile.mkdtemp(prefix="byte-matrix-"))
    sides = (work / "parent", work / "change")
    failures = []
    for checkout, side in zip((args.parent, args.change), sides):
        side.mkdir(parents=True, exist_ok=False)
        failures += run_side(checkout, side)
    differences, compared = compare(*sides)
    for line in failures + differences:
        print(line)
    print(f"{len(matrix())} commands per side, {compared} files compared in {work}: "
          f"{len(failures)} failed, {len(differences)} differences")
    return 1 if failures or differences else 0


if __name__ == "__main__":
    sys.exit(main())
