"""Golden outputs: every byte a fixed command matrix writes, against
`tests/golden.json`.

The matrix runs at the `TINY` settings of `test_cli.py`, seed 5: `generate`;
`run` for each of the five strategies with CKA, the entropy histograms and
the selection dump; `run` for `fedprox` at `--threads 3` with the same
analyses; `analyze-cka`; and `entropy-hist`. `golden.json` holds the sha256
of every file written and of every command's stdout. A manifest is hashed as
canonical JSON without its timestamps.

Output bits also depend on the numerics under the code, so `golden.json`
records the Python and numpy versions and the BLAS name and version. A
different record fails the test, naming what differs, before any hash is
compared. After a change that is meant to alter output bits, or on another
numerics stack, regenerate the file with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

from fedsim import cli
from test_cli import TINY

GOLDEN = Path(__file__).with_name("golden.json")
TIMESTAMPS = ("started_utc", "finished_utc")
STRATEGIES = ("fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all")
SEEDED = ["--seed", "5", *TINY]
# the runs read the datasets that `generate` wrote, one level up
DATASETS = ["--dataset.source_path", "../gen/source.feds",
            "--dataset.target_path", "../gen/target.feds"]
ANALYSES = ["--analysis.cka", "true", "--analysis.entropy_histogram", "true",
            "--analysis.selection_dump", "true"]


def matrix() -> list[tuple[str, list[str]]]:
    """(output directory, fedsim arguments) of every command, in run order."""
    commands = [("gen", ["generate", *SEEDED, "--out", "gen"])]
    for strategy in STRATEGIES:
        out = f"run_{strategy}"
        commands.append((out, ["run", *SEEDED, "--strategy", strategy, "--out", out,
                               *DATASETS, *ANALYSES]))
    commands.append(("run_fedprox_t3", ["run", *SEEDED, "--strategy", "fedprox",
                                        "--threads", "3", "--out", "run_fedprox_t3",
                                        *DATASETS, *ANALYSES]))
    for command in ("analyze-cka", "entropy-hist"):
        commands.append((command, [command, *SEEDED, "--out", command, *DATASETS]))
    return commands


def numerics() -> dict[str, str]:
    """The Python, numpy and BLAS that the output bits were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def _digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key in TIMESTAMPS:
            del manifest[key]
        blob = json.dumps(manifest, sort_keys=True).encode()
    else:
        blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


def outputs(work: Path) -> dict[str, str]:
    """Run the matrix in `work`, an empty directory: {relative path: sha256}
    of every file written, and of each command's stdout as `<dir>.stdout`."""
    digests, cwd = {}, os.getcwd()
    os.chdir(work)
    try:
        for out, args in matrix():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(args)
            assert code == 0, f"`fedsim {' '.join(args)}` exited {code}"
            digests[f"{out}.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digests[path.relative_to(work).as_posix()] = _digest(path)
    return dict(sorted(digests.items()))


def test_outputs_match_the_golden_record(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = numerics()
    changed = {k: (golden["numerics"].get(k), v) for k, v in here.items()
               if golden["numerics"].get(k) != v}
    assert not changed, (
        f"golden.json was recorded on other numerics, (recorded, here): {changed}; "
        "regenerate it as the module docstring says"
    )
    got = outputs(tmp_path)
    want = golden["sha256"]
    differences = sorted(name for name in want.keys() | got.keys()
                         if want.get(name) != got.get(name))
    assert not differences, f"outputs differ from golden.json: {differences}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        record = {"numerics": numerics(), "sha256": outputs(Path(work))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(record['sha256'])} digests")
