"""fedsim benchmark: end-to-end metrics, or a traced per-layer split, of one workload.

  python3 perfbench/run.py --workload desk-eds --seed 7 --seconds 36 --trace 0
  python3 perfbench/run.py --workload all --seed 7 --seconds 36 --trace 1

Each workload runs in a fresh child process (measure.py) with the BLAS and
OpenMP thread variables pinned to 1. The result is printed as one line per
metric with its unit and sample count, an environment record, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones of a traced run. Exits non-zero without a result
when fedsim's sources are not in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
TIME_LIMIT_S = 175  # a whole invocation must end within 180 s


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_workload(name: str, args, deadline: float) -> dict | None:
    work = ROOT / ".perfbench-work" / name
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(
            command,
            env={**os.environ, **PINNED},
            stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"error: {name} measurement exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def report(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:38s} {m['value']:>14.6g} {m['unit']:8s} {m['note']}")
    print(f"  {'failed_share':38s} {failed / attempted:>14.6g} {'ratio':8s} "
          f"{failed} failed / {attempted} runs_attempted")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for function in result["missing"]:
        print(f"  absent: {function} no longer exists; metrics built from it are left out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = {"git": git_state(), "loadavg_at_start": os.getloadavg()}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args, time.monotonic() + TIME_LIMIT_S)
        if result is None:
            return 1
        results[name] = result
        report(name, result)
        print("env " + json.dumps({**env, **result["env"]}, sort_keys=True))

    single = len(names) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {"value": m["value"], "unit": m["unit"]}
        for name, result in results.items()
        for metric, m in result["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
