"""Set up, run and check one workload; the child process of run.py.

run.py starts this script in a fresh interpreter with the BLAS and OpenMP
thread variables pinned to 1 before numpy is imported, and reads the JSON
result it writes to --result. fedsim is imported from `src/` of the
checkout this file sits in, and driven in process through
`fedsim.cli.main`, exactly as `fedsim generate` / `fedsim run` would be.

  python3 perfbench/measure.py --workload desk-eds --seed 7 --seconds 10 \
      --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import BASES, PER_LAYER, Tracer, layer_metrics, metric_keys, missing_keys
from workloads import WORKLOADS, device_time_matches, expected_device_time

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 3  # byte-identity across repeats needs at least two
MIN_TRACED_PAIRS = 1
# Extra generate runs timed beside every run, so setup_s samples the same
# stretch of host speed as run_s does.
SETUPS_PER_RUN = 3


def import_fedsim():
    """fedsim from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fedsim.cli

    if Path(fedsim.__file__).resolve().parent != (src / "fedsim").resolve():
        raise SystemExit(f"imported fedsim from {fedsim.__file__}, not from {src}")
    return fedsim


def cli(main, args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(args)


def calibrate() -> float:
    """Seconds for a fixed numpy + interpreter loop: host-speed drift marker."""
    a = np.full((64, 64), 0.5)
    t0 = time.perf_counter()
    for _ in range(1000):
        a = np.tanh(a @ a * 0.01)
    return time.perf_counter() - t0


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def client_sizes(workload, seed: int, data_dir: Path) -> list[int]:
    """Client partition sizes of the run, rebuilt from the generated target file."""
    from fedsim import data, rng

    s = workload.settings
    target = data.load_dataset(data_dir / "target.feds")
    train, _ = data.stratified_split(
        target, float(s["dataset.test_fraction"]), rng.derive_seed(seed, rng.SPLIT, 1)
    )
    spec = data.PartitionSpec(
        num_clients=int(s["federation.num_clients"]),
        alpha=float(s["partition.alpha"]),
        seed=rng.derive_seed(seed, rng.PARTITION),
    )
    return [len(p) for p in data.dirichlet_partition(train, spec)]


def check_outputs(workload, out_dir: Path, expected_time: float):
    """Problems found in one run's outputs, its best accuracy and output hashes."""
    problems = []
    with open(out_dir / "reports.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["round"]) for r in rows] != list(range(1, workload.rounds + 1)):
        problems.append(f"reports.csv has rounds {[r['round'] for r in rows]}")
    values = [float(r[c]) for r in rows for c in ("test_acc", "test_loss", "cum_client_time_s")]
    if not all(math.isfinite(v) for v in values):
        problems.append("reports.csv holds a non-finite accuracy, loss or time")
    best = max((float(r["test_acc"]) for r in rows), default=float("nan"))
    if rows:
        reported = float(rows[-1]["cum_client_time_s"])
        if not device_time_matches(reported, expected_time):
            problems.append(f"cum_client_time_s {reported!r} != expected {expected_time!r}")
    if not best >= workload.acc_floor:
        problems.append(f"best_acc {best!r} below the floor {workload.acc_floor}")
    hashes = (sha256(out_dir / "reports.csv"), sha256(out_dir / "model.ckpt"))
    return problems, best, hashes


class Session:
    """One invocation: its runs, their checks and the samples they gave."""

    def __init__(self, fedsim, workload, seed: int, work: Path):
        self.main = fedsim.cli.main
        self.workload = workload
        self.seed = seed
        self.run_dir = work / "run"
        self.setup_dir = work / "setup"
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.calibration_s: list[float] = []
        self.best_acc = None
        self.reference_hashes = None
        self.expected_time = None
        self.missing: list[str] = []

    def generate(self, out_dir: Path, call=None) -> None:
        args = self.workload.cli_args("generate", self.seed, out_dir)
        t0 = time.perf_counter()
        try:
            rc = (call or cli)(self.main, args)
        except Exception as exc:
            raise RuntimeError(f"fedsim generate raised {type(exc).__name__}: {exc}") from exc
        self.setup_s.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"fedsim generate exited {rc}")

    def prepare(self, call=None) -> None:
        self.generate(self.run_dir, call)
        sizes = client_sizes(self.workload, self.seed, self.run_dir)
        self.expected_time = expected_device_time(self.workload, sizes)

    def run(self, call=None, setups=SETUPS_PER_RUN) -> float | None:
        """One checked `fedsim run`; its wall time, or None if it failed."""
        for _ in range(setups):
            self.generate(self.setup_dir)
        self.calibration_s.append(calibrate())
        self.attempted += 1
        args = self.workload.cli_args("run", self.seed, self.run_dir)
        try:
            t0 = time.perf_counter()
            rc = (call or cli)(self.main, args)
            elapsed = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"fedsim run exited {rc}")
            problems, best, hashes = check_outputs(self.workload, self.run_dir, self.expected_time)
        except Exception as exc:  # a failed run is counted, not fatal
            problems, best, hashes = [f"{type(exc).__name__}: {exc}"], None, None
        if hashes is not None:
            if self.reference_hashes is None:
                self.reference_hashes = hashes
            elif hashes != self.reference_hashes:
                problems.append("reports.csv or model.ckpt differs from the first run")
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems))
            return None
        self.best_acc = best
        return elapsed


def fits(deadline: float, last: float) -> bool:
    """Whether one more step as long as the last one ends by the deadline."""
    return time.perf_counter() + last <= deadline


def fast_quarter(samples: list[float], what: str) -> tuple[float, str, str]:
    """The median of the fastest quarter of timings, with its unit and note.

    The work is deterministic, so the spread between repeats is the shared
    host's speed. The whole median follows how much of the window the host
    spent slow, and the minimum follows a single brief fast spell; the
    fastest quarter is steadier than either (README.md).
    """
    fastest = sorted(samples)[: math.ceil(len(samples) / 4)]
    note = f"median of the fastest {len(fastest)} of {len(samples)} {what}; median of all {statistics.median(samples):.6g}"
    return statistics.median(fastest), "s", note


def measure_end_to_end(session: Session, seconds: float) -> dict:
    session.prepare()
    deadline = time.perf_counter() + seconds
    samples, last = [], 0.0
    while session.attempted < MIN_RUNS or fits(deadline, last):
        t0 = time.perf_counter()
        elapsed = session.run()
        last = time.perf_counter() - t0
        if elapsed is not None:
            samples.append(elapsed)
        if session.attempted == 1:
            # Later repeats in the same process only add allocator growth.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": fast_quarter(session.setup_s, "generate runs"),
        "peak_rss_mb": (peak_rss_mb, "MiB", "peak RSS of a fresh process through its first run"),
    }
    if samples:
        metrics["run_s"] = fast_quarter(samples, "runs")
        metrics["best_acc"] = (session.best_acc, "fraction", "best test_acc in reports.csv")
    return metrics


def measure_layers(session: Session, seconds: float, work: Path) -> dict:
    """Per-layer metrics from the traced run whose wall time is the median.

    Untraced and traced runs alternate, so trace.overhead_s compares runs
    taken on the same stretch of host speed.
    """
    tracer = Tracer()

    def traced(main, args):
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            return tracer.root(main, args)

    session.prepare(traced)
    untraced, traced_roots = [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(traced_roots) < MIN_TRACED_PAIRS or fits(deadline, last):
        t0 = time.perf_counter()
        elapsed = session.run(setups=0)
        if elapsed is not None:
            untraced.append(elapsed)
        if session.run(traced, setups=0) is not None:
            traced_roots.append([s for s in tracer.spans if s.key == "root"][-1])
        last = time.perf_counter() - t0
    if not traced_roots:
        return {}
    roots = [s for s in tracer.spans if s.key == "root"]
    chosen = sorted(traced_roots, key=lambda s: s.t1 - s.t0)[(len(traced_roots) - 1) // 2]
    windows = [(r.t0, r.t1) for r in (roots[0], chosen)]
    spans = [s for s in tracer.spans if any(a <= s.t0 and s.t1 <= b for a, b in windows)]
    write_spans(spans, work / "spans.jsonl")
    values = layer_metrics(spans, missing_keys(tracer))
    if untraced:
        walls = [r.t1 - r.t0 for r in traced_roots]
        values["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    session.missing = tracer.missing
    called = {s.key for s in spans}

    def note(name):
        if not set(metric_keys(name)) <= called:
            return "absent: not called"
        base = f"; base {BASES[name]} = {values[BASES[name]]:.6g}" if name in BASES else ""
        return f"traced run of median wall among {len(traced_roots)}{base}"

    return {name: (value, PER_LAYER[name][0], note(name)) for name, value in values.items()}


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def environment(workload, calibration: list[float]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "thread_vars": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith(("_NUM_THREADS", "_MAX_THREADS", "_MAXIMUM_THREADS"))
        },
        "nproc": len(os.sched_getaffinity(0)),
        "threads": workload.threads,
        "calibration_s": {
            "median": statistics.median(calibration) if calibration else None,
            "min": min(calibration, default=None),
            "max": max(calibration, default=None),
            "samples": len(calibration),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    fedsim = import_fedsim()
    workload = WORKLOADS[args.workload]
    work = args.result.parent
    for sub in ("run", "setup"):
        shutil.rmtree(work / sub, ignore_errors=True)
        (work / sub).mkdir(parents=True)
    session = Session(fedsim, workload, args.seed, work)
    try:
        if args.trace:
            metrics = measure_layers(session, args.seconds, work)
        else:
            metrics = measure_end_to_end(session, args.seconds)
    except RuntimeError as exc:  # generate failed: nothing could be run
        session.failures.append(str(exc))
        session.attempted = max(session.attempted, 1)
        metrics = {}
    result = {
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures,
        "missing": session.missing,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "env": environment(workload, session.calibration_s),
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
