"""Fast self-test of the benchmark itself (about a minute).

  python3 perfbench/selftest.py

Checks that run.py prints every metric declared in BENCHMARK.json with its
unit for every workload, in both modes; that a tampered expected device time
is counted as a failed run without crashing; that traced self times plus
trace.unattributed_s add up to the traced wall time; that a function missing
from the program leaves its metrics absent; that the device-time oracle
reproduces the recorded values; and that a desk-eds reports.csv made under
the benchmark is byte-identical to one from a plain `fedsim run`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work" / "selftest"

# Pinned before numpy is imported below, as run.py does for its children.
from run import PINNED  # noqa: E402

os.environ.update(PINNED)

import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_DEVICE_TIME  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

fedsim = measure.import_fedsim()
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_printed(declared: list[dict], stdout: str, result: dict, trace: int) -> None:
    check(result["correct"] and result["failed"] == 0, f"--trace {trace}: every run correct")
    for name in WORKLOADS:
        block = stdout.split(f"== {name}\n", 1)[-1].split("\n== ", 1)[0]
        lines = {line.split()[0]: line.split()[2] for line in block.splitlines() if len(line.split()) > 2}
        unprinted = [
            metric["name"]
            for metric in declared
            if result["metrics"].get(f"{name}/{metric['name']}", {}).get("unit") != metric["unit"]
            or lines.get(metric["name"]) != metric["unit"]
        ]
        check(
            not unprinted and lines.get("failed_share") == "ratio" and "runs_attempted" in block,
            f"{name}: failed_share and all {len(declared)} declared metrics printed with units"
            + (f"; missing {unprinted}" if unprinted else ""),
        )


def check_trace_figures(result: dict) -> None:
    def value(workload, metric):
        return result["metrics"][f"{workload}/{metric}"]["value"]

    desk = {k.split("/", 1)[1]: v["value"] for k, v in result["metrics"].items() if k.startswith("desk-eds/")}
    self_total = sum(desk[m] for m in tracing.self_time_metrics(desk)) + desk["trace.unattributed_s"]
    check(
        abs(self_total - desk["trace.wall_s"]) <= 1e-6 * desk["trace.wall_s"],
        f"desk-eds: self times + unattributed = wall ({self_total:.6f} vs {desk['trace.wall_s']:.6f} s)",
    )
    check(value("desk-eds", "federation.local_update.concurrency") == 1.0, "desk-eds: concurrency is 1.0")
    check(value("wide-prox-t2", "nn.forward.frozen_mflop") == 0, "wide-prox-t2: frozen_mflop is 0")
    check(value("wide-prox-t2", "selection.entropy.calls") == 0, "wide-prox-t2: no entropy selection")
    check(value("wide-prox-t2", "federation.local_update.concurrency") > 1.0, "wide-prox-t2: pool overlaps")


def check_tampered_device_time() -> None:
    original = measure.expected_device_time
    measure.expected_device_time = lambda w, sizes: original(w, sizes) * (1 + 1e-6)
    result_path = WORK / "tampered" / "result.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        code = measure.main(["--workload", "desk-eds", "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--result", str(result_path)])
    finally:
        measure.expected_device_time = original
    result = json.loads(result_path.read_text())
    check(
        code == 0 and result["attempted"] >= 1 and result["failed"] == result["attempted"]
        and all("cum_client_time_s" in f for f in result["failures"]),
        "tampered device time: every run counted failed, no crash",
    )


def check_missing_function() -> None:
    federation = fedsim.federation
    saved, forward = federation.fedprox_local_update, fedsim.nn.forward
    del federation.fedprox_local_update
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            pass
    finally:
        federation.fedprox_local_update = saved
    metrics = tracing.layer_metrics([], tracing.missing_keys(tracer))
    check(
        tracer.missing == ["fedsim.federation.fedprox_local_update"]
        and not any(m.startswith("federation.local_update") for m in metrics)
        and "nn.forward.s" in metrics,
        "missing function: its metrics absent, the rest kept",
    )
    check(federation.fedprox_local_update is saved and fedsim.nn.forward is forward,
          "tracer restores every wrapped function")


def check_reference_device_times() -> None:
    for name, definition in WORKLOADS.items():
        out = WORK / "reference" / name
        out.mkdir(parents=True, exist_ok=True)
        measure.cli(fedsim.cli.main, definition.cli_args("generate", 7, out))
        sizes = measure.client_sizes(definition, 7, out)
        expected = measure.expected_device_time(definition, sizes)
        check(expected == REFERENCE_DEVICE_TIME[name], f"{name}: device-time oracle matches the record")


def check_plain_cli_identity() -> None:
    out = WORK / "plain"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--preset", "desk-default", "--seed", "7", "--out", str(out)]
    analysis = ["--analysis.cka", "true", "--analysis.entropy_histogram", "true",
                "--analysis.selection_dump", "true"]
    for command in (["generate", *args], ["run", *args, *analysis]):
        subprocess.run([sys.executable, "-m", "fedsim.cli", *command], env=env, check=True,
                       capture_output=True, timeout=300)
    bench_reports = ROOT / ".perfbench-work" / "desk-eds" / "run" / "reports.csv"
    check(
        (out / "reports.csv").read_bytes() == bench_reports.read_bytes(),
        "desk-eds reports.csv under the benchmark = plain fedsim run",
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = bench(trace)
        check_printed(declared[kind], stdout, result, trace)
        if trace:
            check_trace_figures(result)
    check_plain_cli_identity()
    check_tampered_device_time()
    check_missing_function()
    check_reference_device_times()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
