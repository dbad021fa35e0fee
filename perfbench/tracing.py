"""Span tracer for the traced benchmark run, installed from outside `src/`.

`Tracer.installed()` replaces the public functions of each fedsim module
with timing wrappers, in every fedsim namespace that holds a reference to
the original (so `derive_seed`, imported by name into federation,
selection, data and cli, is traced wherever it is called), and restores
them on exit. Each thread keeps its own span stack; tasks submitted to the
client thread pool start under the span that submitted them. Spans stay in
memory; the caller writes them out once, at the end.

A function that no longer exists is listed in `missing`, and the metrics
built only from it are reported absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass


def _dense_shapes(model) -> list[tuple[int, int, int]]:
    """(layer index, in, out) of every dense layer."""
    return [
        (i, layer.weights.shape[1], layer.weights.shape[0])
        for i, layer in enumerate(model.layers)
        if hasattr(layer, "weights")
    ]


def _count_forward(args, result):
    model, batch = args[0], args[1]
    rows = batch.shape[0]
    shapes = _dense_shapes(model)
    frozen = sum(i * o for idx, i, o in shapes if idx < model.split_index)
    return {"rows": rows, "madd": rows * sum(i * o for _, i, o in shapes), "frozen_madd": rows * frozen}


def _count_backward(args, result):
    model, batch = args[0], args[1]
    split = model.split_index
    per_row = sum(
        i * o * (2 if idx > split else 1) for idx, i, o in _dense_shapes(model) if idx >= split
    )
    return {"madd": batch.shape[0] * per_row}


def _count_entropy(args, result):
    return {"rows": len(args[2].sample_indices), "kept": len(result.selected_indices)}


def _count_subset(args, result):
    return {"bytes": result.features.nbytes}


def _count_manifest(args, result):
    inputs, outputs = args[3], args[4]
    return {"bytes": sum(os.path.getsize(p) for p in [*inputs.values(), *outputs.values()])}


def _count_cka(args, result):
    k = len(args[0])
    return {"pairs": k * (k + 1) // 2}  # linear_cka runs on the diagonal too


# (fedsim module, function or Class.method, span key, counter)
TARGETS = (
    ("nn", "forward", "nn.forward", _count_forward),
    ("nn", "backward", "nn.backward", _count_backward),
    ("nn", "sgd_step", "nn.sgd_step", None),
    ("nn", "softmax_with_temperature", "nn.softmax", None),
    ("nn", "save_model", "nn.save_model", None),
    ("selection", "select_by_entropy", "selection.entropy", _count_entropy),
    ("selection", "select_random", "selection.random", None),
    ("federation", "pretrain", "federation.pretrain", None),
    ("federation", "run_federation", "federation.run", None),
    ("federation", "client_local_update", "federation.local_update", None),
    ("federation", "fedprox_local_update", "federation.local_update", None),
    ("federation", "aggregate", "federation.aggregate", None),
    ("federation", "evaluate_model", "federation.evaluate", None),
    ("federation", "write_reports_csv", "federation.write_reports", None),
    ("data", "generate_synthetic", "data.generate", None),
    ("data", "save_dataset", "data.save", None),
    ("data", "load_dataset", "data.load", None),
    ("data", "stratified_split", "data.split", None),
    ("data", "dirichlet_partition", "data.partition", None),
    ("data", "Dataset.subset", "data.subset", _count_subset),
    ("rng", "derive_rng", "rng.derive", None),
    ("rng", "derive_seed", "rng.derive", None),
    ("analysis", "pairwise_cka", "analysis.cka", _count_cka),
    ("analysis", "entropy_histogram", "analysis.entropy_hist", None),
    ("cli", "build_config", "cli.config", None),
    ("cli", "write_manifest", "cli.manifest", _count_manifest),
)

ROOT_KEY = "root"


@dataclass
class Span:
    span_id: int
    parent: int | None
    key: str
    t0: float
    t1: float
    counts: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def call(self, key, fn, args, kwargs, counter=None):
        parent = self.current()
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:  # a call that raises fails its run, whose spans go unused
            t1 = time.perf_counter()
            stack.pop()
        counts = None
        if counter is not None:
            try:
                counts = counter(args, result)
            except Exception:  # the program's signatures moved; report absent
                self.counter_errors.add(key)
        self.spans.append(Span(span_id, parent, key, t0, t1, counts))
        return result

    def root(self, fn, *args):
        """Run fn(*args) under a top-level span; its self time is unattributed."""
        return self.call(ROOT_KEY, fn, args, {})

    def _adopting(self, parent, fn, args, kwargs):
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = None

    # --- installing wrappers --------------------------------------------

    def _wrap(self, fn, key, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(key, fn, args, kwargs, counter)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopting, tracer.current(), fn, args, kwargs)

        return TracedPool

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "fedsim" and not name.startswith("fedsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        self.missing = []
        for module_name, target, key, counter in TARGETS:
            module = sys.modules.get(f"fedsim.{module_name}")
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.missing.append(f"fedsim.{module_name}.{target}")
                continue
            wrapped = self._wrap(original, key, counter)
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        self._replace_everywhere(ThreadPoolExecutor, self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# --- metrics -------------------------------------------------------------


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    start = end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


# Metric name -> (unit, better); the order is the print order.
PER_LAYER = {
    "federation.pretrain.s": ("s", "lower"),
    "federation.pretrain.total_s": ("s", "lower"),
    "federation.local_update.s": ("s", "lower"),
    "federation.local_update.total_s": ("s", "lower"),
    "federation.local_update.calls": ("count", "lower"),
    "federation.local_update.concurrency": ("ratio", "higher"),
    "federation.aggregate.s": ("s", "lower"),
    "federation.evaluate.s": ("s", "lower"),
    "federation.evaluate.total_s": ("s", "lower"),
    "federation.run.self_s": ("s", "lower"),
    "federation.write_reports.s": ("s", "lower"),
    "selection.entropy.s": ("s", "lower"),
    "selection.entropy.total_s": ("s", "lower"),
    "selection.entropy.calls": ("count", "lower"),
    "selection.entropy.rows": ("count", "lower"),
    "selection.kept_share": ("ratio", "higher"),
    "selection.random.s": ("s", "lower"),
    "nn.forward.s": ("s", "lower"),
    "nn.forward.calls": ("count", "lower"),
    "nn.forward.rows": ("count", "lower"),
    "nn.forward.frozen_mflop": ("Mmadd", "lower"),
    "nn.backward.s": ("s", "lower"),
    "nn.backward.calls": ("count", "lower"),
    "nn.sgd_step.s": ("s", "lower"),
    "nn.sgd_step.calls": ("count", "lower"),
    "nn.step_us": ("us", "lower"),
    "nn.mflop": ("Mmadd", "lower"),
    "nn.mflop_per_s": ("Mmadd/s", "higher"),
    "nn.softmax.s": ("s", "lower"),
    "nn.save_model.s": ("s", "lower"),
    "rng.derive.s": ("s", "lower"),
    "rng.derive.calls": ("count", "lower"),
    "data.generate.s": ("s", "lower"),
    "data.save.s": ("s", "lower"),
    "data.load.s": ("s", "lower"),
    "data.split.s": ("s", "lower"),
    "data.partition.s": ("s", "lower"),
    "data.subset.s": ("s", "lower"),
    "data.subset.calls": ("count", "lower"),
    "data.subset.mb": ("MB", "lower"),
    "analysis.cka.s": ("s", "lower"),
    "analysis.cka.pairs": ("count", "lower"),
    "analysis.entropy_hist.s": ("s", "lower"),
    "cli.config.s": ("s", "lower"),
    "cli.manifest.s": ("s", "lower"),
    "cli.manifest.mb_hashed": ("MB", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Ratio metric -> the metric it is a share of, printed beside it.
BASES = {
    "selection.kept_share": "selection.entropy.rows",
    "nn.mflop_per_s": "nn.mflop",
}

# Span keys (and counters) each metric is built from; a metric is absent
# when any of them could not be wrapped or counted.
_NEEDS = {
    "selection.kept_share": ("selection.entropy",),
    "nn.step_us": ("nn.forward", "nn.backward", "nn.sgd_step", "federation.local_update"),
    "nn.mflop": ("nn.forward", "nn.backward"),
    "nn.mflop_per_s": ("nn.forward", "nn.backward"),
    "trace.overhead_s": (),
    "trace.wall_s": (),
    "trace.unattributed_s": (),
}


def metric_keys(metric: str) -> tuple[str, ...]:
    """Span keys a metric is built from."""
    if metric in _NEEDS:
        return _NEEDS[metric]
    return (metric.rsplit(".", 1)[0],)


def layer_metrics(spans: list[Span], absent: set[str]) -> dict[str, float]:
    """Per-layer metrics of the given spans: a traced run and its set-up.

    `.s` is self time: span duration minus the time its child spans cover
    (children on pool threads included). `.total_s` is the inclusive time.
    Metrics that need a span key in `absent` are left out.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    by_key: dict[str, list[Span]] = {}
    self_time: dict[str, float] = {}
    for s in spans:
        by_key.setdefault(s.key, []).append(s)
        covered = _union(
            (max(a, s.t0), min(b, s.t1)) for a, b in children.get(s.span_id, ()) if b > s.t0
        )
        self_time[s.key] = self_time.get(s.key, 0.0) + (s.t1 - s.t0) - covered
    key_of = {s.span_id: s.key for s in spans}

    def total(key):
        return sum(s.t1 - s.t0 for s in by_key.get(key, ()))

    def counted(key, name):
        return sum(s.counts[name] for s in by_key.get(key, ()) if s.counts)

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        key, _, field = metric.rpartition(".")
        if field == "s":
            m[metric] = self_time.get(key, 0.0)
        elif field == "total_s":
            m[metric] = total(key)
        elif field == "calls":
            m[metric] = len(by_key.get(key, ()))
    m["federation.run.self_s"] = self_time.get("federation.run", 0.0)

    updates = by_key.get("federation.local_update", ())
    covered = _union((s.t0, s.t1) for s in updates)
    m["federation.local_update.concurrency"] = (
        sum(s.t1 - s.t0 for s in sorted(updates, key=lambda s: s.t0)) / covered if covered else 0.0
    )
    rows = counted("selection.entropy", "rows")
    m["selection.entropy.rows"] = rows
    m["selection.kept_share"] = counted("selection.entropy", "kept") / rows if rows else 0.0
    m["nn.forward.rows"] = counted("nn.forward", "rows")
    m["nn.forward.frozen_mflop"] = counted("nn.forward", "frozen_madd") / 1e6
    m["nn.mflop"] = (counted("nn.forward", "madd") + counted("nn.backward", "madd")) / 1e6
    busy = total("nn.forward") + total("nn.backward")
    m["nn.mflop_per_s"] = m["nn.mflop"] / busy if busy else 0.0
    in_updates = [
        s
        for key in ("nn.forward", "nn.backward", "nn.sgd_step")
        for s in by_key.get(key, ())
        if key_of.get(s.parent) == "federation.local_update"
    ]
    steps = sum(1 for s in in_updates if s.key == "nn.sgd_step")
    m["nn.step_us"] = 1e6 * sum(s.t1 - s.t0 for s in in_updates) / steps if steps else 0.0
    m["data.subset.mb"] = counted("data.subset", "bytes") / 1e6
    m["cli.manifest.mb_hashed"] = counted("cli.manifest", "bytes") / 1e6
    m["analysis.cka.pairs"] = counted("analysis.cka", "pairs")
    m["trace.wall_s"] = total(ROOT_KEY)
    m["trace.unattributed_s"] = self_time.get(ROOT_KEY, 0.0)
    return {
        metric: m[metric]
        for metric in PER_LAYER
        if metric in m and not set(metric_keys(metric)) & absent
    }


def missing_keys(tracer: Tracer) -> set[str]:
    """Span keys with a function that could not be wrapped, or a failed counter."""
    missing = set(tracer.missing)
    keys = {
        key
        for module, target, key, _ in TARGETS
        if f"fedsim.{module}.{target}" in missing
    }
    return keys | tracer.counter_errors


def self_time_metrics(metrics: dict[str, float]) -> list[str]:
    """Names of the metrics that are self times of a layer span."""
    return [m for m in metrics if m.endswith(".s") or m == "federation.run.self_s"]
