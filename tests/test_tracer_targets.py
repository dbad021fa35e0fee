"""The benchmark's span tracer still finds every function it times.

perfbench/tracing.py names fedsim functions by string (its TARGETS). A
rename in src/ would otherwise only show up as absent metrics in a benchmark
run; here it fails a fast test.
"""

import importlib.util
import sys
from pathlib import Path

import fedsim.cli  # noqa: F401  (the tracer patches modules already imported)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_found_and_every_layer_metric_reported():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
    metrics = tracing.layer_metrics([], tracing.missing_keys(tracer))
    # measure.py adds trace.overhead_s itself, from untraced runs
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}

