"""The benchmark's span tracer still finds every function it times.

perfbench/tracing.py names fedsim functions by string (its TARGETS). A
rename in src/ would otherwise only show up as absent metrics in a benchmark
run; here it fails a fast test.
"""

import importlib.util
import sys
from pathlib import Path

import fedsim.cli  # noqa: F401  (the tracer patches modules already imported)
from fedsim import data, federation

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


def test_planning_a_run_records_one_partition_span():
    # `federation.plan_run` partitions the pool through the name the tracer
    # wraps, once
    tracing = load_tracing()
    tracer = tracing.Tracer()
    train = data.generate_synthetic(3, 20, 4, 2.0, seed=1)
    config = federation.FederationConfig(
        strategy="fedft_eds", rounds=2, local_epochs=1, num_clients=4,
        participation_fraction=1.0, p_ds=0.5, rho=0.1, learning_rate=0.1, momentum=0.5,
        prox_mu=0.01, batch_size=8, pretrain_epochs=0, split_index=2, hidden_sizes=(8,),
        master_seed=3,
    )
    with tracer.installed():
        federation.plan_run(config, train, 0.5)
    assert [span.key for span in tracer.spans].count("data.partition") == 1
