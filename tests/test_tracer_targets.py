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


def test_a_traced_run_counts_the_rows_each_entropy_selection_scores_and_keeps():
    # the counters read the selectors' real arguments and results, so a
    # signature they no longer fit shows here, not only in a benchmark run
    tracing = load_tracing()
    tracer = tracing.Tracer()
    pool = data.generate_synthetic(4, 40, 8, 2.0, seed=5)
    target, source = data.stratified_split(pool, 0.4, 6)
    train, test = data.stratified_split(target, 0.2, 7)
    config = federation.FederationConfig(
        strategy="fedft_eds", rounds=2, local_epochs=1, num_clients=5,
        participation_fraction=0.6, p_ds=0.5, rho=0.1, learning_rate=0.1, momentum=0.5,
        prox_mu=0.01, batch_size=8, pretrain_epochs=3, split_index=4, hidden_sizes=(12, 12),
        master_seed=5,
    )
    plan = federation.plan_run(config, train, 0.5)
    start = federation.initial_model(config, source, train)
    with tracer.installed():
        federation.run_federation(plan, start, test, threads=2)
    assert tracer.counter_errors == set()
    counts = [span.counts for span in tracer.spans if span.key == "selection.entropy"]
    clients = [c for participants in plan.participants for c in participants]
    assert len(counts) == len(clients) == 6
    assert sum(c["rows"] for c in counts) == sum(len(plan.partitions[c]) for c in clients)
    assert sum(c["kept"] for c in counts) == sum(plan.kept[c] for c in clients)
