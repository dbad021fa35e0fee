"""Pretraining, the run plan, then the round loop: local updates, aggregation.

`plan_run` fixes all a run decides before it trains, from the config and the
training pool alone: the clients' partitions, the entry of `STRATEGIES` that
the strategy name stands for (the part trained, the selector and the FedProx
pull), each client's kept count and each round's participants. The caller
builds the start model once with `initial_model` (built from the master
seed, then pretrained whole on the source domain, the same for every
strategy); `run_federation` sets the split the plan trains and trains it in
place. A round runs one job per participant: select a per-round training
subset, then run E local epochs on it. The uploaded heads are aggregated
weighted by the number of samples each client trained on, which the plan
fixes, so each upload is folded in as it arrives. The frozen feature
extractor is fixed once pretraining ends, so its output is computed once per
sample and the rounds run on the head alone.

Client "training time" is a deterministic device-effort model (sample visits
times the full model's per-sample cost at a nominal 1 GFLOP/s), not measured
wall clock, so that identical seeds give byte-identical reports regardless of
scheduling. Its inputs are the plan and the model, so the round loop fixes
each client's charge before round 1 and adds it as its update is folded.
"""

from __future__ import annotations

import contextvars
import csv
import logging
import math
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from . import rng as streams
from .data import ClientPartition, Dataset, PartitionSpec, dirichlet_partition, write_csv
from .errors import ConfigError, NumericError, ParameterError, ProtocolError
from .rng import derive_rng, derive_seed
from .selection import (
    SelectionResult, select_all, select_by_entropy, select_random, selection_count
)

log = logging.getLogger("fedsim.federation")

SECONDS_PER_FLOP = 1e-9  # nominal 1 GFLOP/s client device


@dataclass(frozen=True)
class Strategy:
    """The three choices a strategy name stands for."""

    whole_model: bool  # train every layer, or only the head above split_index
    selector: str  # "entropy", "random" or "all" (which keeps p_ds 1)
    proximal: bool  # add the FedProx pull prox_mu * (theta - theta_t)


STRATEGIES = {
    "fedavg": Strategy(whole_model=True, selector="random", proximal=False),
    "fedprox": Strategy(whole_model=True, selector="random", proximal=True),
    "fedft_rds": Strategy(whole_model=False, selector="random", proximal=False),
    "fedft_eds": Strategy(whole_model=False, selector="entropy", proximal=False),
    "fedft_all": Strategy(whole_model=False, selector="all", proximal=False),
}

REPORT_CSV_COLUMNS = (
    "round",
    "strategy",
    "participants",
    "test_acc",
    "test_loss",
    "cum_client_time_s",
    "total_selected",
)


@dataclass
class FederationConfig:
    """Everything that defines a federation run (architecture included).

    Fields have no defaults: the desk defaults live in the CLI's settings
    table, and every caller states every value.
    """

    strategy: str
    rounds: int
    local_epochs: int
    num_clients: int
    participation_fraction: float
    p_ds: float
    rho: float
    learning_rate: float
    momentum: float
    prox_mu: float
    batch_size: int
    pretrain_epochs: int
    split_index: int
    hidden_sizes: tuple[int, ...]
    master_seed: int

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            names = tuple(STRATEGIES)
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {names}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ConfigError(
                f"participation_fraction must be in (0, 1], got {self.participation_fraction}"
            )
        if round(self.participation_fraction * self.num_clients) < 1:
            raise ConfigError(
                f"participation_fraction {self.participation_fraction} rounds to zero "
                f"participants out of {self.num_clients} clients"
            )
        if not 0.0 < self.p_ds <= 1.0:
            raise ConfigError(f"p_ds must be in (0, 1], got {self.p_ds}")
        if not 0.0 < self.rho < math.inf:
            raise ConfigError(f"rho must be finite and > 0, got {self.rho}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.prox_mu < math.inf:
            raise ConfigError(f"prox_mu must be finite and >= 0, got {self.prox_mu}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        last_dense = nn.default_split_index(self.hidden_sizes)
        if not 0 <= self.split_index <= last_dense:
            raise ConfigError(
                f"split_index {self.split_index} leaves no trainable dense layer "
                f"(must be in [0, {last_dense}])"
            )

    def as_dict(self) -> dict:
        out = asdict(self)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out


@dataclass
class ClientUpdate:
    """One client's upload: theta is its trained head vector."""

    client_id: int
    theta: np.ndarray
    selected_count: int


@dataclass
class RoundReport:
    round: int
    participants: list[int]
    test_accuracy: float
    test_loss: float
    cumulative_client_train_time: float
    total_selected: int = 0


def _run_epochs(
    model: nn.Model,
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    epoch_seeds: list[int],
    opt: nn.OptimizerState,
    anchor: Optional[np.ndarray] = None,
) -> None:
    """Mini-batch SGD on every parameter of `model`, in place: one epoch per
    seed in `epoch_seeds`, each shuffled from its seed.

    Every step writes the vectors of `opt`, so training allocates none of
    its own; `anchor`, laid out like `model.params`, is what a nonzero
    `opt.prox_mu` pulls towards.
    """
    n = features.shape[0]
    for seed in epoch_seeds:
        order = derive_rng(seed).permutation(n)
        for start in range(0, n, batch_size):
            chosen = order[start : start + batch_size]
            nn.backward(model, features[chosen], labels[chosen], out=opt.grad)
            nn.sgd_step(model, opt, anchor)


def pretrain(
    model: nn.Model,
    source: Dataset,
    epochs: int,
    learning_rate: float,
    momentum: float,
    batch_size: int,
    seed: int,
) -> nn.Model:
    """Train every layer on the source domain; returns a new model.

    Training covers every layer of the model it is handed, whatever its
    split, and the copy keeps that split. A NumericError names the phase.
    """
    trained = model.copy()
    opt = nn.OptimizerState.like(trained.params, learning_rate, momentum)
    epoch_seeds = [derive_seed(seed, epoch) for epoch in range(epochs)]
    try:
        _run_epochs(trained, source.features, source.labels, batch_size, epoch_seeds, opt)
    except NumericError as exc:
        raise NumericError(f"pretraining: {exc}") from exc
    return trained


def initial_model(config: FederationConfig, source: Dataset, train: Dataset) -> nn.Model:
    """The model a run starts from: built from the master seed, then pretrained.

    The architecture follows `train`, the pretraining data is `source`, which
    must share its feature width and class count. The model is whole, at
    split 0, and reads no strategy setting, so one pretrained model serves
    every strategy; `run_federation` sets the split it trains.
    """
    if source.feature_dim != train.feature_dim or source.num_classes != train.num_classes:
        raise ConfigError("source dataset is incompatible with the training pool")
    master = config.master_seed
    model = nn.build_mlp(
        input_dim=train.feature_dim,
        hidden_sizes=config.hidden_sizes,
        num_classes=train.num_classes,
        split_index=0,
        seed=derive_seed(master, streams.INIT),
    )
    return pretrain(
        model,
        source,
        config.pretrain_epochs,
        config.learning_rate,
        config.momentum,
        config.batch_size,
        seed=derive_seed(master, streams.PRETRAIN),
    )


def fedprox_local_update(
    client_id: int,
    model: nn.Model,
    data: Dataset,
    batch_size: int,
    epoch_seeds: list[int],
    client: nn.Model,
    opt: nn.OptimizerState,
) -> ClientUpdate:
    """Local update with the proximal pull mu * (theta - theta_t) of
    `opt.prox_mu` added per step; the round loop's one update call, at mu 0
    for a strategy with no pull. One epoch runs per seed in `epoch_seeds`.

    Trains `client`, a copy of `model` whose vector is the upload, in place
    with the vectors of `opt`, after zeroing its velocity; it allocates no
    vector the size of the model. `model` itself is left as it is and is
    theta_t, the anchor of the pull. The round loop hands it the global head
    and makes `client` and `opt` on its own thread.
    """
    opt.velocity.fill(0.0)
    _run_epochs(client, data.features, data.labels, batch_size, epoch_seeds, opt, model.params)
    return ClientUpdate(client_id=client_id, theta=client.params, selected_count=len(data))


def client_local_update(
    client_id: int,
    model: nn.Model,
    selected: Dataset,
    batch_size: int,
    epoch_seeds: list[int],
    client: nn.Model,
    opt: nn.OptimizerState,
) -> ClientUpdate:
    """`fedprox_local_update` under the name of the plain update: the pull
    is `opt`'s. No run calls it; the benchmark's tracer
    (perfbench/tracing.py) still names it."""
    return fedprox_local_update(client_id, model, selected, batch_size, epoch_seeds, client, opt)


class UpdateFold:
    """Running weighted sum of client updates: acc += (count / total) * theta.

    Updates are added one at a time in ascending client id, so the sum has one
    fixed order and only the running total is held. `total` is the summed
    selected count of every update that will be added. This is the one
    aggregation path: `aggregate` adds a sorted list, the round loop each
    update as it arrives. Each add is one weighted sum into one accumulator,
    made with the fold and of the given shape, which every upload must match.
    """

    def __init__(self, total: int, shape: tuple[int, ...]):
        self.total = total
        self.folded = 0
        self.last_id: int | None = None
        self.acc = np.zeros(shape)

    def add(self, update: ClientUpdate) -> None:
        if self.last_id is not None and update.client_id <= self.last_id:
            raise ProtocolError(
                f"client {update.client_id} folded after client {self.last_id}: "
                "client ids must be unique and ascending"
            )
        if update.selected_count < 1:
            raise ProtocolError("every update must carry selected_count >= 1")
        if update.theta.shape != self.acc.shape:
            raise ProtocolError(f"client {update.client_id} uploaded mismatched parameter shapes")
        weight = update.selected_count / self.total
        self.acc += weight * update.theta
        self.last_id = update.client_id
        self.folded += update.selected_count

    def result(self) -> np.ndarray:
        if self.folded != self.total:
            raise ProtocolError(
                f"folded selected counts sum to {self.folded}, expected {self.total}"
            )
        return self.acc


def aggregate(updates: list[ClientUpdate]) -> np.ndarray:
    """Weighted average of the uploaded heads, weights = selected counts.

    Summation runs in ascending client id order so the result is independent
    of completion order.
    """
    if not updates:
        raise ParameterError("aggregate needs at least one client update")
    fold = UpdateFold(sum(u.selected_count for u in updates), updates[0].theta.shape)
    for update in sorted(updates, key=lambda u: u.client_id):
        fold.add(update)
    return fold.result()


def participant_count(num_clients: int, participation_fraction: float) -> int:
    """How many clients take part in a round: max(1, round(f_n * N)), at most N."""
    return min(num_clients, max(1, round(participation_fraction * num_clients)))


@dataclass(frozen=True)
class RunPlan:
    """What a run decides from its config and training pool before it trains:
    `kept[c]` is the count client c trains on in each round it takes part
    in, and `participants[r - 1]` the ascending ids of round r's clients."""

    config: FederationConfig
    train: Dataset
    partitions: list[ClientPartition]
    split_index: int  # the first layer trained: 0 for the whole model
    selector: str  # "entropy", "random", or "all" at p_ds 1, where none scores
    p_ds: float
    prox_mu: float  # 0 for a strategy with no pull
    kept: list[int]
    participants: list[list[int]]


def plan_run(config: FederationConfig, train: Dataset, alpha: float) -> RunPlan:
    """The plan of `config` on `train`, partitioned by Dir(`alpha`). A config
    that does not validate or a pool too small for its clients fails here."""
    config.validate()
    master = config.master_seed
    strategy = STRATEGIES[config.strategy]
    spec = PartitionSpec(config.num_clients, alpha, derive_seed(master, streams.PARTITION))
    partitions = dirichlet_partition(train, spec)
    p_ds = 1.0 if strategy.selector == "all" else config.p_ds
    count = participant_count(config.num_clients, config.participation_fraction)
    seeds = [derive_seed(master, streams.PARTICIPANTS, r) for r in range(1, config.rounds + 1)]
    return RunPlan(
        config=config,
        train=train,
        partitions=partitions,
        split_index=0 if strategy.whole_model else config.split_index,
        selector="all" if p_ds >= 1.0 else strategy.selector,
        p_ds=p_ds,
        prox_mu=config.prox_mu if strategy.proximal else 0.0,
        kept=[selection_count(len(part), p_ds) for part in partitions],
        participants=[
            sorted(derive_rng(seed).choice(config.num_clients, count, replace=False).tolist())
            for seed in seeds
        ],
    )


def evaluate_model(model: nn.Model, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) on a dataset."""
    logits = nn.layer_output(model, dataset.features, len(model.layers))
    probs = nn.softmax_with_temperature(logits, 1.0)
    loss = nn.cross_entropy_loss(probs, dataset.labels)
    accuracy = float((logits.argmax(axis=1) == dataset.labels).mean())
    return accuracy, loss


def _frozen_rows(model: nn.Model, dataset: Dataset, blocks: Optional[list] = None) -> Dataset:
    """`dataset` with each row replaced by its frozen features phi(x).

    phi runs on the whole dataset, which `nn.layer_output` takes in blocks
    of rows, or, given `blocks`, on one block of indices at a time, each
    written into the result. Either way only one block's activations exist
    beside the result. With nothing frozen phi is the identity and `dataset`
    itself is returned.
    """
    if model.split_index == 0:
        return dataset
    if blocks is None:
        rows = nn.layer_output(model, dataset.features, model.split_index)
    else:
        rows = np.empty((len(dataset), model.head().input_dim))
        for block in blocks:
            rows[block] = nn.layer_output(model, dataset.features[block], model.split_index)
    return Dataset(rows, dataset.labels, dataset.num_classes)


def run_federation(
    plan: RunPlan,
    start: nn.Model,
    test: Dataset,
    threads: int = 1,
    upload_hook: Optional[Callable[[int, int, np.ndarray], None]] = None,
    selection_hook: Optional[Callable[[int, int, SelectionResult], None]] = None,
) -> list[RoundReport]:
    """The rounds of `plan`, select/update/aggregate, training `start` in place.

    `start` is the pretrained global model from `initial_model`; its widths
    must match the plan's config and training pool, and its split is set
    here to the one the plan trains. After the call it is the global model
    after the last round. `test` is the held-out split evaluated after every
    round. Each participant's round is one job, selection then local update,
    run inline at `threads` 1 and on a pool of `threads` workers otherwise,
    with at most 2 * threads jobs submitted ahead of the one being folded.
    Every head-sized vector a job trains is made on the calling thread: its
    upload, a copy of the global head made as the job is submitted, and an
    optimizer with its vectors that it takes for the job and gives back; a
    round makes min(threads, participants) optimizers. After the round one
    copy puts the folded sum into the global head, which is stored in
    `start.theta`. Hooks fire on the main thread in ascending client order,
    `selection_hook` before `upload_hook`, as each client's update is folded
    into the global head; `upload_hook` gets the client's head vector, laid
    out like `start.theta`. Returns the round reports.
    """
    config, train, partitions = plan.config, plan.train, plan.partitions
    if test.feature_dim != train.feature_dim or test.num_classes != train.num_classes:
        raise ConfigError("test dataset is incompatible with the training pool")
    widths = [train.feature_dim, *config.hidden_sizes, train.num_classes]
    start_widths = [start.input_dim] + [
        layer.out_dim for layer in start.layers if isinstance(layer, nn.DenseLayer)
    ]
    if start_widths != widths:
        raise ConfigError(
            f"start model has widths {start_widths}, the config and training pool "
            f"need {widths}"
        )

    master, selector, p_ds = config.master_seed, plan.selector, plan.p_ds
    start.split_index = plan.split_index
    # The head is stored in `start.theta`: aggregating into the head updates
    # `start`, which stays the global model, frozen part and all.
    head = start.head()
    # phi is fixed from here on, so every sample goes through it once; the
    # head then selects, trains and evaluates on these rows alone.
    # The pool goes through phi one partition at a time, which fixes the
    # cached rows' bits: a product of few rows can round apart from the same
    # rows inside a larger one (see nn.BLOCK_ROWS).
    test_rows = _frozen_rows(start, test)
    train_rows = _frozen_rows(start, train, [p.sample_indices for p in partitions])
    # the optimizers' constants; at prox_mu 0 no pull vector is made
    rates = (config.learning_rate, config.momentum, plan.prox_mu)
    # Each client's device time is fixed by the plan's kept counts: scoring
    # is one forward per sample, training E epochs over the kept samples;
    # every forward is charged for the full model, frozen part included, and
    # every backward for the head that is trained.
    forward_flops = nn.forward_flops_per_sample(start)
    train_flops = forward_flops + nn.backward_flops_per_sample(head)
    device_seconds = [
        (len(part) * forward_flops * SECONDS_PER_FLOP if selector == "entropy" else 0.0)
        + config.local_epochs * kept * train_flops * SECONDS_PER_FLOP
        for part, kept in zip(partitions, plan.kept)
    ]
    cumulative_time = 0.0
    reports: list[RoundReport] = []

    def client_round(round_no: int, client_id: int, client: nn.Model, opts):
        """Select, then train `client`, the job's copy of the global head, on
        the selection with an optimizer taken from `opts` and given back:
        (selection, update). A NumericError names the round and the client."""
        opt = opts.get(block=False)  # never empty: one per job that can run at once
        try:
            part = partitions[client_id]
            if selector == "entropy":
                chosen = select_by_entropy(head, train_rows, part, p_ds, config.rho)
            elif selector == "random":
                chosen = select_random(part, p_ds, derive_seed(master, streams.SELECTION, round_no))
            else:
                chosen = select_all(part)
            subset = train_rows.subset(chosen.selected_indices)
            epoch_seeds = [
                derive_seed(master, streams.SHUFFLE, round_no, client_id, epoch)
                for epoch in range(config.local_epochs)
            ]
            update = fedprox_local_update(
                client_id, head, subset, config.batch_size, epoch_seeds, client, opt
            )
        except NumericError as exc:
            raise NumericError(f"round {round_no}, client {client_id}: {exc}") from exc
        finally:
            opts.put(opt)
        return chosen, update

    # No worker thread starts unless a job is submitted, i.e. threads > 1.
    with ThreadPoolExecutor(max_workers=threads) as pool:

        def client_rounds(round_no: int, clients: list[int]):
            """client_round for each client in client order; at threads > 1 at
            most 2 * threads jobs run ahead, so updates cannot pile up behind
            a slow hook.

            The jobs' head-sized vectors are made here, on the calling
            thread, so that no worker's malloc arena keeps one: each job's
            upload, a copy of the global head, which does not change during
            the round, and one optimizer per job that can run at once,
            min(threads, len(clients)), in this round's own queue. A job
            holds one at a time, so no job waits for one. The queue is never
            emptied, so a job that starts after another has failed still
            finds one; they go with the round.
            """
            opts = queue.SimpleQueue()
            for _ in range(min(threads, len(clients))):
                opts.put(nn.OptimizerState.like(head.params, *rates))
            if threads == 1:
                yield from (client_round(round_no, c, head.copy(), opts) for c in clients)
                return
            ahead = deque()
            try:
                for client_id in clients:
                    # each job runs in a copy of the caller's context, so
                    # numpy's error state holds on the workers too
                    job = contextvars.copy_context().run
                    ahead.append(
                        pool.submit(job, client_round, round_no, client_id, head.copy(), opts)
                    )
                    if len(ahead) > 2 * threads:
                        yield ahead.popleft().result()
                while ahead:
                    yield ahead.popleft().result()
            finally:
                for future in ahead:
                    future.cancel()

        for round_no, participants in enumerate(plan.participants, start=1):
            # The fold's accumulator is made before the round's other
            # head-sized vectors, and those are all freed before evaluation,
            # so the top of the heap is free for evaluation's layer outputs,
            # which glibc would otherwise map afresh.
            fold = UpdateFold(sum(plan.kept[c] for c in participants), head.params.shape)
            for chosen, update in client_rounds(round_no, participants):
                if selection_hook is not None:
                    selection_hook(round_no, update.client_id, chosen)
                if upload_hook is not None:
                    upload_hook(round_no, update.client_id, update.theta)
                cumulative_time += device_seconds[update.client_id]
                fold.add(update)
            del chosen, update

            np.copyto(head.theta, fold.result())
            accuracy, loss = evaluate_model(head, test_rows)
            report = RoundReport(
                round=round_no,
                participants=participants,
                test_accuracy=accuracy,
                test_loss=loss,
                cumulative_client_train_time=cumulative_time,
                total_selected=fold.total,
            )
            reports.append(report)
            log.info(
                "round %d/%d: acc=%.4f loss=%.4f participants=%d",
                round_no,
                config.rounds,
                accuracy,
                loss,
                len(participants),
            )
    return reports


def write_reports_csv(reports: list[RoundReport], strategy: str, path) -> None:
    """Per-round metrics as CSV (comma separated, LF endings)."""
    rows = (
        [
            r.round,
            strategy,
            ";".join(str(c) for c in r.participants),
            repr(float(r.test_accuracy)),
            repr(float(r.test_loss)),
            repr(float(r.cumulative_client_train_time)),
            r.total_selected,
        ]
        for r in reports
    )
    write_csv(path, REPORT_CSV_COLUMNS, rows)


def read_reports_csv(path) -> list[RoundReport]:
    """Parse a CSV written by write_reports_csv; the strategy column is not kept.

    A file without the report columns, or with a row that does not parse,
    raises ConfigError naming the file.
    """
    reports = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in REPORT_CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path} lacks the report columns {', '.join(missing)}")
        for row in reader:
            try:
                reports.append(
                    RoundReport(
                        round=int(row["round"]),
                        participants=[int(c) for c in row["participants"].split(";") if c],
                        test_accuracy=float(row["test_acc"]),
                        test_loss=float(row["test_loss"]),
                        cumulative_client_train_time=float(row["cum_client_time_s"]),
                        total_selected=int(row["total_selected"]),
                    )
                )
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{path}, line {reader.line_num}: bad report row ({exc})"
                ) from exc
    return reports
