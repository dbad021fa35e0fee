"""Pretraining, then the round loop: client sampling, local updates, aggregation.

The caller builds the start model once with `initial_model` (built from the
master seed, then pretrained on the source domain) and hands it to
`run_federation`, which trains it in place. One round samples the
participating clients and runs one job per participant: select a per-round
training subset according to the configured strategy, then run E local
epochs on that subset. The uploaded head parameters are aggregated weighted
by the number of samples each client actually trained on; every selector
keeps a count fixed by the client's size, so the total weight is known
before any job runs and each upload is folded in as it arrives. The frozen
feature extractor is fixed once pretraining ends, so its output is computed
once per sample and the rounds run on the head alone.

Client "training time" is a deterministic device-effort model (sample visits
times the full model's per-sample cost at a nominal 1 GFLOP/s), not measured
wall clock, so that identical seeds give byte-identical reports regardless of
scheduling. Its inputs are all known before round 1, so the round loop fixes
each client's charge then and adds it as that client's update is folded.
"""

from __future__ import annotations

import csv
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from . import rng as streams
from .data import ClientPartition, Dataset, partition_covers, write_csv
from .errors import ConfigError, NumericError, ParameterError, ProtocolError
from .rng import derive_rng, derive_seed
from .selection import (
    SelectionResult, select_all, select_by_entropy, select_random, selection_count
)

log = logging.getLogger("fedsim.federation")

SECONDS_PER_FLOP = 1e-9  # nominal 1 GFLOP/s client device
FROZEN_BLOCK_ROWS = 512  # test rows per frozen-extractor call when caching phi

STRATEGIES = ("fedavg", "fedprox", "fedft_rds", "fedft_eds", "fedft_all")

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
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
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
        if not self.rho > 0.0:
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.prox_mu >= 0.0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")
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

    @property
    def effective_split_index(self) -> int:
        """fedavg/fedprox always train the full model."""
        if self.strategy in ("fedavg", "fedprox"):
            return 0
        return self.split_index

    @property
    def effective_p_ds(self) -> float:
        """fedft_all always trains on everything."""
        if self.strategy == "fedft_all":
            return 1.0
        return self.p_ds

    def as_dict(self) -> dict:
        out = asdict(self)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out


@dataclass
class ClientUpdate:
    client_id: int
    theta: list[np.ndarray]
    selected_count: int


@dataclass
class RoundReport:
    round: int
    participants: list[int]
    test_accuracy: float
    test_loss: float
    cumulative_client_train_time: float
    total_selected: int = 0
    comm_bytes: int = 0


def _run_epochs(
    model: nn.Model,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    opt: nn.OptimizerState,
    batch_size: int,
    epoch_seeds: list[int],
    prox_mu: float = 0.0,
) -> None:
    """Mini-batch SGD in place; one shuffle per epoch from the given seeds.

    A nonzero prox_mu adds the FedProx pull mu * (theta - theta_t) to every
    gradient, theta_t being the trainable layers as this call found them.
    """
    theta_ref = None
    if prox_mu != 0.0:
        theta_ref = {
            idx: (model.layers[idx].weights.copy(), model.layers[idx].bias.copy())
            for idx in model.trainable_layer_indices()
        }
    n = features.shape[0]
    for epoch in range(epochs):
        order = derive_rng(epoch_seeds[epoch]).permutation(n)
        for start in range(0, n, batch_size):
            chosen = order[start : start + batch_size]
            xb = features[chosen]
            yb = labels[chosen]
            grads = nn.backward(model, xb, yb)
            if theta_ref is not None:
                for idx, (dw, db) in grads.by_layer.items():
                    layer = model.layers[idx]
                    ref_w, ref_b = theta_ref[idx]
                    dw += prox_mu * (layer.weights - ref_w)
                    db += prox_mu * (layer.bias - ref_b)
            nn.sgd_step(model, grads, opt)


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

    The split is ignored while pretraining and restored on the result, so
    the returned model is ready to be fine-tuned as {frozen phi, head}.
    """
    if source is None or len(source) < 1:
        raise ParameterError("pretraining needs a nonempty source dataset")
    trained = model.copy()
    original_split = trained.split_index
    trained.split_index = 0
    opt = nn.OptimizerState(learning_rate=learning_rate, momentum=momentum)
    epoch_seeds = [derive_seed(seed, epoch) for epoch in range(epochs)]
    _run_epochs(trained, source.features, source.labels, epochs, opt, batch_size, epoch_seeds)
    trained.split_index = original_split
    return trained


def initial_model(config: FederationConfig, source: Dataset, train: Dataset) -> nn.Model:
    """The model a run starts from: built from the master seed, then pretrained.

    The architecture follows `train`, the pretraining data is `source`, which
    must share its feature width and class count.
    """
    if source.feature_dim != train.feature_dim or source.num_classes != train.num_classes:
        raise ConfigError("source dataset is incompatible with the training pool")
    master = config.master_seed
    model = nn.build_mlp(
        input_dim=train.feature_dim,
        hidden_sizes=config.hidden_sizes,
        num_classes=train.num_classes,
        split_index=config.effective_split_index,
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


def _local_update(
    client_id: int,
    model: nn.Model,
    data: Dataset,
    epochs: int,
    opt: nn.OptimizerState,
    prox_mu: float,
    batch_size: int,
    epoch_seeds: list[int],
) -> ClientUpdate:
    """The body of both local updates; prox_mu = 0 is the plain update."""
    if len(data) < 1:
        raise ParameterError("client update needs a nonempty selected subset")
    if len(epoch_seeds) < epochs:
        raise ParameterError(f"need {epochs} epoch seeds, got {len(epoch_seeds)}")
    if not prox_mu >= 0.0:
        raise ParameterError(f"prox_mu must be >= 0, got {prox_mu}")
    _run_epochs(model, data.features, data.labels, epochs, opt, batch_size, epoch_seeds, prox_mu)
    return ClientUpdate(client_id=client_id, theta=nn.copy_theta(model), selected_count=len(data))


def client_local_update(
    client_id: int,
    model: nn.Model,
    selected: Dataset,
    epochs: int,
    opt: nn.OptimizerState,
    batch_size: int,
    epoch_seeds: list[int],
) -> ClientUpdate:
    """E epochs of mini-batch SGD on the selected subset, head only.

    Mutates the given model (the client's own copy of the global model).
    """
    return _local_update(client_id, model, selected, epochs, opt, 0.0, batch_size, epoch_seeds)


def fedprox_local_update(
    client_id: int,
    model: nn.Model,
    data: Dataset,
    epochs: int,
    opt: nn.OptimizerState,
    prox_mu: float,
    batch_size: int,
    epoch_seeds: list[int],
) -> ClientUpdate:
    """Local update with a proximal pull mu * (theta - theta_t) added per step."""
    return _local_update(client_id, model, data, epochs, opt, prox_mu, batch_size, epoch_seeds)


class UpdateFold:
    """Running weighted sum of client updates: acc += (count / total) * theta.

    Updates are added one at a time in ascending client id, so the sum has one
    fixed order and only the running total is held. `total` is the summed
    selected count of every update that will be added. This is the one
    aggregation path: `aggregate` adds a sorted list, the round loop each
    update as it arrives.
    """

    def __init__(self, total: int):
        self.total = total
        self.folded = 0
        self.last_id: int | None = None
        self.acc: list[np.ndarray] | None = None

    def add(self, update: ClientUpdate) -> None:
        if self.last_id is not None and update.client_id <= self.last_id:
            raise ProtocolError(
                f"client {update.client_id} folded after client {self.last_id}: "
                "client ids must be unique and ascending"
            )
        if update.selected_count < 1:
            raise ProtocolError("every update must carry selected_count >= 1")
        if self.acc is None:
            self.acc = [np.zeros(arr.shape) for arr in update.theta]
        elif [arr.shape for arr in update.theta] != [acc.shape for acc in self.acc]:
            raise ProtocolError(f"client {update.client_id} uploaded mismatched parameter shapes")
        weight = update.selected_count / self.total
        for acc, arr in zip(self.acc, update.theta):
            acc += weight * arr
        self.last_id = update.client_id
        self.folded += update.selected_count

    def result(self) -> list[np.ndarray]:
        if self.acc is None:
            raise ParameterError("aggregate needs at least one client update")
        if self.folded != self.total:
            raise ProtocolError(
                f"folded selected counts sum to {self.folded}, expected {self.total}"
            )
        return self.acc


def aggregate(updates: list[ClientUpdate]) -> list[np.ndarray]:
    """Weighted average of head parameters, weights = selected counts.

    Summation runs in ascending client id order so the result is independent
    of completion order.
    """
    fold = UpdateFold(sum(u.selected_count for u in updates))
    for update in sorted(updates, key=lambda u: u.client_id):
        fold.add(update)
    return fold.result()


def sample_participants(num_clients: int, participation_fraction: float, round_seed: int) -> np.ndarray:
    """Ascending ids of the max(1, round(f_n * N)) clients active this round."""
    if not 0.0 < participation_fraction <= 1.0:
        raise ParameterError(
            f"participation_fraction must be in (0, 1], got {participation_fraction}"
        )
    count = min(num_clients, max(1, round(participation_fraction * num_clients)))
    rng = derive_rng(round_seed)
    return np.sort(rng.choice(num_clients, size=count, replace=False))


def evaluate_model(model: nn.Model, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) on a dataset."""
    logits = nn.layer_output(model, dataset.features, len(model.layers))
    probs = nn.softmax_with_temperature(logits, 1.0)
    loss = nn.cross_entropy_loss(probs, dataset.labels)
    accuracy = float((logits.argmax(axis=1) == dataset.labels).mean())
    return accuracy, loss


def _frozen_rows(model: nn.Model, dataset: Dataset, blocks: list, width: int) -> Dataset:
    """`dataset` with each row replaced by its `width` frozen features phi(x).

    Rows go through phi one block of indices at a time, so only one block's
    activations exist beside the result. With nothing frozen phi is the
    identity and `dataset` itself is returned.
    """
    if model.split_index == 0:
        return dataset
    rows = np.empty((len(dataset), width))
    for block in blocks:
        rows[block] = nn.layer_output(model, dataset.features[block], model.split_index)
    return Dataset(rows, dataset.labels, dataset.num_classes, dataset.name)


def run_federation(
    config: FederationConfig,
    start: nn.Model,
    train: Dataset,
    partitions: list[ClientPartition],
    test: Dataset,
    threads: int = 1,
    client_model_hook: Optional[Callable[[int, int, nn.Model], None]] = None,
    selection_hook: Optional[Callable[[int, int, SelectionResult], None]] = None,
) -> list[RoundReport]:
    """T rounds of select/update/aggregate, training `start` in place.

    `start` is the pretrained global model from `initial_model`; its
    architecture must match `train` and `config`, split included. After the
    call it is the global model after the last round. `train` is the
    client-side pool covered by `partitions`; `test` is the held-out split
    evaluated after every round. Each participant's round is one job,
    selection then local update, run inline at `threads` 1 and on a pool of
    `threads` workers otherwise, with at most 2 * threads jobs submitted
    ahead of the one being folded. Hooks fire on the main thread in
    ascending client order, `selection_hook` before `client_model_hook`, as
    each client's update is folded into the global head; a round holds only
    the client models still in flight.
    Returns the round reports.
    """
    config.validate()
    if len(partitions) != config.num_clients:
        raise ConfigError(
            f"got {len(partitions)} partitions for {config.num_clients} clients"
        )
    if not partition_covers(partitions, len(train)):
        raise ConfigError("partitions must be a disjoint cover of the training pool")
    if test.feature_dim != train.feature_dim or test.num_classes != train.num_classes:
        raise ConfigError("test dataset is incompatible with the training pool")
    widths = [train.feature_dim, *config.hidden_sizes, train.num_classes]
    start_widths = [start.input_dim] + [
        layer.out_dim for layer in start.layers if isinstance(layer, nn.DenseLayer)
    ]
    split = config.effective_split_index
    if start_widths != widths or start.split_index != split:
        raise ConfigError(
            f"start model has widths {start_widths} and split {start.split_index}, "
            f"the config and training pool need {widths} and split {split}"
        )

    master = config.master_seed
    # The head shares its layer objects with `start`: aggregating into the
    # head updates `start`, which stays the global model, frozen part and all.
    head = nn.Model(start.layers[split:], 0, start.num_classes)
    # phi is fixed from here on, so every sample goes through it once; the
    # head then selects, trains and evaluates on these rows alone.
    test_blocks = [slice(s, s + FROZEN_BLOCK_ROWS) for s in range(0, len(test), FROZEN_BLOCK_ROWS)]
    test_rows = _frozen_rows(start, test, test_blocks, head.input_dim)
    train_rows = _frozen_rows(start, train, [p.sample_indices for p in partitions], head.input_dim)
    p_ds = config.effective_p_ds
    # one flag picks the entropy selector and charges its scoring pass
    scores = config.strategy == "fedft_eds" and p_ds < 1.0
    # Every selector keeps selection_count(n, p_ds) samples, so each round's
    # total weight is known before any job runs and each update can be folded
    # into the head as it arrives, then dropped.
    kept_counts = [selection_count(len(part), p_ds) for part in partitions]
    # So each client's device time is fixed too: scoring is one forward per
    # sample, training E epochs over the kept samples, both charged for the
    # full model, frozen part included.
    forward_flops = nn.forward_flops_per_sample(start)
    train_flops = forward_flops + nn.backward_flops_per_sample(start)
    device_seconds = [
        (len(part) * forward_flops * SECONDS_PER_FLOP if scores else 0.0)
        + config.local_epochs * kept * train_flops * SECONDS_PER_FLOP
        for part, kept in zip(partitions, kept_counts)
    ]
    theta_count = nn.theta_param_count(start)
    cumulative_time = 0.0
    reports: list[RoundReport] = []

    def client_round(round_no: int, client_id: int):
        """Select, then train on the selection. Returns (selection, update,
        model for the hook); a NumericError names the round and the client."""
        try:
            part = partitions[client_id]
            if scores:
                chosen = select_by_entropy(head, train_rows, part, p_ds, config.rho)
            elif p_ds >= 1.0:
                chosen = select_all(part)
            else:
                chosen = select_random(part, p_ds, derive_seed(master, streams.SELECTION, round_no))
            client_head = head.copy()
            subset = train_rows.subset(chosen.selected_indices)
            opt = nn.OptimizerState(learning_rate=config.learning_rate, momentum=config.momentum)
            epoch_seeds = [
                derive_seed(master, streams.SHUFFLE, round_no, client_id, epoch)
                for epoch in range(config.local_epochs)
            ]
            if config.strategy == "fedprox":
                update = fedprox_local_update(
                    client_id,
                    client_head,
                    subset,
                    config.local_epochs,
                    opt,
                    config.prox_mu,
                    config.batch_size,
                    epoch_seeds,
                )
            else:
                update = client_local_update(
                    client_id,
                    client_head,
                    subset,
                    config.local_epochs,
                    opt,
                    config.batch_size,
                    epoch_seeds,
                )
        except NumericError as exc:
            raise NumericError(f"round {round_no}, client {client_id}: {exc}") from exc
        kept_model = None
        if client_model_hook is not None:
            # the frozen layer objects are the global model's own
            kept_model = nn.Model(
                start.layers[:split] + client_head.layers, split, start.num_classes
            )
        return chosen, update, kept_model

    # No worker thread starts unless a job is submitted, i.e. threads > 1.
    with ThreadPoolExecutor(max_workers=threads) as pool:

        def client_rounds(round_no: int, clients: list[int]):
            """client_round for each client in client order; at threads > 1 at
            most 2 * threads jobs run ahead, so updates cannot pile up behind
            a slow hook."""
            if threads == 1:
                yield from (client_round(round_no, c) for c in clients)
                return
            ahead = deque()
            try:
                for client_id in clients:
                    ahead.append(pool.submit(client_round, round_no, client_id))
                    if len(ahead) > 2 * threads:
                        yield ahead.popleft().result()
                while ahead:
                    yield ahead.popleft().result()
            finally:
                for future in ahead:
                    future.cancel()

        for round_no in range(1, config.rounds + 1):
            participants = [
                int(cid)
                for cid in sample_participants(
                    config.num_clients,
                    config.participation_fraction,
                    derive_seed(master, streams.PARTICIPANTS, round_no),
                )
            ]
            fold = UpdateFold(sum(kept_counts[c] for c in participants))
            for chosen, update, kept_model in client_rounds(round_no, participants):
                if selection_hook is not None:
                    selection_hook(round_no, update.client_id, chosen)
                if kept_model is not None:
                    client_model_hook(round_no, update.client_id, kept_model)
                cumulative_time += device_seconds[update.client_id]
                fold.add(update)

            nn.set_theta(head, fold.result())
            accuracy, loss = evaluate_model(head, test_rows)
            report = RoundReport(
                round=round_no,
                participants=participants,
                test_accuracy=accuracy,
                test_loss=loss,
                cumulative_client_train_time=cumulative_time,
                total_selected=fold.total,
                comm_bytes=len(participants) * 2 * theta_count * 8,
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
    """Parse a CSV written by write_reports_csv (strategy and comm_bytes are not kept).

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
