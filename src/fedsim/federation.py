"""Round loop: pretraining, client sampling, local updates, aggregation.

One round samples the participating clients, lets each select a per-round
training subset according to the configured strategy, runs E local epochs on
that subset and aggregates the uploaded head parameters weighted by the
number of samples each client actually trained on. The frozen feature
extractor is fixed once pretraining ends, so its output is computed once per
sample and the rounds run on the head alone.

Client "training time" is a deterministic device-effort model (sample visits
times per-sample cost at a nominal 1 GFLOP/s), not measured wall clock, so
that identical seeds give byte-identical reports regardless of scheduling.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import nn
from . import rng as streams
from .data import ClientPartition, Dataset, partition_covers
from .errors import ConfigError, NumericError, ParameterError, ProtocolError
from .rng import derive_rng, derive_seed
from .selection import SelectionResult, select_all, select_by_entropy, select_random

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
        if self.prox_mu < 0.0:
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
    train_time_seconds: float


@dataclass
class RoundReport:
    round: int
    participants: list[int]
    test_accuracy: float
    test_loss: float
    cumulative_client_train_time: float
    selected_counts: dict[int, int] = field(default_factory=dict)
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
    theta_ref: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> None:
    """Mini-batch SGD in place; one shuffle per epoch from the given seeds."""
    n = features.shape[0]
    for epoch in range(epochs):
        order = derive_rng(epoch_seeds[epoch]).permutation(n)
        for start in range(0, n, batch_size):
            chosen = order[start : start + batch_size]
            xb = features[chosen]
            yb = labels[chosen]
            grads = nn.backward(model, xb, yb)
            if prox_mu != 0.0 and theta_ref is not None:
                for idx, (dw, db) in grads.by_layer.items():
                    layer = model.layers[idx]
                    ref_w, ref_b = theta_ref[idx]
                    dw += prox_mu * (layer.weights - ref_w)
                    db += prox_mu * (layer.bias - ref_b)
            nn.sgd_step(model, grads, opt)


def _train_time_seconds(
    model: nn.Model, sample_visits: int, flops_per_sample: int | None
) -> float:
    if flops_per_sample is None:
        flops_per_sample = nn.forward_flops_per_sample(model) + nn.backward_flops_per_sample(model)
    return sample_visits * flops_per_sample * SECONDS_PER_FLOP


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

    The architecture follows `train`, the pretraining data is `source`.
    """
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


def client_local_update(
    client_id: int,
    model: nn.Model,
    selected: Dataset,
    epochs: int,
    opt: nn.OptimizerState,
    batch_size: int,
    epoch_seeds: list[int],
    flops_per_sample: int | None = None,
) -> ClientUpdate:
    """E epochs of mini-batch SGD on the selected subset, head only.

    Mutates the given model (the client's own copy of the global model) and
    reports the modeled device-effort training time: flops_per_sample per
    sample visit, by default the forward plus head-backward cost of `model`.
    A head trained on cached frozen features passes the full model's cost,
    so the frozen forward the device would run is still charged.
    """
    if len(selected) < 1:
        raise ParameterError("client update needs a nonempty selected subset")
    if len(epoch_seeds) < epochs:
        raise ParameterError(f"need {epochs} epoch seeds, got {len(epoch_seeds)}")
    _run_epochs(model, selected.features, selected.labels, epochs, opt, batch_size, epoch_seeds)
    return ClientUpdate(
        client_id=client_id,
        theta=nn.copy_theta(model),
        selected_count=len(selected),
        train_time_seconds=_train_time_seconds(model, epochs * len(selected), flops_per_sample),
    )


def fedprox_local_update(
    client_id: int,
    model: nn.Model,
    data: Dataset,
    epochs: int,
    opt: nn.OptimizerState,
    prox_mu: float,
    batch_size: int,
    epoch_seeds: list[int],
    flops_per_sample: int | None = None,
) -> ClientUpdate:
    """Local update with a proximal pull mu * (theta - theta_t) added per step.

    The modeled time is charged as in client_local_update.
    """
    if prox_mu < 0.0:
        raise ParameterError(f"prox_mu must be >= 0, got {prox_mu}")
    if len(data) < 1:
        raise ParameterError("client update needs a nonempty selected subset")
    theta_ref = {
        idx: (model.layers[idx].weights.copy(), model.layers[idx].bias.copy())
        for idx in model.trainable_layer_indices()
    }
    _run_epochs(
        model,
        data.features,
        data.labels,
        epochs,
        opt,
        batch_size,
        epoch_seeds,
        prox_mu=prox_mu,
        theta_ref=theta_ref,
    )
    return ClientUpdate(
        client_id=client_id,
        theta=nn.copy_theta(model),
        selected_count=len(data),
        train_time_seconds=_train_time_seconds(model, epochs * len(data), flops_per_sample),
    )


def aggregate(updates: list[ClientUpdate]) -> list[np.ndarray]:
    """Weighted average of head parameters, weights = selected counts.

    Summation runs in ascending client id order so the result is independent
    of completion order.
    """
    if not updates:
        raise ParameterError("aggregate needs at least one client update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ProtocolError(f"duplicate client ids in updates: {ids}")
    if any(u.selected_count < 1 for u in ordered):
        raise ProtocolError("every update must carry selected_count >= 1")
    shapes = [arr.shape for arr in ordered[0].theta]
    for u in ordered[1:]:
        if [arr.shape for arr in u.theta] != shapes:
            raise ProtocolError(f"client {u.client_id} uploaded mismatched parameter shapes")
    total = float(sum(u.selected_count for u in ordered))
    result = [np.zeros(shape) for shape in shapes]
    for u in ordered:
        weight = u.selected_count / total
        for acc, arr in zip(result, u.theta):
            acc += weight * arr
    return result


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
    logits, _ = nn.forward(model, dataset.features)
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
        rows[block] = nn.frozen_features(model, dataset.features[block])
    return Dataset(rows, dataset.labels, dataset.num_classes, dataset.name)


def run_federation(
    config: FederationConfig,
    source: Dataset,
    train: Dataset,
    partitions: list[ClientPartition],
    test: Dataset,
    threads: int = 1,
    client_model_hook: Optional[Callable[[int, int, nn.Model], None]] = None,
    selection_hook: Optional[Callable[[int, int, SelectionResult], None]] = None,
) -> tuple[list[RoundReport], nn.Model]:
    """Full protocol: pretrain, then T rounds of select/update/aggregate.

    `train` is the client-side pool covered by `partitions`; `test` is the
    held-out split evaluated after every round. Hooks fire on the main
    thread in ascending client order once a round's updates are collected.
    Returns the round reports and the global model after the last round.
    """
    config.validate()
    if len(partitions) != config.num_clients:
        raise ConfigError(
            f"got {len(partitions)} partitions for {config.num_clients} clients"
        )
    if not partition_covers(partitions, len(train)):
        raise ConfigError("partitions must be a disjoint cover of the training pool")
    for ds, role in ((source, "source"), (test, "test")):
        if ds.feature_dim != train.feature_dim or ds.num_classes != train.num_classes:
            raise ConfigError(f"{role} dataset is incompatible with the training pool")

    master = config.master_seed
    model = initial_model(config, source, train)
    split = model.split_index
    # The head shares its layer objects with `model`: aggregating into the
    # head updates `model`, which stays the global model, frozen part and all.
    head = nn.Model(model.layers[split:], 0, model.num_classes)
    # phi is fixed from here on, so every sample goes through it once; the
    # head then selects, trains and evaluates on these rows alone.
    test_blocks = [slice(s, s + FROZEN_BLOCK_ROWS) for s in range(0, len(test), FROZEN_BLOCK_ROWS)]
    test_rows = _frozen_rows(model, test, test_blocks, head.input_dim)
    train_rows = _frozen_rows(model, train, [p.sample_indices for p in partitions], head.input_dim)
    p_ds = config.effective_p_ds
    # device time is charged for the full model, frozen forward included
    forward_flops = nn.forward_flops_per_sample(model)
    train_flops = forward_flops + nn.backward_flops_per_sample(model)
    theta_count = nn.theta_param_count(model)
    cumulative_time = 0.0
    reports: list[RoundReport] = []

    def client_round(round_no: int, client_id: int, rds_seed: int):
        try:
            client_head = head.copy()
            part = partitions[client_id]
            selection_seconds = 0.0
            if p_ds >= 1.0:
                chosen = select_all(part)
            elif config.strategy == "fedft_eds":
                chosen = select_by_entropy(client_head, train_rows, part, p_ds, config.rho)
                selection_seconds = len(part) * forward_flops * SECONDS_PER_FLOP
            else:
                chosen = select_random(part, p_ds, rds_seed)
            subset = train_rows.subset(chosen.selected_indices)
            opt = nn.OptimizerState(
                learning_rate=config.learning_rate, momentum=config.momentum
            )
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
                    train_flops,
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
                    train_flops,
                )
            kept_model = None
            if client_model_hook is not None:
                # the frozen layer objects are the global model's own
                kept_model = nn.Model(
                    model.layers[:split] + client_head.layers, split, model.num_classes
                )
            return update, chosen, selection_seconds, kept_model
        except NumericError as exc:
            raise NumericError(f"round {round_no}, client {client_id}: {exc}") from exc

    # No worker thread starts unless jobs are submitted, i.e. threads > 1.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run_jobs = pool.map if threads > 1 else map
        for round_no in range(1, config.rounds + 1):
            participants = sample_participants(
                config.num_clients,
                config.participation_fraction,
                derive_seed(master, streams.PARTICIPANTS, round_no),
            )
            rds_seed = derive_seed(master, streams.SELECTION, round_no)
            jobs = [(round_no, int(cid), rds_seed) for cid in participants]
            results = list(run_jobs(lambda args: client_round(*args), jobs))

            updates = []
            selected_counts: dict[int, int] = {}
            for (update, chosen, selection_seconds, kept_model) in results:
                if selection_hook is not None:
                    selection_hook(round_no, update.client_id, chosen)
                if kept_model is not None:
                    client_model_hook(round_no, update.client_id, kept_model)
                cumulative_time += selection_seconds + update.train_time_seconds
                selected_counts[update.client_id] = update.selected_count
                updates.append(update)

            nn.set_theta(head, aggregate(updates))
            accuracy, loss = evaluate_model(head, test_rows)
            report = RoundReport(
                round=round_no,
                participants=[int(c) for c in participants],
                test_accuracy=accuracy,
                test_loss=loss,
                cumulative_client_train_time=cumulative_time,
                selected_counts=selected_counts,
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
    return reports, model


def write_reports_csv(reports: list[RoundReport], strategy: str, path) -> None:
    """Per-round metrics as CSV (comma separated, LF endings)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.round,
                    strategy,
                    ";".join(str(c) for c in r.participants),
                    repr(float(r.test_accuracy)),
                    repr(float(r.test_loss)),
                    repr(float(r.cumulative_client_train_time)),
                    sum(r.selected_counts.values()),
                ]
            )


def read_reports_csv(path) -> list[RoundReport]:
    """Parse a CSV written by write_reports_csv (selection detail is lossy)."""
    reports = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            participants = [int(c) for c in row["participants"].split(";") if c]
            reports.append(
                RoundReport(
                    round=int(row["round"]),
                    participants=participants,
                    test_accuracy=float(row["test_acc"]),
                    test_loss=float(row["test_loss"]),
                    cumulative_client_train_time=float(row["cum_client_time_s"]),
                    selected_counts={},
                )
            )
    return reports
