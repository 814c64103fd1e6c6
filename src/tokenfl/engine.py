"""Round orchestration across the two incentive mechanisms, in two passes.

play_game first plays a run's whole token game from its config alone,
with no dataset or model: strategy.play_rounds, nash_check's loop too,
settles token expiry, group scheduling, freshness bar and eviction,
participation decision, token credit and model purchase for all clients
at once, each client a lane of its arrays, until every client is
evicted, and play_game records each round it yields as one row of
(horizon, clients) arrays, one per COLUMNS entry, filling the rows after
the last eviction in one step. A run's one record is a Run of those
columns plus a local_accuracy column and a global_accuracy array, NaN
until scored. Then run_round runs each round's learning step from that
round's trainer, buyer and drifter masks: local training on each
participant's owned model, gradient randomization, weighted aggregation,
handing each buyer the new global model, and evaluation into the Run's
accuracy cells, each client's training one task on learning's thread
pool.
run_simulation returns the Run cut to the rounds it ran. The uploads
stream into aggregate in client order as the pool yields them, so a
round holds about workers + 1 of them, not one per trainer. Each
client's partition is a row-index Subset of the loaded train set,
trained on in place, and the two test splits are Subsets of the loaded
test set, scored in place. Each model is one read-only _Model, validated
once where it is made, and all its holders share that _Model and so one
record of its scores. Clients evicted in an earlier round keep training
locally on their stale model, outside the federation. Every random
stream is derived from (seed, purpose, client, round), so a run is a
pure function of its config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

# model_age, load_mnist, value, client_round_payoff and
# decide_participation go unused here; perfbench/run.py instrument()
# patches them by name on this module.
from .economy import FreshnessPolicy, TokenLedger, model_age
from .learning import (
    CLASSES,
    DEFAULT_LAYERS,
    MNIST_FILES,
    ModelParams,
    Subset,
    aggregate,
    evaluate,
    init_model,
    load_mnist,
    local_train,
    partition,
    pool_imap,
)
from .mechanisms import (
    MechanismParams,
    baseline_token_reward,
    reward,
    utility,
    value,
    value_table,
)
from .privacy import LDP_MECHANISMS, LdpConfig, LdpMechanism, perturb_gradients
from .strategy import (
    Players,
    client_round_payoff,
    decide_participation,
    play_rounds,
)

__all__ = [
    "MECHANISMS",
    "SCHEMES",
    "BASELINE_PRICE",
    "ConfigError",
    "LearningParams",
    "SimConfig",
    "COLUMNS",
    "EngineState",
    "Run",
    "play_game",
    "check_inputs",
    "init_state",
    "run_round",
    "run_simulation",
]

Mechanism = Literal["baseline", "strategic"]
Scheme = Literal["identical", "disjoint", "intermediary"]
MECHANISMS = get_args(Mechanism)
SCHEMES = get_args(Scheme)

# The legacy scheme prices the model at one token so its 0.5..1.0 rewards
# force low-budget clients to skip purchases on some rounds.
BASELINE_PRICE = 1.0
# Baseline rewards are at least half that price and every affordable model
# is bought, oldest lots first, so at most the newest two lots still hold
# tokens after a round: the oldest of three slots is drained when the next
# round's credit shifts it out.
BASELINE_SLOTS = 3

_KIND_INIT = 0
_KIND_PARTITION = 1
_KIND_SPLIT = 2
_KIND_TRAIN = 3
_KIND_PERTURB = 4

_LOCAL_TEST_FRACTION = 0.2


def _stream(seed, kind, client=0, round_index=0):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(kind, client, round_index))
    )


class ConfigError(ValueError):
    """An input a run refuses, named by its config field path or dataset
    file; exit_code is 2 for a config field, 1 for a file or directory."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass(frozen=True)
class LearningParams:
    """The local training step: each trainer takes `batches` minibatches
    of `batch_size` rows a round, and the server and drifters step by
    `lr` along the uploads."""

    batches: int = 30
    batch_size: int = 64
    lr: float = 0.025

    def __post_init__(self):
        if self.batches < 0 or self.batch_size < 1:
            raise ValueError(
                f"need batches >= 0 and batch_size >= 1, got {self.batches}, {self.batch_size}"
            )
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    mechanism: Mechanism = "strategic"
    clients: int = 3
    params: MechanismParams = field(default_factory=MechanismParams)
    scheme: Scheme = "identical"
    eps: float | list[float] | None = None
    learning: LearningParams = field(default_factory=LearningParams)
    horizon: int = 50
    seed: int = 0
    ldp: bool = True
    ldp_mechanism: LdpMechanism = "two_point"
    clip_radius: float = 1.0
    stop_accuracy: float | None = 0.97
    data_dir: str | None = None

    def __post_init__(self):
        for name, choices in (("mechanism", MECHANISMS), ("scheme", SCHEMES),
                              ("ldp_mechanism", LDP_MECHANISMS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.clip_radius > 0:
            raise ValueError(f"clip_radius must be > 0, got {self.clip_radius}")
        if self.stop_accuracy is not None and not 0.0 <= self.stop_accuracy <= 1.0:
            raise ValueError(f"stop_accuracy must be in [0, 1] or null, got {self.stop_accuracy}")
        if self.scheme in ("disjoint", "intermediary") and self.clients > CLASSES:
            raise ValueError(
                f"{self.scheme} scheme supports at most {CLASSES} clients, got {self.clients}"
            )
        if self.clients % self.params.G != 0:
            raise ValueError(f"G={self.params.G} must divide the client count {self.clients}")
        if self.mechanism == "baseline" and self.params.G != 1:
            raise ValueError(f"baseline schedules every client every round, got G={self.params.G}")
        if self.mechanism == "baseline" and self.params.eps_min == self.params.eps_max:
            raise ValueError(f"baseline rewards ramp over [eps_min, eps_max], got "
                             f"eps_min = eps_max = {self.params.eps_min}")
        if isinstance(self.eps, (list, tuple)) and len(self.eps) != self.clients:
            raise ValueError(
                f"eps list has {len(self.eps)} entries for {self.clients} clients"
            )
        self.client_eps()  # each in [eps_min, eps_max], or raises

    def client_eps(self) -> list:
        """Each client's budget: eps_a where eps is None, else its override,
        which must lie in [eps_min, eps_max]."""
        eps = self.eps if isinstance(self.eps, (list, tuple)) else [self.eps] * self.clients
        p = self.params
        for e in eps:
            if e is not None and not p.eps_min <= e <= p.eps_max:
                raise ValueError(f"eps override {e} outside [{p.eps_min}, {p.eps_max}]")
        return [float(p.eps_a if e is None else e) for e in eps]


# The played game's columns, in metrics.csv order, each a client's bool or
# float64 cell of a round. NaN is a cell with no value.
COLUMNS = {
    "eps": float, "scheduled": bool, "participated": bool, "bought": bool,
    "evicted": bool, "earned": float, "spent": float, "expired": float,
    "balance": float, "utility": float,
}


@dataclass(eq=False)
class Run:
    """The record of a run's rounds: columns[name][r - 1, k] is client
    k's `name` in round r, for each name in COLUMNS and local_accuracy,
    and global_accuracy[r - 1] the server model's in round r. Its COLUMNS
    arrays are read-only."""

    columns: dict
    global_accuracy: np.ndarray

    @property
    def rounds(self) -> int:
        return len(self.global_accuracy)


class _Model:
    """A model: its ModelParams, made read-only, and {split: accuracy}."""

    def __init__(self, params: ModelParams):
        _frozen(params.vector)
        self.params, self.scores = params, {}

    def accuracy(self, subset: Subset) -> float:
        """Accuracy on `subset`, evaluated the first time any holder asks.
        A concurrent drifter task asks only of its own model."""
        if subset.split not in self.scores:
            self.scores[subset.split] = evaluate(self.params, subset)
        return self.scores[subset.split]


@dataclass
class _Client:
    id: int
    part: Subset
    model: _Model


@dataclass
class EngineState:
    config: SimConfig
    round: int
    # The full horizon; its accuracy cells are NaN until run_round scores
    # round r into row r - 1.
    run: Run
    server: _Model
    clients: list
    local_test: Subset
    global_test: Subset


def _frozen(vector: np.ndarray) -> np.ndarray:
    vector.flags.writeable = False
    return vector


def play_game(config: SimConfig) -> tuple[dict, Players]:
    """Play rounds 1..horizon of the token game for every client, from
    the config alone, each client a lane of strategy.play_rounds and each
    round it yields one row of the columns. Returns the read-only
    columns, in COLUMNS order, and the lanes after the last round. An
    evicted client's cells are unscheduled, move no tokens and keep its
    last balance. play_rounds stops once every client is evicted, and
    the rows of the rounds it did not play are filled in one step with
    those cells, as a played round would record them. It prices
    nothing: strategy.price_rounds prices the participated and bought
    columns."""
    params = config.params
    eps = config.client_eps()
    if config.mechanism == "baseline":
        earn = [baseline_token_reward(e, params) for e in eps]
        ledger = TokenLedger(config.clients, None, BASELINE_SLOTS)
        price, stride = BASELINE_PRICE, None
    else:
        earn = [reward(e, params) for e in eps]
        ledger = TokenLedger(config.clients,
                             FreshnessPolicy(params.n, counts_participated_only=params.G > 1))
        price, stride = float(params.C), params.G
    players = Players.start(eps, earn, params)
    values = value_table(config.horizon + params.G)
    shape = (config.horizon, config.clients)
    columns = {name: np.empty(shape, dtype) for name, dtype in COLUMNS.items()}
    columns["eps"] = np.broadcast_to(players.eps, shape)
    rounds = np.arange(1, config.horizon + 1)[:, None]
    columns["utility"] = (np.full(shape, np.nan) if stride is None
                          else utility(rounds, players.cost, stride, values))
    balance, playing = np.zeros(config.clients), np.ones(config.clients, dtype=bool)
    r = 0
    for r, scheduled, expired, participated, bought in play_rounds(
        players, ledger, config.horizon, price, values, stride
    ):
        np.copyto(balance, ledger.balance(), where=playing)
        cells = {
            "scheduled": scheduled & playing, "participated": participated, "bought": bought,
            "evicted": players.evicted, "earned": np.where(participated, players.earn, 0.0),
            "spent": np.where(bought, price, 0.0), "expired": expired, "balance": balance,
        }
        for name, cell in cells.items():
            columns[name][r - 1] = cell
        playing = ~players.evicted
    tail = {"scheduled": False, "participated": False, "bought": False, "evicted": True,
            "earned": 0.0, "spent": 0.0, "expired": 0.0, "balance": balance}
    for name, cell in tail.items():
        columns[name][r:] = cell
    return {name: _frozen(c) for name, c in columns.items()}, players


def check_inputs(config: SimConfig, datasets, source: str = "config") -> None:
    """Refuse (train, test) Datasets that `config` cannot run on with a
    ConfigError naming the dataset file (exit_code 1) or `{source}.clients`.

    Images must have DEFAULT_LAYERS[0] pixels, and the test split a local
    and a global row. clients may exceed neither the train rows nor the
    train labels a disjoint or intermediary scheme deals out, nor, under
    intermediary, half the train rows, so each client gets a shared row:
    sufficient, not exact, this also refuses some tiny splits that work.
    """
    train, test = datasets
    for data, (images, _) in zip(datasets, MNIST_FILES.values()):
        if data.images.shape[1] != DEFAULT_LAYERS[0]:
            raise ConfigError(f"{images}: images of {data.images.shape[1]} pixels, but the "
                              f"model takes {DEFAULT_LAYERS[0]}", exit_code=1)
    if len(test) < 2:
        raise ConfigError(f"{MNIST_FILES['test'][0]}: {len(test)} test images, but scoring "
                          f"needs at least 2", exit_code=1)
    exceed = f"{source}.clients: {config.clients} clients exceed the"
    if config.clients > len(train):
        raise ConfigError(f"{exceed} {len(train)} rows of the train split")
    if config.scheme != "identical":
        labels = np.count_nonzero(np.bincount(train.labels))
        if config.clients > labels:
            raise ConfigError(f"{exceed} {labels} labels of the train split, which the "
                              f"{config.scheme} scheme deals out")
    if config.scheme == "intermediary" and config.clients > len(train) // 2:
        raise ConfigError(f"{exceed} {len(train) // 2} shared rows, half the train split, "
                          f"which the intermediary scheme deals one or more of to each client")


def init_state(config: SimConfig, datasets) -> EngineState:
    """Build `config`'s round-zero state from the (train, test) Datasets:
    the played game, model, partitions, test split, once check_inputs
    accepts them.

    The initial global model, one _Model, is handed to every client free
    of cost. A fifth of the test split, in a random order, is the shared
    local-evaluation set; the server scores on the rest. Both are row
    indices into the loaded test set, which is not copied: its pixels
    are gathered and scaled block by block as scored.
    """
    check_inputs(config, datasets)
    columns, _ = play_game(config)
    columns["local_accuracy"] = np.full((config.horizon, config.clients), np.nan)
    train, test = datasets

    perm = _frozen(_stream(config.seed, _KIND_SPLIT).permutation(len(test)))
    cut = max(1, int(len(test) * _LOCAL_TEST_FRACTION))

    parts = partition(train, config.clients, config.scheme, _stream(config.seed, _KIND_PARTITION))
    server = _Model(init_model(_stream(config.seed, _KIND_INIT)))
    return EngineState(
        config=config,
        round=0,
        run=Run(columns, np.full(config.horizon, np.nan)),
        server=server,
        clients=[_Client(k, parts[k], server) for k in range(config.clients)],
        local_test=Subset(test, perm[:cut], "local-test"),
        global_test=Subset(test, perm[cut:], "global-test"),
    )


def run_round(state: EngineState) -> float:
    """Run the learning step of the state's next round under its config:
    trainers upload, buyers take the new global _Model, clients evicted
    in an earlier round drift each to a _Model of its own, and every
    model held is scored into the state's Run. Returns global accuracy."""
    config, r = state.config, state.round + 1
    run, columns = state.run, state.run.columns
    if r > run.rounds:
        raise ValueError(f"round {r} is past the horizon of {run.rounds}")
    drifters = [state.clients[k] for k in np.flatnonzero(columns["evicted"][: r - 1].any(0))]
    trainers = [state.clients[k] for k in np.flatnonzero(columns["participated"][r - 1])]

    def gradient(c):
        return local_train(c.model.params, c.part, config.learning.batches,
                           config.learning.batch_size, _stream(config.seed, _KIND_TRAIN, c.id, r))

    def upload(c):
        g = gradient(c)
        if config.ldp:
            cfg = LdpConfig(float(columns["eps"][r - 1, c.id]), radius=config.clip_radius,
                            mechanism=config.ldp_mechanism)
            g = perturb_gradients(g, cfg, _stream(config.seed, _KIND_PERTURB, c.id, r))
        return g

    def drift(c):
        held = c.model.params
        model = _Model(ModelParams(held.vector - config.learning.lr * gradient(c), held.layers))
        model.accuracy(state.local_test)
        return model

    # Clients work concurrently; results come back in client order, so
    # aggregate sums them in the same order on any number of cores, each
    # upload as it arrives.
    if trainers:
        state.server = _Model(aggregate(state.server.params, pool_imap(upload, trainers),
                                        [len(c.part) for c in trainers], config.learning.lr))
    for c, model in zip(drifters, pool_imap(drift, drifters)):
        c.model = model
    for c in state.clients:
        if columns["bought"][r - 1, c.id]:
            c.model = state.server
        columns["local_accuracy"][r - 1, c.id] = c.model.accuracy(state.local_test)

    accuracy = run.global_accuracy[r - 1] = state.server.accuracy(state.global_test)
    state.round = r
    return accuracy


def run_simulation(config: SimConfig, datasets) -> Run:
    """Run the configured number of rounds on the (train, test) Datasets,
    stopping early at the accuracy threshold when one is set.
    Deterministic given the seed."""
    state = init_state(config, datasets)
    for _ in range(config.horizon):
        accuracy = run_round(state)
        if config.stop_accuracy is not None and accuracy >= config.stop_accuracy:
            break
    run = state.run
    return Run({name: c[: state.round] for name, c in run.columns.items()},
               run.global_accuracy[: state.round])
