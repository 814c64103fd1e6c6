"""Round orchestration across the three incentive mechanisms.

A round first settles every federated client's economics through
strategy.play_round: token expiry, group scheduling, the freshness bar
and forced eviction, participation decisions, token crediting, model
purchases and payoffs. Only then does the learning step run: local
training on each participant's owned model, gradient randomization,
weighted aggregation, handing each buyer a copy of the new global
model, and evaluation. Clients that were evicted in an earlier round
keep training locally on their stale model, outside the federation.
Everything is deterministic given the run seed: every random stream is
derived from (seed, purpose, client, round).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# model_age, value, client_round_payoff and decide_participation go unused
# here; perfbench/run.py instrument() patches them by name on this module.
from .economy import FreshnessPolicy, TokenLedger, model_age
from .learning import (
    DataPartition,
    Dataset,
    ModelParams,
    aggregate,
    evaluate,
    init_model,
    load_mnist,
    local_train,
    partition,
)
from .mechanisms import MechanismParams, baseline_token_reward, reward, utility, value
from .privacy import LdpConfig, perturb_gradients
from .strategy import (
    ClientState,
    choose_epsilon,
    client_round_payoff,
    decide_participation,
    play_round,
)

__all__ = [
    "MECHANISMS",
    "SCHEMES",
    "BASELINE_PRICE",
    "SimConfig",
    "ClientRound",
    "RoundRecord",
    "EngineState",
    "schedule_group",
    "init_state",
    "run_round",
    "run_simulation",
]

MECHANISMS = ("baseline", "strategic", "strategic-grouped")
SCHEMES = ("identical", "disjoint", "intermediary")

# The legacy scheme prices the model at one token so its 0.5..1.0 rewards
# force low-budget clients to skip purchases on some rounds.
BASELINE_PRICE = 1.0

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


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    mechanism: str = "strategic"
    clients: int = 3
    params: MechanismParams = field(default_factory=MechanismParams)
    scheme: str = "identical"
    eps: object = None
    batches: int = 30
    batch_size: int = 64
    lr: float = 0.025
    horizon: int = 50
    seed: int = 0
    ldp: bool = True
    ldp_mechanism: str = "two_point"
    clip_radius: float = 1.0
    stop_accuracy: object = 0.97
    data_dir: object = None

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.mechanism == "strategic-grouped":
            if self.params.G < 2:
                raise ValueError("strategic-grouped requires G >= 2")
            if self.clients % self.params.G != 0:
                raise ValueError(
                    f"G={self.params.G} must divide the client count {self.clients}"
                )
        if isinstance(self.eps, (list, tuple)) and len(self.eps) != self.clients:
            raise ValueError(
                f"eps list has {len(self.eps)} entries for {self.clients} clients"
            )

    def client_eps(self) -> list:
        if self.eps is None:
            return [choose_epsilon(self.params) for _ in range(self.clients)]
        if isinstance(self.eps, (list, tuple)):
            return [choose_epsilon(self.params, override=e) for e in self.eps]
        return [choose_epsilon(self.params, override=self.eps) for _ in range(self.clients)]

    @property
    def stride(self) -> int:
        return self.params.G if self.mechanism == "strategic-grouped" else 1

    @property
    def freshness(self) -> FreshnessPolicy:
        return FreshnessPolicy(
            n=self.params.n,
            counts_participated_only=self.mechanism == "strategic-grouped",
        )


@dataclass
class ClientRound:
    """Per-client slice of one round's record."""

    client: int
    eps: float
    scheduled: bool
    participated: bool
    bought: bool
    evicted: bool
    earned: float
    spent: float
    expired: float
    balance: float
    utility: object
    local_accuracy: float


@dataclass
class RoundRecord:
    round: int
    clients: list
    global_accuracy: float

    @property
    def participants(self):
        return [c.client for c in self.clients if c.participated]


@dataclass
class _Client:
    state: ClientState
    ledger: TokenLedger
    part: DataPartition
    model: np.ndarray


@dataclass
class EngineState:
    round: int
    server: np.ndarray
    layers: tuple
    clients: list
    train: Dataset
    local_test: Dataset
    global_test: Dataset


def schedule_group(round_index: int, clients: int, G: int):
    """Ids scheduled this round: contiguous blocks rotating round-robin."""
    if G < 1:
        raise ValueError(f"G must be >= 1, got {G}")
    if clients % G != 0:
        raise ValueError(f"G={G} must divide the client count {clients}")
    size = clients // G
    start = ((round_index - 1) % G) * size
    return list(range(start, start + size))


def init_state(config: SimConfig, datasets=None) -> EngineState:
    """Build round-zero state: model, partitions, ledgers, test split.

    `datasets` optionally injects (train, test) Datasets; by default the
    standard train/test IDX files are loaded from the configured data
    directory. The initial global model is handed to every client free
    of cost. A fifth of the test split is carved out as the shared
    local-evaluation set; the server scores on the rest.
    """
    if datasets is None:
        train, test = load_mnist(config.data_dir)
    else:
        train, test = datasets

    perm = _stream(config.seed, _KIND_SPLIT).permutation(len(test))
    cut = max(1, int(len(test) * _LOCAL_TEST_FRACTION))
    local_test = Dataset(test.images[perm[:cut]], test.labels[perm[:cut]], split="local-test")
    global_test = Dataset(test.images[perm[cut:]], test.labels[perm[cut:]], split="global-test")

    parts = partition(train, config.clients, config.scheme, _stream(config.seed, _KIND_PARTITION))
    server = init_model(_stream(config.seed, _KIND_INIT))
    eps = config.client_eps()
    clients = [
        _Client(
            state=ClientState(id=k, chosen_eps=eps[k]),
            ledger=TokenLedger(),
            part=parts[k],
            model=server.vector.copy(),
        )
        for k in range(config.clients)
    ]
    return EngineState(
        round=0,
        server=server.vector,
        layers=server.layers,
        clients=clients,
        train=train,
        local_test=local_test,
        global_test=global_test,
    )


def run_round(state: EngineState, config: SimConfig) -> RoundRecord:
    """Advance the simulation by one round and record what happened."""
    r = state.round + 1
    params = config.params
    baseline = config.mechanism == "baseline"
    policy = None if baseline else config.freshness
    price = BASELINE_PRICE if baseline else float(params.C)
    stride = None if baseline else config.stride

    scheduled_ids = set(
        schedule_group(r, config.clients, params.G)
        if config.mechanism == "strategic-grouped"
        else range(config.clients)
    )

    rows = {}
    drifters = []
    trainers = []
    buyers = []
    for c in state.clients:
        if c.state.evicted:
            drifters.append(c)
            rows[c.state.id] = dict(scheduled=False, participated=False, bought=False,
                                    earned=0.0, spent=0.0, expired=0.0)
            continue
        eps = c.state.chosen_eps
        earn = baseline_token_reward(eps, params) if baseline else reward(eps, params)
        scheduled = c.state.id in scheduled_ids
        expired, participated, bought = play_round(
            c.state, c.ledger, r, params, policy, price, earn, scheduled, stride
        )
        rows[c.state.id] = dict(scheduled=scheduled, participated=participated, bought=bought,
                                earned=earn if participated else 0.0,
                                spent=price if bought else 0.0, expired=expired)
        if participated:
            trainers.append(c)
        if bought:
            buyers.append(c)

    grads = []
    sizes = []
    for c in trainers:
        g = local_train(
            ModelParams(c.model, state.layers),
            state.train,
            c.part,
            config.batches,
            config.batch_size,
            config.lr,
            _stream(config.seed, _KIND_TRAIN, c.state.id, r),
        )
        if config.ldp:
            cfg = LdpConfig(
                eps=c.state.chosen_eps,
                radius=config.clip_radius,
                mechanism=config.ldp_mechanism,
            )
            g = perturb_gradients(g, cfg, _stream(config.seed, _KIND_PERTURB, c.state.id, r))
        grads.append(g)
        sizes.append(len(c.part))

    for c in drifters:
        g = local_train(
            ModelParams(c.model, state.layers),
            state.train,
            c.part,
            config.batches,
            config.batch_size,
            config.lr,
            _stream(config.seed, _KIND_TRAIN, c.state.id, r),
        )
        c.model = c.model - config.lr * g

    if grads:
        state.server = aggregate(
            ModelParams(state.server, state.layers), grads, sizes, config.lr
        ).vector
    for c in buyers:
        c.model = state.server.copy()

    acc_cache = {}

    def local_accuracy(model_vec):
        key = hashlib.blake2b(model_vec.tobytes(), digest_size=16).digest()
        if key not in acc_cache:
            acc_cache[key] = evaluate(ModelParams(model_vec, state.layers), state.local_test)
        return acc_cache[key]

    client_rows = [
        ClientRound(
            client=c.state.id,
            eps=c.state.chosen_eps,
            evicted=c.state.evicted,
            balance=c.ledger.balance,
            utility=None if baseline else utility(r, c.state.chosen_eps, config.stride, params),
            local_accuracy=local_accuracy(c.model),
            **rows[c.state.id],
        )
        for c in state.clients
    ]

    global_accuracy = evaluate(ModelParams(state.server, state.layers), state.global_test)
    state.round = r
    return RoundRecord(round=r, clients=client_rows, global_accuracy=global_accuracy)


def run_simulation(config: SimConfig, datasets=None) -> list:
    """Run the configured number of rounds, stopping early at the
    accuracy threshold when one is set. Deterministic given the seed."""
    state = init_state(config, datasets)
    records = []
    for _ in range(config.horizon):
        record = run_round(state, config)
        records.append(record)
        if config.stop_accuracy is not None and record.global_accuracy >= config.stop_accuracy:
            break
    return records
