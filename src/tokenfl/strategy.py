"""Client decision policy, the rules of the token game, and the
brute-force equilibrium oracle.

Clients commit to one privacy budget for the whole run. The rational
commitment under the strategic mechanism is eps_a: participation is
rewarded with exactly the model price there, while lower budgets earn
too little to stay solvent and higher budgets pay more privacy cost for
the same tokens. play_round is the single implementation of one
client's round (expiry, the freshness bar, eviction, participation,
earning, purchase and payoff); the engine calls it for every client and
nash_check replays it for one client in isolation, exhaustively pricing
every single-client deviation onto a grid of budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .economy import FreshnessPolicy, InsufficientTokens, TokenLedger, model_age
from .mechanisms import MechanismParams, cost, reward, utility, value

__all__ = [
    "ClientState",
    "choose_epsilon",
    "decide_participation",
    "client_round_payoff",
    "play_round",
    "Deviation",
    "NashReport",
    "nash_check",
]


@dataclass
class ClientState:
    """Strategic state of one client, as the game sees it."""

    id: int
    chosen_eps: float
    owned_model_round: int = 0
    evicted: bool = False
    stopped: bool = False
    cumulative_payoff: float = 0.0


def choose_epsilon(params: MechanismParams, override=None) -> float:
    """The budget a rational client commits to: eps_a, unless overridden.

    Overrides exist for experiments that pin all clients to some other
    level; they must stay inside [eps_min, eps_max].
    """
    if override is None:
        return float(params.eps_a)
    if not params.eps_min <= override <= params.eps_max:
        raise ValueError(
            f"eps override {override} outside [{params.eps_min}, {params.eps_max}]"
        )
    return float(override)


def decide_participation(client: ClientState, t: int, stride: int,
                         params: MechanismParams) -> bool:
    """Whether a client is willing to train at round t.

    True exactly when the round utility is nonnegative. Utility falls
    with t once the value curve flattens, so after the first refusal a
    client never returns.
    """
    if client.evicted:
        raise ValueError(f"client {client.id} is evicted and makes no decisions")
    return utility(t, client.chosen_eps, stride, params) >= 0.0


def client_round_payoff(bought: bool, value_gain: float, eps: float,
                        participated: bool, params: MechanismParams) -> float:
    """Real-currency payoff of one round.

    Value is realized only when a model is bought; privacy cost is borne
    only when the client actually trained. Tokens never enter the
    payoff, they are plumbing that gates access to the model.
    """
    if value_gain < 0:
        raise ValueError(f"value_gain must be >= 0, got {value_gain}")
    gain = value_gain if bought else 0.0
    spent = cost(eps, params) if participated else 0.0
    return gain - spent


def play_round(client: ClientState, ledger: TokenLedger, t: int, params: MechanismParams,
               policy: FreshnessPolicy | None, price: float, earn: float,
               scheduled: bool = True, stride: int | None = None) -> tuple[float, bool, bool]:
    """Play one client's round t of the token game.

    In order: expire tokens; bar a model older than the freshness window
    and evict a barred, scheduled client whose balance cannot cover
    `price`; let a scheduled client with a fresh model train, unless it
    refused once before or, given a `stride`, refuses now on utility
    (with stride None it always complies); credit `earn` for training;
    buy a model once the owned one is a full window old; book the
    round's payoff into client.cumulative_payoff. An evicted client
    books nothing. policy None is the baseline scheme: nothing expires,
    no model goes stale, and every affordable model is bought. Returns
    (expired, participated, bought).
    """
    expired, age, window = 0.0, 0, 0
    if policy is not None:
        expired = ledger.expire(t, policy)
        age = model_age(client.owned_model_round, t, policy, ledger.participated_rounds)
        window = policy.n
    if scheduled and age > window and ledger.balance < price:
        client.evicted = True
        return expired, False, False
    participated = scheduled and age <= window and not client.stopped
    if participated and stride is not None:
        participated = decide_participation(client, t, stride, params)
        client.stopped = not participated
    if participated:
        ledger.record_participation(t)
        ledger.credit(earn, t)
        if policy is not None and policy.counts_participated_only:
            age += 1  # the round just recorded counts toward the model's age
    bought = False
    gain = 0.0
    if age >= window:
        try:
            ledger.spend(price, t)
            bought = True
            gain = value(t) - value(client.owned_model_round)
            client.owned_model_round = t
        except InsufficientTokens:
            pass
    client.cumulative_payoff += client_round_payoff(
        bought, gain, client.chosen_eps, participated, params
    )
    return expired, participated, bought


@dataclass(frozen=True)
class Deviation:
    """Outcome of one client unilaterally switching to another budget."""

    client: int
    eps: float
    payoff: float
    delta: float
    participated_rounds: int
    profitable: bool


@dataclass
class NashReport:
    profile: tuple
    horizon: int
    profile_payoffs: tuple
    deviations: list = field(default_factory=list)

    @property
    def profitable_deviations(self):
        return [d for d in self.deviations if d.profitable]

    @property
    def is_nash(self) -> bool:
        return not self.profitable_deviations

    def to_dict(self) -> dict:
        return {
            "profile": list(self.profile),
            "horizon": self.horizon,
            "profile_payoffs": list(self.profile_payoffs),
            "is_nash": self.is_nash,
            "deviations": [
                {
                    "client": d.client,
                    "eps": d.eps,
                    "payoff": d.payoff,
                    "delta": d.delta,
                    "participated_rounds": d.participated_rounds,
                    "profitable": d.profitable,
                }
                for d in self.deviations
            ],
        }


def _trajectory(eps: float, horizon: int, params: MechanismParams):
    """Cumulative payoff of one client playing `eps` for `horizon` rounds.

    The shared value curve is insensitive to any single client's noise
    level, so one client's ledger can be played out in isolation. The
    strategy space of the game is the budget alone, so deviators comply
    with the schedule and differ only in what they earn and what their
    privacy costs. Returns (payoff, participated_round_count).
    """
    client, ledger = ClientState(id=0, chosen_eps=eps), TokenLedger()
    policy, earn = FreshnessPolicy(n=params.n), reward(eps, params)
    participated = 0
    for t in range(1, horizon + 1):
        _, trained, _ = play_round(client, ledger, t, params, policy, params.C, earn)
        if client.evicted:
            break
        participated += trained
    return client.cumulative_payoff, participated


def nash_check(profile, eps_grid, horizon: int, params: MechanismParams) -> NashReport:
    """Brute-force unilateral-deviation scan over a budget grid.

    For every client and every grid budget different from its profile
    budget, prices the deviation trajectory against the client's profile
    trajectory and reports each comparison; a deviation is profitable
    when its payoff strictly exceeds the profile payoff. The all-eps_a
    profile must come back with zero profitable deviations.
    """
    profile = tuple(float(e) for e in profile)
    grid = sorted(float(e) for e in eps_grid)
    if not profile:
        raise ValueError("profile must name at least one client")
    if not grid:
        raise ValueError("eps grid must be nonempty")
    for e in grid:
        if not params.eps_min <= e <= params.eps_max:
            raise ValueError(
                f"grid eps {e} outside [{params.eps_min}, {params.eps_max}]"
            )
    if params.eps_a not in grid or grid[0] >= params.eps_a or grid[-1] <= params.eps_a:
        raise ValueError("grid must contain eps_a and at least one value on each side")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    cache: dict = {}

    def priced(eps):
        if eps not in cache:
            cache[eps] = _trajectory(eps, horizon, params)
        return cache[eps]

    profile_payoffs = tuple(priced(e)[0] for e in profile)
    report = NashReport(profile, horizon, profile_payoffs)
    for i, base in enumerate(profile):
        for e in grid:
            if e == base:
                continue
            payoff, participated = priced(e)
            delta = payoff - profile_payoffs[i]
            report.deviations.append(
                Deviation(i, e, payoff, delta, participated, delta > 0.0)
            )
    return report
