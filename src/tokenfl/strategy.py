"""Client decision policy, the rules of the token game, and the
brute-force equilibrium oracle.

Clients commit to one privacy budget for the whole run. The rational
commitment under the strategic mechanism is eps_a, which
engine.SimConfig.client_eps gives a client with no override:
participation is rewarded with exactly the model price there, while
lower budgets earn too little to stay solvent and higher budgets pay
more privacy cost for the same tokens. play_round is the single
implementation of a round of the game (expiry, the freshness bar,
eviction, participation, earning and purchase), played for many lanes
at once, and play_rounds the single loop over a game's rounds and the
one statement of the group schedule: the engine records every round of
a run's clients as lanes, and nash_check plays every budget of its grid
as a lane to price each single-client deviation. No rule of the game
reads a payoff, so none is booked during play: price_rounds prices
played rounds afterwards, a block at a time, from their participated
and bought masks. A lane that always complies (stride None) reads
neither the round nor a payoff, so play_rounds plays such a round once
per distinct state of the lanes and replays it when the state repeats.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

# value goes unused here; perfbench/run.py instrument() patches it by name
# on this module.
from .economy import FreshnessPolicy, TokenLedger, model_age
from .mechanisms import MechanismParams, cost, reward, utility, value, value_table

__all__ = [
    "Players",
    "decide_participation",
    "client_round_payoff",
    "price_rounds",
    "play_round",
    "play_rounds",
    "Deviation",
    "NashReport",
    "nash_check",
]

# The rounds nash_check prices in one price_rounds call.
PRICE_BLOCK = 128

# The latest distinct lane states play_rounds keeps at stride None to
# replay a round from. Once a game's evictions are done its state repeats
# with the period of the purchases, n rounds for a lane that earns C/n
# (at most 3 for game-sweep's pairs); 8 holds such a period and the
# states that lead into it.
REPLAY_STATES = 8


@dataclass(eq=False)
class Players:
    """Strategic state of the lanes of one game, one entry per lane.

    `cost` is the lane's privacy cost for a participated round,
    computed once by mechanisms.cost; its token reward for that round
    is the game's TokenLedger's `earn`, checked once when the ledger is
    built. `model_clock` is the lane's age clock (TokenLedger.clock)
    when it bought its model. The lanes hold only what a decision
    reads: no payoff, which price_rounds computes from the played
    rounds.
    """

    eps: np.ndarray
    cost: np.ndarray
    model_clock: np.ndarray
    evicted: np.ndarray
    stopped: np.ndarray

    @classmethod
    def start(cls, eps, params: MechanismParams) -> "Players":
        """Lanes at round zero, owning the initial model, one per eps."""
        lanes = len(eps)
        return cls(
            eps=np.array(eps, dtype=float),
            cost=np.array([cost(e, params) for e in eps]),
            model_clock=np.zeros(lanes, dtype=np.int64),
            evicted=np.zeros(lanes, dtype=bool),
            stopped=np.zeros(lanes, dtype=bool),
        )


def decide_participation(players: Players, t: int, stride: int, values: np.ndarray) -> np.ndarray:
    """Whether each lane is willing to train at round t.

    True exactly when the lane's mechanisms.utility is nonnegative. A
    refusal is final because play_round sets the lane's `stopped`, not
    because utility only falls: at stride 1 it rises through round 3
    (v(t + 1) - v(t) is 23.39, 26.86 and 26.91 at t = 1, 2, 3) before
    it falls.
    """
    return utility(t, players.cost, stride, values) >= 0.0


def client_round_payoff(bought, value_gain, cost, participated) -> np.ndarray:
    """Real-currency payoff of a round, per lane, or of each of a block
    of rounds, per round and lane (price_rounds calls it once a block).

    Value is realized only when a model is bought; privacy cost is borne
    only when the client actually trained. Tokens never enter the
    payoff, they are plumbing that gates access to the model. value_gain
    and cost must be finite: each is multiplied by its mask.
    """
    gain = np.multiply(bought, value_gain)
    if np.count_nonzero(gain < 0):
        raise ValueError(f"value_gain must be >= 0, got {value_gain}")
    return gain - np.multiply(participated, cost)


def play_round(players: Players, ledger: TokenLedger, t: int, values: np.ndarray,
               scheduled=True, stride: int | None = None):
    """Play round t of the token game for every lane at once.

    In order, for each lane not yet evicted: expire tokens; bar a model
    older than the freshness window and evict a barred, scheduled lane
    whose balance cannot cover the ledger's price; let a scheduled lane
    with a fresh model train, unless it refused once before or, given a
    `stride`, refuses now on utility (with stride None it always
    complies); credit its ledger earn for training; buy a model at the
    ledger's price once the owned one is a full window old. An evicted
    lane does none of these. No payoff is booked: price_rounds prices
    the returned masks. A ledger without a policy is the baseline
    scheme: nothing expires, no model goes stale, and every affordable
    model is bought. `scheduled` is a lane mask or True; `values` holds
    value(0..t + stride), read only given a stride. Returns the lane
    arrays (expired, participated, bought), new each round. Lane masks
    use a > b for a & ~b on booleans.
    """
    active = ~players.evicted
    expired = ledger.expire(t, active)
    if ledger.policy is None:
        age, window = 0, 0
    else:
        age, window = model_age(players.model_clock, ledger.clock(t)), ledger.policy.n
    barred = age > window
    due = active if scheduled is True else active & scheduled
    evict = barred & due
    if np.count_nonzero(evict):
        evict &= ledger.balance() < ledger.price
        players.evicted |= evict
    # An evicted lane is barred, so `due` still holds it and barred drops it.
    participated = due > (barred | players.stopped)
    if stride is not None:
        refused = participated > decide_participation(players, t, stride, values)
        players.stopped |= refused
        participated ^= refused
    ledger.credit(t, participated)
    if ledger.policy is not None and ledger.policy.counts_participated_only:
        age = model_age(players.model_clock, ledger.clock(t))  # the credited round counts
    bought = ledger.spend((age >= window) > players.evicted)
    if np.count_nonzero(bought):
        np.copyto(players.model_clock, ledger.clock(t), where=bought)
    return expired, participated, bought


def play_rounds(players: Players, ledger: TokenLedger, horizon: int, values: np.ndarray,
                stride: int | None = None):
    """Play rounds 1..horizon with play_round's `stride`, yielding (t,
    scheduled, expired, participated, bought) as each is settled, and
    stop after the round in which the last lane is evicted: in a later
    round no lane would train or buy, and only lots that no lane can
    spend would shift. A stride above 1 is the group count G: the
    lanes fall into G contiguous blocks, lane k in block k // (lanes //
    G), and round t schedules block (t - 1) % G, so the blocks take
    turns round robin. A stride that does not divide the lanes is
    refused before round 1. Otherwise every lane is scheduled, passed
    as True.

    With stride None no rule reads t, `values` or a cost: a round's
    outcome is a function of the lanes' state alone, the ledger's lots,
    each live lane's model age (TokenLedger.state) and the evicted and
    stopped masks. So each round there is keyed on that state, read
    afresh at its start, and a round from a state among the
    REPLAY_STATES latest played is replayed, not played again: a game
    whose state repeats plays only the rounds that lead into its period
    and one period. Reading the state every round keeps a replay exact
    whatever a caller writes between rounds, model_clock say. The masks
    yielded at stride None are read-only, since a replay yields the
    recorded arrays again."""
    lanes = len(players.eps)
    groups = 1 if stride is None else stride
    if groups < 1 or lanes % groups:
        raise ValueError(f"G={groups} must be >= 1 and divide the lane count {lanes}")
    group = np.arange(lanes) // (lanes // groups)
    seen = {}  # the rounds played at stride None, by the state they were played from
    for t in range(1, horizon + 1):
        if stride is None:
            yield t, True, *_play_or_replay(players, ledger, t, values, seen)
        else:
            scheduled = True if groups == 1 else group == (t - 1) % groups
            yield t, scheduled, *play_round(players, ledger, t, values, scheduled, stride)
        if np.count_nonzero(players.evicted) == lanes:
            return


def _play_or_replay(players: Players, ledger: TokenLedger, t: int, values: np.ndarray,
                    seen: dict):
    """Round t at stride None: replayed from `seen` when a round was
    played there from the lanes' state now, else played by play_round
    and recorded in `seen`, which keeps the REPLAY_STATES latest. A
    replay books the recorded lots, participations and evictions, and
    each lane that bought takes the clock as its model_clock; its masks
    are the recorded, read-only arrays."""
    state = (ledger.state(t, players.model_clock, ~players.evicted)
             + players.evicted.tobytes() + players.stopped.tobytes())
    if (record := seen.get(state)) is not None:
        expired, participated, bought, evicted, lots = record
        ledger.replay(t, lots, participated)
        np.copyto(players.evicted, evicted)
        np.copyto(players.model_clock, ledger.clock(t), where=bought)
        return expired, participated, bought
    masks = play_round(players, ledger, t, values)
    for mask in masks:
        mask.flags.writeable = False
    if len(seen) == REPLAY_STATES:
        del seen[next(iter(seen))]
    seen[state] = (*masks, players.evicted.copy(), ledger.lots.copy())
    return masks


def price_rounds(participated, bought, cost, values: np.ndarray, first: int = 1,
                 owned=0, payoff=0.0):
    """Each lane's payoff over a block of played rounds, and its latest
    purchase round.

    Row i of the (rounds, lanes) masks `participated` and `bought` is
    round first + i, and `values` holds value(0..its last round). A
    purchase at round t gains values[t] - values[p], p the lane's
    previous purchase round, or `owned` before the block (0 is the
    initial model); a participated round costs the lane's `cost`.
    client_round_payoff prices the whole block in one call. Returns
    (payoff, owned) after the block: `payoff` plus each lane's round
    payoffs, added one round at a time in round order, and each lane's
    latest purchase round. So a game priced whole from 0.0, or block by
    block from the previous block's pair, gets the floats of adding each
    round's payoff as it is played.
    """
    rounds, lanes = bought.shape
    t = np.arange(first, first + rounds)[:, None]
    held = np.empty((rounds + 1, lanes), dtype=np.int64)  # row i: the lane's model before row i
    held[0] = owned
    np.multiply(bought, t, out=held[1:])
    np.maximum.accumulate(held, axis=0, out=held)
    gain = values[held[:-1]]
    np.subtract(values[t], gain, out=gain)
    paid = np.empty((rounds + 1, lanes))
    paid[0] = payoff
    paid[1:] = client_round_payoff(bought, gain, cost, participated)
    # accumulate adds row after row, unlike np.sum's pairwise reduction.
    np.add.accumulate(paid, axis=0, out=paid)
    return paid[-1].copy(), held[-1].copy()  # copies: the block's arrays go free


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
        return {**asdict(self), "profile": list(self.profile),
                "profile_payoffs": list(self.profile_payoffs), "is_nash": self.is_nash}


def nash_check(profile, eps_grid, horizon: int, params: MechanismParams) -> NashReport:
    """Brute-force unilateral-deviation scan over a budget grid.

    For every client and every grid budget different from its profile
    budget, prices the deviation trajectory against the client's profile
    trajectory and reports each comparison; a deviation is profitable
    when its payoff strictly exceeds the profile payoff. The value curve
    is insensitive to any one client's noise level, so every distinct
    budget is priced once, as a lane of one play_rounds game, which
    stops once all lanes are evicted, keeping each lane's payoff and
    participated rounds. The lanes always comply, so once the lanes
    below eps_a are evicted the game repeats with the period of the
    purchases, and play_rounds replays its rounds: each game-sweep pair
    plays 4 to 10 of its 1,000 rounds. The rounds, replayed or not, are
    priced PRICE_BLOCK at a time as they are yielded, by price_rounds,
    so no (horizon, lanes) array is held.

    The budgets are not priced the way a run plays its clients: every
    lane always complies (play_round with stride None), never refusing
    on utility as a run's clients do, and the game is played at stride 1
    on every round, ignoring params.G. So an eps_a lane keeps paying its
    privacy cost after its utility turns negative while a softer lane is
    evicted early: `tokenfl nash --clients 3` finds no profitable
    deviation from all-eps_a up to --horizon 194 and exits 3 from 195
    on. ROADMAP.md item 2 prices the budgets under the engine's rule.
    """
    profile = tuple(float(e) for e in profile)
    grid = sorted({float(e) for e in eps_grid})
    if not profile:
        raise ValueError("profile must name at least one client")
    if not grid:
        raise ValueError("eps grid must be nonempty")
    budgets = sorted(set(profile) | set(grid))
    for e in budgets:
        if not params.eps_min <= e <= params.eps_max:
            raise ValueError(f"{'grid' if e in grid else 'profile'} eps {e} outside "
                             f"[{params.eps_min}, {params.eps_max}]")
    if params.eps_a not in grid or grid[0] >= params.eps_a or grid[-1] <= params.eps_a:
        raise ValueError("grid must contain eps_a and at least one value on each side")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    players = Players.start(budgets, params)
    ledger = TokenLedger([reward(e, params) for e in budgets], params.C, FreshnessPolicy(n=params.n))
    values = value_table(horizon)
    played = play_rounds(players, ledger, horizon, values)
    payoff, owned, first = 0.0, 0, 1
    while block := [(p, b) for _, _, _, p, b in islice(played, PRICE_BLOCK)]:
        participated, bought = np.array(block).swapaxes(0, 1)
        payoff, owned = price_rounds(participated, bought, players.cost, values, first, owned,
                                     payoff)
        first += len(block)
    priced = dict(zip(budgets, zip(payoff.tolist(), ledger.participations.tolist())))
    profile_payoffs = tuple(priced[e][0] for e in profile)
    report = NashReport(profile, horizon, profile_payoffs)
    for i, base in enumerate(profile):
        for e in grid:
            if e == base:
                continue
            payoff, participated = priced[e]
            delta = payoff - profile_payoffs[i]
            report.deviations.append(
                Deviation(i, e, payoff, delta, participated, delta > 0.0)
            )
    return report
