"""Token accounting of many lanes at once: earn, spend, expire, and the
age of an owned model.

A lane is one player of the token game: a client of a run, or one
budget of an equilibrium scan. A TokenLedger keeps the token lots of
all its lanes in one (lanes, slots) array. Tokens arrive as lots
stamped with the lane's age clock, are consumed oldest-first, and
silently expire once they outlive the freshness window. The same window
governs how stale a lane's owned global model may get before the lane
is barred from training; strategy.play_round applies that bar and
evicts a barred lane that cannot afford a fresh model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FreshnessPolicy",
    "TokenLedger",
    "model_age",
]


@dataclass(frozen=True)
class FreshnessPolicy:
    """Validity window for both tokens and owned global models.

    With counts_participated_only the age of a lot or model is the
    number of rounds the client actually participated in since earning
    it, rather than the number of calendar rounds. That is the variant
    used under group scheduling, where clients sit out most rounds by
    design and must not be punished for it.
    """

    n: int = 1
    counts_participated_only: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"freshness window must be >= 1, got {self.n}")

    @property
    def slots(self) -> int:
        """Most lots a lane can hold at once.

        Lots are earned one per participated round and live until they
        are older than n, so n + 1 of them can be live. Counting
        participated rounds, the round's own participation already ages
        the oldest lot past n, but that lot stays spendable until the
        next round's expiry: one more.
        """
        return self.n + 1 + self.counts_participated_only


def _oldest_first_sum(lots: np.ndarray) -> np.ndarray:
    """Row sums of lots ordered oldest first, added in that order: the
    same floats as Python's sum() over the lots of each lane."""
    total = lots[:, 0]
    for k in range(1, lots.shape[1]):
        total = total + lots[:, k]
    return total


class TokenLedger:
    """Token lots of many lanes.

    The lane's age clock (see `clock`) stamps each lot it earns, and a
    lot stamped s sits in slot s % slots of the lane's row of `lots`,
    with s in `stamps`. Rounds are played in order and every active lane
    expires its lots each round, so the live lots of a lane are its
    latest `slots` stamps and the slot a new lot lands in has expired or
    been drained. Drained lots stay in place at zero until they expire.
    With policy None nothing expires (the baseline scheme); such a
    ledger needs an explicit slot count, enough that the slot each
    credit lands in has been drained, which `credit` checks.
    """

    def __init__(self, lanes: int, policy: FreshnessPolicy | None, slots: int | None = None):
        if slots is None:
            if policy is None:
                raise ValueError("a ledger without a freshness policy needs a slot count")
            slots = policy.slots
        if lanes < 1 or slots < 1:
            raise ValueError(f"need lanes >= 1 and slots >= 1, got {lanes}, {slots}")
        self.policy = policy
        self.lots = np.zeros((lanes, slots))
        self.stamps = np.zeros((lanes, slots), dtype=np.int64)
        self.participations = np.zeros(lanes, dtype=np.int64)
        self._counted = policy is not None and policy.counts_participated_only
        self._credited = 0  # the last round credited
        self._rows = np.arange(lanes)
        self._after = 1 + np.arange(slots)
        # Calendar clocks share one age order per round, set by t % slots.
        self._orders = [(slice(None), (t + self._after) % slots) for t in range(slots)]

    @property
    def slots(self) -> int:
        return self.lots.shape[1]

    def clock(self, t: int):
        """Each lane's age clock at round t: t itself, or under
        counts_participated_only the rounds the lane has participated in
        (an array)."""
        return self.participations if self._counted else t

    def _age_order(self, t: int):
        """Index of `lots` that lists each lane's slots oldest first."""
        if self._counted:
            return self._rows[:, None], (self.participations[:, None] + self._after) % self.slots
        return self._orders[t % self.slots]

    def balance(self, t: int) -> np.ndarray:
        """Each lane's tokens at round t, summed oldest lot first."""
        return _oldest_first_sum(self.lots[self._age_order(t)])

    def credit(self, amount, t: int, lanes: np.ndarray) -> None:
        """Book the round-t participation of each of `lanes`: count it,
        then add a lot of `amount` (a scalar or one per lane).

        Credits come once per round, in round order.
        """
        if t <= self._credited:
            raise ValueError(f"credit round {t} is not after the last credited round {self._credited}")
        if np.count_nonzero(np.less(amount, 0)):
            raise ValueError(f"credit amount must be >= 0, got {amount}")
        self._credited = t
        self.participations += lanes
        clock = self.clock(t)
        at = (self._rows, clock % self.slots) if self._counted else (slice(None), t % self.slots)
        held = self.lots[at]
        if np.count_nonzero(held[lanes]):
            raise ValueError(f"a round-{t} credit would overwrite a lot that still holds tokens")
        self.lots[at] = np.where(lanes, amount, held)
        self.stamps[at] = np.where(lanes, clock, self.stamps[at])

    def spend(self, amount: float, t: int, lanes: np.ndarray) -> np.ndarray:
        """Each of `lanes` whose balance covers `amount` pays it, oldest
        lots first; returns those lanes. The lots of every other lane
        are untouched."""
        if amount < 0:
            raise ValueError(f"spend amount must be >= 0, got {amount}")
        order = self._age_order(t)
        lots = self.lots[order]
        paid = lanes & (_oldest_first_sum(lots) >= amount)
        if np.count_nonzero(paid):
            remaining = np.where(paid, float(amount), 0.0)
            for k in range(self.slots):
                take = np.minimum(lots[:, k], remaining)
                lots[:, k] -= take
                remaining -= take
            self.lots[order] = lots
        return paid

    def expire(self, t: int, lanes: np.ndarray) -> np.ndarray:
        """Drop the lots of `lanes` older than the freshness window at
        round t; return each lane's lost total (zero for other lanes).

        Meant to run at the start of each round, before the round's
        participation is credited, so decisions see post-expiry
        balances.
        """
        if t < 1:
            raise ValueError(f"round must be >= 1, got {t}")
        lost = np.zeros(len(self.lots))
        if self.policy is None:
            return lost
        clock = self.clock(t)
        ages = (clock[:, None] if self._counted else clock) - self.stamps
        dead = (ages > self.policy.n) & lanes[:, None]
        doomed = np.where(dead, self.lots, 0.0)
        if np.count_nonzero(doomed):
            lost = _oldest_first_sum(doomed[self._age_order(t)])
            self.lots[dead] = 0.0
        return lost


def model_age(owned_clock, clock):
    """Age of each lane's owned global model: the lane's age clock now
    (TokenLedger.clock) less its reading when the model was bought."""
    age = clock - owned_clock
    if np.count_nonzero(age < 0):
        raise ValueError(f"an owned model is newer than the clock: {owned_clock} > {clock}")
    return age
