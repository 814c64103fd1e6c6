"""Token accounting of many lanes at once: earn, spend, expire, and the
age of an owned model.

A lane is one player of the token game: a client of a run, or one
budget of an equilibrium scan. A TokenLedger keeps the token lots of
all its lanes in one (lanes, slots) array, each row in order of the
lane's age clock. Lots are consumed oldest first and silently expire
once they outlive the freshness window. The same window governs how
stale a lane's owned global model may get before the lane is barred
from training; strategy.play_round applies that bar and evicts a
barred lane that cannot afford a fresh model.
"""

from __future__ import annotations

import math
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
    same floats as Python's sum() over the lots of each lane. A single
    column is returned as is, a view of `lots`."""
    total = lots[:, 0]
    for k in range(1, lots.shape[1]):
        total = total + lots[:, k]
    return total


class TokenLedger:
    """Token lots of many lanes, each lane's row of `lots` oldest first:
    the last column holds the lot earned at the latest tick of the
    lane's age clock (see `clock`), column k the lot earned
    slots - 1 - k ticks before it. A credit shifts every row by the
    rounds since the last credit on the calendar clock, or the credited
    rows by one on the participation clock. Every active lane expires
    its lots each round, so a shift drops only expired or drained lots.
    With policy None nothing expires (the baseline scheme); such a
    ledger needs an explicit slot count large enough that each credit
    drops only drained lots, which `credit` checks.
    """

    def __init__(self, lanes: int, policy: FreshnessPolicy | None, slots: int | None = None):
        if slots is None:
            if policy is None:
                raise ValueError("a ledger without a freshness policy needs a slot count")
            slots = policy.slots
        elif policy is not None and slots < policy.slots:
            raise ValueError(f"the freshness policy needs slots >= {policy.slots}, got {slots}")
        if lanes < 1 or slots < 1:
            raise ValueError(f"need lanes >= 1 and slots >= 1, got {lanes}, {slots}")
        self.policy = policy
        self.lots = np.zeros((lanes, slots))
        self.participations = np.zeros(lanes, dtype=np.int64)
        self._counted = policy is not None and policy.counts_participated_only
        self._credited = 0  # the last round credited

    @property
    def slots(self) -> int:
        return self.lots.shape[1]

    def clock(self, t: int):
        """Each lane's age clock at round t: t itself, or under
        counts_participated_only the rounds the lane has participated in
        (an array)."""
        return self.participations if self._counted else t

    def balance(self) -> np.ndarray:
        """Each lane's tokens, summed oldest lot first, in a new array."""
        lots = self.lots
        return _oldest_first_sum(lots) if lots.shape[1] > 1 else lots[:, 0].copy()

    def credit(self, amount, t: int, lanes: np.ndarray) -> None:
        """Book the round-t participation of each of `lanes`: count it,
        then add a lot of `amount` (a scalar or one per lane, each finite
        and >= 0, but not -0.0). The rows shift in place.

        Credits come once per round, in round order.
        """
        if t <= self._credited:
            raise ValueError(f"credit round {t} is not after the last credited round {self._credited}")
        # Below +inf if of positive sign, below -inf (never) if not: False for
        # a NaN, infinite or negative amount, -0.0 included, in one more ufunc.
        valid = np.less(amount, np.copysign(math.inf, amount))
        if np.count_nonzero(valid) != valid.size:
            raise ValueError(f"credit amount must be finite and >= 0, got {amount}")
        lots = self.lots
        shift = 1 if self._counted else min(t - self._credited, self.slots)
        # A non-credited lane drops only lots past the window, unless nothing expires.
        watched = slice(None) if self.policy is None else lanes
        if np.count_nonzero(lots[watched, :shift]):
            raise ValueError(f"a round-{t} credit would overwrite a lot that still holds tokens")
        self._credited = t
        self.participations += lanes
        if self._counted:
            lots[lanes, :-1] = lots[lanes, 1:]
            lots[:, -1] = np.where(lanes, amount, lots[:, -1])
            return
        lots[:, :-shift] = lots[:, shift:]
        if shift > 1:
            lots[:, -shift:-1] = 0.0
        lots[:, -1] = np.where(lanes, amount, 0.0)

    def spend(self, amount: float, lanes: np.ndarray) -> np.ndarray:
        """Each of `lanes` whose balance covers `amount` pays it, oldest
        lots first; returns those lanes. The lots of every other lane
        are untouched. `amount` must be finite and >= 0."""
        if not 0 <= amount < math.inf:
            raise ValueError(f"spend amount must be finite and >= 0, got {amount}")
        paid = lanes & (self.balance() >= amount)
        if np.count_nonzero(paid):
            remaining = paid * float(amount)
            for lot in self.lots.T:
                take = np.minimum(lot, remaining)
                lot -= take
                remaining -= take
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
        if self.policy is not None:
            # Column k is since + slots - 1 - k ticks old.
            since = 0 if self._counted else t - self._credited
            past = since + self.slots - 1 - self.policy.n
            if past > 0:
                dead = self.lots[:, :past]
                doomed = np.where(lanes[:, None], dead, 0.0)
                if np.count_nonzero(doomed):
                    dead[lanes] = 0.0
                    return _oldest_first_sum(doomed)
        return np.zeros(len(self.lots))


def model_age(owned_clock, clock):
    """Age of each lane's owned global model: the lane's age clock now
    (TokenLedger.clock) less its reading when the model was bought."""
    age = clock - owned_clock
    if np.count_nonzero(age < 0):
        raise ValueError(f"an owned model is newer than the clock: {owned_clock} > {clock}")
    return age
