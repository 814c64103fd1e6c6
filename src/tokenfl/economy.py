"""Token accounting of many lanes at once: earn, spend, expire, and the
age of an owned model.

A lane is one player of the token game: a client of a run, or one
budget of an equilibrium scan. A TokenLedger keeps the token lots of
all its lanes in one (lanes, slots) array, each row in order of the
lane's age clock, and steps once per round: the lots shift one column
per round on the round clock, or per participation on the participation
clock. Lots are consumed oldest first and silently expire once they
outlive the freshness window: expiry drops the oldest column. The same
window governs how stale a lane's owned global model may get before the
lane is barred from training; strategy.play_round applies that bar and
evicts a barred lane that cannot afford a fresh model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FreshnessPolicy",
    "TokenLedger",
    "frozen_amounts",
    "model_age",
]

_BOOL = np.dtype(bool)


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


class TokenLedger:
    """Token lots of many lanes, each lane's row of `lots` oldest first:
    the last column holds the lot earned at the latest tick of the
    lane's age clock (see `clock`), column k the lot earned
    slots - 1 - k ticks before it. Rounds come one at a time, in order:
    a round expires, then credits. A credit shifts every row by one
    column on the round clock, or each credited row by one on the
    participation clock, and expiry empties the oldest column, so each
    shift drops only an expired or drained lot. With policy None
    nothing expires (the baseline scheme); such a ledger needs an
    explicit slot count large enough that each credit drops only
    drained lots, which `credit` checks. `lanes` is a boolean mask.
    An amount from `frozen_amounts` is checked at its first credit only.
    """

    def __init__(self, lanes: int, policy: FreshnessPolicy | None, slots: int | None = None):
        if (policy is None) == (slots is None):
            raise ValueError("a ledger takes a freshness policy or, without one, a slot count")
        if slots is None:
            slots = policy.slots
        if lanes < 1 or slots < 1:
            raise ValueError(f"need lanes >= 1 and slots >= 1, got {lanes}, {slots}")
        self.policy = policy
        self.lots = np.zeros((lanes, slots), order="F")  # a column is contiguous
        self._columns = tuple(self.lots.T)  # views: lots changes in place only
        self.participations = np.zeros(lanes, dtype=np.int64)
        self._counted = policy is not None and policy.counts_participated_only
        self._credited = 0  # the last round credited
        self._checked = None  # the frozen amount credit last checked

    @property
    def slots(self) -> int:
        return self.lots.shape[1]

    def clock(self, t: int):
        """Each lane's age clock at round t: t itself, or under
        counts_participated_only the rounds the lane has participated in
        (an array)."""
        return self.participations if self._counted else t

    def balance(self) -> np.ndarray:
        """Each lane's tokens, summed oldest lot first, in a new array:
        the same floats as Python's sum() over each lane's lots, a ufunc a column."""
        first, *rest = self._columns
        total = first + rest.pop(0) if rest else first.copy()
        for lot in rest:
            total += lot
        return total

    def credit(self, amount, t: int, lanes: np.ndarray) -> None:
        """Book the round-t participation of each of `lanes`: count it,
        then add a lot of `amount` (a scalar or one per lane, each finite
        and >= 0, but not -0.0). The rows shift in place. The amount is
        checked on every call, save a `frozen_amounts` array already
        checked by the last call that checked one.

        Credits come once per round, in round order: t must be the
        round after the last credited one. On the round clock a credit
        is one block move and one ufunc, lanes times `amount`.
        """
        _check_mask(lanes, len(self.lots))
        if t != self._credited + 1:
            raise ValueError(f"credit round {t} is not the round after the last "
                             f"credited round {self._credited}")
        if amount is not self._checked:
            _check_amount(amount, "credit amount")
            if type(amount) is np.ndarray and type(amount.base) is bytes:
                self._checked = amount  # read-only over immutable bytes: stays valid
        # Lots are >= 0. A non-credited lane drops only expired lots, unless none expire.
        drop = self._columns[0]
        if np.count_nonzero(drop) and (self.policy is None or np.count_nonzero(drop * lanes)):
            raise ValueError(f"a round-{t} credit would overwrite a lot that still holds tokens")
        self._credited = t
        self.participations += lanes
        if self._counted:
            self.lots[lanes, :-1] = self.lots[lanes, 1:]
            np.copyto(self._columns[-1], amount, where=lanes)
            return
        self.lots[:, :-1] = self.lots[:, 1:]
        np.multiply(lanes, amount, out=self._columns[-1])  # amount >= 0: else 0.0

    def spend(self, amount: float, lanes: np.ndarray) -> np.ndarray:
        """Each of `lanes` whose balance covers `amount` pays it, oldest
        lots first; returns those lanes. The lots of every other lane
        are untouched. `amount` must be finite and >= 0."""
        _check_mask(lanes, len(self.lots))
        if not 0 <= amount < math.inf:
            raise ValueError(f"spend amount must be finite and >= 0, got {amount}")
        paid = lanes & (self.balance() >= amount)
        if np.count_nonzero(paid):
            remaining = paid * float(amount)
            for lot in self._columns:
                take = np.minimum(lot, remaining)
                lot -= take
                remaining -= take
        return paid

    def expire(self, t: int, lanes: np.ndarray) -> np.ndarray:
        """Drop the oldest lot of each of `lanes` at the start of round t,
        the round after the last credited one: with the policy's slots
        that column is n + 1 ticks of the age clock old, the only one
        past the window. Return each lane's lost tokens (zero for other
        lanes); without a policy nothing expires.

        Meant to run before the round's participation is credited, so
        decisions see post-expiry balances.
        """
        _check_mask(lanes, len(self.lots))
        if t != self._credited + 1:
            raise ValueError(f"expire round {t} is not the round after the last "
                             f"credited round {self._credited}")
        if self.policy is None:
            return np.zeros(len(self.lots))
        oldest = self._columns[0]
        lost = oldest * lanes  # lots are >= 0: 0.0 for a lane not listed
        oldest -= lost
        return lost


def frozen_amounts(amounts, name: str) -> np.ndarray:
    """`amounts` as a flat float64 array that nothing can make writable,
    a view of a bytes copy, once each passes credit's check: finite and
    >= 0, but not -0.0. Otherwise a ValueError names `name`. A ledger
    checks such an array at its first credit and skips the check at
    every later credit of the same array."""
    amounts = np.array(amounts, dtype=float)
    _check_amount(amounts, name)
    return np.frombuffer(amounts.tobytes())


def _check_amount(amount, name: str) -> None:
    # Below +inf if of positive sign, below -inf (never) if not: False for
    # a NaN, infinite or negative amount, -0.0 included, in one more ufunc.
    valid = np.less(amount, np.copysign(math.inf, amount))
    if np.count_nonzero(valid) != valid.size:
        raise ValueError(f"{name} must be finite and >= 0, got {amount}")


def _check_mask(lanes, count: int) -> None:
    """Refuse `lanes` unless a boolean (count,) array: integers index rows, others broadcast."""
    dtype = getattr(lanes, "dtype", None)
    if dtype is not _BOOL and dtype != _BOOL:  # an unpickled bool dtype is another object
        raise TypeError(f"lanes must be a boolean mask, got dtype {dtype}")
    if lanes.shape != (count,):
        raise ValueError(f"lanes must be a mask of shape ({count},), got shape {lanes.shape}")


def model_age(owned_clock, clock):
    """Age of each lane's owned global model: the lane's age clock now
    (TokenLedger.clock) less its reading when the model was bought."""
    age = clock - owned_clock
    if np.count_nonzero(age < 0):
        raise ValueError(f"an owned model is newer than the clock: {owned_clock} > {clock}")
    return age
