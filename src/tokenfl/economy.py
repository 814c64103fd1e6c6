"""Token accounting: earn, spend, expire, and the age of an owned model.

Each client owns one TokenLedger. Tokens arrive as lots stamped with the
round they were earned in, are consumed oldest-first, and silently
expire once they outlive the freshness window. The same window governs
how stale a client's owned global model may get before the client is
barred from training; strategy.play_round applies that bar and evicts
a barred client that cannot afford a fresh model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "InsufficientTokens",
    "TokenLot",
    "FreshnessPolicy",
    "TokenLedger",
    "model_age",
]


class InsufficientTokens(Exception):
    """Raised when a spend exceeds the live balance; the ledger is unchanged."""


@dataclass
class TokenLot:
    amount: float
    earned_at: int

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(f"lot amount must be >= 0, got {self.amount}")
        if self.earned_at < 1:
            raise ValueError(f"earned_at must be a round index >= 1, got {self.earned_at}")


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


def _age(stamp: int, current_round: int, policy: FreshnessPolicy, participated_rounds) -> int:
    if policy.counts_participated_only:
        return sum(1 for p in participated_rounds if stamp < p <= current_round)
    return current_round - stamp


@dataclass
class TokenLedger:
    """Ordered token lots plus the participation history of one client."""

    lots: list[TokenLot] = field(default_factory=list)
    participated_rounds: list[int] = field(default_factory=list)

    @property
    def balance(self) -> float:
        return sum(lot.amount for lot in self.lots)

    def credit(self, amount: float, round_index: int) -> None:
        """Append a lot earned at round_index. Rounds must arrive in order."""
        if amount < 0:
            raise ValueError(f"credit amount must be >= 0, got {amount}")
        if self.lots and round_index <= self.lots[-1].earned_at:
            raise ValueError(
                f"credit round {round_index} is not after the last lot's round "
                f"{self.lots[-1].earned_at}"
            )
        self.lots.append(TokenLot(float(amount), int(round_index)))

    def spend(self, amount: float, round_index: int) -> None:
        """Consume `amount` tokens oldest lots first.

        Raises InsufficientTokens, leaving the ledger untouched, when the
        balance does not cover the amount. Drained lots stay in place
        with amount zero until expiry removes them, so the earn history
        remains inspectable.
        """
        if amount < 0:
            raise ValueError(f"spend amount must be >= 0, got {amount}")
        if self.balance < amount:
            raise InsufficientTokens(
                f"balance {self.balance} cannot cover {amount} at round {round_index}"
            )
        remaining = float(amount)
        for lot in self.lots:
            if remaining <= 0:
                break
            take = min(lot.amount, remaining)
            lot.amount -= take
            remaining -= take

    def expire(self, current_round: int, policy: FreshnessPolicy) -> float:
        """Drop lots older than the freshness window; return the lost total.

        Meant to run at the start of each round, before the current
        round's participation is recorded, so decisions see post-expiry
        balances.
        """
        if current_round < 1:
            raise ValueError(f"current_round must be >= 1, got {current_round}")
        kept, lost = [], 0.0
        for lot in self.lots:
            if _age(lot.earned_at, current_round, policy, self.participated_rounds) > policy.n:
                lost += lot.amount
            else:
                kept.append(lot)
        self.lots = kept
        return lost

    def record_participation(self, round_index: int) -> None:
        if self.participated_rounds and round_index <= self.participated_rounds[-1]:
            raise ValueError(
                f"participation round {round_index} is not after "
                f"{self.participated_rounds[-1]}"
            )
        self.participated_rounds.append(int(round_index))


def model_age(owned_model_round: int, current_round: int, policy: FreshnessPolicy,
              participated_rounds=()) -> int:
    """Age of an owned global model under the policy's counting rule."""
    if owned_model_round > current_round:
        raise ValueError(
            f"owned_model_round {owned_model_round} is in the future of round {current_round}"
        )
    return _age(owned_model_round, current_round, policy, participated_rounds)
