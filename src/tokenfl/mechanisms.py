"""Closed-form game functions of the token incentive scheme.

Everything here is a pure function: the legacy linear token reward, the
model value curve, the privacy cost curve, the reward schedule, the
per-round participation utility built from them, and an analytic scan
for the round at which utility first turns negative. No training or
randomness is involved; these functions define the game that the
simulation engine plays out.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MechanismParams",
    "baseline_token_reward",
    "value",
    "cost",
    "reward",
    "utility",
    "predict_collapse_round",
    "calibrate_cost_range",
]


@dataclass(frozen=True)
class MechanismParams:
    """Game constants shared by every simulator component.

    eps_min/eps_max bound the privacy budgets clients may choose and
    eps_a is the acceptable level at which the reward schedule pays the
    full model price. C is the token price of one global model, n the
    freshness window in rounds, and G the number of client groups (1
    means everyone is scheduled every round). c_min/c_max bound the
    real-valued privacy cost curve; their defaults come from
    calibrate_cost_range(). eps_low/eps_high bound the legacy linear
    reward only.
    """

    eps_min: float = 1.0
    eps_max: float = 25.0
    eps_a: float = 15.0
    C: float = 1.0
    n: int = 1
    G: int = 1
    c_min: float = 2.75
    c_max: float = 18.0
    eps_low: float = 1.0
    eps_high: float = 25.0

    def __post_init__(self):
        if not 0 < self.eps_min <= self.eps_a <= self.eps_max:
            raise ValueError(
                "need 0 < eps_min <= eps_a <= eps_max, got "
                f"({self.eps_min}, {self.eps_a}, {self.eps_max})"
            )
        if self.C <= 0 or self.C != round(self.C):
            raise ValueError(f"C must be a positive integer, got {self.C}")
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if round(self.C) % int(self.n) != 0:
            raise ValueError(f"C must be a multiple of n, got C={self.C}, n={self.n}")
        if self.G < 1 or self.G != int(self.G):
            raise ValueError(f"G must be a positive integer, got {self.G}")
        if self.c_min < 0 or self.c_max < self.c_min:
            raise ValueError(f"need 0 <= c_min <= c_max, got ({self.c_min}, {self.c_max})")
        if not self.eps_low < self.eps_high:
            raise ValueError(f"need eps_low < eps_high, got ({self.eps_low}, {self.eps_high})")


def baseline_token_reward(eps, params: MechanismParams) -> float:
    """Linear per-round token reward of the legacy scheme, in [0.5, 1.0]."""
    if not params.eps_low <= eps <= params.eps_high:
        raise ValueError(
            f"eps must lie in [{params.eps_low}, {params.eps_high}], got {eps}"
        )
    return 0.5 + (eps - params.eps_low) / (2.0 * (params.eps_high - params.eps_low))


def value(t) -> float:
    """Worth of the round-t global model to a client.

    Zero at t = 0 and increasing; the per-round increments shrink as
    training matures (from t = 3 on; the curve ramps up over the first
    couple of rounds before the diminishing-returns regime sets in).
    """
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    lt = math.log(t + 1.0)
    return 30.0 * lt**2.8 / (1.0 + 0.15 * lt**1.5)


def cost(eps, params: MechanismParams) -> float:
    """Real (non-token) privacy cost of participating at budget eps.

    Cubic ramp anchored at eps = 1 regardless of eps_min, clamped into
    [c_min, c_max], and pinned at c_max for eps >= eps_max.
    """
    if eps < params.eps_min:
        raise ValueError(f"eps must be >= eps_min ({params.eps_min}), got {eps}")
    if eps >= params.eps_max:
        return params.c_max
    raw = (params.c_max - params.c_min) * ((eps - 1.0) / (params.eps_max - 1.0)) ** 3
    return float(min(max(raw + params.c_min, params.c_min), params.c_max))


def reward(eps, params: MechanismParams) -> float:
    """Tokens credited for one round of participation at budget eps.

    Pays C/n, the per-round share of the model price, at and above
    eps_a: a client at the acceptable level accumulates exactly C over
    one freshness window, so buying every n rounds is a closed loop
    with nothing left over to expire. Below eps_a the reward ramps
    cubically from 0.5 at eps_min, continuously meeting C/n, so
    undershooting the acceptable level strictly reduces income. C is a
    multiple of n, hence C/n >= 1 and the ramp is strictly increasing.
    """
    if eps < params.eps_min:
        raise ValueError(f"eps must be >= eps_min ({params.eps_min}), got {eps}")
    full = params.C / params.n
    if eps >= params.eps_a:
        return float(full)
    frac = (eps - params.eps_min) / (params.eps_a - params.eps_min)
    return 0.5 + (full - 0.5) * frac**3


def utility(t, eps, stride, params: MechanismParams) -> float:
    """Net gain of participating at round t: trade the round-t model for
    the round-(t + stride) model and pay the privacy cost.

    stride is 1 for individual play and G under group scheduling, where
    a participant waits G rounds between model upgrades.
    """
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return value(t + stride) - value(t) - cost(eps, params)


def predict_collapse_round(eps, stride, horizon, params: MechanismParams):
    """Smallest round t in [1, horizon] with negative utility, or None.

    A rational client stops participating at the returned round; None
    means participation stays worthwhile through the whole horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for t in range(1, horizon + 1):
        if utility(t, eps, stride, params) < 0:
            return t
    return None


def _collapse_from_increments(gains: np.ndarray, c: float):
    """Index (1-based round) of the first gain below c, or None."""
    below = np.nonzero(gains < c)[0]
    if below.size == 0:
        return None
    return int(below[0]) + 1


def calibrate_cost_range(
    targets=((25.0, 10), (20.0, 28), (17.0, 42)),
    never=(15.0,),
    never_stride2=(20.0,),
    horizon=50,
    scan_rounds=200,
    c_min_grid=None,
    c_max_grid=None,
    params: MechanismParams | None = None,
):
    """Least-squares fit of (c_min, c_max) to reference collapse rounds.

    Scans a fixed grid of candidate cost ranges. A candidate is
    admissible when every eps in `never` keeps positive utility through
    `horizon` at stride 1, every eps in `never_stride2` does so at
    stride 2, and the stride-2 collapse for the largest target eps lands
    strictly after its stride-1 collapse. Among admissible candidates
    the scan keeps the first one (row-major order) minimizing the
    squared error between predicted and target collapse rounds.

    The shipped MechanismParams defaults equal the output of this
    function with its own defaults: (2.75, 18.0), predicting collapse
    rounds (11, 27, 42) for eps (25, 20, 17).
    """
    if params is None:
        params = MechanismParams()
    if c_min_grid is None:
        c_min_grid = np.arange(0.0, 5.01, 0.25)
    if c_max_grid is None:
        c_max_grid = np.arange(5.0, 40.01, 0.25)

    ts = np.arange(1, scan_rounds + 1, dtype=float)
    v = np.array([value(t) for t in range(0, scan_rounds + 3)])
    gains1 = v[2 : scan_rounds + 2] - v[1 : scan_rounds + 1]
    gains2 = v[3 : scan_rounds + 3] - v[1 : scan_rounds + 1]
    assert gains1.shape == ts.shape

    eps_top = max(e for e, _ in targets)
    best = None
    for c_min in c_min_grid:
        for c_max in c_max_grid:
            if c_max <= c_min:
                continue
            candidate = dataclasses.replace(params, c_min=c_min, c_max=c_max)
            if any(
                _collapse_from_increments(gains1[:horizon], cost(e, candidate)) is not None
                for e in never
            ):
                continue
            if any(
                _collapse_from_increments(gains2[:horizon], cost(e, candidate)) is not None
                for e in never_stride2
            ):
                continue
            rounds = [_collapse_from_increments(gains1, cost(e, candidate)) for e, _ in targets]
            if any(r is None for r in rounds):
                continue
            top_s1 = rounds[[e for e, _ in targets].index(eps_top)]
            top_s2 = _collapse_from_increments(gains2, cost(eps_top, candidate))
            if top_s2 is not None and top_s2 <= top_s1:
                continue
            obj = sum((r - want) ** 2 for r, (_, want) in zip(rounds, targets))
            if best is None or obj < best[0]:
                best = (obj, float(c_min), float(c_max))
    if best is None:
        raise ValueError("no admissible (c_min, c_max) on the scanned grid")
    return best[1], best[2]
