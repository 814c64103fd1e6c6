"""Closed-form game functions of the token incentive scheme.

Everything here is a pure function: the legacy linear token reward, the
model value curve and its table, the privacy cost curve, the reward
schedule, the per-round participation utility read from them, and an
analytic scan for the round at which utility first turns negative. No
training or randomness is involved; these functions define the game
that the simulation engine plays out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MechanismParams",
    "baseline_token_reward",
    "value",
    "value_table",
    "cost",
    "reward",
    "utility",
    "predict_collapse_round",
]


@dataclass(frozen=True)
class MechanismParams:
    """Game constants shared by every simulator component.

    eps_min/eps_max bound the privacy budgets clients may choose and
    eps_a is the acceptable level at which the reward schedule pays the
    full model price. C is the token price of one global model, n the
    freshness window in rounds, and G the number of client groups, the
    one statement of grouping: 1 means everyone is scheduled every
    round, and above 1 the strategic game schedules the groups round
    robin at stride G, each model aging by the rounds its holder plays
    (the baseline needs 1). c_min/c_max bound the
    real-valued privacy cost curve. Their defaults were fitted so that
    at stride 1 the first refusal lands at round 11 for eps 25, 27 for
    eps 20 and 42 for eps 17, and eps 15 never refuses within 50 rounds
    (test_mechanisms.py TestPredictCollapseRound.test_frozen_stride1_rounds,
    TestCalibration.test_predictions_at_shipped_range); eps 20 never
    refuses at stride 2 (test_stride2_keeps_eps20_alive), and eps 25
    refuses later at stride 2 than at stride 1
    (test_group_stride_delays_collapse). The legacy linear reward
    ramps over [eps_min, eps_max].
    """

    eps_min: float = 1.0
    eps_max: float = 25.0
    eps_a: float = 15.0
    C: float = 1.0
    n: int = 1
    G: int = 1
    c_min: float = 2.75
    c_max: float = 18.0

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
        if not 0 <= self.c_min <= self.c_max:
            raise ValueError(f"need 0 <= c_min <= c_max, got ({self.c_min}, {self.c_max})")


def baseline_token_reward(eps, params: MechanismParams) -> float:
    """Linear per-round token reward of the legacy scheme: 0.5 at
    eps_min up to 1.0 at eps_max. Refuses a budget outside that range,
    and eps_min == eps_max, which leaves no range to ramp over."""
    low, high = params.eps_min, params.eps_max
    if not low < high:
        raise ValueError(f"the baseline reward needs eps_min < eps_max, got {low} = {high}")
    if not low <= eps <= high:
        raise ValueError(f"eps must lie in [{low}, {high}], got {eps}")
    return 0.5 + (eps - low) / (2.0 * (high - low))


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


@functools.lru_cache(maxsize=32)
def value_table(last: int) -> np.ndarray:
    """value(t) for t = 0..last as one read-only array of the same
    floats, computed once per length."""
    table = np.fromiter((value(t) for t in range(last + 1)), float, count=last + 1)
    table.flags.writeable = False
    return table


def cost(eps, params: MechanismParams) -> float:
    """Real (non-token) privacy cost of participating at budget eps.

    Cubic ramp anchored at eps = 1 regardless of eps_min, clamped into
    [c_min, c_max], and pinned at c_max for eps >= eps_max.
    """
    if not eps >= params.eps_min:
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
    if not eps >= params.eps_min:
        raise ValueError(f"eps must be >= eps_min ({params.eps_min}), got {eps}")
    full = params.C / params.n
    if eps >= params.eps_a:
        return float(full)
    frac = (eps - params.eps_min) / (params.eps_a - params.eps_min)
    return 0.5 + (full - 0.5) * frac**3


def utility(t, privacy_cost, stride, values: np.ndarray):
    """Net gain of participating at round t, (values[t + stride] -
    values[t]) - privacy_cost: trade the round-t model for the
    round-(t + stride) model of the value table `values` and pay the
    privacy cost, one cost or one per lane, at an integer round or an
    array of integer rounds t; an empty array gives an empty result.
    stride is 1 for individual play and G under group scheduling, where
    a participant waits G rounds between model upgrades. A run's
    decisions and utility column and `analyze` call it.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if np.result_type(t).kind not in "iu":
        raise ValueError(f"rounds t must be integers, got {t}")
    scalar = np.isscalar(t)
    if scalar or t.size:
        first, last = (t, t) if scalar else (t.min(), t.max())
        if not 0 <= first <= last + stride < len(values):
            raise ValueError(f"need rounds t >= 0 with t + {stride} < {len(values)}, got {t}")
    return (values[t + stride] - values[t]) - privacy_cost


def predict_collapse_round(eps, stride, horizon, params: MechanismParams):
    """Smallest round t in [1, horizon] with negative utility, or None.

    A rational client stops participating at the returned round; None
    means participation stays worthwhile through the whole horizon. The
    scan reads utility's formula off two slices of one value table.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    v = value_table(horizon + stride)
    gains = v[1 + stride :] - v[1 : horizon + 1]  # v[t + stride] - v[t] for t = 1..horizon
    below = np.flatnonzero(gains - cost(eps, params) < 0)
    return int(below[0]) + 1 if below.size else None
