"""Per-coordinate randomization of gradient uploads with an eps-LDP bound.

The default mechanism is the bounded two-point one: every (clipped)
scalar is replaced by one of two fixed outputs symmetric about zero,
with probabilities linear in the input, which makes the output
unbiased while capping the log-probability ratio between any two inputs
at eps. A Laplace variant sits behind the same interface. The module
also ships an empirical estimator of the worst-case probability ratio
so the guarantee can be certified statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

__all__ = [
    "LDP_MECHANISMS",
    "LdpConfig",
    "perturb_gradients",
    "RatioEstimate",
    "empirical_ldp_ratio",
]

LdpMechanism = Literal["two_point", "laplace"]
LDP_MECHANISMS = get_args(LdpMechanism)


@dataclass(frozen=True)
class LdpConfig:
    """Privacy budget and per-coordinate clipping range [-radius, radius]."""

    eps: float
    radius: float = 1.0
    mechanism: LdpMechanism = "two_point"

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.mechanism not in LDP_MECHANISMS:
            raise ValueError(f"mechanism must be one of {LDP_MECHANISMS}, got {self.mechanism!r}")


def _two_point_terms(cfg: LdpConfig):
    """Output offset B and the slope of the upper-output probability.

    The upper/lower outputs are +-B with B = radius * (e^eps + 1) /
    (e^eps - 1), and P(upper | w) = (w * (e^eps - 1) + radius *
    (e^eps + 1)) / (2 * radius * (e^eps + 1)). Both are
    computed through tanh(eps / 2) = (e^eps - 1) / (e^eps + 1), which
    stays finite for arbitrarily large eps where e^eps alone overflows.
    """
    t = math.tanh(cfg.eps / 2.0)
    return cfg.radius / t, t


def _upper_probability(w, cfg: LdpConfig):
    _, t = _two_point_terms(cfg)
    p = np.clip(w, -cfg.radius, cfg.radius)
    p /= cfg.radius
    p *= t
    p += 1.0
    p *= 0.5
    return p


def perturb_gradients(g, cfg: LdpConfig, rng: np.random.Generator) -> np.ndarray:
    """Coordinate-wise randomization of a gradient vector.

    Each coordinate is clipped into the configured range and perturbed
    with independent randomness from `rng`; the output has the same
    length as the input.
    """
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient entries must be finite")
    if cfg.mechanism == "laplace":
        clipped = np.clip(g, -cfg.radius, cfg.radius)
        return clipped + rng.laplace(0.0, 2.0 * cfg.radius / cfg.eps, size=g.shape)
    bound, _ = _two_point_terms(cfg)
    p_up = _upper_probability(g, cfg)
    u = rng.random(g.shape)
    # +-1.0 from the mask, then +-bound exactly, for any finite bound.
    out = np.multiply(u < p_up, 2.0, out=u)
    out -= 1.0
    out *= bound
    return out


@dataclass(frozen=True)
class RatioEstimate:
    """Monte-Carlo estimate of the worst output-probability ratio.

    `degenerate` flags that some denominator outcome was never observed,
    in which case `ratio` is not a usable point estimate (it is inf when
    the matching numerator was seen, nan when neither side was) and the
    raw counts should be interpreted through a confidence interval
    instead.
    """

    ratio: float
    degenerate: bool
    counts_v: tuple
    counts_v_prime: tuple
    samples: int


def _outcome_counts(v, cfg, samples, rng):
    draws = perturb_gradients(np.full(samples, float(v)), cfg, rng)
    upper = int((draws > 0).sum())
    return upper, samples - upper


def empirical_ldp_ratio(cfg: LdpConfig, v: float, v_prime: float, samples: int,
                        rng: np.random.Generator | None = None) -> RatioEstimate:
    """Estimate max_S P(output in S | v) / P(output in S | v_prime).

    Only meaningful for the two-point mechanism, whose output space has
    two points; S therefore ranges over {upper} and {lower}. Inputs must
    lie inside the clipping range and samples must be at least 10^4 for
    the binomial error to be small against e^eps.
    """
    if cfg.mechanism != "two_point":
        raise ValueError("empirical ratio estimation is defined for the two_point mechanism")
    lo, hi = -cfg.radius, cfg.radius
    for name, x in (("v", v), ("v_prime", v_prime)):
        if not lo <= x <= hi:
            raise ValueError(f"{name}={x} outside the clipping range [{lo}, {hi}]")
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)

    up_v, down_v = _outcome_counts(v, cfg, samples, rng)
    up_vp, down_vp = _outcome_counts(v_prime, cfg, samples, rng)

    if up_vp == 0 or down_vp == 0:
        if (up_vp == 0 and up_v > 0) or (down_vp == 0 and down_v > 0):
            ratio = math.inf
        else:
            ratio = math.nan
        return RatioEstimate(ratio, True, (up_v, down_v), (up_vp, down_vp), samples)

    ratio = max(up_v / up_vp, down_v / down_vp)
    return RatioEstimate(float(ratio), False, (up_v, down_v), (up_vp, down_vp), samples)
