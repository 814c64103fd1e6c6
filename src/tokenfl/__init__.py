"""Deterministic simulator of a token-incentivized federated learning
game with local differential privacy.

Clients choose a privacy budget, earn tokens for uploading randomized
gradients, and spend them to buy each round's global model; tokens
expire, stale clients are evicted, and the analytic layer predicts when
participation stops paying off. The learning core is a real (small)
FedAvg pipeline over IDX-formatted image data.
"""

__version__ = "0.1.0"

from .economy import FreshnessPolicy, InsufficientTokens, TokenLedger, TokenLot
from .engine import RoundRecord, SimConfig, run_simulation
from .learning import Dataset, ModelParams, load_idx, load_mnist
from .mechanisms import (
    MechanismParams,
    baseline_token_reward,
    cost,
    predict_collapse_round,
    reward,
    utility,
    value,
)
from .privacy import LdpConfig, perturb_gradients
from .strategy import ClientState, nash_check

__all__ = [
    "__version__",
    "FreshnessPolicy",
    "InsufficientTokens",
    "TokenLedger",
    "TokenLot",
    "RoundRecord",
    "SimConfig",
    "run_simulation",
    "Dataset",
    "ModelParams",
    "load_idx",
    "load_mnist",
    "MechanismParams",
    "baseline_token_reward",
    "cost",
    "predict_collapse_round",
    "reward",
    "utility",
    "value",
    "LdpConfig",
    "perturb_gradients",
    "ClientState",
    "nash_check",
]
