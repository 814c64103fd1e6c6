"""Deterministic simulator of a token-incentivized federated learning
game with local differential privacy.

Clients choose a privacy budget, earn tokens for uploading randomized
gradients, and spend them to buy each round's global model; tokens
expire, stale clients are evicted, and the analytic layer predicts when
participation stops paying off. The learning core is a real (small)
FedAvg pipeline over IDX-formatted image data.

Importing the package pins BLAS to one thread per call, unless the
environment already sets it: each round runs its clients on a thread
pool with one worker per core, and BLAS threads on top of that would
oversubscribe the cores. The pin only takes effect if numpy has not
been imported yet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .economy import FreshnessPolicy, TokenLedger
from .engine import LearningParams, Run, SimConfig, run_simulation
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
from .strategy import nash_check

__all__ = [
    "__version__",
    "FreshnessPolicy",
    "TokenLedger",
    "Run",
    "LearningParams",
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
    "nash_check",
]
