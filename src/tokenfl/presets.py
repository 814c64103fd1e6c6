"""Canned run configurations for the reference experiments.

Each preset is a SimConfig that names only what its experiment
changes; every other value is the schema default. The legacy-scheme
presets mix privacy levels across clients on intermediary data; the
strategic presets pin every client to one level on disjoint data to
expose the collapse rounds; the grouped presets play the strategic
game with params G = 2, ten clients in two round-robin groups, on
intermediary data. All of them run the full 50 rounds without an
accuracy stop so the late-round dynamics stay visible, and price a
model at the integer C = 1.
"""

from __future__ import annotations

from dataclasses import asdict

from .engine import SimConfig
from .mechanisms import MechanismParams

__all__ = ["PRESETS", "preset_config", "preset_names"]


def _preset(params=None, **changes) -> SimConfig:
    shared = {"clients": 10, "scheme": "disjoint", "stop_accuracy": None}
    # C is the integer 1, not the float default: every preset's config echo records 1.
    return SimConfig(**{**shared, **changes}, params=MechanismParams(C=1, **(params or {})))


PRESETS = {
    "baseline-3c": _preset(mechanism="baseline", clients=3, scheme="intermediary",
                           eps=[25, 15, 1]),
    "baseline-10c": _preset(mechanism="baseline", scheme="intermediary",
                            eps=[25, 23, 20, 17, 15, 13, 10, 7, 5, 1]),
    "strategic-3c-eps25": _preset(clients=3, eps=25),
    "strategic-3c-eps17": _preset(clients=3, eps=17),
    "strategic-3c-eps15": _preset(clients=3, eps=15),
    "strategic-10c-eps25": _preset(eps=25),
    "strategic-10c-eps17": _preset(eps=17),
    "strategic-10c-eps15": _preset(eps=15),
    "strategic-10c-eps20": _preset(scheme="intermediary", eps=20),
    "grouped-10c-eps20": _preset(scheme="intermediary", eps=20, params={"G": 2}),
    "grouped-10c-eps25": _preset(scheme="intermediary", eps=25, params={"G": 2}),
}


def preset_names():
    return sorted(PRESETS)


def preset_config(name: str) -> dict:
    """The preset's config dict in the documented schema (see
    cli.parse_config), a fresh copy on every call."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return asdict(PRESETS[name])
