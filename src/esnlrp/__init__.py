"""Leaky echo state networks for 2-D pattern classification, with relevance maps.

Images are fed to the reservoir column by column, a closed-form linear
readout classifies from the final state, and the scalar output is decomposed
back onto the input pixels through the unfolded recurrence. Submodules:

- reservoir: network configuration, initialization, forward pass
- readout:   closed-form training, sign-test accuracy reports
- lrp:       backward relevance pass and map exports
- data:      dataset container, ENSO labeling pipeline, synthetic task
- baselines: linear regression and the small identity-activation MLP
- persistence: bit-exact JSON model round-trips
- cli:       experiment driver (`esnlrp` entry point)
"""

from .errors import ConfigError, DataError, NumericError
from .lrp import LrpConfig, RelevanceMap, relevance_map
from .readout import AccuracyReport, ClassLabel, ReadoutSolution, accuracy, fit_readout
from .reservoir import (
    EsnConfig,
    EsnModel,
    StateTrajectory,
    final_states,
    init_reservoir,
    model_output,
    run_reservoir,
)

__all__ = [
    "AccuracyReport",
    "ClassLabel",
    "ConfigError",
    "DataError",
    "EsnConfig",
    "EsnModel",
    "LrpConfig",
    "NumericError",
    "ReadoutSolution",
    "RelevanceMap",
    "StateTrajectory",
    "accuracy",
    "final_states",
    "fit_readout",
    "init_reservoir",
    "model_output",
    "relevance_map",
    "run_reservoir",
]

__version__ = "0.1.0"
