"""Relevance decomposition of a trained ESN output through the unfolded recurrence.

The scalar model output is taken as the total relevance and traced backwards
through time. At every step the state relevance splits between two tracks:

* the leak track, carrying (1 - alpha) * x(t-1) into the next older state, and
* the activation track, carrying alpha * act(...), which is redistributed over
  the pre-activation contributions w_in[j,d] * u_d(t) and w_res[j,k] * x(t-1)[k].

Both splits use the z+ rule: shares proportional to positive contributions
only; biases receive nothing. Relevance passes through the nonlinearity and
the alpha scaling unchanged. Whenever a positive-contribution denominator
falls below the stabilizer epsilon, the affected relevance is booked to an
explicit `absorbed` ledger instead of being redistributed, so the
conservation identity

    total = sum(scores) + sum(dummy_scores) + absorbed

stays auditable. The first column of each sample (a column of ones in the
standard pipeline) absorbs all residual state relevance; its scores are kept
separate in `dummy_scores` and omitted from the map proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError
from .reservoir import EsnModel, StateTrajectory, model_output


@dataclass(frozen=True)
class LrpConfig:
    """Stabilizer of the z+ denominators in the backward pass."""

    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class RelevanceMap:
    """Signed relevance scores for one sample, with conservation accounting.

    scores has one column per input column after the first; the first
    (dummy) column's relevance lives in dummy_scores. absorbed collects
    relevance lost to degenerate z+ denominators; total is the model
    output being decomposed.
    """

    scores: np.ndarray
    dummy_scores: np.ndarray
    absorbed: float
    total: float

    def conservation_error(self) -> float:
        return abs(self.total - float(self.scores.sum()) - float(self.dummy_scores.sum()) - self.absorbed)

    def conserved(self, tol: float = 1e-6) -> bool:
        return self.conservation_error() <= tol * max(1.0, abs(self.total))


def relevance_output_layer(
    model: EsnModel, traj: StateTrajectory, cfg: LrpConfig = LrpConfig()
) -> Tuple[np.ndarray, float]:
    """Distribute the scalar output onto the final reservoir states.

    Returns the per-unit state relevance and the absorbed remainder (the
    whole output, if the positive contributions sum below epsilon; the
    output bias never receives a share).
    """
    if not model.is_trained:
        raise ConfigError("readout not trained")
    if model.w_out.shape[0] != 1:
        raise ConfigError(
            f"relevance decomposition expects a single output unit, got {model.w_out.shape[0]}"
        )
    x_final = traj.final_state
    total = float(model.w_out[0] @ x_final + model.b_out[0])
    z_pos = np.maximum(model.w_out[0] * x_final, 0.0)
    denominator = float(z_pos.sum())
    if denominator < cfg.epsilon:
        return np.zeros_like(x_final), total
    return (z_pos / denominator) * total, 0.0


def relevance_step_back(
    model: EsnModel,
    traj: StateTrajectory,
    t: int,
    r_state: np.ndarray,
    cfg: LrpConfig = LrpConfig(),
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Push state relevance at time t (1-based, t >= 2) one step back.

    Stage 1 splits each unit's relevance between the leak track and the
    activation track by the z+ rule on the two transition summands. Stage 2
    redistributes the activation share over the positive pre-activation
    contributions of the inputs u(t) and the previous states x(t-1).

    Returns (input relevance for column t, relevance on x(t-1), absorbed).
    """
    if not 2 <= t <= traj.n_steps:
        raise ConfigError(f"t must lie in [2, {traj.n_steps}], got {t}")
    alpha = model.config.leak_rate
    x_prev = traj.states[t - 2]
    u_t = traj.inputs[:, t - 1]
    r_state = np.asarray(r_state, dtype=float)

    z_leak = np.maximum((1.0 - alpha) * x_prev, 0.0)
    z_act = np.maximum(alpha * traj.act_branch[t - 1], 0.0)
    denom_split = z_leak + z_act
    live_split = denom_split >= cfg.epsilon
    absorbed = float(r_state[~live_split].sum())
    r_live = np.where(live_split, r_state, 0.0)
    safe_split = np.where(live_split, denom_split, 1.0)
    r_leak = r_live * (z_leak / safe_split)
    r_act = r_live * (z_act / safe_split)

    z_in = np.maximum(model.w_in * u_t[None, :], 0.0)
    z_rec = np.maximum(model.w_res * x_prev[None, :], 0.0)
    denom_pre = z_in.sum(axis=1) + z_rec.sum(axis=1)
    live_pre = denom_pre >= cfg.epsilon
    absorbed += float(r_act[~live_pre].sum())
    unit_weight = np.where(live_pre, r_act, 0.0) / np.where(live_pre, denom_pre, 1.0)

    r_input = z_in.T @ unit_weight
    r_prev_state = r_leak + z_rec.T @ unit_weight
    return r_input, r_prev_state, absorbed


def relevance_first_column(
    model: EsnModel,
    traj: StateTrajectory,
    r_state: np.ndarray,
    cfg: LrpConfig = LrpConfig(),
) -> Tuple[np.ndarray, float]:
    """Assign all residual state relevance at t=1 to the first column's inputs.

    The first state has a single branch (alpha * act of the input
    pre-activation), so relevance passes straight to the z+ redistribution
    over w_in[j,d] * u_d(1); the input bias receives nothing.
    """
    u_first = traj.inputs[:, 0]
    r_state = np.asarray(r_state, dtype=float)
    z_in = np.maximum(model.w_in * u_first[None, :], 0.0)
    denominator = z_in.sum(axis=1)
    live = denominator >= cfg.epsilon
    absorbed = float(r_state[~live].sum())
    unit_weight = np.where(live, r_state, 0.0) / np.where(live, denominator, 1.0)
    return z_in.T @ unit_weight, absorbed


def relevance_map(
    model: EsnModel, traj: StateTrajectory, cfg: LrpConfig = LrpConfig()
) -> RelevanceMap:
    """Full backward pass: output layer, every time step, first column."""
    n_inputs = traj.inputs.shape[0]
    r_state, absorbed = relevance_output_layer(model, traj, cfg)
    total = float(model_output(model, traj)[0])
    scores = np.zeros((n_inputs, traj.n_steps - 1))
    for t in range(traj.n_steps, 1, -1):
        r_input, r_state, delta = relevance_step_back(model, traj, t, r_state, cfg)
        scores[:, t - 2] = r_input
        absorbed += delta
    dummy_scores, delta = relevance_first_column(model, traj, r_state, cfg)
    absorbed += delta
    return RelevanceMap(scores=scores, dummy_scores=dummy_scores, absorbed=absorbed, total=total)


def mean_relevance(maps: Sequence[RelevanceMap]) -> np.ndarray:
    """Elementwise mean of map scores, normalized to [-1, 1] by its peak.

    When the mean cancels to (numerically) nothing, normalization is
    skipped and zeros are returned.
    """
    if not maps:
        raise ConfigError("mean_relevance needs at least one map")
    shapes = {m.scores.shape for m in maps}
    if len(shapes) != 1:
        raise ConfigError(f"maps have mixed shapes: {sorted(shapes)}")
    mean = np.mean([m.scores for m in maps], axis=0)
    peak = float(np.max(np.abs(mean))) if mean.size else 0.0
    if peak < 1e-15:
        return np.zeros_like(mean)
    return mean / peak


def column_center_of_gravity(scores: np.ndarray) -> float:
    """Center of gravity of absolute relevance mass along the column axis."""
    mass = np.abs(np.asarray(scores, dtype=float)).sum(axis=0)
    denom = float(mass.sum())
    if denom <= 0.0:
        return 0.0
    return float(mass @ np.arange(mass.size) / denom)


def write_matrix_csv(path: Union[str, Path], matrix: np.ndarray) -> None:
    """CSV export, 9 significant digits, one row per input feature."""
    np.savetxt(path, np.atleast_2d(matrix), fmt="%.9g", delimiter=",")


def write_heatmap_pgm(path: Union[str, Path], matrix: np.ndarray) -> None:
    """8-bit grayscale PGM: [-peak, +peak] mapped linearly onto [0, 255]."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    if peak <= 0.0:
        pixels = np.full(m.shape, 128, dtype=np.uint8)
    else:
        pixels = np.rint((m + peak) * (255.0 / (2.0 * peak))).clip(0, 255).astype(np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
