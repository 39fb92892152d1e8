"""Relevance decomposition of a trained ESN output through the unfolded recurrence.

The scalar model output is taken as the total relevance and traced backwards
through time. At every step the state relevance splits between two tracks:

* the leak track, carrying (1 - alpha) * x(t-1) into the next older state, and
* the activation track, carrying alpha * act(...), which is redistributed over
  the pre-activation contributions w_in[j,d] * u_d(t) and w_res[j,k] * x(t-1)[k].

Both splits use the z+ rule: shares proportional to positive contributions
only; biases receive nothing. Relevance passes through the nonlinearity and
the alpha scaling unchanged. The pre-activation contributions are never
formed one by one: max(w v, 0) = w+ v+ + w- v- turns their sums into two
matrix products per step over a whole batch of samples (see `sign_split`).
Whenever a positive-contribution denominator falls below the stabilizer
epsilon, the affected relevance is booked to the sample's explicit
`absorbed` ledger instead of being redistributed, so the conservation
identity

    total = sum(scores) + sum(dummy_scores) + absorbed

stays auditable. The first column of each sample (a column of ones in the
standard pipeline) absorbs all residual state relevance; its scores are kept
separate in `dummy_scores` and omitted from the map proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError
from .reservoir import EsnModel, StateTrajectory, model_output


@dataclass(frozen=True)
class LrpConfig:
    """Stabilizer of the z+ denominators in the backward pass."""

    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")


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
) -> Tuple[np.ndarray, np.ndarray]:
    """Distribute each sample's scalar output onto its final reservoir states.

    Returns the (B, n_res) state relevance and the (B,) absorbed remainder
    (a sample's whole output, if its positive contributions sum below
    epsilon; the output bias never receives a share).
    """
    if not model.is_trained:
        raise ConfigError("readout not trained")
    if model.w_out.shape[0] != 1:
        raise ConfigError(
            f"relevance decomposition expects a single output unit, got {model.w_out.shape[0]}"
        )
    total = model_output(model, traj)[:, 0]
    z_pos = np.maximum(model.w_out[0] * traj.final_state, 0.0)
    denominator = z_pos.sum(axis=1)
    live = denominator >= cfg.epsilon
    shares = z_pos / np.where(live, denominator, 1.0)[:, None]
    r_state = np.where(live[:, None], shares * total[:, None], 0.0)
    return r_state, np.where(live, 0.0, total)


def sign_split(model: EsnModel) -> np.ndarray:
    """S = [W+ | W-] for W = [W_in | W_res]: the (n_res, 2 (n_in + n_res)) z+ weights.

    With v = [u(t) | x(t-1)] and P = [v+ | v-], max(w v, 0) = w+ v+ + w- v-
    turns the z+ sums into the matrix products P S^T and (G S).
    """
    w = np.hstack([model.w_in, model.w_res])
    return np.hstack([np.maximum(w, 0.0), np.minimum(w, 0.0)])


def _redistribute(
    split: np.ndarray, v: np.ndarray, r_unit: np.ndarray, epsilon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """z+ redistribution of (B, n_res) unit relevance over the contributions w[j,k] v[k].

    Returns the (B, m) relevance on v and the (B,) relevance absorbed by
    units whose positive contributions sum below epsilon.
    """
    p = np.hstack([np.maximum(v, 0.0), np.minimum(v, 0.0)])
    denominator = p @ split.T
    live = denominator >= epsilon
    absorbed = np.where(live, 0.0, r_unit).sum(axis=1)
    unit_weight = np.where(live, r_unit, 0.0) / np.where(live, denominator, 1.0)
    shares = p * (unit_weight @ split)
    return shares[:, : v.shape[1]] + shares[:, v.shape[1] :], absorbed


def relevance_step_back(
    model: EsnModel,
    traj: StateTrajectory,
    t: int,
    r_state: np.ndarray,
    cfg: LrpConfig = LrpConfig(),
    split: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push the (B, n_res) state relevance at time t (1-based, t >= 2) one step back.

    Stage 1 splits each unit's relevance between the leak track and the
    activation track by the z+ rule on the two transition summands. Stage 2
    redistributes the activation share over the positive pre-activation
    contributions of the inputs u(t) and the previous states x(t-1).
    `split` is `sign_split(model)`, built here when not given.

    Returns (input relevance for column t, relevance on x(t-1), absorbed),
    each with one row per sample.
    """
    if not 2 <= t <= traj.n_steps:
        raise ConfigError(f"t must lie in [2, {traj.n_steps}], got {t}")
    if split is None:
        split = sign_split(model)
    alpha = model.config.leak_rate
    n_in = model.config.n_in
    x_prev = traj.states[t - 2]
    r_state = np.asarray(r_state, dtype=float)

    z_leak = np.maximum((1.0 - alpha) * x_prev, 0.0)
    z_act = np.maximum(alpha * traj.act_branch[t - 1], 0.0)
    denom_split = z_leak + z_act
    live_split = denom_split >= cfg.epsilon
    absorbed = np.where(live_split, 0.0, r_state).sum(axis=1)
    r_live = np.where(live_split, r_state, 0.0)
    safe_split = np.where(live_split, denom_split, 1.0)
    r_leak = r_live * (z_leak / safe_split)
    r_act = r_live * (z_act / safe_split)

    v = np.hstack([traj.inputs[:, :, t - 1], x_prev])
    r_v, delta = _redistribute(split, v, r_act, cfg.epsilon)
    return r_v[:, :n_in], r_leak + r_v[:, n_in:], absorbed + delta


def relevance_first_column(
    model: EsnModel,
    traj: StateTrajectory,
    r_state: np.ndarray,
    cfg: LrpConfig = LrpConfig(),
    split: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assign all residual state relevance at t=1 to the first column's inputs.

    The first state has a single branch (alpha * act of the input
    pre-activation), so relevance passes straight to the z+ redistribution
    over w_in[j,d] * u_d(1); the input bias receives nothing. No previous
    state exists, so the recurrent half of v is zero and takes no share.
    Returns the (B, n_in) first-column relevance and the (B,) absorbed part.
    """
    if split is None:
        split = sign_split(model)
    u_first = traj.inputs[:, :, 0]
    v = np.hstack([u_first, np.zeros((u_first.shape[0], model.config.n_res))])
    r_v, absorbed = _redistribute(split, v, np.asarray(r_state, dtype=float), cfg.epsilon)
    return r_v[:, : model.config.n_in], absorbed


def relevance_map(
    model: EsnModel, traj: StateTrajectory, cfg: LrpConfig = LrpConfig()
) -> List[RelevanceMap]:
    """Full backward pass of a batch: output layer, every time step, first column.

    Returns one map per sample, in batch order.
    """
    split = sign_split(model)
    n_samples, n_inputs, n_steps = traj.inputs.shape
    r_state, absorbed = relevance_output_layer(model, traj, cfg)
    total = model_output(model, traj)[:, 0]
    scores = np.zeros((n_samples, n_inputs, n_steps - 1))
    for t in range(n_steps, 1, -1):
        r_input, r_state, delta = relevance_step_back(model, traj, t, r_state, cfg, split)
        scores[:, :, t - 2] = r_input
        absorbed += delta
    dummy_scores, delta = relevance_first_column(model, traj, r_state, cfg, split)
    absorbed += delta
    return [
        RelevanceMap(
            scores=scores[b], dummy_scores=dummy_scores[b], absorbed=float(absorbed[b]), total=float(total[b])
        )
        for b in range(n_samples)
    ]


def mean_relevance(maps: Iterable[RelevanceMap]) -> np.ndarray:
    """Elementwise mean of map scores, normalized to [-1, 1] by its peak.

    `maps` may be any iterable, a generator included: it is consumed once
    into a running sum, so no map need outlive its turn. When the mean
    cancels to (numerically) nothing, normalization is skipped and zeros
    are returned.
    """
    running: Optional[np.ndarray] = None
    count = 0
    for m in maps:
        if running is None:
            running = np.zeros_like(m.scores, dtype=float)
        elif m.scores.shape != running.shape:
            raise ConfigError(f"maps have mixed shapes: {running.shape} and {m.scores.shape}")
        running += m.scores
        count += 1
    if running is None:
        raise ConfigError("mean_relevance needs at least one map")
    mean = running / count
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
