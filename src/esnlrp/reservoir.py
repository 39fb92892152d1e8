"""Leaky echo state network: random reservoir construction and forward pass.

A reservoir is a pool of sparsely connected recurrent units with fixed random
weights. A 2D sample of shape (n_in, T) is fed column by column, one column
per time step; only the linear readout on top of the final state is ever
trained (see `readout`). The forward pass runs a stacked batch of samples
at once, so every step's matrix products cover the whole batch, and it
records only the states x(t).

State transition for t >= 2, elementwise over units::

    x(t) = (1 - alpha) * x(t-1) + alpha * tanh(W_in u(t) + b_in + W_res x(t-1) + b_res)

and for the first step, where no previous state exists::

    x(1) = alpha * tanh(W_in u(1) + b_in)

The leak rate alpha acts as the inverse memory time scale: the larger it is,
the faster the reservoir forgets earlier columns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError

# Half-width of the uniform draws of w_in, b_in, b_res and (before spectral
# scaling) w_res.
WEIGHT_RANGE = 0.1

# Fixed stream for the power-iteration start block; keeps the estimate (and
# therefore reservoir construction) a pure function of the matrix.
_POWER_ITERATION_SEED = 0x9E3779B9


@dataclass(frozen=True)
class EsnConfig:
    """Hyperparameters of a leaky echo state network.

    Defaults are the production values used throughout: 300 units, 30%
    connectivity, spectral radius 0.8 and leak rate 0.01.
    """

    n_in: int
    n_res: int = 300
    leak_rate: float = 0.01
    sparsity: float = 0.3
    spectral_radius: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_in < 1:
            raise ConfigError(f"n_in must be positive, got {self.n_in}")
        if self.n_res < 1:
            raise ConfigError(f"n_res must be positive, got {self.n_res}")
        if not 0.0 <= self.leak_rate <= 1.0:
            raise ConfigError(f"leak_rate must lie in [0, 1], got {self.leak_rate}")
        if not 0.0 < self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must lie in (0, 1], got {self.sparsity}")
        if not 0.0 < self.spectral_radius < np.inf:
            raise ConfigError(f"spectral_radius must be positive and finite, got {self.spectral_radius}")


@dataclass(frozen=True)
class EsnModel:
    """Frozen reservoir weights plus the (optionally trained) linear readout.

    w_in, b_in, w_res and b_res are immutable after construction; training
    attaches w_out and b_out via `with_readout`, returning a new model.
    """

    config: EsnConfig
    w_in: np.ndarray
    b_in: np.ndarray
    w_res: np.ndarray
    b_res: np.ndarray
    w_out: Optional[np.ndarray] = None
    b_out: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n, d = self.config.n_res, self.config.n_in
        for name, shape in (("w_in", (n, d)), ("b_in", (n,)), ("w_res", (n, n)), ("b_res", (n,))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ConfigError(f"{name} has shape {got}, expected {shape} for n_in={d}, n_res={n}")

    @property
    def is_trained(self) -> bool:
        return self.w_out is not None and self.b_out is not None

    @property
    def trainable_parameter_count(self) -> int:
        """Readout size: n_out * n_res weights plus n_out biases."""
        if not self.is_trained:
            return 0
        return int(self.w_out.size + self.b_out.size)

    def with_readout(self, w_out: np.ndarray, b_out: np.ndarray) -> "EsnModel":
        """Return a trained copy of this model with the given readout attached."""
        w_out = np.atleast_2d(np.asarray(w_out, dtype=float)).copy()
        b_out = np.atleast_1d(np.asarray(b_out, dtype=float)).copy()
        if w_out.shape[1] != self.config.n_res or w_out.shape[0] != b_out.shape[0]:
            raise ConfigError(
                f"readout shapes {w_out.shape}/{b_out.shape} do not fit n_res={self.config.n_res}"
            )
        w_out.flags.writeable = False
        b_out.flags.writeable = False
        return dataclasses.replace(self, w_out=w_out, b_out=b_out)


@dataclass
class StateTrajectory:
    """Forward-pass record of a batch, needed by the relevance backward pass.

    states[t-1, b] holds x(t) of sample b for t = 1..T, laid out
    (T, B, n_res) so each step is one contiguous block. The states alone fix
    both summands of the leaky update: the leak share (1 - alpha) x(t-1) and
    the activation share x(t) - (1 - alpha) x(t-1) = alpha act(t). `inputs`
    is the originating (B, n_in, T) batch.
    """

    states: np.ndarray
    inputs: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        """x(T) of every sample, shape (B, n_res)."""
        return self.states[-1]


def _radius_power_iteration(m: np.ndarray, tol: float, max_iter: int, seed: int) -> float:
    """Block power iteration from a seeded random start.

    Random real matrices routinely carry several complex-conjugate pairs of
    almost equal magnitude near the spectral edge; a wide block steps past
    such clusters, and convergence is only declared once successive
    estimates have agreed to `tol` three times in a row. The projected
    estimate oscillates while a conjugate pair rotates through the block,
    so a single near-tangent crossing of two estimates must not count.
    """
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, min(8, n))))
    previous = None
    streak = 0
    for _ in range(max_iter):
        y = m @ q
        if not np.any(y):
            # the iterate was annihilated: all-zero estimate
            return 0.0
        h = q.T @ y
        estimate = float(np.max(np.abs(np.linalg.eigvals(h))))
        if previous is not None and abs(estimate - previous) <= tol * max(estimate, previous):
            streak += 1
            if streak >= 3:
                return estimate
        else:
            streak = 0
        previous = estimate
        q, _ = np.linalg.qr(y)
    raise NumericError(
        f"spectral radius did not converge within {max_iter} iterations "
        f"(last estimate {previous:.12e})"
    )


def spectral_radius(m: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest eigenvalue magnitude of a square matrix, by power iteration.

    Convergence is declared when successive estimates agree to `tol`
    relatively over three consecutive iterations. A collapsed iterate
    (nilpotent matrices) reports 0.0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix contains non-finite entries")
    return _radius_power_iteration(m, tol, max_iter, _POWER_ITERATION_SEED)


def scale_to_spectral_radius(
    m: np.ndarray, target: float, tol: float = 1e-10, max_iter: int = 10_000
) -> np.ndarray:
    """Rescale a square matrix so its spectral radius equals `target`.

    Refines the scale with re-measurement until the achieved radius is
    within 2.5e-7 relative, well inside the 1e-6 construction invariant.
    Each refinement round measures from a differently seeded starting
    block: re-measuring the scaled matrix from the same start would replay
    the identical trajectory (merely scaled) and so could only ever confirm
    its own error.
    """
    if target <= 0.0:
        raise ConfigError(f"target spectral radius must be positive, got {target}")
    scaled = np.array(m, dtype=float)
    current = spectral_radius(scaled, tol, max_iter)
    if current == 0.0:
        raise NumericError(
            "matrix has zero spectral radius and cannot be rescaled; "
            "re-seed the configuration to obtain a usable reservoir draw"
        )
    for round_index in range(3):
        scaled *= target / current
        current = _radius_power_iteration(
            scaled, tol, max_iter, _POWER_ITERATION_SEED + 1 + round_index
        )
        if abs(current - target) <= 2.5e-7 * target:
            break
    return scaled


def init_reservoir(config: EsnConfig) -> EsnModel:
    """Draw the fixed random weights of a reservoir.

    w_in, b_in and b_res are dense uniform in [-WEIGHT_RANGE, +WEIGHT_RANGE].
    w_res gets exactly round(sparsity * n_res**2) nonzero entries at uniformly
    chosen positions, values from the same interval, then rescaled to the
    configured spectral radius. Five independent substreams (one per weight
    block) are split off the seed, so the same seed reproduces the model
    bit for bit on any platform.
    """
    n, d, w = config.n_res, config.n_in, WEIGHT_RANGE
    spawned = np.random.SeedSequence(config.seed).spawn(5)
    rng_w_in, rng_b_in, rng_pos, rng_val, rng_b_res = (np.random.default_rng(s) for s in spawned)

    w_in = rng_w_in.uniform(-w, w, size=(n, d))
    b_in = rng_b_in.uniform(-w, w, size=n)
    n_nonzero = int(round(config.sparsity * n * n))
    w_res = np.zeros((n, n))
    if n_nonzero > 0:
        positions = rng_pos.choice(n * n, size=n_nonzero, replace=False)
        w_res.flat[positions] = rng_val.uniform(-w, w, size=n_nonzero)
    b_res = rng_b_res.uniform(-w, w, size=n)

    w_res = scale_to_spectral_radius(w_res, config.spectral_radius)
    for block in (w_in, b_in, w_res, b_res):
        block.flags.writeable = False
    return EsnModel(config=config, w_in=w_in, b_in=b_in, w_res=w_res, b_res=b_res)


def _checked_batch(model: EsnModel, sample: np.ndarray) -> np.ndarray:
    """The (B, n_in, T) float batch, or a ConfigError naming what is wrong with it."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 3 or sample.shape[1] != model.config.n_in:
        raise ConfigError(
            f"sample batch must have shape (B, {model.config.n_in}, T), got {sample.shape}"
        )
    if sample.shape[0] < 1 or sample.shape[2] < 1:
        raise ConfigError("sample batch must contain at least one sample and one column")
    if not np.all(np.isfinite(sample)):
        raise ConfigError("sample contains non-finite entries")
    return sample


def _run(model: EsnModel, batch: np.ndarray, n_kept: int) -> np.ndarray:
    """x(t) of a checked (B, n_in, T) batch, written at t % n_kept of a (n_kept, B, n_res) buffer.

    Each step is one (B x n_in)(n_in x n_res) input product and, after the
    first, one (B x n_res)(n_res x n_res) recurrent product. With n_kept = 1
    the state is updated in place.
    """
    n_samples, n_in, n_steps = batch.shape
    alpha = model.config.leak_rate
    states = np.empty((n_kept, n_samples, model.config.n_res))
    column = np.empty((n_samples, n_in))
    act = np.empty_like(states[0])
    recurrent = np.empty_like(act)
    for t in range(n_steps):
        state = states[t % n_kept]
        np.copyto(column, batch[:, :, t])
        np.matmul(column, model.w_in.T, out=act)
        act += model.b_in
        if t:
            prev = states[(t - 1) % n_kept]
            np.matmul(prev, model.w_res.T, out=recurrent)
            act += recurrent
            act += model.b_res
        np.tanh(act, out=act)
        act *= alpha
        if t:
            np.multiply(prev, 1.0 - alpha, out=state)
            state += act
        else:
            np.copyto(state, act)
    return states


def run_reservoir(model: EsnModel, sample: np.ndarray) -> StateTrajectory:
    """Feed a (B, n_in, T) batch column by column and record the state sequence.

    Only x(t) is kept: the activation share of step t is x(t) - (1 - alpha) x(t-1).
    """
    sample = _checked_batch(model, sample)
    return StateTrajectory(states=_run(model, sample, sample.shape[2]), inputs=sample)


def final_states(model: EsnModel, batch: np.ndarray) -> np.ndarray:
    """x(T) of every sample of a (B, n_in, T) batch, shape (B, n_res).

    The recurrence of `run_reservoir`, step for step, keeping only the
    running state, so memory does not grow with T beyond the batch itself
    and the result equals `run_reservoir(model, batch).final_state` bit for bit.
    """
    return _run(model, _checked_batch(model, batch), 1)[0]


def model_output(model: EsnModel, traj: StateTrajectory) -> np.ndarray:
    """Linear readout on the final reservoir states: one row W_out x(T) + b_out per sample."""
    if not model.is_trained:
        raise ConfigError("readout not trained")
    return traj.final_state @ model.w_out.T + model.b_out
