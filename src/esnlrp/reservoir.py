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
from typing import Optional, get_type_hints

import numpy as np

from . import blas
from .errors import ConfigError, NumericError, setting
from .readout import one_score_readout

# Half-width of the uniform draws of w_in, b_in, b_res and (before spectral
# scaling) w_res.
WEIGHT_RANGE = 0.1


@dataclass(frozen=True)
class EsnConfig:
    """Hyperparameters of a leaky echo state network.

    Defaults are the production values used throughout: 300 units, 30%
    connectivity, spectral radius 0.8 and leak rate 0.01. Each field is
    checked against its type (`errors.setting`), then against its range (a
    seed is non-negative), and the sparsity must leave at least one
    recurrent weight, since no seed can draw one from a count of 0.
    """

    n_in: int
    n_res: int = 300
    leak_rate: float = 0.01
    sparsity: float = 0.3
    spectral_radius: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in ESN_FIELD_TYPES.items():
            object.__setattr__(self, name, setting(name, getattr(self, name), kind))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
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
        if self.recurrent_weight_count == 0:
            raise ConfigError(f"sparsity {self.sparsity} at n_res {self.n_res} leaves no recurrent weight")

    @property
    def recurrent_weight_count(self) -> int:
        """The number of nonzero recurrent weights `init_reservoir` draws: round(sparsity * n_res**2)."""
        return int(round(self.sparsity * self.n_res * self.n_res))


ESN_FIELD_TYPES = get_type_hints(EsnConfig)


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

    def with_readout(self, w_out: np.ndarray, b_out: np.ndarray) -> "EsnModel":
        """A trained copy with one score per sample (see `readout.one_score_readout`)."""
        w_out, b_out = one_score_readout(w_out, b_out, self.config.n_res)
        return dataclasses.replace(self, w_out=w_out, b_out=b_out)


@blas.one_thread()
def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix, from one LAPACK eigenvalue
    solve (exact up to rounding) at one BLAS thread, so that it gives the same bits
    under any thread count. Non-convergence is a NumericError."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix contains non-finite entries")
    try:
        eigenvalues = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"spectral radius: eigenvalue solve did not converge ({exc})") from exc
    return float(np.max(np.abs(eigenvalues)))


def scale_to_spectral_radius(m: np.ndarray, target: float) -> np.ndarray:
    """A copy of a square matrix multiplied once by target / spectral_radius(m).

    Its radius equals `target` within about 1e-14 relative at 300 units. A
    matrix of zero radius cannot be rescaled and is a NumericError.
    """
    if target <= 0.0:
        raise ConfigError(f"target spectral radius must be positive, got {target}")
    radius = spectral_radius(m)
    if radius == 0.0:
        raise NumericError(
            "matrix has zero spectral radius and cannot be rescaled; "
            "re-seed the configuration to obtain a usable reservoir draw"
        )
    return np.asarray(m, dtype=float) * (target / radius)


def init_reservoir(config: EsnConfig) -> EsnModel:
    """Draw the fixed random weights of a reservoir.

    w_in, b_in and b_res are dense uniform in [-WEIGHT_RANGE, +WEIGHT_RANGE].
    w_res gets exactly `config.recurrent_weight_count` nonzero entries (at
    least one, see `EsnConfig`) at uniformly chosen positions, values from
    the same interval, then rescaled to the configured spectral radius.
    Five independent substreams (one per weight block) are split off the
    seed. The draws are the same on any platform, and the eigenvalue solve
    runs at one BLAS thread, so the model is reproduced bit for bit for one
    BLAS build under any thread count.
    """
    n, d, w = config.n_res, config.n_in, WEIGHT_RANGE
    spawned = np.random.SeedSequence(config.seed).spawn(5)
    rng_w_in, rng_b_in, rng_pos, rng_val, rng_b_res = (np.random.default_rng(s) for s in spawned)

    w_in = rng_w_in.uniform(-w, w, size=(n, d))
    b_in = rng_b_in.uniform(-w, w, size=n)
    n_nonzero = config.recurrent_weight_count
    w_res = np.zeros((n, n))
    w_res.flat[rng_pos.choice(n * n, size=n_nonzero, replace=False)] = rng_val.uniform(-w, w, size=n_nonzero)
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
    # min and max propagate NaN, so two reductions find any non-finite entry without a mask
    if not (np.isfinite(sample.min()) and np.isfinite(sample.max())):
        raise ConfigError("sample contains non-finite entries")
    return sample


def _run(model: EsnModel, batch: np.ndarray, n_kept: int) -> np.ndarray:
    """x(t) of a checked (B, n_in, T) batch, written at t % n_kept of a (n_kept, B, n_res) buffer.

    Each step is one (B x n_in)(n_in x n_res) input product and, after the
    first, one (B x n_res)(n_res x n_res) recurrent product, at the BLAS
    thread count `blas.for_units` gives the reservoir. With n_kept = 1 the
    state is updated in place.
    """
    n_samples, n_in, n_steps = batch.shape
    alpha = model.config.leak_rate
    states = np.empty((n_kept, n_samples, model.config.n_res))
    column = np.empty((n_samples, n_in))
    act = np.empty_like(states[0])
    recurrent = np.empty_like(act)
    with blas.for_units(model.config.n_res):
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


def run_reservoir(model: EsnModel, sample: np.ndarray) -> np.ndarray:
    """Feed a (B, n_in, T) batch column by column and record the state sequence.

    states[t-1, b] holds x(t) of sample b for t = 1..T, laid out (T, B, n_res)
    so each step is one contiguous block. The states alone fix both summands
    of the leaky update: the leak share (1 - alpha) x(t-1) and the activation
    share x(t) - (1 - alpha) x(t-1) = alpha act(t).
    """
    sample = _checked_batch(model, sample)
    return _run(model, sample, sample.shape[2])


def final_states(model: EsnModel, batch: np.ndarray) -> np.ndarray:
    """x(T) of every sample of a (B, n_in, T) batch, shape (B, n_res).

    The recurrence of `run_reservoir`, step for step, keeping only the
    running state, so memory does not grow with T beyond the batch itself
    and the result equals `run_reservoir(model, batch)[-1]` bit for bit.
    """
    return _run(model, _checked_batch(model, batch), 1)[0]


def model_output(model: EsnModel, final_states: np.ndarray) -> np.ndarray:
    """The readout on a (B, n_res) matrix of final states: one score W_out x(T) + b_out
    per sample, shape (B,). An untrained model is a ConfigError."""
    if not model.is_trained:
        raise ConfigError("readout not trained")
    return (final_states @ model.w_out.T + model.b_out)[:, 0]
