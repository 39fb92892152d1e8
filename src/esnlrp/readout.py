"""Closed-form readout training and sign-test accuracy of scalar outputs."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


class ClassLabel(enum.Enum):
    EL_NINO = "elnino"
    LA_NINA = "lanina"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class ReadoutSolution:
    w_out: np.ndarray
    b_out: np.ndarray
    train_mse: float


@dataclass(frozen=True)
class AccuracyReport:
    """Pooled and per-class fraction of correct predictions.

    Per-class entries are present only for classes that occur in the truth
    labels.
    """

    overall: float
    per_class: dict
    n_samples: int


def fit_readout(final_states: np.ndarray, targets: np.ndarray, ridge: float = 0.0) -> ReadoutSolution:
    """Least-squares readout on a bias-augmented design matrix.

    Solves min ||[X | 1] beta - y||^2 with an optional Tikhonov term
    ridge * ||w||^2 on the weights (the bias column is never penalized).
    With ridge = 0 the plain regression is solved by least squares and a
    rank-deficient design is rejected; with ridge > 0 the penalized normal
    equations are solved directly, switching to the equivalent dual
    (sample-space) form when there are more features than samples.
    """
    x = np.asarray(final_states, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ConfigError(f"final_states must be 2D (samples, units), got shape {x.shape}")
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != x.shape[0]:
        raise ConfigError(f"targets rows {y.shape[0]} != state rows {x.shape[0]}")
    if x.shape[0] < 2:
        raise ConfigError("need at least two samples to fit the readout")
    if not 0.0 <= ridge < np.inf:
        raise ConfigError(f"ridge must be finite and nonnegative, got {ridge}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigError("final_states/targets contain non-finite entries")

    n_samples, n_units = x.shape
    design = np.hstack([x, np.ones((n_samples, 1))])
    if ridge == 0.0:
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise NumericError(
                f"normal equations are rank-deficient (rank {rank} < {design.shape[1]}); "
                "pass a positive ridge to regularize"
            )
    elif n_units <= n_samples:
        gram = design.T @ design
        gram[np.arange(n_units), np.arange(n_units)] += ridge
        beta = np.linalg.solve(gram, design.T @ y)
    else:
        # dual form: with the bias unpenalized, centering reduces the problem
        # to ridge regression in sample space (n_samples x n_samples system)
        x_mean = x.mean(axis=0)
        y_mean = y.mean(axis=0)
        xc = x - x_mean
        kernel = xc @ xc.T
        kernel[np.arange(n_samples), np.arange(n_samples)] += ridge
        dual = np.linalg.solve(kernel, y - y_mean)
        weights = xc.T @ dual
        bias = y_mean - x_mean @ weights
        beta = np.vstack([weights, bias[None, :]])

    residual = design @ beta - y
    mse = float(np.mean(residual**2))
    return ReadoutSolution(w_out=beta[:-1].T.copy(), b_out=beta[-1].copy(), train_mse=mse)


def accuracy(scores: np.ndarray, labels: list) -> AccuracyReport:
    """Sign test of raw scores against true labels, pooled and per true class.

    A nonnegative score predicts EL_NINO (a tie at exactly zero included), a
    negative score LA_NINA.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(labels),):
        raise ConfigError(f"got scores of shape {scores.shape} for {len(labels)} labels")
    if not labels:
        raise ConfigError("cannot compute accuracy of an empty prediction set")
    if not np.all(np.isfinite(scores)):
        raise ConfigError("scores must be finite")
    el_nino = np.array([t is ClassLabel.EL_NINO for t in labels])
    la_nina = np.array([t is ClassLabel.LA_NINA for t in labels])
    hits = np.where(scores >= 0.0, el_nino, la_nina)
    per_class = {
        cls: float(hits[members].mean())
        for cls, members in ((ClassLabel.EL_NINO, el_nino), (ClassLabel.LA_NINA, la_nina))
        if members.any()
    }
    return AccuracyReport(overall=float(hits.mean()), per_class=per_class, n_samples=len(labels))
