"""Closed-form readout training and sign-test accuracy of scalar outputs."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import blas
from .errors import ConfigError, NumericError


class ClassLabel(enum.Enum):
    EL_NINO = "elnino"
    LA_NINA = "lanina"
    NEUTRAL = "neutral"


def one_score_readout(w_out: np.ndarray, b_out: np.ndarray, n_units: int) -> Tuple[np.ndarray, np.ndarray]:
    """Locked float copies of a readout that gives one score per sample.

    w_out must have shape (1, n_units) and b_out (1,); anything else is a
    ConfigError.
    """
    w_out = np.array(w_out, dtype=float)
    b_out = np.array(b_out, dtype=float)
    if w_out.shape != (1, n_units) or b_out.shape != (1,):
        raise ConfigError(f"readout w_out/b_out have shapes {w_out.shape}/{b_out.shape}, expected (1, {n_units})/(1,)")
    w_out.flags.writeable = False
    b_out.flags.writeable = False
    return w_out, b_out


@dataclass(frozen=True)
class ReadoutSolution:
    """A fitted linear model on flat vectors: one row of weights plus one bias."""

    w_out: np.ndarray
    b_out: np.ndarray
    train_mse: float

    def __post_init__(self) -> None:
        # however many weights there are, they must form the one row
        w_out, b_out = one_score_readout(self.w_out, self.b_out, np.size(self.w_out))
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", b_out)


@dataclass(frozen=True)
class AccuracyReport:
    """Pooled and per-class fraction of correct predictions.

    Per-class entries are present only for classes that occur in the truth
    labels.
    """

    overall: float
    per_class: dict
    n_samples: int


def check_ridge(ridge: float) -> None:
    """A ridge penalty must be finite and nonnegative; anything else is a ConfigError."""
    if not 0.0 <= ridge < np.inf:
        raise ConfigError(f"ridge must be finite and nonnegative, got {ridge}")


def check_rank_attainable(n_samples: int, n_units: int, ridge: float) -> None:
    """At ridge 0, fewer samples than n_units + 1 are a NumericError, before anything is solved.

    Centring takes one dimension away, so n centred rows have rank at most
    n - 1, and the unpenalized solve needs rank n_units.
    """
    if ridge == 0.0 and n_samples <= n_units:
        raise NumericError(
            f"centred states are rank-deficient (rank at most {n_samples - 1} < {n_units}); "
            "pass a positive ridge to regularize"
        )


@blas.one_thread()
def fit_readout(final_states: np.ndarray, targets: np.ndarray, ridge: float = 0.0) -> ReadoutSolution:
    """Least-squares readout w, b minimizing ||X w + b - y||^2 + ridge * ||w||^2.

    Targets are one score per state row, shape (n,); w_out comes out
    (1, n_units) and b_out (1,).

    The bias is never penalized, so it is found by centring: one thin SVD
    X - mean(X) = U diag(s) V^T gives w = V diag(g) U^T (y - mean(y)) and
    b = mean(y) - mean(X) w, with gain g = s / (s^2 + ridge). At ridge 0
    the gain is 1 / s, and centred states of rank below n_units (by
    lstsq's default cut-off on s) are rejected, with no SVD run when there
    are too few samples for full rank (`check_rank_attainable`). No Gram
    matrix is formed, so the conditioning of X is not squared. The solve
    runs at one BLAS thread, so its bits do not depend on the thread count.
    """
    x = np.asarray(final_states, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ConfigError(f"final_states must be 2D (samples, units), got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ConfigError(f"targets must have shape ({x.shape[0]},), one per state row, got {y.shape}")
    if x.shape[0] < 2:
        raise ConfigError("need at least two samples to fit the readout")
    check_ridge(ridge)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigError("final_states/targets contain non-finite entries")

    n_samples, n_units = x.shape
    check_rank_attainable(n_samples, n_units, ridge)
    y = y[:, None]  # one column, so w comes out (n_units, 1) and b as (1,)
    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    u, s, vt = np.linalg.svd(x - x_mean, full_matrices=False)
    if ridge == 0.0:
        cutoff = s.max(initial=0.0) * max(n_samples, n_units + 1) * np.finfo(float).eps
        rank = int(np.count_nonzero(s > cutoff))
        if rank < n_units:
            raise NumericError(
                f"centred states are rank-deficient (rank {rank} < {n_units}); "
                "pass a positive ridge to regularize"
            )
        gain = 1.0 / s
    else:
        gain = s / (s**2 + ridge)
    w = vt.T @ (gain[:, None] * (u.T @ (y - y_mean)))
    b = y_mean - x_mean @ w
    mse = float(np.mean((x @ w + b - y) ** 2))
    return ReadoutSolution(w_out=w.T, b_out=b, train_mse=mse)


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
