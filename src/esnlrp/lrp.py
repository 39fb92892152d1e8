"""Relevance decomposition of a trained ESN output through the unfolded recurrence.

The scalar model output is taken as the total relevance and traced backwards
through time. At every step the state relevance splits between two tracks:

* the leak track, carrying (1 - alpha) * x(t-1) into the next older state, and
* the activation track, carrying the rest, x(t) - (1 - alpha) * x(t-1) =
  alpha * act(...), which is redistributed over the pre-activation
  contributions w_in[j,d] * u_d(t) and w_res[j,k] * x(t-1)[k].

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
    activation track by the z+ rule on the two transition summands,
    (1 - alpha) x(t-1) and x(t) - (1 - alpha) x(t-1); the latter is
    alpha act(t), exactly at alpha = 0 and 1 and within one ulp of x(t)
    otherwise. Stage 2 redistributes the activation share over the
    positive pre-activation contributions of the inputs u(t) and the
    previous states x(t-1). `split` is `sign_split(model)`, built here
    when not given.

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

    leak = (1.0 - alpha) * x_prev
    z_leak = np.maximum(leak, 0.0)
    z_act = np.maximum(traj.states[t - 1] - leak, 0.0)
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


# Matrix CSV export. Every file holds the bytes np.savetxt(fmt="%.9g",
# delimiter=",") would write, without a Python format call per value. Each
# value becomes a 16-byte record of two little-endian words. The digits sit
# in a frame of fixed slots: the first digit, a slot for the decimal point,
# the other 8 digits, then "e+XX" in exponent notation. The frame is shifted
# right behind the sign and any "0.000" lead. NUL fills the unused slots
# (trailing zeros included) and is deleted from the whole file in one pass.
# A value whose rounding this arithmetic cannot vouch for is "hard"; a row
# holding one is formatted by Python with savetxt's own row template.

_EXPONENTS = range(-99, 100)  # wider magnitudes would need a 3-digit exponent
_MIN_MAGNITUDE, _MAX_MAGNITUDE = 1e-98, 1e98  # the range that stays inside it
_TIE_MARGIN = 1e-6  # q, after two roundings, is within 2.3e-7 of the exact product


def _ascii(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


def _u64(values) -> np.ndarray:
    return np.array(list(values), dtype=np.uint64)


def _digit_table(first: bool) -> np.ndarray:
    """Each 4-digit group as ASCII in the low 4 bytes. The top byte counts the
    digits after the first that are kept when trailing zeros are stripped,
    for this group as mantissa digits 1-4 (first) or 5-8 (not first)."""
    group = np.arange(10000, dtype=np.uint64)
    chars = sum((group // 10 ** (3 - i) % 10 + 48) << (8 * i) for i in range(4))
    zeros = sum((group % 10**i == 0).astype(np.uint64) for i in range(1, 4))
    kept = np.where(group > 0, 4 - zeros + (0 if first else 4), 0).astype(np.uint64)
    return chars | (kept << 56)


_SCALE = np.array([float("1e%d" % (8 - e)) for e in _EXPONENTS])  # |v| * scale: 9 integer digits
_FIRST4, _LAST4 = _digit_table(True), _digit_table(False)
_KEEP = _u64((1 << (8 * min(k + 1, 8))) - 1 for k in range(9))  # d0..dk in the low word
# Per exponent: integer digits after d0, the point slot and its '.', the suffix.
_INT_DIGITS = _u64(e if 0 <= e <= 8 else 0 for e in _EXPONENTS)
_POINT_SLOT = [1 + min(int(k), 7) for k in _INT_DIGITS]
_POINT = [0 if -4 <= e < 0 else ord(".") for e in _EXPONENTS]
_BEFORE_POINT = _u64((1 << (8 * s)) - 1 for s in _POINT_SLOT)
_POINT_LO = _u64(p << (8 * s) if s < 8 else 0 for p, s in zip(_POINT, _POINT_SLOT))
_POINT_HI = _u64(p if s == 8 else 0 for p, s in zip(_POINT, _POINT_SLOT))
_SUFFIX = _u64(0 if -4 <= e < 9 else _ascii("e%+03d" % e) << 16 for e in _EXPONENTS)
# Per exponent and sign (index 2 * exponent + negative): the sign and "0.00" lead.
_LEADS = [
    "-" * neg + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "") for e in _EXPONENTS for neg in (0, 1)
]
_LEAD = _u64(_ascii(lead) for lead in _LEADS)
_LEAD_BITS = _u64(8 * len(lead) for lead in _LEADS)


def _rounded(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value rounded to 9 significant digits: the digits as an integer in
    [1e8, 1e9) (0 for zeros), the exponent's index into _EXPONENTS, and the
    mask of hard values, whose digits are not to be used."""
    magnitude = np.abs(values)
    easy = (magnitude >= _MIN_MAGNITUDE) & (magnitude < _MAX_MAGNITUDE)
    x = np.where(easy, magnitude, 1.0)
    exponent = np.floor(np.log10(x)).astype(np.intp) - _EXPONENTS.start
    q = x * _SCALE.take(exponent)
    rounded = np.rint(q)
    hard = np.abs(q - rounded) > 0.5 - _TIE_MARGIN
    hard |= (q < 1e8) | (q >= 1e9)
    hard |= ~easy & (magnitude != 0)
    carry = rounded >= 1e9
    rounded[carry] = 1e8
    exponent += carry
    return (rounded * easy).astype(np.uint32), exponent, hard


def _csv_records(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """'%.9g' of each float64 as a NUL-padded (n, 16) uint8 record, and the
    mask of hard values, whose records are not to be used."""
    mantissa, exponent, hard = _rounded(values)
    lead_digit = mantissa // 100000000
    rest = mantissa - lead_digit * 100000000
    first = _FIRST4.take(rest // 10000)
    last = _LAST4.take(rest % 10000)
    int_digits = _INT_DIGITS.take(exponent)
    kept = np.maximum(np.maximum(first >> 56, last >> 56), int_digits)
    lo = ((lead_digit + 48) | (first << 8) | (last << 40)) & _KEEP.take(kept)
    hi = (last >> 24 & 0xFF) * (kept >> 3)  # the ninth digit, if kept

    # Open the point slot after the integer digits; fill it if a fraction follows.
    before = _BEFORE_POINT.take(exponent)
    after = lo & ~before
    fraction = np.minimum(kept - int_digits, 1)
    lo = (lo & before) | (after << 8) | _POINT_LO.take(exponent) * fraction
    hi = (hi << 8) | (after >> 56) | _POINT_HI.take(exponent) * fraction | _SUFFIX.take(exponent)

    lead = 2 * exponent + np.signbit(values)
    bits = _LEAD_BITS.take(lead)
    records = np.empty((values.size, 2), dtype="<u8")
    records[:, 0] = (lo << bits) | _LEAD.take(lead)
    records[:, 1] = (hi << bits) | (lo >> 1 >> (63 - bits))
    return records.view(np.uint8), hard


def write_matrix_csv(path: Union[str, Path], matrix: np.ndarray) -> None:
    """CSV export, 9 significant digits, one row per input feature: the bytes
    np.savetxt(path, np.atleast_2d(matrix), fmt="%.9g", delimiter=",") writes."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D matrix, got {m.ndim}-D")
    n_rows, n_cols = m.shape
    records, hard = _csv_records(m.ravel())
    cells = np.empty((n_rows, n_cols, 17), dtype=np.uint8)
    cells[..., :16] = records.reshape(n_rows, n_cols, 16)
    cells[..., 16] = ord(",")
    cells[:, -1:, 16] = ord("\n")
    template = ",".join(["%.9g"] * n_cols) + "\n"
    parts, start = [], 0
    for row in np.flatnonzero(hard.reshape(n_rows, n_cols).any(axis=1)):
        parts.append(cells[start:row].tobytes().translate(None, b"\0"))
        parts.append((template % tuple(m[row].tolist())).encode("ascii"))
        start = row + 1
    parts.append(cells[start:].tobytes().translate(None, b"\0"))
    Path(path).write_bytes(b"\n" * n_rows if n_cols == 0 else b"".join(parts))


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
