"""Relevance decomposition of a trained ESN output through the unfolded recurrence.

`relevance_map(model, batch)` is one relevance pass: it runs the forward pass
of a (B, n_in, T) batch (`reservoir.run_reservoir`), takes each scalar model
output as the total relevance and traces it backwards through time. Every
layer it crosses is one z+ redistribution: shares in proportion to the
positive contributions w[j,k] v[k] only; biases receive nothing. The layers
are the readout W_out on x(T), the recurrent step [W_in | W_res] on
[u(t) | x(t-1)], and W_in on the first column u(1). The contributions are
never formed one by one: max(w v, 0) = w+ v+ + w- v- turns their sums into
two matrix products per layer over a whole batch of samples (see
`sign_split`).

Before each recurrent step, the state relevance splits between two tracks in
proportion to the positive parts of the transition summands:

* the leak track, carrying (1 - alpha) * x(t-1) into the next older state, and
* the activation track, carrying the rest, x(t) - (1 - alpha) * x(t-1) =
  alpha * act(...), which crosses the recurrent step.

Relevance passes through the nonlinearity and the alpha scaling unchanged.
Every z+ denominator meets the stabilizer `EPSILON`, read at each call
(`_zplus` at the readout and the first column, `_factors` at each step):
where it falls below `EPSILON`, the affected relevance is booked to the
sample's explicit `absorbed` ledger instead of being redistributed, so the
conservation identity

    total = sum(scores) + sum(dummy_scores) + absorbed

stays auditable. The first column of each sample (a column of ones in the
standard pipeline) absorbs all residual state relevance; its scores are kept
separate in `dummy_scores` and omitted from the map proper.

A step back needs the relevance only at its end. All the rest, the step's
z+ factors (`_factors`: the two tracks' shares, the recurrent denominator,
the absorbed share and the sign-split inputs), depends on the forward pass
alone. So in a pass over a reservoir of at least `blas.THREADED_MIN_UNITS`
units, where `blas.openblas()` finds the thread-count setter, a helper thread
computes the factors FACTOR_BLOCK steps at a time while the calling thread
runs the recurrence through the block before (`_step_back`). Elsewhere the
calling thread computes each step's factors itself, just before the step.
The whole pass runs at one BLAS thread, so its maps are the same bytes under
any BLAS thread count.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import blas, reservoir
from .errors import ConfigError
from .reservoir import EsnConfig, EsnModel, model_output

# Stabilizer of the z+ denominators in the backward pass, and the largest conservation
# error, relative to max(1, |total|), of a map that `RelevanceMap.conserved` passes.
EPSILON = 1e-12
CONSERVATION_TOLERANCE = 1e-6

# Time steps whose z+ factors each of the two slots of a threaded pass holds.
# The slots count against a map batch's bytes (`pass_bytes`), so a longer
# block means fewer samples per batch: at paper shape (89x181 inputs, 300
# units) 25 at 2 steps, 24 at 3, 23 at 4. On a 2-core Xeon (numpy 2.4.6,
# OpenBLAS 0.3.31) `relevance --synthetic 89,180,300 --ridge 1e-8 --class
# elnino` took 1.18, 1.16 and 1.32 s of wall time at those blocks, and 1.36 s
# with no helper thread (medians of 3 benchmark runs each).
FACTOR_BLOCK = 3


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

    def conserved(self) -> bool:
        return self.conservation_error() <= CONSERVATION_TOLERANCE * max(1.0, abs(self.total))


def relevance_output_layer(model: EsnModel, final_state: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distribute each sample's scalar output onto its (B, n_res) final reservoir states x(T).

    Returns the (B, n_res) state relevance, the (B,) absorbed remainder
    (a sample's whole output, if its positive contributions sum below
    `EPSILON`; the output bias never receives a share) and the (B,) outputs
    that were distributed.
    """
    total = model_output(model, final_state)
    r_state, absorbed = _redistribute(sign_split(model.w_out), final_state, total[:, None])
    return r_state, absorbed, total


def sign_split(*blocks: np.ndarray) -> np.ndarray:
    """S = [W+ | W-] for the layer weights W = [blocks...], one row per unit.

    With v the layer's input and P = [v+ | v-], max(w v, 0) = w+ v+ + w- v-
    turns the z+ sums into the matrix products P S^T and (G S).
    """
    w = np.hstack(blocks)
    return np.hstack([np.maximum(w, 0.0), np.minimum(w, 0.0)])


def _zplus(r: np.ndarray, denominator: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The (B, n) weights r / denominator where the denominator reaches `EPSILON`
    (0 elsewhere), and the (B,) relevance of the units where it does not."""
    live = denominator >= EPSILON
    absorbed = np.where(live, 0.0, r).sum(axis=1)
    return np.where(live, r, 0.0) / np.where(live, denominator, 1.0), absorbed


def _redistribute(split: np.ndarray, v: np.ndarray, r_unit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """z+ redistribution of (B, n) unit relevance over the contributions w[j,k] v[k].

    `split` is the layer's `sign_split`. Returns the (B, m) relevance on v
    and the (B,) relevance absorbed by units whose positive contributions
    sum below `EPSILON`.
    """
    p = np.hstack([np.maximum(v, 0.0), np.minimum(v, 0.0)])
    unit_weight, absorbed = _zplus(r_unit, p @ split.T)
    shares = p * (unit_weight @ split)
    return shares[:, : v.shape[1]] + shares[:, v.shape[1] :], absorbed


def _slot(n_steps: int, n_samples: int, n_in: int, n_res: int) -> Tuple[np.ndarray, ...]:
    """Room for the z+ factors (A, C, E, P) of `n_steps` steps of a batch, each (n_steps, B, ...)."""
    return (*np.empty((3, n_steps, n_samples, n_res)), np.empty((n_steps, n_samples, 2 * (n_in + n_res))))


def pass_bytes(config: EsnConfig, n_steps: int) -> int:
    """Bytes that one sample of `n_steps` columns costs a relevance pass: its states (n_res floats per
    step) or its inputs (n_in), whichever are more, and from `blas.THREADED_MIN_UNITS` units up its
    rows of the two factor slots, FACTOR_BLOCK steps of 3 n_res + 2 (n_in + n_res) floats each."""
    held = n_steps * max(config.n_in, config.n_res)
    if config.n_res >= blas.THREADED_MIN_UNITS:
        held += 2 * FACTOR_BLOCK * (3 * config.n_res + 2 * (config.n_in + config.n_res))
    return 8 * held


def _factors(
    leak_rate: float,
    x_prev: np.ndarray,
    x_now: np.ndarray,
    u_now: np.ndarray,
    split: np.ndarray,
    out: Sequence[np.ndarray],
) -> None:
    """Write the z+ factors of k steps back into `out` = (A, C, E, P), from the (k, B, n_res) states
    x(t-1) and x(t) and the (k, B, n_in) input columns u(t) of those steps.

    With l = (1 - alpha) x(t-1), a = x(t) - l and d = max(l, 0) + max(a, 0),
    the z+ split between the two tracks; D = P S^T, the recurrent layer's z+
    denominator over P = [v+ | v-], v = [u(t) | x(t-1)], S = `split`:

    * A = max(l, 0) / d, the leak track's share;
    * C = (max(a, 0) / d) / D, the activation track's share over D;
    * E, the share booked as absorbed: 1 where d falls below `EPSILON`,
      max(a, 0) / d where only D does, else 0;

    and A and C are 0 wherever their denominator falls below `EPSILON`. D
    is one product over all k B rows. Reads nothing but its arguments and
    `EPSILON`, so it may run on a thread of its own.
    """
    a, c, e, p = out
    n_in, width = u_now.shape[-1], p.shape[-1] // 2
    np.maximum(u_now, 0.0, out=p[..., :n_in])
    np.maximum(x_prev, 0.0, out=p[..., n_in:width])
    np.minimum(u_now, 0.0, out=p[..., width : width + n_in])
    np.minimum(x_prev, 0.0, out=p[..., width + n_in :])
    leak = (1.0 - leak_rate) * x_prev
    np.maximum(leak, 0.0, out=a)
    np.maximum(x_now - leak, 0.0, out=c)
    tracks = a + c
    tracks_live = tracks >= EPSILON
    tracks[~tracks_live] = np.inf  # so both shares are 0 there
    a /= tracks
    c /= tracks
    crossing = (p.reshape(-1, 2 * width) @ split.T).reshape(c.shape)
    crossing_live = crossing >= EPSILON
    np.multiply(c, ~crossing_live, out=e)
    e += ~tracks_live
    crossing[~crossing_live] = np.inf
    c /= crossing


def _step_back(
    r_state: np.ndarray, factors: Sequence[np.ndarray], split: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push the (B, n_res) state relevance on x(t) one step back through that step's z+ factors
    (A, C, E, P), each (B, ...): returns (input relevance for column t, relevance on x(t-1), absorbed)."""
    a, c, e, p = factors
    n_in = p.shape[1] // 2 - r_state.shape[1]
    absorbed = (r_state * e).sum(axis=1)
    shares = (r_state * c) @ split
    shares *= p
    half = shares.shape[1] // 2
    r_v = shares[:, :half] + shares[:, half:]
    return r_v[:, :n_in], r_state * a + r_v[:, n_in:], absorbed


def relevance_step_back(
    model: EsnModel, x_prev: np.ndarray, x_now: np.ndarray, u_now: np.ndarray, r_state: np.ndarray, split: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push the (B, n_res) state relevance on x(t) = `x_now` one step back, onto the (B, n_in)
    input column u(t) = `u_now` and the (B, n_res) states x(t-1) = `x_prev`, for t >= 2.

    The z+ rule first splits each unit's relevance between the leak track
    and the activation track in proportion to the positive parts of the two
    transition summands, (1 - alpha) x(t-1) and x(t) - (1 - alpha) x(t-1);
    the latter is alpha act(t), exactly at alpha = 0 and 1 and within one
    ulp of x(t) otherwise. The activation share then crosses the recurrent
    layer [W_in | W_res] onto v = [u(t) | x(t-1)] by z+ redistribution.
    `split` is `sign_split(model.w_in, model.w_res)`, built once per pass.
    This is one step of `relevance_map`'s arithmetic: the step's z+ factors
    (`_factors`), then the relevance through them (`_step_back`).

    Returns (input relevance for column t, relevance on x(t-1), absorbed),
    each with one row per sample.
    """
    factors = _slot(1, *u_now.shape, x_prev.shape[1])
    _factors(model.config.leak_rate, x_prev[None], x_now[None], u_now[None], split, factors)
    return _step_back(r_state, [f[0] for f in factors], split)


def relevance_first_column(model: EsnModel, u_first: np.ndarray, r_state: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Assign all residual state relevance at t=1 to the (B, n_in) first column u(1).

    x(1) = alpha act(W_in u(1) + b_in) has no previous state, so the
    relevance crosses W_in alone onto u(1) by one `_redistribute`; the input
    bias receives nothing. Returns the (B, n_in) first-column relevance and
    the (B,) absorbed part.
    """
    return _redistribute(sign_split(model.w_in), u_first, r_state)


def _filled(
    fill: Callable[[Tuple[int, int], Sequence[np.ndarray]], None],
    blocks: Sequence[Tuple[int, int]],
    slots: Sequence[Sequence[np.ndarray]],
) -> Iterator[Sequence[np.ndarray]]:
    """Each block's slot, in order, after `fill(block, slot)`.

    With one slot, each block is filled on the calling thread when it is
    reached. With two, a helper thread fills the next block's slot while
    the caller reads the current one; a slot goes back to the helper when
    the caller asks for the next. The helper's error is raised on the
    calling thread. Closing the generator stops the helper and joins it.
    """
    if len(slots) == 1:
        for block in blocks:
            fill(block, slots[0])
            yield slots[0]
        return
    import queue  # imported here: only a threaded pass uses it, so no other command loads it

    free, ready = queue.SimpleQueue(), queue.SimpleQueue()
    for slot in slots:
        free.put(slot)

    def work() -> None:
        try:
            for block in blocks:
                slot = free.get()
                if slot is None:
                    return
                fill(block, slot)
                ready.put(slot)
        except Exception as error:  # raised on the calling thread, which waits for this block
            ready.put(error)

    helper = threading.Thread(target=work, name="esnlrp-zplus-factors")
    helper.start()
    try:
        for _ in blocks:
            slot = ready.get()
            if isinstance(slot, Exception):
                raise slot
            yield slot
            free.put(slot)
    finally:
        free.put(None)
        helper.join()


def relevance_map(model: EsnModel, batch: np.ndarray) -> List[RelevanceMap]:
    """One relevance pass over a (B, n_in, T) batch: the forward pass that records its states, then the
    backward pass (output layer, every time step, first column). Returns one map per sample, in batch
    order; each owns its scores.

    The pass runs inside one `blas.one_thread` block, so its maps are the
    same bytes under any BLAS thread count. From `blas.THREADED_MIN_UNITS`
    units up, where `blas.openblas()` finds the thread-count setter, a
    helper thread computes the z+ factors (`_factors`) of the next
    FACTOR_BLOCK steps into one of two slots while the calling thread runs
    the recurrence through the current block; it starts after the forward
    pass and is joined before the block closes. Otherwise the calling
    thread computes each step's factors just before the step, and no
    thread is started. The forward pass, the output layer and the first
    column run on the calling thread.
    """
    with blas.one_thread():
        states = reservoir.run_reservoir(model, batch)  # looked up at call time, so a wrapper set on it sees the call
        batch = np.asarray(batch, dtype=float)
        split = sign_split(model.w_in, model.w_res)
        n_samples, n_inputs, n_steps = batch.shape
        threaded = model.config.n_res >= blas.THREADED_MIN_UNITS and blas.openblas() is not None
        block = FACTOR_BLOCK if threaded else 1
        # Step s goes back from x(s + 2), states[s + 1], onto u(s + 2) and x(s + 1), states[s];
        # the blocks run from the last step down.
        blocks = [(max(hi - block, 0), hi) for hi in range(n_steps - 1, 0, -block)]
        slots = [_slot(block, n_samples, n_inputs, model.config.n_res) for _ in range(2 if threaded else 1)]

        def fill(bounds: Tuple[int, int], slot: Sequence[np.ndarray]) -> None:
            lo, hi = bounds
            u_now = batch[:, :, lo + 1 : hi + 1].transpose(2, 0, 1)
            factors = [f[: hi - lo] for f in slot]
            _factors(model.config.leak_rate, states[lo:hi], states[lo + 1 : hi + 1], u_now, split, factors)

        r_state, absorbed, total = relevance_output_layer(model, states[-1])
        scores = np.empty((n_steps - 1, n_samples, n_inputs))
        with contextlib.closing(_filled(fill, blocks, slots)) as filled:
            for (lo, hi), slot in zip(blocks, filled):
                for s in range(hi - 1, lo - 1, -1):
                    scores[s], r_state, delta = _step_back(r_state, [f[s - lo] for f in slot], split)
                    absorbed += delta
        dummy_scores, delta = relevance_first_column(model, batch[:, :, 0], r_state)
    absorbed += delta
    return [
        RelevanceMap(
            scores=scores[:, b].T.copy(),
            dummy_scores=dummy_scores[b],
            absorbed=float(absorbed[b]),
            total=float(total[b]),
        )
        for b in range(n_samples)
    ]


class RunningMean:
    """The elementwise mean of map scores, normalized to [-1, 1] by its peak, fed the maps as they come.

    A command that maps each batch under several models keeps one per
    model, so no map outlives its batch.
    """

    def __init__(self) -> None:
        self.total: Optional[np.ndarray] = None
        self.count = 0

    def add(self, rmap: RelevanceMap) -> None:
        """Add a map's scores to the sum; a map whose shape differs from the first's is a ConfigError."""
        if self.total is None:
            self.total = np.zeros_like(rmap.scores, dtype=float)
        elif rmap.scores.shape != self.total.shape:
            raise ConfigError(f"maps have mixed shapes: {self.total.shape} and {rmap.scores.shape}")
        self.total += rmap.scores
        self.count += 1

    def normalized(self) -> np.ndarray:
        """The mean of the maps added so far, divided by its peak |value|. When the mean cancels to
        (numerically) nothing, normalization is skipped and zeros are returned; a mean of no map
        is a ConfigError."""
        if self.total is None:
            raise ConfigError("a mean map needs at least one map")
        mean = self.total / self.count
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
