"""Sea-surface-temperature ingestion, ENSO labeling, and sample preparation.

The on-disk container is a flat binary file: magic bytes ``SSTG``, a 16-byte
header of four little-endian u32 values (n_lat, n_lon, n_months, start_year),
then n_months row-major little-endian float32 grids of shape n_lat x n_lon.
Missing values are NaN. The first grid is January of start_year and months
run consecutively. Grids are 89 x 180: cell centers at latitudes -88..88 and
longitudes 0..358, both on a 2-degree step.

From the raw fields this module derives per-cell monthly anomalies against a
1980-2009 seasonal climatology, the normalized Nino-3.4 index (unweighted
mean over the box lat in [-5, 5], lon in [190, 240], divided by the index's
own standard deviation over the reference period), class labels at the +-0.5
thresholds, and a time-ordered 80/20 train/validation split over the
non-neutral months. It also provides the per-model preprocessing, reversible
column permutation, and a synthetic stand-in task with a known ground-truth
signal box.

A container is checked once from its header and length, then read a month
at a time: one pass over every month (`scan`) gives the climatology, the
validity mask and the Nino-3.4 box means, whose index gives every sample's
key (`enso_source`), and each draw of the samples reads the months its keys
name again, so no array of all the months is built.

Each fact is stored once and the rest derived from it: a month's id follows
from the container's start year, a sample's class from its index, and a
sample set's split from its length (the first `train_count` of the samples
train).
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, DataError
from .readout import ClassLabel

MAGIC = b"SSTG"
HEADER_SIZE = 20
GRID_N_LAT = 89
GRID_N_LON = 180
EPOCH_YEAR = 1880

CLIP_LIMIT = 5.0
LABEL_THRESHOLD = 0.5
TRAIN_FRACTION = 0.8
REFERENCE_PERIOD = (1980, 2009)
NINO34_LAT = (-5.0, 5.0)
NINO34_LON = (190.0, 240.0)

# Synthetic-task geometry: the class signal is a Gaussian blob centered at
# 20% of the width (rows centered), sigma d/12 by t/10, zonally stretched.
# The ground-truth box spans 1.5 sigma around the center on both axes.
# Placing the blob early keeps it far from the readout, which is what makes
# forgetting visible when the leak rate grows.
BLOB_ROW_SIGMA_FRACTION = 1.0 / 12.0
BLOB_COL_SIGMA_FRACTION = 1.0 / 10.0
BLOB_COL_CENTER_FRACTION = 0.2
BLOB_BOX_HALF_WIDTH_SIGMAS = 1.5
BLOB_AMPLITUDE_RANGE = (0.75, 2.5)
NOISE_SMOOTHING_SIGMA = 1.5
NOISE_SCALE = 0.10


def _locked(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


# Cell centers of the 2-degree grid, in degrees.
LAT_CENTERS = _locked(-88.0 + 2.0 * np.arange(GRID_N_LAT))
LON_CENTERS = _locked(2.0 * np.arange(GRID_N_LON))


@dataclass(frozen=True)
class SampleKey:
    """What a sample is without its field: its normalized index and its month id.

    The index fixes the class. A command that has let a sample's field go
    keeps its key for the reports. Keys and samples keep no per-instance
    dict: a command holds every key and a whole train split of samples.
    """

    __slots__ = ("index", "month_id")
    index: float
    month_id: int

    def __post_init__(self) -> None:
        label_for_index(self.index)  # rejects a non-finite index

    @property
    def label(self) -> ClassLabel:
        return label_for_index(self.index)


@dataclass(frozen=True)
class LabeledSample(SampleKey):
    """One month's anomaly field with its key (normalized index and month id)."""

    __slots__ = ("field", "__weakref__")
    field: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.field.ndim != 2:
            raise DataError(f"sample field must be 2-D, got shape {self.field.shape}")
        if _finite_peak(self.field) > CLIP_LIMIT:
            raise DataError(f"sample field exceeds the +-{CLIP_LIMIT} clip range")


def _finite_peak(field: np.ndarray) -> float:
    """The largest magnitude among the finite cells of a field, 0 when it has none.

    fmax and fmin skip NaN cells, so their bounds answer without a copy of
    the field unless a bound is not finite (an infinite cell, or no finite
    cell at all); then the finite cells are picked out.
    """
    if not field.size:
        return 0.0
    hi, lo = np.fmax.reduce(field, axis=None), np.fmin.reduce(field, axis=None)
    if np.isfinite(hi) and np.isfinite(lo):
        return max(abs(float(hi)), abs(float(lo)))
    finite = field[np.isfinite(field)]
    return float(np.abs(finite).max()) if finite.size else 0.0


def train_count(n_samples: int) -> int:
    """How many of n_samples time-ordered samples train: the first TRAIN_FRACTION, rounded down.

    The one home of the split rule, so that a caller streaming samples can
    stop at the split without building the set.
    """
    return int(TRAIN_FRACTION * n_samples)


@dataclass(frozen=True)
class SampleSet:
    """Non-neutral samples, or only their keys, in time order; the first `n_train` of them train.

    The split is derived, never stored: the first `train_count` of the
    samples train and the rest validate, so scores computed in sample order
    hold the train rows first. A set of keys is what a command keeps for
    its reports once the fields are gone.
    """

    samples: Tuple[SampleKey, ...]

    def __post_init__(self) -> None:
        if any(s.label is ClassLabel.NEUTRAL for s in self.samples):
            raise DataError("sample sets must not contain neutral samples")

    @property
    def n_train(self) -> int:
        return train_count(len(self.samples))

    @property
    def train_samples(self) -> Tuple[SampleKey, ...]:
        return self.samples[: self.n_train]

    @property
    def val_samples(self) -> Tuple[SampleKey, ...]:
        return self.samples[self.n_train :]

    @property
    def split(self) -> Tuple[str, ...]:
        """One tag per sample, "train" or "val"."""
        return ("train",) * self.n_train + ("val",) * (len(self.samples) - self.n_train)


@dataclass(frozen=True)
class SampleSource:
    """A task's samples as known before any field is built, and the way to build their fields.

    `keys` holds every sample's key in time order (so the split is known
    too), `shape` the fields' (rows, columns) and `valid_mask` the cells
    valid in every month, which only the baselines read (None when every
    cell is valid). `draw(positions)` builds the samples at `positions`,
    increasing indices into `keys`, in order and each only as it is asked
    for; it builds every sample when no positions are given. Every draw
    starts afresh and keeps no sample it has yielded.
    """

    keys: SampleSet
    shape: Tuple[int, int]
    valid_mask: Optional[np.ndarray]
    draw: Callable[..., Iterator[LabeledSample]]


def write_sst(path: Union[str, Path], fields: np.ndarray, start_year: int) -> None:
    """Write monthly grids to the binary container described above."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 3 or fields.shape[1:] != (GRID_N_LAT, GRID_N_LON):
        raise DataError(
            f"fields must have shape (n_months, {GRID_N_LAT}, {GRID_N_LON}), got {fields.shape}"
        )
    header = MAGIC + struct.pack("<4I", GRID_N_LAT, GRID_N_LON, fields.shape[0], start_year)
    Path(path).write_bytes(header + np.ascontiguousarray(fields, dtype="<f4").tobytes())


@dataclass(frozen=True)
class SstContainer:
    """A container file whose header and length `open_sst` has checked; its months are read on demand."""

    path: Path
    n_months: int
    start_year: int

    def read(self, months: Sequence[int]) -> Iterator[np.ndarray]:
        """The float32 grids of `months`, in that order, each read at its byte offset as it is asked for."""
        grid_bytes = GRID_N_LAT * GRID_N_LON * 4
        with _opened(self.path) as handle:
            for month in months:
                handle.seek(HEADER_SIZE + month * grid_bytes)
                yield np.frombuffer(handle.read(grid_bytes), dtype="<f4").reshape(GRID_N_LAT, GRID_N_LON)


def _opened(path: Path):
    try:
        return path.open("rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def open_sst(path: Union[str, Path]) -> SstContainer:
    """Check a container file from its header and length; malformed input errors cite exact byte offsets."""
    path = Path(path)
    with _opened(path) as handle:
        raw = handle.read(HEADER_SIZE)
        size = os.fstat(handle.fileno()).st_size
    if not MAGIC.startswith(raw[: len(MAGIC)]):
        raise DataError(
            f"{path}: bad magic at byte 0: found {raw[:len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    if size < HEADER_SIZE:
        raise DataError(
            f"{path}: truncated header, file ends at byte {size} but the header "
            f"spans bytes 0..{HEADER_SIZE - 1}"
        )
    n_lat, n_lon, n_months, start_year = struct.unpack_from("<4I", raw, len(MAGIC))
    if (n_lat, n_lon) != (GRID_N_LAT, GRID_N_LON):
        raise DataError(
            f"{path}: grid is {n_lat}x{n_lon} (header bytes 4..11), "
            f"expected {GRID_N_LAT}x{GRID_N_LON}"
        )
    grid_bytes = n_lat * n_lon * 4
    expected = HEADER_SIZE + n_months * grid_bytes
    if size < expected:
        complete = (size - HEADER_SIZE) // grid_bytes
        raise DataError(
            f"{path}: truncated payload, file ends at byte {size} of {expected}; "
            f"grid {complete} of {n_months} starting at byte {HEADER_SIZE + complete * grid_bytes} "
            "is incomplete"
        )
    if size > expected:
        raise DataError(
            f"{path}: {size - expected} trailing bytes after the declared payload, "
            f"which ends at byte {expected}"
        )
    return SstContainer(path=path, n_months=n_months, start_year=start_year)


def _reference_slice(container: SstContainer) -> slice:
    first, last = REFERENCE_PERIOD
    lo = (first - container.start_year) * 12
    hi = (last - container.start_year) * 12 + 12
    if lo < 0 or hi > container.n_months:
        raise DataError(
            f"reference period {first}..{last} falls outside the data span "
            f"{container.start_year}..{container.start_year + container.n_months // 12 - 1}"
        )
    return slice(lo, hi)


def scan(container: SstContainer) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over every month, in order: the climatology, the valid cells and the Nino-3.4 box means.

    The climatology is each calendar month's per-cell mean over the
    REFERENCE_PERIOD years, shape (12, n_lat, n_lon), NaN where a cell has
    no finite reference value; its sums add a year at a time, as `np.sum`
    over the years does. The valid cells are those finite in every month
    (such a cell has a finite climatology, so they are the valid cells of
    the anomalies too). The box means are each month's mean anomaly over
    the valid cells of the Nino-3.4 box, taken from its 130 raw cells
    minus their climatology once every month is read.
    """
    ref = _reference_slice(container)
    rows, cols = nino34_region()
    valid = np.ones((GRID_N_LAT, GRID_N_LON), dtype=bool)
    box = np.empty((container.n_months, rows.size * cols.size))  # float64, as the anomalies are
    sums = np.zeros((12, GRID_N_LAT, GRID_N_LON))
    counts = np.zeros((12, GRID_N_LAT, GRID_N_LON), dtype=int)
    for month, grid in enumerate(container.read(range(container.n_months))):
        finite = np.isfinite(grid)
        valid &= finite
        box[month] = grid[rows[:, None], cols].reshape(-1)
        if ref.start <= month < ref.stop:
            sums[month % 12] += np.where(finite, grid, 0.0)
            counts[month % 12] += finite
    climatology = _locked(np.where(counts > 0, sums / np.maximum(counts, 1), np.nan))
    box -= climatology[:, rows[:, None], cols].reshape(12, -1)[np.arange(container.n_months) % 12]
    finite = np.isfinite(box)
    counts = finite.sum(axis=1)
    if np.any(counts == 0):
        bad = int(np.argmin(counts))
        raise DataError(f"Nino-3.4 box has no valid cells in month index {bad}")
    return climatology, _locked(valid), np.where(finite, box, 0.0).sum(axis=1) / counts


def anomalies(container: SstContainer, climatology: np.ndarray, months: Sequence[int]) -> Iterator[np.ndarray]:
    """Each month of `months`, in order, as float64 minus its calendar month's climatology, read as asked for.

    A cell that is NaN in a month, or has no finite reference value, is NaN.
    """
    for month, grid in zip(months, container.read(months)):
        field = grid.astype(float)
        field -= climatology[month % 12]
        yield field


def nino34_region() -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of cells whose centers fall in the Nino-3.4 box."""
    rows = np.where((LAT_CENTERS >= NINO34_LAT[0]) & (LAT_CENTERS <= NINO34_LAT[1]))[0]
    cols = np.where((LON_CENTERS >= NINO34_LON[0]) & (LON_CENTERS <= NINO34_LON[1]))[0]
    return rows, cols


def nino34_index(container: SstContainer, box_means: np.ndarray) -> np.ndarray:
    """The normalized Nino-3.4 series: the box means of `scan` over their reference-period std."""
    scale = float(box_means[_reference_slice(container)].std())
    if not scale > 0.0:
        raise DataError(f"Nino-3.4 reference standard deviation is degenerate ({scale})")
    return box_means / scale


def label_for_index(index: float) -> ClassLabel:
    if not np.isfinite(index):
        raise DataError(f"index must be finite, got {index}")
    if index >= LABEL_THRESHOLD:
        return ClassLabel.EL_NINO
    if index <= -LABEL_THRESHOLD:
        return ClassLabel.LA_NINA
    return ClassLabel.NEUTRAL


def enso_samples(
    container: SstContainer, climatology: np.ndarray, keys: SampleSet, positions: Optional[Sequence[int]] = None
) -> Iterator[LabeledSample]:
    """The samples of `keys`, in order, each its month read and clipped to +-CLIP_LIMIT as it is drawn.

    `positions` picks some of them, by their place among the keys; no other
    month is read. The generator keeps none it has yielded, like
    `synthetic_samples`.
    """
    chosen = keys.samples if positions is None else [keys.samples[p] for p in positions]
    first_id = (container.start_year - EPOCH_YEAR) * 12
    months = [key.month_id - first_id for key in chosen]
    for key, field in zip(chosen, anomalies(container, climatology, months)):
        np.clip(field, -CLIP_LIMIT, CLIP_LIMIT, out=field)
        yield LabeledSample(field=_locked(field), index=key.index, month_id=key.month_id)


def enso_source(path: Union[str, Path]) -> SampleSource:
    """A container's samples (`enso_samples`): its non-neutral months, keyed by the Nino-3.4 index.

    The container is checked and scanned once before this returns, so
    every data error it holds is raised here; a draw then reads the months
    it keeps again.
    """
    container = open_sst(path)
    climatology, valid_mask, box_means = scan(container)
    index = nino34_index(container, box_means)
    first_id = (container.start_year - EPOCH_YEAR) * 12
    labelled = [m for m, v in enumerate(index) if label_for_index(v) is not ClassLabel.NEUTRAL]
    keys = SampleSet(tuple(SampleKey(float(index[m]), first_id + m) for m in labelled))
    if len(keys.samples) < 2:
        raise DataError(f"only {len(keys.samples)} labeled samples; cannot split")
    draw = functools.partial(enso_samples, container, climatology, keys)
    return SampleSource(keys, (GRID_N_LAT, GRID_N_LON), valid_mask, draw)


def preprocess_field(field: np.ndarray) -> np.ndarray:
    """Clip to +-5, scale to [-1, 1], zero invalid cells, prepend a ones column."""
    scaled = np.clip(np.asarray(field, dtype=float), -CLIP_LIMIT, CLIP_LIMIT) / CLIP_LIMIT
    scaled = np.where(np.isfinite(scaled), scaled, 0.0)
    return np.hstack([np.ones((scaled.shape[0], 1)), scaled])


@dataclass(frozen=True)
class BaselineRows:
    """The baselines' input vectors of some samples, one row per sample, read on demand.

    Row i holds sample i's valid cells in row-major order, divided by
    CLIP_LIMIT; a `valid_mask` of None means every cell is valid. That is
    the valid cells of `preprocess_field` bit for bit, because a sample
    field holds no finite value outside +-CLIP_LIMIT and a valid cell is
    finite in every month. No (samples x cells) matrix is built: `read`
    writes the rows it is asked for into the caller's buffer.
    """

    samples: Sequence[LabeledSample]
    valid_mask: Optional[np.ndarray] = None

    @property
    def width(self) -> int:
        mask = self.valid_mask
        return int(self.samples[0].field.size if mask is None else np.count_nonzero(mask))

    def __len__(self) -> int:
        return len(self.samples)

    def read(self, indices: Sequence[int], out: np.ndarray) -> np.ndarray:
        """The rows at `indices`, written into the first len(indices) rows of `out`."""
        out = out[: len(indices)]
        for row, i in zip(out, indices):
            field = self.samples[i].field
            cells = field.reshape(-1) if self.valid_mask is None else field[self.valid_mask]
            np.divide(cells, CLIP_LIMIT, out=row)
        return out


def column_permutation(n_cols: int, seed: int) -> np.ndarray:
    """One seeded permutation of a field's n_cols columns: column j of a permuted field is column perm[j]."""
    return _locked(np.random.default_rng(np.random.SeedSequence(seed)).permutation(n_cols))


def inverse_permute(arr: np.ndarray, permutation: np.ndarray) -> np.ndarray:
    """Restore the original column order of a 2-D field or map whose columns were permuted by `permutation`."""
    inverse = np.argsort(permutation)
    arr = np.asarray(arr)
    if arr.ndim == 2 and arr.shape[1] == inverse.size:
        return arr[:, inverse]
    raise DataError(f"cannot invert object of shape {arr.shape} with {inverse.size} columns")


def _smoothed_noise(
    rng: np.random.Generator, shape: Tuple[int, int], positions: Iterable[int]
) -> Iterator[np.ndarray]:
    """White Gaussian noise fields, each smoothed by a Gaussian of width `NOISE_SMOOTHING_SIGMA`:
    those of the draws at increasing `positions`.

    A draw that no position names is made and dropped unsmoothed, so each
    field is the one its position gives in a run that smooths every draw.

    Each field is bit for bit ``scipy.ndimage.gaussian_filter(z, sigma)`` of
    the draw ``z = rng.standard_normal(shape)``: a reflect boundary, radius
    int(4 sigma + 0.5), normalised taps, and the same accumulation order
    (centre tap, then the symmetric pairs from the outermost inwards),
    along axis 0 and then axis 1. Every field is written into the same
    buffers, so it is valid only until the next one is drawn; reusing them
    keeps a long task from returning heap to the kernel and faulting it
    back in for every sample.
    """
    sigma = NOISE_SMOOTHING_SIGMA
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    weights = weights / weights.sum()
    noise, smoothed = np.empty(shape), np.empty(shape)
    # one pass per axis, each smoothing down axis 0 of its (transposed) input
    passes = []
    for n, m in (shape, shape[::-1]):
        rows = np.arange(-radius, n + radius) % (2 * n)
        reflect = np.where(rows < n, rows, 2 * n - 1 - rows)
        passes.append((reflect, np.empty((n + 2 * radius, m)), np.empty((n, m)), np.empty((n, m))))
    drawn = 0
    for position in positions:
        while drawn <= position:
            rng.standard_normal(out=noise)
            drawn += 1
        field = noise
        for reflect, padded, acc, pair in passes:
            np.take(field, reflect, axis=0, out=padded)
            n = acc.shape[0]
            np.multiply(padded[radius : radius + n], weights[radius], out=acc)
            for j in range(radius, 0, -1):
                np.add(padded[radius - j : radius - j + n], padded[radius + j : radius + j + n], out=pair)
                pair *= weights[radius - j]
                acc += pair
            field = acc.T
        # C order, so that reductions over the field add in the usual order
        np.copyto(smoothed, field)
        yield smoothed


def _blob_geometry(d: int, t: int) -> Tuple[float, float, float, float]:
    """Centre row and column, then row and column sigma, of the signal blob on a d x t grid."""
    return (d - 1) / 2.0, BLOB_COL_CENTER_FRACTION * (t - 1), BLOB_ROW_SIGMA_FRACTION * d, BLOB_COL_SIGMA_FRACTION * t


def synthetic_blob_box(d: int, t: int) -> Tuple[int, int, int, int]:
    """Inclusive (row_lo, row_hi, col_lo, col_hi) bounds of the signal box."""
    r0, c0, sigma_r, sigma_c = _blob_geometry(d, t)
    half_r = BLOB_BOX_HALF_WIDTH_SIGMAS * sigma_r
    half_c = BLOB_BOX_HALF_WIDTH_SIGMAS * sigma_c
    return (
        max(0, int(np.ceil(r0 - half_r))),
        min(d - 1, int(np.floor(r0 + half_r))),
        max(0, int(np.ceil(c0 - half_c))),
        min(t - 1, int(np.floor(c0 + half_c))),
    )


def check_synthetic_shape(n_samples: int, d: int, t: int) -> None:
    """A synthetic task needs d, t >= 8 and at least 2 samples; anything else is a ConfigError."""
    if d < 8 or t < 8 or n_samples < 2:
        raise ConfigError(f"synthetic must have d, t >= 8 and n >= 2, got d,t,n = {d},{t},{n_samples}")


def _synthetic_draws(n_samples: int, seed: int) -> Tuple[np.ndarray, np.random.Generator]:
    """The indices of a synthetic task's samples, and the generator of their noise.

    The amplitudes come from one draw of n_samples, which gives bit for bit
    what n_samples draws of one give, so a task's keys cost no field.
    """
    # The spawn_key puts data generation in its own stream domain, so reusing
    # one seed for both the task and a model never aliases their draws.
    amp_rng, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed, spawn_key=(101,)).spawn(2)
    )
    indices = amp_rng.uniform(*BLOB_AMPLITUDE_RANGE, size=n_samples)
    indices[1::2] *= -1.0
    return indices, noise_rng


def synthetic_samples(
    keys: SampleSet, d: int, t: int, seed: int, positions: Optional[Sequence[int]] = None
) -> Iterator[LabeledSample]:
    """The samples of a two-class task with a known localized signal, drawn one at a time: those
    of `keys`, the keys of `synthetic_source(len(keys.samples), d, t, seed)`.

    Each sample is amplitude * blob + smoothed noise: the blob is a fixed
    Gaussian bump (see the module constants for its geometry), amplitudes
    have magnitude uniform in [0.75, 2.5] with alternating sign, and the
    noise is white Gaussian smoothed with a sigma-1.5 filter then rescaled
    to standard deviation NOISE_SCALE. The continuous target equals the
    amplitude, so labels follow the +-0.5 index rule exactly and both
    classes appear in any contiguous split. With everything seeded the
    samples are reproducible bit for bit. A sample holds its key's index
    and month id, not copies, like those of `enso_samples`.

    Sample i is drawn only when asked for, and the generator keeps none it
    has yielded. `positions`, increasing sample indices, picks the samples
    to build (all of them by default): the noise of a sample it skips is
    drawn but not smoothed, so each sample built is the one a full draw
    gives. The shape is checked at the first draw.
    """
    check_synthetic_shape(len(keys.samples), d, t)
    noise_rng = _synthetic_draws(len(keys.samples), seed)[1]
    rr, cc = np.meshgrid(np.arange(d), np.arange(t), indexing="ij")
    r0, c0, sigma_r, sigma_c = _blob_geometry(d, t)
    blob = np.exp(-((rr - r0) ** 2 / (2 * sigma_r**2) + (cc - c0) ** 2 / (2 * sigma_c**2)))

    positions = range(len(keys.samples)) if positions is None else positions
    noises = _smoothed_noise(noise_rng, (d, t), positions)
    for i in positions:
        key = keys.samples[i]
        # the blob product first: computed after the noise draw, synthesis runs ~2% slower at paper shape
        field = key.index * blob
        noise = next(noises)
        field = field + noise * (NOISE_SCALE / float(noise.std()))
        field = _locked(np.clip(field, -CLIP_LIMIT, CLIP_LIMIT))
        yield LabeledSample(field=field, index=key.index, month_id=key.month_id)


def synthetic_source(n_samples: int, d: int, t: int, seed: int) -> SampleSource:
    """The samples of a synthetic task (`synthetic_samples`), their keys read off the amplitudes alone."""
    check_synthetic_shape(n_samples, d, t)
    keys = SampleSet(tuple(SampleKey(float(v), i) for i, v in enumerate(_synthetic_draws(n_samples, seed)[0])))
    return SampleSource(keys, (d, t), None, functools.partial(synthetic_samples, keys, d, t, seed))


def synthesize_task(n_samples: int, d: int, t: int, seed: int) -> SampleSet:
    """All the samples of `synthetic_source(n_samples, d, t, seed)`, as one set."""
    return SampleSet(samples=tuple(synthetic_source(n_samples, d, t, seed).draw()))


def box_mass_ratio(scores: np.ndarray, box: Tuple[int, int, int, int]) -> float:
    """How much denser absolute relevance is inside a box than area predicts.

    Returns (mass fraction inside the box) / (areal fraction of the box);
    1.0 means no localization at all.
    """
    mass = np.abs(np.asarray(scores, dtype=float))
    total = float(mass.sum())
    if total <= 0.0:
        return 0.0
    r0, r1, c0, c1 = box
    inside = float(mass[r0 : r1 + 1, c0 : c1 + 1].sum())
    areal = ((r1 - r0 + 1) * (c1 - c0 + 1)) / mass.size
    return (inside / total) / areal


def write_sample_index_csv(path: Union[str, Path], sample_set: SampleSet) -> None:
    """Export month ids, indices, labels, and split tags as CSV."""
    lines = ["month_id,index,label,split"]
    for sample, tag in zip(sample_set.samples, sample_set.split):
        lines.append(f"{sample.month_id},{sample.index:.9g},{sample.label.value},{tag}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
