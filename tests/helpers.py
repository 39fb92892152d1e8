"""Shared builders for tests: models from explicit arrays, random draws, a generated SST container,
a signal-and-distractor task, a row source over an explicit matrix, weak references to the
generated samples, the whole-set references that the streamed code is checked against, and an
edit of a saved model document."""

import base64
import gc
import weakref

import numpy as np

from esnlrp import data
from esnlrp.reservoir import EsnConfig, EsnModel, final_states


def assemble_model(w_in, b_in, w_res, b_res, alpha, w_out=None, b_out=None):
    """An EsnModel from explicit arrays, bypassing the random construction. Its config says
    sparsity 1, the draw of a dense w_res, which a single unit's reservoir can take."""
    w_in = np.atleast_2d(np.asarray(w_in, dtype=float))
    n, d = w_in.shape
    config = EsnConfig(n_in=d, n_res=n, leak_rate=alpha, sparsity=1.0)
    model = EsnModel(
        config=config,
        w_in=w_in,
        b_in=np.asarray(b_in, dtype=float).reshape(n),
        w_res=np.atleast_2d(np.asarray(w_res, dtype=float)),
        b_res=np.asarray(b_res, dtype=float).reshape(n),
    )
    if w_out is not None:
        model = model.with_readout(np.atleast_2d(w_out), np.atleast_1d(b_out))
    return model


def random_model(rng, n, d, alpha, scale=0.8):
    """Dense random weights with a random readout already attached."""
    return assemble_model(
        w_in=rng.uniform(-scale, scale, size=(n, d)),
        b_in=rng.uniform(-scale, scale, size=n),
        w_res=rng.uniform(-scale, scale, size=(n, n)),
        b_res=rng.uniform(-scale, scale, size=n),
        alpha=alpha,
        w_out=rng.uniform(-1.0, 1.0, size=(1, n)),
        b_out=rng.uniform(-1.0, 1.0, size=1),
    )


def random_sample(rng, d, t):
    """A (d, t) input whose first column is the dummy ones column."""
    sample = rng.uniform(-1.0, 1.0, size=(d, t))
    sample[:, 0] = 1.0
    return sample


def write_enso_container(path, n_years=32, offsets=None):
    """A full 89x180 container: n_years (at least 32) from 1980 with land and an ENSO box.

    Every cell carries a fixed seasonal cycle plus white noise of sigma 0.3.
    Rows 0-19, and rows 60-69 by columns 100-149, are land (NaN in every
    month). The Nino-3.4 box is offset by `offsets`, one value per year;
    by default by +2 in even and -2 in odd years, except by 0.2 in 2010
    (neutral) and by +4 in 2011 (warm). The first 32 years do not depend
    on n_years. Returns the box as inclusive (row_lo, row_hi, col_lo,
    col_hi) bounds.
    """
    months = np.arange(12 * n_years)
    rng = np.random.default_rng(0)
    fields = rng.normal(0.0, 0.3, size=(months.size, data.GRID_N_LAT, data.GRID_N_LON))
    fields += 26.0 + 2.0 * np.sin(2.0 * np.pi * months / 12.0)[:, None, None]
    if offsets is None:
        offsets = [2.0 if year % 2 == 0 else -2.0 for year in range(n_years)]
        offsets[30:32] = [0.2, 4.0]
    rows, cols = data.nino34_region()
    fields[:, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] += np.repeat(offsets, 12)[:, None, None]
    fields[:, :20] = np.nan
    fields[:, 60:70, 100:150] = np.nan
    data.write_sst(path, fields, 1980)
    return (int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1]))


def distractor_task(n_samples, d, t, seed):
    """A seeded two-blob task on (d, t) fields: a signal and a distractor blob of equal energy.

    Both blobs have the synthetic task's column centre and sigmas
    (`data.BLOB_*`), one centred a quarter of the rows down and one three
    quarters. Each sample draws both amplitudes from `data.BLOB_AMPLITUDE_RANGE`
    with a random sign each, so the two carry the same energy, but only the
    signal's signed amplitude is the target; white noise of sigma
    `data.NOISE_SCALE` is added. Returns the fields (n, d, t), the targets
    (n,), and the signal and distractor boxes as inclusive (row_lo, row_hi,
    col_lo, col_hi) bounds, `data.BLOB_BOX_HALF_WIDTH_SIGMAS` around each
    centre.
    """
    rng = np.random.default_rng(seed)
    amplitudes = rng.choice([-1.0, 1.0], size=(2, n_samples)) * rng.uniform(*data.BLOB_AMPLITUDE_RANGE, (2, n_samples))
    col_centre = data.BLOB_COL_CENTER_FRACTION * (t - 1)
    sigma_r, sigma_c = data.BLOB_ROW_SIGMA_FRACTION * d, data.BLOB_COL_SIGMA_FRACTION * t
    rows, cols = np.arange(d)[:, None], np.arange(t)[None, :]
    fields = rng.normal(0.0, data.NOISE_SCALE, size=(n_samples, d, t))
    _, _, col_lo, col_hi = data.synthetic_blob_box(d, t)  # the synthetic task's columns
    half_r = data.BLOB_BOX_HALF_WIDTH_SIGMAS * sigma_r
    boxes = []
    for amplitude, row_centre in zip(amplitudes, (d / 4, 3 * d / 4)):
        blob = np.exp(-0.5 * (((rows - row_centre) / sigma_r) ** 2 + ((cols - col_centre) / sigma_c) ** 2))
        fields += amplitude[:, None, None] * blob
        row_lo, row_hi = max(0, int(np.ceil(row_centre - half_r))), min(d - 1, int(np.floor(row_centre + half_r)))
        boxes.append((row_lo, row_hi, col_lo, col_hi))
    signal_box, distractor_box = boxes
    return fields, amplitudes[0], signal_box, distractor_box


class MatrixRows:
    """A `baselines.RowSource` over the rows of an explicit (n, width) matrix."""

    def __init__(self, matrix):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.width = self.matrix.shape[1]

    def __len__(self):
        return self.matrix.shape[0]

    def read(self, indices, out):
        out = out[: len(indices)]
        out[...] = self.matrix[np.asarray(indices)]
        return out


def enso_sample_set(path):
    """All the samples of a container, from one draw of `data.enso_source`, as a set; and its valid cells."""
    source = data.enso_source(path)
    return data.SampleSet(tuple(source.draw())), source.valid_mask


def track_generated_samples(monkeypatch, generator="synthetic_samples"):
    """Follow every sample that `data.<generator>` yields with a weak reference, in draw order."""
    refs = []
    generate = getattr(data, generator)

    def remember(sample):
        refs.append(weakref.ref(sample))
        return sample

    # map, unlike a generator's loop variable, keeps no reference to the last sample drawn
    monkeypatch.setattr(data, generator, lambda *args, **kwargs: map(remember, generate(*args, **kwargs)))
    return refs


def alive(refs):
    gc.collect()
    return [ref() is not None for ref in refs]


def encode(model, samples):
    """Final reservoir state of each sample, one row per sample, from one batch of all of them."""
    return final_states(model, np.stack([data.preprocess_field(s.field) for s in samples]))


def preprocess_for_baseline(sample, valid_mask):
    """A baseline's input vector: the sample's valid cells, clipped, scaled and in row-major order."""
    return data.preprocess_field(sample.field)[:, 1:][np.asarray(valid_mask, dtype=bool)]


def composed_affine(model):
    """Collapse an identity-activation MLP into one (matrix, bias) pair."""
    w = model.weights[0]
    b = model.biases[0].copy()
    for w_next, b_next in zip(model.weights[1:], model.biases[1:]):
        w = w_next @ w
        b = w_next @ b + b_next
    return w, b


def one_weight(key, value):
    """An edit of a saved model document that sets the first value of array block `key` to `value`."""

    def edit(doc):
        block = doc["arrays"][key]
        values = np.frombuffer(base64.b64decode(block["data"]), dtype="<f8").copy()
        values[0] = value
        block["data"] = base64.b64encode(values.tobytes()).decode("ascii")

    return edit
