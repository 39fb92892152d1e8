import numpy as np
import pytest

from esnlrp import cli, data, reservoir
from esnlrp.errors import ConfigError, DataError
from esnlrp.readout import ClassLabel
from helpers import enso_sample_set, preprocess_for_baseline, write_enso_container


def small_fields(n_months, seed=0, fill_nan_at=None):
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(n_months, data.GRID_N_LAT, data.GRID_N_LON)).astype(np.float32)
    if fill_nan_at is not None:
        r, c = fill_nan_at
        fields[:, r, c] = np.nan
    return fields.astype(float)


def test_sst_container_round_trip(tmp_path):
    """Months are read back as written, as float32, in any order asked for, NaN cells included."""
    fields = small_fields(5, fill_nan_at=(3, 17))
    path = tmp_path / "x.sstg"
    data.write_sst(path, fields, start_year=1980)
    container = data.open_sst(path)
    assert (container.start_year, container.n_months) == (1980, 5)
    np.testing.assert_array_equal(np.stack(list(container.read(range(5)))), fields)
    grids = list(container.read([4, 0, 4]))
    assert all(grid.dtype == np.float32 for grid in grids)
    np.testing.assert_array_equal(np.stack(grids), fields[[4, 0, 4]])


def test_write_sst_rejects_wrong_shape(tmp_path):
    with pytest.raises(DataError):
        data.write_sst(tmp_path / "x.sstg", np.zeros((2, 10, 10)), start_year=1980)


def test_load_sst_bad_magic(tmp_path):
    """A file whose first bytes already differ from the magic, long or short."""
    path = tmp_path / "x.sstg"
    for raw in (b"JUNKxxxxxxxxxxxxxxxxxxx", b"SX"):
        path.write_bytes(raw)
        with pytest.raises(DataError, match="bad magic at byte 0"):
            data.open_sst(path)


def test_load_sst_truncated_header(tmp_path):
    """A file that ends inside the header, inside its magic too, names the byte at which it ends."""
    path = tmp_path / "x.sstg"
    for raw in (b"", b"SS", b"SSTG\x01\x02"):
        path.write_bytes(raw)
        with pytest.raises(DataError, match=f"truncated header, file ends at byte {len(raw)} "):
            data.open_sst(path)


def test_load_sst_wrong_grid(tmp_path):
    import struct

    path = tmp_path / "x.sstg"
    path.write_bytes(b"SSTG" + struct.pack("<4I", 10, 10, 1, 1980) + b"\x00" * 400)
    with pytest.raises(DataError, match=r"header bytes 4\.\.11"):
        data.open_sst(path)


def test_load_sst_truncated_payload_reports_offsets(tmp_path):
    fields = small_fields(3)
    path = tmp_path / "x.sstg"
    data.write_sst(path, fields, start_year=1980)
    raw = path.read_bytes()
    grid_bytes = data.GRID_N_LAT * data.GRID_N_LON * 4
    cut = data.HEADER_SIZE + grid_bytes + grid_bytes // 2  # mid-second-grid
    path.write_bytes(raw[:cut])
    with pytest.raises(DataError) as err:
        data.open_sst(path)
    message = str(err.value)
    assert f"file ends at byte {cut} of {data.HEADER_SIZE + 3 * grid_bytes}" in message
    assert f"grid 1 of 3 starting at byte {data.HEADER_SIZE + grid_bytes}" in message


def test_load_sst_trailing_bytes(tmp_path):
    fields = small_fields(2)
    path = tmp_path / "x.sstg"
    data.write_sst(path, fields, start_year=1980)
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(DataError, match="7 trailing bytes"):
        data.open_sst(path)


def test_load_sst_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        data.open_sst(tmp_path / "nope.sstg")


def seasonal_fields(n_years, signal=None, seed=0):
    """Fields = per-cell seasonal cycle + optional per-month additive signal.

    The seasonal part repeats exactly every 12 months, so anomalies reduce
    to signal minus its per-calendar-month reference mean. Cycle and signal
    are rounded to multiples of 2**-10, so their sum, and three times it,
    are exact in the container's float32.
    """
    rng = np.random.default_rng(seed)
    cycle = np.round(rng.normal(size=(12, data.GRID_N_LAT, data.GRID_N_LON)) * 1024) / 1024
    fields = cycle[np.arange(12 * n_years) % 12]
    if signal is not None:
        fields = fields + (np.round(np.asarray(signal, dtype=float) * 1024) / 1024)[:, None, None]
    return fields


def container_of(path, fields, start_year=1980):
    data.write_sst(path, fields, start_year)
    return data.open_sst(path)


def climatology_and_anomalies(container, months):
    climatology = data.scan(container)[0]
    return climatology, list(data.anomalies(container, climatology, months))


def test_anomalies_of_pure_seasonal_cycle_are_zero(tmp_path):
    container = container_of(tmp_path / "x.sstg", seasonal_fields(31))
    climatology = data.scan(container)[0]
    for field in data.anomalies(container, climatology, range(container.n_months)):
        np.testing.assert_allclose(field, np.zeros((89, 180)), atol=1e-12)


def test_anomaly_of_bump_outside_reference_period(tmp_path):
    signal = np.zeros(31 * 12)
    signal[30 * 12 + 4] = 1.0  # May 2010, outside the 1980..2009 reference
    container = container_of(tmp_path / "x.sstg", seasonal_fields(31, signal=signal))
    _, (bump, before) = climatology_and_anomalies(container, [30 * 12 + 4, 30 * 12 + 3])
    np.testing.assert_allclose(bump, np.ones((89, 180)), atol=1e-9)
    np.testing.assert_allclose(before, np.zeros((89, 180)), atol=1e-9)


def test_anomalies_have_zero_reference_mean_per_cell(tmp_path):
    rng = np.random.default_rng(5)
    signal = rng.normal(size=30 * 12)
    container = container_of(tmp_path / "x.sstg", seasonal_fields(30, signal=signal))
    for month in range(12):
        _, calendar_month = climatology_and_anomalies(container, range(month, 30 * 12, 12))
        np.testing.assert_allclose(np.mean(calendar_month, axis=0), np.zeros((89, 180)), atol=1e-9)


def test_anomalies_preserve_invalid_cells(tmp_path):
    """A cell NaN in every month has a NaN climatology and stays NaN; one NaN month makes a cell invalid.

    The valid mask of the scan is the cells finite in every month of the raw fields.
    """
    signal = np.random.default_rng(6).normal(size=30 * 12)  # an index that is not degenerate
    fields = seasonal_fields(30, signal=signal)
    fields[:, 7, 9] = np.nan
    fields[5, 8, 8] = np.nan
    container = container_of(tmp_path / "x.sstg", fields)
    climatology, months = climatology_and_anomalies(container, range(30 * 12))
    assert np.all(np.isnan(climatology[:, 7, 9]))
    assert all(np.isnan(field[7, 9]) and np.all(np.isfinite(field[0, :])) for field in months)
    valid_mask = data.scan(container)[1]
    np.testing.assert_array_equal(valid_mask, np.isfinite(fields).all(axis=0))
    assert valid_mask.sum() == data.GRID_N_LAT * data.GRID_N_LON - 2


def test_scan_climatology_matches_the_whole_slab_bit_for_bit(tmp_path):
    """The running per-calendar-month sums of `scan` give bit for bit the climatology of one
    float64 slab of the reference years summed over its first axis, NaN cells included."""
    rng = np.random.default_rng(8)
    fields = rng.normal(26.0, 3.0, size=(31 * 12, data.GRID_N_LAT, data.GRID_N_LON))
    fields[rng.random(fields.shape) < 0.05] = np.nan
    fields[:, 7, 9] = np.nan  # no finite reference value
    container = container_of(tmp_path / "x.sstg", fields)
    raw = np.stack(list(container.read(range(30 * 12)))).astype(float)
    expected = np.empty((12, data.GRID_N_LAT, data.GRID_N_LON))
    for month in range(12):
        slab = raw[month::12]
        finite = np.isfinite(slab)
        counts = finite.sum(axis=0)
        sums = np.where(finite, slab, 0.0).sum(axis=0)
        expected[month] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    climatology = data.scan(container)[0]
    assert np.isnan(climatology[:, 7, 9]).all()
    assert np.array_equal(climatology, expected, equal_nan=True)


def test_enso_source_reads_each_month_once_in_one_call(tmp_path, monkeypatch):
    """Checking a container and keying its samples reads every month once, in month order."""
    path = tmp_path / "sst.sstg"
    write_enso_container(path)
    calls = []
    read = data.SstContainer.read

    def recorded(self, months):
        calls.append(list(months))
        return read(self, calls[-1])

    monkeypatch.setattr(data.SstContainer, "read", recorded)
    data.enso_source(path)
    assert calls == [list(range(32 * 12))]


def test_reference_period_outside_span_is_an_error(tmp_path):
    container = container_of(tmp_path / "x.sstg", seasonal_fields(10), start_year=1990)
    with pytest.raises(DataError, match="reference period"):
        data.scan(container)


def test_a_container_with_one_labelled_month_is_a_data_error(tmp_path):
    """`enso_source` needs two labelled months to split. One Nino-3.4 cell is +1 in January 1980,
    when the box's other cells are missing, and -1 in January 1981, beside 129 zeros, and missing
    in every other January: the box means are +1 and -1/130 there and 0 elsewhere, so only January
    1980 lies beyond the label threshold."""
    fields = np.zeros((360, data.GRID_N_LAT, data.GRID_N_LON))
    rows, cols = data.nino34_region()
    fields[0, rows[:, None], cols] = np.nan
    fields[::12, rows[0], cols[0]] = np.nan
    fields[0, rows[0], cols[0]], fields[12, rows[0], cols[0]] = 1.0, -1.0
    data.write_sst(tmp_path / "one.sstg", fields, 1980)
    with pytest.raises(DataError, match="only 1 labeled samples"):
        data.enso_source(tmp_path / "one.sstg")


def test_nino34_region_bounds():
    rows, cols = data.nino34_region()
    np.testing.assert_array_equal(data.LAT_CENTERS[rows], [-4, -2, 0, 2, 4])
    assert data.LON_CENTERS[cols][0] == 190.0
    assert data.LON_CENTERS[cols][-1] == 240.0
    assert len(cols) == 26


def scanned_index(container):
    return data.nino34_index(container, data.scan(container)[2])


def test_nino34_index_unit_reference_std_and_scale_invariance(tmp_path):
    rng = np.random.default_rng(11)
    fields = seasonal_fields(32, signal=rng.normal(size=32 * 12))
    index = scanned_index(container_of(tmp_path / "x.sstg", fields))
    ref = slice(0, 30 * 12)
    assert abs(float(index[ref].std()) - 1.0) <= 1e-9
    tripled = scanned_index(container_of(tmp_path / "tripled.sstg", 3.0 * fields))
    np.testing.assert_allclose(tripled, index, rtol=1e-9)


def test_nino34_index_degenerate_reference(tmp_path):
    flat = container_of(tmp_path / "x.sstg", np.zeros((30 * 12, data.GRID_N_LAT, data.GRID_N_LON)))
    with pytest.raises(DataError, match="degenerate"):
        scanned_index(flat)


def test_nino34_index_empty_box_month(tmp_path):
    fields = seasonal_fields(31, signal=np.arange(31 * 12, dtype=float))
    rows, cols = data.nino34_region()
    fields[np.ix_([5], rows, cols)] = np.nan
    with pytest.raises(DataError, match="no valid cells in month index 5"):
        scanned_index(container_of(tmp_path / "x.sstg", fields))


def test_label_thresholds():
    assert data.label_for_index(0.5) is ClassLabel.EL_NINO
    assert data.label_for_index(-0.5) is ClassLabel.LA_NINA
    assert data.label_for_index(0.49) is ClassLabel.NEUTRAL
    assert data.label_for_index(-0.49) is ClassLabel.NEUTRAL
    assert data.label_for_index(2.3) is ClassLabel.EL_NINO
    with pytest.raises(DataError):
        data.label_for_index(float("inf"))


def test_build_sample_set_drops_neutral_and_splits_in_order(tmp_path, monkeypatch):
    """`enso_source` keys the non-neutral months in order, and its draw yields each one's
    anomaly clipped to +-5."""
    rng = np.random.default_rng(3)
    signal = rng.normal(size=31 * 12)
    container = container_of(tmp_path / "x.sstg", seasonal_fields(31, signal=signal))
    _, anomalies = climatology_and_anomalies(container, range(10))
    index = np.zeros(31 * 12)
    index[:10] = [1.0, -1.0, 0.0, 0.6, -0.7, 0.2, 0.5, -0.5, 0.49, 3.0]
    monkeypatch.setattr(data, "nino34_index", lambda *args: index)
    sample_set = data.SampleSet(tuple(data.enso_source(container.path).draw()))
    labels = [s.label for s in sample_set.samples]
    assert labels[:7] == [
        ClassLabel.EL_NINO, ClassLabel.LA_NINA, ClassLabel.EL_NINO, ClassLabel.LA_NINA,
        ClassLabel.EL_NINO, ClassLabel.LA_NINA, ClassLabel.EL_NINO,
    ]
    assert len(sample_set.samples) == 7
    assert sample_set.split == ("train",) * 5 + ("val",) * 2
    assert [s.month_id for s in sample_set.samples] == [1200, 1201, 1203, 1204, 1206, 1207, 1209]
    for sample in sample_set.samples:
        np.testing.assert_array_equal(sample.field, np.clip(anomalies[sample.month_id - 1200], -5, 5))


def test_samples_derive_their_label_and_sets_their_split():
    field = np.zeros((3, 4))
    assert data.LabeledSample(field=field, index=-0.7, month_id=0).label is ClassLabel.LA_NINA
    for bad_field, index in ((field, float("nan")), (np.zeros(4), 1.0), (np.full((3, 4), 5.5), 1.0)):
        with pytest.raises(DataError):
            data.LabeledSample(field=bad_field, index=index, month_id=0)
    with pytest.raises(DataError, match="neutral"):
        data.SampleSet(samples=(data.LabeledSample(field=field, index=0.2, month_id=0),))

    samples = tuple(data.LabeledSample(field=field, index=1.0, month_id=i) for i in range(11))
    sample_set = data.SampleSet(samples=samples)
    assert sample_set.n_train == 8
    assert sample_set.train_samples == samples[:8] and sample_set.val_samples == samples[8:]
    assert sample_set.split == ("train",) * 8 + ("val",) * 3


def clip_range_field(*cells):
    """A 3x4 field of zeros with the given values in its first cells."""
    field = np.zeros((3, 4))
    field.flat[: len(cells)] = cells
    return field


ACCEPTED_FIELDS = {
    "zeros": clip_range_field(),
    "at-the-limits": clip_range_field(5.0, -5.0),
    "nan-cells": clip_range_field(np.nan, 4.9, -4.9),
    "inf-cells": clip_range_field(np.inf, -np.inf, 5.0),
    "inf-and-nan": clip_range_field(np.inf, np.nan),
    "all-nan": np.full((3, 4), np.nan),
    "all-inf": np.full((3, 4), -np.inf),
    "no-cells": np.zeros((3, 0)),
}
REJECTED_FIELDS = {
    "above": clip_range_field(5.0 + 1e-12),
    "below": clip_range_field(-5.5),
    "beside-nan": clip_range_field(np.nan, 6.0),
    "beside-inf": clip_range_field(np.inf, -6.0),
    "beside-both": clip_range_field(np.inf, np.nan, -np.inf, 7.0),
}


@pytest.mark.parametrize("field", ACCEPTED_FIELDS.values(), ids=ACCEPTED_FIELDS.keys())
def test_a_sample_skips_non_finite_cells_in_its_clip_range_check(field):
    """The +-5 check looks at the finite cells only; a field with none passes."""
    assert data.LabeledSample(field=field, index=1.0, month_id=0).field is field


@pytest.mark.parametrize("field", REJECTED_FIELDS.values(), ids=REJECTED_FIELDS.keys())
def test_a_sample_with_a_finite_cell_outside_the_clip_range_is_a_data_error(field):
    with pytest.raises(DataError, match="clip range"):
        data.LabeledSample(field=field, index=1.0, month_id=0)


def test_preprocess_field_clips_scales_and_prepends_ones():
    field = np.array([[5.0, -7.0, np.nan, 2.5]])
    out = data.preprocess_field(field)
    np.testing.assert_array_equal(out, [[1.0, 1.0, -1.0, 0.0, 0.5]])
    assert out.shape == (1, 5)


def test_preprocess_field_width():
    sample = data.LabeledSample(field=np.zeros((89, 180)), index=1.0, month_id=0)
    assert data.preprocess_field(sample.field).shape == (89, 181)


def test_preprocess_for_baseline_ignores_invalid_cells():
    mask = np.ones((4, 5), dtype=bool)
    mask[1, 2] = False
    field = np.arange(20, dtype=float).reshape(4, 5) / 10.0
    sample = data.LabeledSample(field=field, index=1.0, month_id=0)
    vector = preprocess_for_baseline(sample, mask)
    assert vector.shape == (19,)
    np.testing.assert_array_equal(vector, np.delete(field.ravel(), 7) / data.CLIP_LIMIT)
    poisoned = field.copy()
    poisoned[1, 2] = 4.9  # valid magnitude, still masked out
    sample2 = data.LabeledSample(field=poisoned, index=1.0, month_id=0)
    np.testing.assert_array_equal(preprocess_for_baseline(sample2, mask), vector)
    with pytest.raises(IndexError):
        preprocess_for_baseline(sample, np.ones((3, 3), dtype=bool))


@pytest.mark.parametrize("masked", [False, True])
def test_baseline_rows_are_preprocess_for_baseline_bit_for_bit(masked):
    rng = np.random.default_rng(4)
    fields = np.clip(rng.normal(0.0, 3.0, size=(7, 6, 9)), -data.CLIP_LIMIT, data.CLIP_LIMIT)
    mask = rng.random((6, 9)) < 0.7 if masked else None
    if masked:
        fields[:, ~mask] = np.nan
    samples = [data.LabeledSample(field=f, index=1.0, month_id=i) for i, f in enumerate(fields)]
    rows = data.BaselineRows(samples, mask)
    want = np.stack([preprocess_for_baseline(s, np.ones((6, 9), bool) if mask is None else mask) for s in samples])
    assert len(rows) == 7 and rows.width == want.shape[1]
    buffer = np.full((4, rows.width), np.nan)
    got = rows.read([5, 0, 3], buffer)
    assert got.shape == (3, rows.width) and np.shares_memory(got, buffer)
    assert got.tobytes() == want[[5, 0, 3]].tobytes()


def test_permute_columns_round_trip_and_errors():
    """A seeded column permutation is reproducible, and `inverse_permute` undoes it on every field.

    The batch that `cli.in_turn` hands a column-permuted encoder is the
    stacked preprocessed permuted fields, bit for bit, NaN cells included;
    the encoder before it reads the fields as drawn.
    """
    sample_set = data.synthesize_task(6, 8, 10, seed=0)
    permutation = data.column_permutation(10, seed=42)
    np.testing.assert_array_equal(permutation, data.column_permutation(10, seed=42))
    np.testing.assert_array_equal(np.sort(permutation), np.arange(10))
    assert not permutation.flags.writeable

    fields = []
    for sample in sample_set.samples:
        field = sample.field.copy()
        field[2, 3] = np.nan
        np.testing.assert_array_equal(data.inverse_permute(field[:, permutation], permutation), field)
        fields.append(field)
    batch = np.stack([data.preprocess_field(field) for field in fields])
    drawn = batch.copy()
    model = reservoir.init_reservoir(reservoir.EsnConfig(n_in=8, n_res=4))
    encoders = [cli.Encoder(model), cli.Encoder(model, permutation)]
    turns = [inputs.copy() for _, inputs in cli.in_turn(encoders, batch)]
    assert turns[0].tobytes() == drawn.tobytes()
    assert turns[1].tobytes() == np.stack([data.preprocess_field(field[:, permutation]) for field in fields]).tobytes()
    with pytest.raises(DataError):
        data.inverse_permute(sample_set.samples[0].field, permutation[:-1])


def test_inverse_permute_handles_maps_vectors_and_bad_shapes():
    permutation = data.column_permutation(9, seed=5)
    scores = np.arange(2 * 9, dtype=float).reshape(2, 9)
    np.testing.assert_array_equal(data.inverse_permute(scores[:, permutation], permutation), scores)

    with pytest.raises(DataError):
        data.inverse_permute(np.arange(9.0), permutation)  # only 2-D fields and maps are restored
    with pytest.raises(DataError):
        data.inverse_permute(np.zeros((2, 4)), permutation)


def test_synthesize_task_validation():
    with pytest.raises(ConfigError):
        data.synthesize_task(10, 7, 20, seed=0)
    with pytest.raises(ConfigError):
        data.synthesize_task(10, 20, 7, seed=0)
    with pytest.raises(ConfigError):
        data.synthesize_task(1, 8, 8, seed=0)


def test_synthesize_task_determinism_and_labels():
    a = data.synthesize_task(12, 10, 16, seed=7)
    b = data.synthesize_task(12, 10, 16, seed=7)
    for s, t in zip(a.samples, b.samples):
        np.testing.assert_array_equal(s.field, t.field)
        assert s.index == t.index
    c = data.synthesize_task(12, 10, 16, seed=8)
    assert not np.array_equal(a.samples[0].field, c.samples[0].field)

    lo, hi = data.BLOB_AMPLITUDE_RANGE
    for i, sample in enumerate(a.samples):
        assert lo <= abs(sample.index) <= hi
        expected_sign = 1.0 if i % 2 == 0 else -1.0
        assert np.sign(sample.index) == expected_sign
        assert sample.label is (ClassLabel.EL_NINO if i % 2 == 0 else ClassLabel.LA_NINA)
        assert sample.month_id == i
    assert a.split == ("train",) * 9 + ("val",) * 3


def per_sample_indices(n, seed):
    """The synthetic task's indices as its definition draws them: one amplitude per sample, signs alternating."""
    amp_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)).spawn(2)[0])
    return [float(amp_rng.uniform(*data.BLOB_AMPLITUDE_RANGE)) * (1.0 if i % 2 == 0 else -1.0) for i in range(n)]


def key_bytes(keys):
    """Each key's index, as its bytes, and month id."""
    return [(np.float64(k.index).tobytes(), k.month_id) for k in keys]


@pytest.mark.parametrize(
    "task", [(n, seed) for n in (2, 20, 24, 300) for seed in (0, 3)] + [None],
    ids=lambda task: "container" if task is None else "n{}-seed{}".format(*task),
)
def test_a_source_knows_the_keys_and_draws_the_fields_of_a_full_draw(tmp_path, task):
    """A source's keys are, bit for bit, the (index, month_id) of a full draw of its samples, and a
    draw of some positions yields, byte for byte, the fields that the full draw gives at them.

    On --synthetic (8x12 fields) the keys come from one draw of all the
    amplitudes, which must give the per-sample draws that define the task;
    on the 384-month container they come from the Nino-3.4 index scan.
    """
    if task is None:
        write_enso_container(tmp_path / "sst.sstg")
        source = data.enso_source(tmp_path / "sst.sstg")
        assert source.shape == (data.GRID_N_LAT, data.GRID_N_LON)
    else:
        source = data.synthetic_source(task[0], 8, 12, seed=task[1])
        assert source.shape == (8, 12) and source.valid_mask is None
        assert key_bytes(source.keys.samples) == key_bytes(
            data.SampleKey(index, i) for i, index in enumerate(per_sample_indices(*task))
        )
    n = len(source.keys.samples)
    positions = sorted({1, n // 2, n - 1})
    full, fields = [], {}
    for i, sample in enumerate(source.draw()):
        full.append(data.SampleKey(sample.index, sample.month_id))
        if i in positions:
            fields[i] = sample.field.tobytes()
    assert key_bytes(source.keys.samples) == key_bytes(full)
    drawn = list(source.draw(positions))
    assert key_bytes(drawn) == key_bytes(full[p] for p in positions)
    assert [s.field.tobytes() for s in drawn] == [fields[p] for p in positions]


@pytest.mark.parametrize("shape", [(8, 8), (8, 200), (16, 96), (89, 180)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_smoothed_noise_matches_scipy_bit_for_bit(shape):
    """8x8 is the smallest synthetic grid: radius 6 reaches almost across it.

    The second field checks that reusing the buffers leaves nothing behind.
    """
    gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter
    sigma = data.NOISE_SMOOTHING_SIGMA
    noises = data._smoothed_noise(np.random.default_rng(shape[0] * shape[1]), shape, range(2))
    draws = np.random.default_rng(shape[0] * shape[1])
    for _ in range(2):
        np.testing.assert_array_equal(next(noises), gaussian_filter(draws.standard_normal(shape), sigma=sigma))


def test_synthesize_task_averaged_signal_peaks_in_the_blob_box():
    """Dividing by the index turns every sample into the blob plus noise; averaging cancels the noise."""
    task = data.synthesize_task(64, 12, 20, seed=3)
    signal = np.mean([s.field / s.index for s in task.samples], axis=0)
    r0, r1, c0, c1 = data.synthetic_blob_box(12, 20)
    peak = np.unravel_index(np.argmax(signal), signal.shape)
    assert r0 <= peak[0] <= r1 and c0 <= peak[1] <= c1


def test_synthetic_blob_box_known_geometry():
    r0, r1, c0, c1 = data.synthetic_blob_box(16, 96)
    assert (r0, r1, c0, c1) == (6, 9, 5, 33)
    d, t = 8, 8
    r0, r1, c0, c1 = data.synthetic_blob_box(d, t)
    assert 0 <= r0 <= r1 < d and 0 <= c0 <= c1 < t


def test_box_mass_ratio():
    scores = np.zeros((10, 10))
    scores[2:4, 2:4] = 1.0
    ratio = data.box_mass_ratio(scores, (2, 3, 2, 3))
    assert ratio == pytest.approx(100 / 4)
    assert data.box_mass_ratio(np.ones((10, 10)), (0, 4, 0, 4)) == pytest.approx(1.0)
    assert data.box_mass_ratio(np.zeros((4, 4)), (0, 1, 0, 1)) == 0.0


def test_write_sample_index_csv(tmp_path):
    task = data.synthesize_task(4, 8, 8, seed=2)
    path = tmp_path / "samples.csv"
    data.write_sample_index_csv(path, task)
    lines = path.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == "month_id,index,label,split"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "elnino"
    assert first[3] == "train"


def enso_like_fields(n_years=32, start_year=1980):
    """A full-size container whose Nino-3.4 story is known in advance.

    Reference years alternate +a / -a inside the box (zero monthly means,
    reference std exactly a), the two post-reference years are one neutral
    and one warm year.
    """
    n_months = 12 * n_years
    rng = np.random.default_rng(99)
    cycle = rng.normal(size=(12, data.GRID_N_LAT, data.GRID_N_LON)).astype(np.float32)
    fields = cycle[np.arange(n_months) % 12].astype(float)

    amplitude = 2.0
    box_signal = np.zeros(n_months)
    for year in range(30):
        box_signal[year * 12 : (year + 1) * 12] = amplitude if year % 2 == 0 else -amplitude
    box_signal[30 * 12 : 31 * 12] = 0.1 * amplitude  # neutral year
    box_signal[31 * 12 :] = 2.0 * amplitude  # strongly warm year

    rows, cols = data.nino34_region()
    fields[np.ix_(np.arange(n_months), rows, cols)] += box_signal[:, None, None]
    return fields, box_signal / amplitude


def test_full_pipeline_on_constructed_container(tmp_path):
    fields, expected_index = enso_like_fields()
    path = tmp_path / "mini.sstg"
    data.write_sst(path, fields, start_year=1980)
    container = data.open_sst(path)
    _, valid_mask, box_means = data.scan(container)
    index = data.nino34_index(container, box_means)
    np.testing.assert_allclose(index, expected_index, atol=1e-5)
    sample_set, source_mask = enso_sample_set(path)

    # 30 labeled reference years plus the final warm year; the neutral year drops out
    assert len(sample_set.samples) == 31 * 12
    warm = [s for s in sample_set.samples if s.label is ClassLabel.EL_NINO]
    cold = [s for s in sample_set.samples if s.label is ClassLabel.LA_NINA]
    assert len(warm) == 16 * 12
    assert len(cold) == 15 * 12
    n_train = int(data.TRAIN_FRACTION * len(sample_set.samples))
    assert len(sample_set.train_samples) == n_train
    assert len(sample_set.val_samples) == len(sample_set.samples) - n_train
    assert valid_mask.all() and source_mask.all()
