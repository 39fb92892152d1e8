import gc
import io
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esnlrp import blas, lrp
from esnlrp.errors import ConfigError
from esnlrp.lrp import (
    RelevanceMap,
    RunningMean,
    column_center_of_gravity,
    relevance_first_column,
    relevance_map,
    relevance_output_layer,
    relevance_step_back,
    write_heatmap_pgm,
    write_matrix_csv,
)
from esnlrp import cli, data
from esnlrp.readout import ClassLabel, fit_readout
from esnlrp.reservoir import EsnConfig, final_states, init_reservoir, run_reservoir

from helpers import alive, assemble_model, random_model, random_sample, track_generated_samples, write_enso_container
from oracle_lrp import oracle_relevance
from reference_lrp import reference_relevance


def test_output_layer_equal_positive_contributions():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, 1.0], b_out=[0.0],
    )
    r_state, absorbed, _ = relevance_output_layer(model, np.array([[0.3, 0.7]]))
    np.testing.assert_allclose(r_state[0], [0.3, 0.7], atol=1e-15)
    assert absorbed[0] == 0.0


def test_output_layer_negative_contribution_gets_nothing():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, -1.0], b_out=[0.25],
    )
    r_state, absorbed, _ = relevance_output_layer(model, np.array([[0.5, 0.5]]))
    # y(T) = 0.5 - 0.5 + 0.25; the single positive contribution takes all of it
    np.testing.assert_allclose(r_state[0], [0.25, 0.0], atol=1e-15)
    assert absorbed[0] == 0.0


def test_output_layer_zero_state_absorbs_everything():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, 1.0], b_out=[0.4],
    )
    r_state, absorbed, total = relevance_output_layer(model, np.array([[0.0, 0.0]]))
    np.testing.assert_array_equal(r_state[0], [0.0, 0.0])
    assert absorbed[0] == 0.4
    assert total.shape == (1,) and total[0] == 0.4


def test_output_layer_requires_training_and_single_output():
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, 2, alpha=0.5)
    untrained = assemble_model(
        w_in=model.w_in, b_in=model.b_in, w_res=model.w_res, b_res=model.b_res, alpha=0.5
    )
    states = run_reservoir(model, random_sample(rng, 2, 3)[None])
    with pytest.raises(ConfigError):
        relevance_output_layer(untrained, states[-1])
    with pytest.raises(ConfigError):
        untrained.with_readout(np.ones((2, 3)), np.zeros(2))


def test_step_back_two_stage_hand_example():
    """N=1, D=1, alpha=0.5: stage-1 shares (0.2, 0.4)/0.6, stage 2 all to input."""
    model = assemble_model(
        w_in=[[1.0]], b_in=[0.0], w_res=[[0.0]], b_res=[0.0],
        alpha=0.5, w_out=[[1.0]], b_out=[0.0],
    )
    r_input, r_prev, absorbed = relevance_step_back(
        model, np.array([[0.4]]), np.array([[0.6]]), np.array([[1.0]]), np.array([[1.0]]),
        lrp.sign_split(model.w_in, model.w_res),
    )
    np.testing.assert_allclose(r_input[0], [0.4 / 0.6], rtol=1e-14)
    np.testing.assert_allclose(r_prev[0], [0.2 / 0.6], rtol=1e-14)
    assert absorbed[0] == 0.0


def test_step_back_full_leak_skips_leak_path():
    rng = np.random.default_rng(11)
    model = random_model(rng, 4, 3, alpha=1.0)
    model = assemble_model(
        w_in=model.w_in, b_in=model.b_in, w_res=np.zeros((4, 4)), b_res=model.b_res,
        alpha=1.0, w_out=model.w_out, b_out=model.b_out,
    )
    batch = random_sample(rng, 3, 5)[None]
    states = run_reservoir(model, batch)
    r_input, r_prev, absorbed = relevance_step_back(
        model, states[2], states[3], batch[:, :, 3], np.abs(rng.normal(size=4))[None],
        lrp.sign_split(model.w_in, model.w_res),
    )
    np.testing.assert_array_equal(r_prev[0], np.zeros(4))


def test_step_back_conserves_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_model(rng, 5, 3, alpha=float(rng.uniform(0.05, 1.0)))
        batch = random_sample(rng, 3, 6)[None]
        states = run_reservoir(model, batch)
        r_state = rng.normal(size=5)
        t = int(rng.integers(2, 7))
        r_input, r_prev, absorbed = relevance_step_back(
            model, states[t - 2], states[t - 1], batch[:, :, t - 1], r_state[None],
            lrp.sign_split(model.w_in, model.w_res),
        )
        together = r_input.sum() + r_prev.sum() + absorbed[0]
        assert abs(together - r_state.sum()) <= 1e-12 * max(1.0, abs(r_state.sum()))


def test_first_column_redistributes_or_absorbs():
    model = assemble_model(
        w_in=[[1.0, -2.0], [0.5, 0.5]], b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[[1.0, 1.0]], b_out=[0.0],
    )
    u_first = np.array([[1.0, 1.0]])
    dummy, absorbed = relevance_first_column(model, u_first, np.array([[1.0, 1.0]]))
    # unit 0: z = (1, 0) -> all to input 0; unit 1: z = (0.5, 0.5) -> half each
    np.testing.assert_allclose(dummy[0], [1.5, 0.5], rtol=1e-14)
    assert absorbed[0] == 0.0
    negated = assemble_model(
        w_in=-model.w_in, b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[[1.0, 1.0]], b_out=[0.0],
    )
    dummy, absorbed = relevance_first_column(negated, u_first, np.array([[0.25, 0.5]]))
    # unit 0 keeps one positive product (-1*1 < 0, +2*1 > 0); unit 1 is all-negative
    np.testing.assert_allclose(dummy[0], [0.0, 0.25], rtol=1e-14)
    assert absorbed[0] == 0.5


def test_map_matches_path_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for draw in range(60):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(1, 4))
        alpha = float(rng.choice([0.0, 0.3, 0.5, 1.0, rng.uniform()]))
        model = random_model(rng, n, d, alpha)
        sample = random_sample(rng, d, t)
        rmap = relevance_map(model, sample[None])[0]
        scores, dummy, absorbed, total = oracle_relevance(
            model.w_in.tolist(), model.b_in.tolist(), model.w_res.tolist(),
            model.b_res.tolist(), model.w_out[0].tolist(), float(model.b_out[0]),
            alpha, sample.tolist(),
        )
        np.testing.assert_allclose(rmap.scores, scores, atol=1e-10)
        np.testing.assert_allclose(rmap.dummy_scores, dummy, atol=1e-10)
        assert abs(rmap.absorbed - absorbed) <= 1e-10
        assert abs(rmap.total - total) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    t=st.integers(1, 5),
    batch=st.integers(1, 3),
    alpha=st.one_of(st.sampled_from([0.0, 0.01, 1.0]), st.floats(0.0, 1.0)),
    epsilon=st.sampled_from([1e-12, 1e-3, 0.5]),
    zero_sample=st.one_of(st.none(), st.integers(0, 2)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, d=2, t=1, batch=2, alpha=0.01, epsilon=1e-12, zero_sample=0, seed=0)
@example(n=4, d=3, t=5, batch=3, alpha=0.01, epsilon=0.5, zero_sample=None, seed=1)
@example(n=4, d=3, t=5, batch=3, alpha=1.0, epsilon=1e-3, zero_sample=2, seed=2)
@example(n=4, d=3, t=5, batch=2, alpha=0.0, epsilon=1e-12, zero_sample=None, seed=3)
def test_edge_case_maps_match_the_oracle(n, d, t, batch, alpha, epsilon, zero_sample, seed):
    """Every map of a batch matches the path oracle within 1e-10 at the edges.

    The leak rate runs over its ends, the production value and a uniform
    draw; T = 1 leaves only the dummy column; an all-zero sample (dummy
    column too) absorbs everything that reaches its first column; and at
    epsilon = 0.5 most relevance is absorbed; the library reads epsilon
    from `lrp.EPSILON`, patched here. The library takes the
    activation share as x(t) - (1 - alpha) x(t-1), the oracle as
    alpha * act(t), so this is also where the two must agree.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, d, alpha)
    samples = np.stack([random_sample(rng, d, t) for _ in range(batch)])
    if zero_sample is not None:
        samples[zero_sample % batch] = 0.0
    with mock.patch.object(lrp, "EPSILON", epsilon):
        maps = relevance_map(model, samples)
    for sample, rmap in zip(samples, maps):
        scores, dummy, absorbed, total = oracle_relevance(
            model.w_in.tolist(), model.b_in.tolist(), model.w_res.tolist(),
            model.b_res.tolist(), model.w_out[0].tolist(), float(model.b_out[0]),
            alpha, sample.tolist(), epsilon=epsilon,
        )
        np.testing.assert_allclose(rmap.scores, np.reshape(scores, (d, t - 1)), rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(rmap.dummy_scores, dummy, rtol=0.0, atol=1e-10)
        assert abs(rmap.absorbed - absorbed) <= 1e-10
        assert abs(rmap.total - total) <= 1e-10
        assert rmap.conserved()


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 4),
    t=st.integers(1, 8),
    alpha=st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_map_conserves_total(n, d, t, alpha, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, d, alpha)
    rmap = relevance_map(model, random_sample(rng, d, t)[None])[0]
    assert rmap.conserved()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 4),
    t=st.integers(1, 6),
    batch=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    zero_sample=st.one_of(st.none(), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, d=2, t=1, batch=3, alpha=0.0, zero_sample=1, seed=0)
@example(n=3, d=2, t=1, batch=2, alpha=1.0, zero_sample=None, seed=1)
@example(n=4, d=3, t=5, batch=6, alpha=1.0, zero_sample=5, seed=2)
@example(n=4, d=3, t=5, batch=4, alpha=0.0, zero_sample=0, seed=3)
def test_batched_maps_match_single_sample_maps(n, d, t, batch, alpha, zero_sample, seed):
    """Each map of a batch is that sample's own map, absorbed relevance included.

    An all-zero sample (dummy column too) absorbs its whole first-column
    share while its neighbours absorb little, so pooled booking would show.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, d, alpha)
    samples = np.stack([random_sample(rng, d, t) for _ in range(batch)])
    if zero_sample is not None:
        samples[zero_sample % batch] = 0.0
    maps = relevance_map(model, samples)
    assert len(maps) == batch
    for sample, rmap in zip(samples, maps):
        single = relevance_map(model, sample[None])[0]
        tol = 1e-12 * max(1.0, abs(single.total))
        assert rmap.scores.shape == single.scores.shape == (d, t - 1)
        np.testing.assert_allclose(rmap.scores, single.scores, rtol=0.0, atol=tol)
        np.testing.assert_allclose(rmap.dummy_scores, single.dummy_scores, rtol=0.0, atol=tol)
        assert abs(rmap.absorbed - single.absorbed) <= tol
        assert abs(rmap.total - single.total) <= tol
        assert rmap.conserved()


def test_a_map_keeps_no_other_map_of_its_batch_alive():
    """A consumer holding one map must not pin its whole batch's scores.

    The buffer behind each map's scores (the root of its `.base` chain)
    shares no memory with any other map of the batch.
    """
    rng = np.random.default_rng(21)
    model = random_model(rng, 4, 3, alpha=0.5)
    samples = np.stack([random_sample(rng, 3, 6) for _ in range(3)])
    maps = relevance_map(model, samples)
    for a in maps:
        owner = a.scores
        while owner.base is not None:
            owner = owner.base
        assert a.scores.flags.c_contiguous
        for b in maps:
            if b is not a:
                assert not np.shares_memory(owner, b.scores)


@pytest.mark.parametrize("source", ["synthetic", "data"])
def test_relevance_keeps_only_the_samples_it_maps_alive(tmp_path, monkeypatch, source):
    """From the first map on, `relevance` holds at most one batch of samples, all of them mapped.

    The samples stream from their generator (`data.synthetic_samples`, or
    `data.enso_samples` reading the container), three to a batch here, and
    the stream builds only the El Nino samples of the train split: 8 of the
    16 synthetic train samples, and those of the container's first 297.
    """
    if source == "synthetic":
        inputs, shape, generator = ["--synthetic", "8,12,20"], (8, 12), "synthetic_samples"
    else:
        write_enso_container(tmp_path / "sst.sstg")
        inputs, shape, generator = ["--data", str(tmp_path / "sst.sstg")], (89, 180), "enso_samples"
    out = tmp_path / "out"
    common = [*inputs, "--n-res", "20", "--ridge", "1e-8", "--out", str(out)]
    assert cli.main(["train", *common]) == 0

    refs = track_generated_samples(monkeypatch, generator)
    # a map batch costs the larger of its inputs and its trajectory of 20 units, 8 bytes a float,
    # per step: one step per column and one for the ones column
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 3 * max(shape[0], 20) * 8 * (shape[1] + 1))
    seen = []

    def first_map_checked(model, batch):
        if not seen:
            tracked = sorted(ref().month_id for ref, live in zip(refs, alive(refs)) if live)
            samples = [o for o in gc.get_objects() if isinstance(o, data.LabeledSample) and o.field.shape == shape]
            seen.append((tracked, sorted(s.month_id for s in samples), len(batch)))
        return relevance_map(model, batch)

    monkeypatch.setattr(lrp, "relevance_map", first_map_checked)
    assert cli.main(["relevance", "--class", "elnino", *common]) == 0
    audit = (out / "relevance_audit.csv").read_text(encoding="ascii").splitlines()[1:]
    mapped = [int(line.split(",")[1]) for line in audit]
    [(tracked, held, batch)] = seen
    keys = cli.sample_source(cli.build_config(cli.build_parser().parse_args(["relevance", *common]))).keys
    assert mapped == [k.month_id for k in keys.train_samples if k.label is ClassLabel.EL_NINO]
    assert len(refs) == len(mapped)
    if source == "synthetic":
        # the even samples are El Nino; each generated sample's month id is its draw index
        assert mapped == list(range(0, 16, 2))
    assert batch == 3 and held == tracked
    assert set(held) <= set(mapped[:batch])


@pytest.fixture(scope="module")
def paper_shape_batch():
    """A 300-unit reservoir fitted on 28 synthetic 89x180 samples, and 4 inputs to map.

    The third input has its column 40 zeroed, so that step crosses W_in on
    nothing but zero contributions.
    """
    sample_set = data.synthesize_task(35, 89, 180, seed=1)
    inputs = np.stack([data.preprocess_field(s.field) for s in sample_set.samples])
    model = init_reservoir(EsnConfig(n_in=89, seed=1))
    n_train = len(sample_set.train_samples)
    targets = np.array([s.index for s in sample_set.train_samples])
    solution = fit_readout(final_states(model, inputs[:n_train]), targets, ridge=1e-8)
    batch = inputs[[0, 1, 30, 33]].copy()
    batch[2, :, 40] = 0.0
    return model.with_readout(solution.w_out, solution.b_out), batch


@pytest.mark.parametrize("epsilon", [1e-12, 0.05])
def test_maps_match_the_reference_at_paper_shape(paper_shape_batch, epsilon, monkeypatch):
    """Batched maps at 89x180 with 300 units agree with the one-sample z+ reference.

    Scores and dummy scores agree within 1e-12 of their peak, absorbed and
    total within 1e-12 of the total. Most of each output is absorbed at
    this shape (69-74% at epsilon 1e-12, 88-91% at 0.05, where nothing
    reaches the dummy column), so the absorbed ledger carries weight here.
    The library reads epsilon from `lrp.EPSILON`, patched here.
    """
    model, batch = paper_shape_batch
    monkeypatch.setattr(lrp, "EPSILON", epsilon)
    maps = relevance_map(model, batch)
    for sample, rmap in zip(batch, maps):
        scores, dummy, absorbed, total = reference_relevance(model, sample, epsilon)
        tol = 1e-12 * abs(total)
        assert np.max(np.abs(rmap.scores - scores)) <= 1e-12 * np.max(np.abs(scores))
        assert np.max(np.abs(rmap.dummy_scores - dummy)) <= 1e-12 * np.max(np.abs(dummy))
        assert abs(rmap.absorbed - absorbed) <= tol
        assert abs(rmap.total - total) <= tol
        assert rmap.conserved()


@pytest.mark.skipif(blas.openblas() is None, reason="without a thread-count setter no helper thread is started")
@pytest.mark.parametrize("slowed", [None, "_factors", "_step_back"])
def test_helper_thread_maps_do_not_depend_on_how_the_threads_interleave(monkeypatch, slowed):
    """A 150-unit pass computes its z+ factors on a helper thread. Its maps are the same bits however
    the two threads interleave: at a switch interval of 1 us, which hands the interpreter between
    them as often as it can, and with one side slowed by a 1 ms sleep in each of its calls, so that
    the helper runs as far ahead as its two slots let it, or the calling thread waits for each
    block. They agree with the maps of one-step factors on the calling thread within 1e-12 of their
    peak."""
    rng = np.random.default_rng(5)
    model = random_model(rng, blas.THREADED_MIN_UNITS, 6, alpha=0.3, scale=0.1)
    samples = np.stack([random_sample(rng, 6, 40) for _ in range(8)])
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
    reference = relevance_map(model, samples)
    if slowed is not None:
        fn = getattr(lrp, slowed)
        monkeypatch.setattr(lrp, slowed, lambda *args: (time.sleep(1e-3), fn(*args))[1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        interleaved = relevance_map(model, samples)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(blas, "openblas", lambda: None)
    inline = relevance_map(model, samples)
    assert len(started) == 2
    for a, b, c in zip(reference, interleaved, inline):
        assert a.scores.tobytes() == b.scores.tobytes()
        assert (a.dummy_scores.tobytes(), a.absorbed, a.total) == (b.dummy_scores.tobytes(), b.absorbed, b.total)
        peak = np.max(np.abs(a.scores))
        assert peak > 0.0
        assert np.max(np.abs(a.scores - c.scores)) <= 1e-12 * peak
        assert abs(a.absorbed - c.absorbed) <= 1e-12 * max(1.0, abs(a.total))
        assert a.conserved()


def test_map_sign_follows_output():
    rng = np.random.default_rng(42)
    for _ in range(10):
        model = random_model(rng, 4, 3, alpha=0.4)
        rmap = relevance_map(model, random_sample(rng, 3, 5)[None])[0]
        if rmap.total == 0.0:
            continue
        sign = np.sign(rmap.total)
        assert np.all(rmap.scores * sign >= 0.0)
        assert np.all(rmap.dummy_scores * sign >= 0.0)


def test_map_full_leak_no_recurrence_all_on_final_column():
    rng = np.random.default_rng(9)
    model = assemble_model(
        w_in=rng.uniform(-1, 1, size=(5, 3)), b_in=rng.uniform(-1, 1, size=5),
        w_res=np.zeros((5, 5)), b_res=rng.uniform(-1, 1, size=5),
        alpha=1.0, w_out=rng.uniform(0, 1, size=(1, 5)), b_out=[0.1],
    )
    rmap = relevance_map(model, random_sample(rng, 3, 7)[None])[0]
    np.testing.assert_array_equal(rmap.scores[:, :-1], np.zeros((3, 5)))
    np.testing.assert_array_equal(rmap.dummy_scores, np.zeros(3))
    assert abs(rmap.scores[:, -1].sum() + rmap.absorbed - rmap.total) <= 1e-12 * max(
        1.0, abs(rmap.total)
    )


def mean_of(maps):
    """The normalized `RunningMean` of `maps`, added in order."""
    running = RunningMean()
    for rmap in maps:
        running.add(rmap)
    return running.normalized()


def test_running_mean_single_map_normalizes_to_unit_peak():
    scores = np.array([[2.0, -4.0], [1.0, 0.0]])
    rmap = RelevanceMap(scores=scores, dummy_scores=np.zeros(2), absorbed=0.0, total=1.0)
    mean = mean_of([rmap])
    np.testing.assert_allclose(mean, scores / 4.0, rtol=1e-15)
    assert np.max(np.abs(mean)) == 1.0


def test_running_mean_cancellation_yields_zeros():
    scores = np.array([[1.0, -2.0]])
    maps = [
        RelevanceMap(scores=scores, dummy_scores=np.zeros(1), absorbed=0.0, total=1.0),
        RelevanceMap(scores=-scores, dummy_scores=np.zeros(1), absorbed=0.0, total=-1.0),
    ]
    np.testing.assert_array_equal(mean_of(maps), np.zeros((1, 2)))


def test_running_mean_rejects_empty_and_mixed_shapes():
    a = RelevanceMap(scores=np.zeros((2, 2)), dummy_scores=np.zeros(2), absorbed=0.0, total=0.0)
    b = RelevanceMap(scores=np.zeros((2, 3)), dummy_scores=np.zeros(2), absorbed=0.0, total=0.0)
    for wrap in (list, iter):
        with pytest.raises(ConfigError, match="at least one map"):
            mean_of(wrap([]))
        with pytest.raises(ConfigError, match="mixed shapes"):
            mean_of(wrap([a, b]))


def test_running_mean_streams_from_a_generator():
    rng = np.random.default_rng(12)
    maps = [
        RelevanceMap(scores=rng.normal(size=(3, 5)), dummy_scores=np.zeros(3), absorbed=0.0, total=1.0)
        for _ in range(7)
    ]
    streamed = mean_of(m for m in maps)
    np.testing.assert_array_equal(streamed, mean_of(maps))
    # the running sum adds in stack order, as the mean over stacked maps does
    stacked = np.mean([m.scores for m in maps], axis=0)
    np.testing.assert_array_equal(streamed, stacked / np.max(np.abs(stacked)))


def test_center_of_gravity():
    concentrated = np.zeros((2, 6))
    concentrated[:, 3] = 5.0
    assert column_center_of_gravity(concentrated) == 3.0
    assert column_center_of_gravity(np.ones((3, 5))) == 2.0
    assert column_center_of_gravity(np.zeros((2, 4))) == 0.0
    signed = np.array([[1.0, -1.0]])
    assert column_center_of_gravity(signed) == 0.5


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(4, 7)) * 10.0 ** rng.integers(-6, 6, size=(4, 7))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    np.testing.assert_allclose(back, matrix, rtol=1e-8)
    text = path.read_text(encoding="ascii")
    assert len(text.strip().splitlines()) == 4
    with pytest.raises(ValueError, match="expected a 1-D or 2-D matrix, got 3-D"):
        write_matrix_csv(path, np.zeros((2, 3, 4)))


def savetxt_bytes(matrix):
    buffer = io.BytesIO()
    np.savetxt(buffer, np.atleast_2d(matrix), fmt="%.9g", delimiter=",")
    return buffer.getvalue()


def written_bytes(path, matrix):
    write_matrix_csv(path, matrix)
    return path.read_bytes()


def from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def near_tie(digits, exponent, ulps):
    """A 9-digit decimal with a 5 in the tenth digit, moved by -1, 0 or +1 ulp."""
    value = float(f"{digits}5e{exponent}")
    return float(np.nextafter(value, np.sign(ulps) * np.inf)) if ulps else value


NEAR_TIES = st.builds(
    near_tie, st.integers(10**8, 10**9 - 1), st.integers(-80, 80), st.sampled_from([-1, 0, 1])
)
CSV_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),
    st.floats(),
    st.floats(-1e3, 1e3),
    st.integers(-(10**12), 10**12).map(lambda n: n * 10.0 ** -6),
    NEAR_TIES,
)
CSV_SHAPES = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), st.tuples(st.integers(0, 8))
)
SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan,
    9.9999999995e-5, 999999999.5, 1e-4, 1e-5, 123456789.0, 1e16,
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=arrays(np.float64, CSV_SHAPES, elements=CSV_VALUES))
@example(matrix=np.array(SPECIAL_VALUES))
@example(matrix=np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1]]))
@example(matrix=np.zeros((3, 0)))
@example(matrix=np.zeros((0, 3)))
@example(matrix=np.array([[-2.5]]))
@example(matrix=np.array([99999999.97, 9.99999999996e-5, -0.000123, 7.0, 1e-98, 9.9e97]))
def test_matrix_csv_bytes_match_savetxt(tmp_path, matrix):
    assert written_bytes(tmp_path / "m.csv", matrix) == savetxt_bytes(matrix)


def test_matrix_csv_special_values(tmp_path):
    assert written_bytes(tmp_path / "m.csv", np.array(SPECIAL_VALUES)) == (
        b"0,-0,4.94065646e-324,1e+308,inf,-inf,nan,0.0001,1e+09,0.0001,1e-05,123456789,1e+16\n"
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ties=st.lists(NEAR_TIES, min_size=1, max_size=6), other=st.floats(-1e3, 1e3))
def test_matrix_csv_near_ties_are_formatted_by_python(tmp_path, ties, other):
    matrix = np.array([[other] * len(ties), ties, [other] * len(ties)])
    _, hard = lrp._csv_records(matrix.ravel())
    assert hard.reshape(matrix.shape)[1].all()
    assert written_bytes(tmp_path / "m.csv", matrix) == savetxt_bytes(matrix)


def test_heatmap_pgm_pixels(tmp_path):
    path = tmp_path / "m.pgm"
    write_heatmap_pgm(path, np.array([[-1.0, 0.0, 1.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 1\n255\n")
    assert list(raw[len(b"P5\n3 1\n255\n"):]) == [0, 128, 255]
    write_heatmap_pgm(path, np.zeros((2, 2)))
    assert list(path.read_bytes()[-4:]) == [128, 128, 128, 128]
