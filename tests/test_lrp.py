import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esnlrp import lrp
from esnlrp.errors import ConfigError
from esnlrp.lrp import (
    LrpConfig,
    RelevanceMap,
    column_center_of_gravity,
    mean_relevance,
    relevance_first_column,
    relevance_map,
    relevance_output_layer,
    relevance_step_back,
    write_heatmap_pgm,
    write_matrix_csv,
)
from esnlrp.reservoir import StateTrajectory, run_reservoir

from helpers import assemble_model, random_model, random_sample
from oracle_lrp import oracle_relevance


def final_state_trajectory(x_final, n_inputs=1):
    """One-sample trajectory stub for output-layer tests; only final_state is consulted."""
    x_final = np.asarray(x_final, dtype=float)
    return StateTrajectory(
        states=x_final[None, None, :],
        inputs=np.ones((1, n_inputs, 1)),
    )


def test_lrp_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        LrpConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        LrpConfig(epsilon=-1e-9)
    with pytest.raises(ConfigError):
        LrpConfig(epsilon=float("inf"))


def test_output_layer_equal_positive_contributions():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, 1.0], b_out=[0.0],
    )
    r_state, absorbed = relevance_output_layer(model, final_state_trajectory([0.3, 0.7]))
    np.testing.assert_allclose(r_state[0], [0.3, 0.7], atol=1e-15)
    assert absorbed[0] == 0.0


def test_output_layer_negative_contribution_gets_nothing():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, -1.0], b_out=[0.25],
    )
    r_state, absorbed = relevance_output_layer(model, final_state_trajectory([0.5, 0.5]))
    # y(T) = 0.5 - 0.5 + 0.25; the single positive contribution takes all of it
    np.testing.assert_allclose(r_state[0], [0.25, 0.0], atol=1e-15)
    assert absorbed[0] == 0.0


def test_output_layer_zero_state_absorbs_everything():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[1.0, 1.0], b_out=[0.4],
    )
    r_state, absorbed = relevance_output_layer(model, final_state_trajectory([0.0, 0.0]))
    np.testing.assert_array_equal(r_state[0], [0.0, 0.0])
    assert absorbed[0] == 0.4


def test_output_layer_requires_training_and_single_output():
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, 2, alpha=0.5)
    untrained = assemble_model(
        w_in=model.w_in, b_in=model.b_in, w_res=model.w_res, b_res=model.b_res, alpha=0.5
    )
    traj = run_reservoir(model, random_sample(rng, 2, 3)[None])
    with pytest.raises(ConfigError):
        relevance_output_layer(untrained, traj)
    two_outputs = untrained.with_readout(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ConfigError):
        relevance_output_layer(two_outputs, traj)


def test_step_back_two_stage_hand_example():
    """N=1, D=1, alpha=0.5: stage-1 shares (0.2, 0.4)/0.6, stage 2 all to input."""
    model = assemble_model(
        w_in=[[1.0]], b_in=[0.0], w_res=[[0.0]], b_res=[0.0],
        alpha=0.5, w_out=[[1.0]], b_out=[0.0],
    )
    traj = StateTrajectory(
        states=np.array([[[0.4]], [[0.6]]]),
        inputs=np.array([[[1.0, 1.0]]]),
    )
    r_input, r_prev, absorbed = relevance_step_back(model, traj, 2, np.array([[1.0]]))
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
    traj = run_reservoir(model, random_sample(rng, 3, 5)[None])
    r_input, r_prev, absorbed = relevance_step_back(model, traj, 4, np.abs(rng.normal(size=4))[None])
    np.testing.assert_array_equal(r_prev[0], np.zeros(4))


def test_step_back_conserves_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_model(rng, 5, 3, alpha=float(rng.uniform(0.05, 1.0)))
        traj = run_reservoir(model, random_sample(rng, 3, 6)[None])
        r_state = rng.normal(size=5)
        t = int(rng.integers(2, 7))
        r_input, r_prev, absorbed = relevance_step_back(model, traj, t, r_state[None])
        together = r_input.sum() + r_prev.sum() + absorbed[0]
        assert abs(together - r_state.sum()) <= 1e-12 * max(1.0, abs(r_state.sum()))


def test_step_back_rejects_out_of_range_t():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 2, alpha=0.5)
    traj = run_reservoir(model, random_sample(rng, 2, 3)[None])
    for t in (0, 1, 4):
        with pytest.raises(ConfigError):
            relevance_step_back(model, traj, t, np.zeros((1, 2)))


def test_first_column_redistributes_or_absorbs():
    model = assemble_model(
        w_in=[[1.0, -2.0], [0.5, 0.5]], b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[[1.0, 1.0]], b_out=[0.0],
    )
    traj = StateTrajectory(
        states=np.zeros((1, 1, 2)), inputs=np.array([[[1.0], [1.0]]])
    )
    dummy, absorbed = relevance_first_column(model, traj, np.array([[1.0, 1.0]]))
    # unit 0: z = (1, 0) -> all to input 0; unit 1: z = (0.5, 0.5) -> half each
    np.testing.assert_allclose(dummy[0], [1.5, 0.5], rtol=1e-14)
    assert absorbed[0] == 0.0
    negated = assemble_model(
        w_in=-model.w_in, b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0],
        alpha=0.5, w_out=[[1.0, 1.0]], b_out=[0.0],
    )
    dummy, absorbed = relevance_first_column(negated, traj, np.array([[0.25, 0.5]]))
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
        rmap = relevance_map(model, run_reservoir(model, sample[None]))[0]
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
    epsilon = 0.5 most relevance is absorbed. The library takes the
    activation share as x(t) - (1 - alpha) x(t-1), the oracle as
    alpha * act(t), so this is also where the two must agree.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, d, alpha)
    samples = np.stack([random_sample(rng, d, t) for _ in range(batch)])
    if zero_sample is not None:
        samples[zero_sample % batch] = 0.0
    maps = relevance_map(model, run_reservoir(model, samples), LrpConfig(epsilon))
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
        assert rmap.conserved(1e-6)


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
    rmap = relevance_map(model, run_reservoir(model, random_sample(rng, d, t)[None]))[0]
    assert rmap.conserved(1e-6)


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
    maps = relevance_map(model, run_reservoir(model, samples))
    assert len(maps) == batch
    for sample, rmap in zip(samples, maps):
        single = relevance_map(model, run_reservoir(model, sample[None]))[0]
        tol = 1e-12 * max(1.0, abs(single.total))
        assert rmap.scores.shape == single.scores.shape == (d, t - 1)
        np.testing.assert_allclose(rmap.scores, single.scores, rtol=0.0, atol=tol)
        np.testing.assert_allclose(rmap.dummy_scores, single.dummy_scores, rtol=0.0, atol=tol)
        assert abs(rmap.absorbed - single.absorbed) <= tol
        assert abs(rmap.total - single.total) <= tol
        assert rmap.conserved(1e-6)


def test_map_sign_follows_output():
    rng = np.random.default_rng(42)
    for _ in range(10):
        model = random_model(rng, 4, 3, alpha=0.4)
        traj = run_reservoir(model, random_sample(rng, 3, 5)[None])
        rmap = relevance_map(model, traj)[0]
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
    rmap = relevance_map(model, run_reservoir(model, random_sample(rng, 3, 7)[None]))[0]
    np.testing.assert_array_equal(rmap.scores[:, :-1], np.zeros((3, 5)))
    np.testing.assert_array_equal(rmap.dummy_scores, np.zeros(3))
    assert abs(rmap.scores[:, -1].sum() + rmap.absorbed - rmap.total) <= 1e-12 * max(
        1.0, abs(rmap.total)
    )


def test_mean_relevance_single_map_normalizes_to_unit_peak():
    scores = np.array([[2.0, -4.0], [1.0, 0.0]])
    rmap = RelevanceMap(scores=scores, dummy_scores=np.zeros(2), absorbed=0.0, total=1.0)
    mean = mean_relevance([rmap])
    np.testing.assert_allclose(mean, scores / 4.0, rtol=1e-15)
    assert np.max(np.abs(mean)) == 1.0


def test_mean_relevance_cancellation_yields_zeros():
    scores = np.array([[1.0, -2.0]])
    maps = [
        RelevanceMap(scores=scores, dummy_scores=np.zeros(1), absorbed=0.0, total=1.0),
        RelevanceMap(scores=-scores, dummy_scores=np.zeros(1), absorbed=0.0, total=-1.0),
    ]
    np.testing.assert_array_equal(mean_relevance(maps), np.zeros((1, 2)))


def test_mean_relevance_rejects_empty_and_mixed_shapes():
    a = RelevanceMap(scores=np.zeros((2, 2)), dummy_scores=np.zeros(2), absorbed=0.0, total=0.0)
    b = RelevanceMap(scores=np.zeros((2, 3)), dummy_scores=np.zeros(2), absorbed=0.0, total=0.0)
    for wrap in (list, iter):
        with pytest.raises(ConfigError, match="at least one map"):
            mean_relevance(wrap([]))
        with pytest.raises(ConfigError, match="mixed shapes"):
            mean_relevance(wrap([a, b]))


def test_mean_relevance_streams_from_a_generator():
    rng = np.random.default_rng(12)
    maps = [
        RelevanceMap(scores=rng.normal(size=(3, 5)), dummy_scores=np.zeros(3), absorbed=0.0, total=1.0)
        for _ in range(7)
    ]
    streamed = mean_relevance(m for m in maps)
    np.testing.assert_array_equal(streamed, mean_relevance(maps))
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
