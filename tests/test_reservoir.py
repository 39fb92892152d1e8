import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esnlrp.errors import ConfigError, NumericError
from esnlrp.reservoir import (
    EsnConfig,
    EsnModel,
    final_states,
    init_reservoir,
    model_output,
    run_reservoir,
    scale_to_spectral_radius,
    spectral_radius,
)

from helpers import assemble_model, random_sample


def test_config_validation():
    EsnConfig(n_in=5)  # defaults are valid
    with pytest.raises(ConfigError):
        EsnConfig(n_in=0)
    with pytest.raises(ConfigError):
        EsnConfig(n_in=5, n_res=0)
    with pytest.raises(ConfigError):
        EsnConfig(n_in=5, leak_rate=-0.1)
    with pytest.raises(ConfigError):
        EsnConfig(n_in=5, leak_rate=1.1)
    with pytest.raises(ConfigError):
        EsnConfig(n_in=5, sparsity=0.0)
    with pytest.raises(ConfigError):
        EsnConfig(n_in=5, sparsity=1.2)
    for radius in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            EsnConfig(n_in=5, spectral_radius=radius)


def test_spectral_radius_known_matrices():
    assert abs(spectral_radius(np.eye(4)) - 1.0) <= 1e-9
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert abs(spectral_radius(np.diag([3.0, -5.0, 1.0])) - 5.0) <= 5e-9


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(0)
    for _ in range(8):
        m = rng.normal(size=(5, 5))
        expected = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert abs(spectral_radius(m) - expected) <= 1e-8 * expected


def test_spectral_radius_input_validation():
    with pytest.raises(ConfigError):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_scale_to_spectral_radius_diagonal():
    scaled = scale_to_spectral_radius(np.diag([2.0, 1.0]), 0.8)
    np.testing.assert_allclose(scaled, np.diag([0.8, 0.4]), rtol=1e-6)


def test_scale_to_spectral_radius_rejects_degenerate():
    with pytest.raises(NumericError):
        scale_to_spectral_radius(np.zeros((3, 3)), 0.8)
    with pytest.raises(ConfigError):
        scale_to_spectral_radius(np.eye(2), 0.0)


def test_init_reservoir_is_seed_deterministic():
    config = EsnConfig(n_in=7, n_res=40, seed=123)
    a = init_reservoir(config)
    b = init_reservoir(config)
    np.testing.assert_array_equal(a.w_in, b.w_in)
    np.testing.assert_array_equal(a.b_in, b.b_in)
    np.testing.assert_array_equal(a.w_res, b.w_res)
    np.testing.assert_array_equal(a.b_res, b.b_res)
    other = init_reservoir(EsnConfig(n_in=7, n_res=40, seed=124))
    assert not np.array_equal(a.w_in, other.w_in)


def test_init_reservoir_sparsity_counts():
    dense = init_reservoir(EsnConfig(n_in=2, n_res=10, sparsity=1.0))
    assert np.count_nonzero(dense.w_res) == 100
    sparse = init_reservoir(EsnConfig(n_in=2, n_res=10, sparsity=0.3))
    assert np.count_nonzero(sparse.w_res) == 30


def test_init_reservoir_hits_target_radius():
    for target in (0.8, 1.3):
        model = init_reservoir(EsnConfig(n_in=3, n_res=25, spectral_radius=target, seed=5))
        measured = spectral_radius(model.w_res)
        assert abs(measured - target) <= 1e-6 * target


def test_init_reservoir_zero_draw_is_a_numeric_error():
    # round(0.3 * 1 * 1) = 0 nonzero entries: nothing to rescale
    with pytest.raises(NumericError):
        init_reservoir(EsnConfig(n_in=1, n_res=1, sparsity=0.3))


def test_init_reservoir_weights_are_frozen():
    model = init_reservoir(EsnConfig(n_in=2, n_res=10))
    for block in (model.w_in, model.b_in, model.w_res, model.b_res):
        assert not block.flags.writeable


def tanh_recurrence(model, sample):
    """x(1..T) of one (n_in, T) sample by the stated update, one unit at a time."""
    alpha = model.config.leak_rate
    states = []
    for t in range(sample.shape[1]):
        x = []
        for j in range(model.config.n_res):
            pre = model.w_in[j] @ sample[:, t] + model.b_in[j]
            if t:
                pre += model.w_res[j] @ states[-1] + model.b_res[j]
            x.append(alpha * np.tanh(pre) + ((1 - alpha) * states[-1][j] if t else 0.0))
        states.append(np.array(x))
    return np.array(states)


def test_first_step_has_no_recurrent_terms():
    model = assemble_model(
        w_in=[[1.0]], b_in=[0.0], w_res=[[0.7]], b_res=[5.0], alpha=0.5
    )
    traj = run_reservoir(model, np.array([[[1.0]]]))
    # b_res and w_res must not enter x(1); a 5.0 recurrent bias would be obvious
    np.testing.assert_allclose(traj.states[0, 0], [0.5 * np.tanh(1.0)], rtol=1e-15)
    np.testing.assert_allclose(traj.states[:, 0], tanh_recurrence(model, traj.inputs[0]), rtol=0.0, atol=1e-12)


def test_zero_leak_freezes_states_at_zero():
    rng = np.random.default_rng(2)
    model = assemble_model(
        w_in=rng.normal(size=(6, 3)), b_in=rng.normal(size=6),
        w_res=rng.normal(size=(6, 6)) * 0.1, b_res=rng.normal(size=6), alpha=0.0,
    )
    traj = run_reservoir(model, random_sample(rng, 3, 9)[None])
    np.testing.assert_array_equal(traj.states, np.zeros((9, 1, 6)))


def test_full_leak_states_equal_activation_branch():
    rng = np.random.default_rng(3)
    model = assemble_model(
        w_in=rng.normal(size=(4, 2)), b_in=rng.normal(size=4),
        w_res=rng.normal(size=(4, 4)) * 0.2, b_res=rng.normal(size=4), alpha=1.0,
    )
    traj = run_reservoir(model, random_sample(rng, 2, 6)[None])
    np.testing.assert_allclose(traj.states[:, 0], tanh_recurrence(model, traj.inputs[0]), rtol=0.0, atol=1e-12)


def test_transition_algebra_reproduces_recorded_states():
    """Recomputing x(t) from the recorded x(t-1) and the inputs gives the stored states."""
    rng = np.random.default_rng(4)
    alpha = 0.35
    model = assemble_model(
        w_in=rng.normal(size=(5, 3)), b_in=rng.normal(size=5),
        w_res=rng.normal(size=(5, 5)) * 0.15, b_res=rng.normal(size=5), alpha=alpha,
    )
    traj = run_reservoir(model, random_sample(rng, 3, 8)[None])
    np.testing.assert_allclose(traj.states[:, 0], tanh_recurrence(model, traj.inputs[0]), rtol=0.0, atol=1e-12)
    for t in range(1, 8):
        pre = (
            model.w_in @ traj.inputs[0, :, t] + model.b_in
            + model.w_res @ traj.states[t - 1, 0] + model.b_res
        )
        rebuilt = (1 - alpha) * traj.states[t - 1, 0] + alpha * np.tanh(pre)
        np.testing.assert_allclose(traj.states[t, 0], rebuilt, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 4),
    t=st.integers(1, 8),
    batch=st.integers(1, 6),
    alpha=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    zero_sample=st.one_of(st.none(), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, d=2, t=1, batch=3, alpha=0.0, zero_sample=1, seed=0)
@example(n=4, d=3, t=5, batch=6, alpha=1.0, zero_sample=5, seed=2)
@example(n=2, d=2, t=2, batch=1, alpha=0.01, zero_sample=None, seed=1846896587)
def test_final_states_match_the_recorded_trajectory(n, d, t, batch, alpha, zero_sample, seed):
    """final_states is x(T) of run_reservoir, bit for bit.

    Both run the same loop, with the same products in the same order; only
    the number of states kept differs. The last example catches an input
    drive computed for all steps in one product: BLAS may round a row
    differently with the number of rows, here by 8.7e-19.
    """
    rng = np.random.default_rng(seed)
    model = assemble_model(
        w_in=rng.uniform(-0.8, 0.8, size=(n, d)), b_in=rng.uniform(-0.8, 0.8, size=n),
        w_res=rng.uniform(-0.8, 0.8, size=(n, n)), b_res=rng.uniform(-0.8, 0.8, size=n),
        alpha=alpha,
    )
    samples = np.stack([random_sample(rng, d, t) for _ in range(batch)])
    if zero_sample is not None:
        samples[zero_sample % batch] = 0.0
    got = final_states(model, samples)
    assert got.shape == (batch, n)
    np.testing.assert_array_equal(got, run_reservoir(model, samples).final_state)


def test_states_stay_inside_unit_box():
    rng = np.random.default_rng(6)
    model = assemble_model(
        w_in=rng.normal(size=(8, 4)) * 3, b_in=rng.normal(size=8) * 3,
        w_res=rng.normal(size=(8, 8)), b_res=rng.normal(size=8), alpha=0.9,
    )
    traj = run_reservoir(model, rng.uniform(-1, 1, size=(1, 4, 30)))
    assert np.max(np.abs(traj.states)) <= 1.0


def test_run_reservoir_input_validation():
    """Both forward entry points reject the same malformed batches."""
    model = assemble_model(w_in=[[1.0]], b_in=[0.0], w_res=[[0.0]], b_res=[0.0], alpha=0.5)
    for forward in (run_reservoir, final_states):
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 2, 3)))
        with pytest.raises(ConfigError):
            forward(model, np.ones(3))
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 3)))  # a single sample without its batch axis
        with pytest.raises(ConfigError):
            forward(model, np.ones((0, 1, 3)))
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 1, 0)))
        with pytest.raises(ConfigError):
            forward(model, np.array([[[1.0, np.inf]]]))


class StateTrajectoryStub:
    def __init__(self, final):
        self.final_state = np.asarray(final, dtype=float)


def test_model_output_and_parameter_count():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0], alpha=0.5
    )
    assert not model.is_trained
    assert model.trainable_parameter_count == 0
    traj = run_reservoir(model, np.ones((1, 1, 2)))
    with pytest.raises(ConfigError):
        model_output(model, traj)

    constant = model.with_readout(np.zeros((1, 2)), np.array([2.5]))
    np.testing.assert_array_equal(model_output(constant, traj), [[2.5]])

    summing = model.with_readout(np.array([[1.0, 1.0]]), np.array([0.0]))
    fixed = StateTrajectoryStub(np.array([0.3, 0.7]))
    np.testing.assert_allclose(model_output(summing, fixed), [1.0], rtol=1e-15)

    big = EsnModel(
        config=EsnConfig(n_in=5, n_res=300),
        w_in=np.zeros((300, 5)), b_in=np.zeros(300),
        w_res=np.zeros((300, 300)), b_res=np.zeros(300),
    ).with_readout(np.zeros((1, 300)), np.zeros(1))
    assert big.trainable_parameter_count == 301


def test_with_readout_validates_shapes():
    model = assemble_model(
        w_in=np.zeros((3, 1)), b_in=np.zeros(3), w_res=np.zeros((3, 3)),
        b_res=np.zeros(3), alpha=0.5,
    )
    with pytest.raises(ConfigError):
        model.with_readout(np.ones((1, 2)), np.zeros(1))
    with pytest.raises(ConfigError):
        model.with_readout(np.ones((2, 3)), np.zeros(1))
