import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esnlrp.errors import ConfigError, NumericError
from esnlrp.reservoir import (
    EsnConfig,
    final_states,
    init_reservoir,
    model_output,
    run_reservoir,
    scale_to_spectral_radius,
    spectral_radius,
)

from helpers import assemble_model, random_model, random_sample


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
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        EsnConfig(n_in=2, n_res=4, seed=-1)
    # round(0.3 * 1 * 1) = 0: the config itself is refused, before any draw
    with pytest.raises(ConfigError, match="sparsity 0.3 at n_res 1 leaves no recurrent weight"):
        EsnConfig(n_in=1, n_res=1, sparsity=0.3)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("n_in", 8.0, "an integer"),
        ("n_res", 6.0, "an integer"),
        ("seed", True, "an integer"),
        ("leak_rate", True, "a number"),
        ("sparsity", "0.3", "a number"),
        ("spectral_radius", None, "a number"),
    ],
)
def test_config_fields_of_the_wrong_type_are_config_errors(field, value, kind):
    """Every field is checked against its type, however the config is built; an integer given for
    a number is kept as that number, a float."""
    with pytest.raises(ConfigError, match=f"'{field}' must be {kind}, got {value!r}"):
        EsnConfig(**{"n_in": 5, field: value})
    config = EsnConfig(n_in=5, leak_rate=1, sparsity=1, spectral_radius=2)
    assert [type(getattr(config, f)) for f in ("leak_rate", "sparsity", "spectral_radius")] == [float] * 3


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


def test_eigenvalue_solve_failure_is_a_numeric_error(monkeypatch):
    def failing_eigvals(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(NumericError):
        spectral_radius(np.eye(3))
    with pytest.raises(NumericError):
        init_reservoir(EsnConfig(n_in=2, n_res=10))


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
    """The achieved radius, measured apart from the code under test, is the target to rounding.

    300 units take LAPACK's blocked path.
    """
    for n_res in (25, 120, 300):
        for target in (0.8, 1.3):
            model = init_reservoir(EsnConfig(n_in=3, n_res=n_res, spectral_radius=target, seed=5))
            measured = np.max(np.abs(np.linalg.eigvals(model.w_res)))
            assert abs(measured - target) <= 1e-12 * target


def test_init_reservoir_with_no_recurrent_weight_is_a_config_error():
    # round(0.3 * 1 * 1) = 0 nonzero entries: no seed can draw one
    with pytest.raises(ConfigError, match="sparsity 0.3 at n_res 1 leaves no recurrent weight"):
        init_reservoir(EsnConfig(n_in=1, n_res=1, sparsity=0.3))


def test_init_reservoir_nilpotent_draw_is_a_numeric_error():
    # round(0.25 * 2 * 2) = 1 entry, which seed 0 draws off the diagonal: radius 0
    with pytest.raises(NumericError, match="re-seed"):
        init_reservoir(EsnConfig(n_in=1, n_res=2, sparsity=0.25, seed=0))


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
    batch = np.array([[[1.0]]])
    states = run_reservoir(model, batch)
    # b_res and w_res must not enter x(1); a 5.0 recurrent bias would be obvious
    np.testing.assert_allclose(states[0, 0], [0.5 * np.tanh(1.0)], rtol=1e-15)
    np.testing.assert_allclose(states[:, 0], tanh_recurrence(model, batch[0]), rtol=0.0, atol=1e-12)


def test_zero_leak_freezes_states_at_zero():
    rng = np.random.default_rng(2)
    model = assemble_model(
        w_in=rng.normal(size=(6, 3)), b_in=rng.normal(size=6),
        w_res=rng.normal(size=(6, 6)) * 0.1, b_res=rng.normal(size=6), alpha=0.0,
    )
    states = run_reservoir(model, random_sample(rng, 3, 9)[None])
    np.testing.assert_array_equal(states, np.zeros((9, 1, 6)))


def test_full_leak_states_equal_activation_branch():
    rng = np.random.default_rng(3)
    model = assemble_model(
        w_in=rng.normal(size=(4, 2)), b_in=rng.normal(size=4),
        w_res=rng.normal(size=(4, 4)) * 0.2, b_res=rng.normal(size=4), alpha=1.0,
    )
    batch = random_sample(rng, 2, 6)[None]
    states = run_reservoir(model, batch)
    np.testing.assert_allclose(states[:, 0], tanh_recurrence(model, batch[0]), rtol=0.0, atol=1e-12)


def test_transition_algebra_reproduces_recorded_states():
    """Recomputing x(t) from the recorded x(t-1) and the inputs gives the stored states."""
    rng = np.random.default_rng(4)
    alpha = 0.35
    model = assemble_model(
        w_in=rng.normal(size=(5, 3)), b_in=rng.normal(size=5),
        w_res=rng.normal(size=(5, 5)) * 0.15, b_res=rng.normal(size=5), alpha=alpha,
    )
    batch = random_sample(rng, 3, 8)[None]
    states = run_reservoir(model, batch)
    np.testing.assert_allclose(states[:, 0], tanh_recurrence(model, batch[0]), rtol=0.0, atol=1e-12)
    for t in range(1, 8):
        pre = (
            model.w_in @ batch[0, :, t] + model.b_in
            + model.w_res @ states[t - 1, 0] + model.b_res
        )
        rebuilt = (1 - alpha) * states[t - 1, 0] + alpha * np.tanh(pre)
        np.testing.assert_allclose(states[t, 0], rebuilt, rtol=0.0, atol=1e-12)


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
    np.testing.assert_array_equal(got, run_reservoir(model, samples)[-1])


@pytest.mark.parametrize("flipped", [[3], list(range(1, 12, 2))], ids=["unit-3", "every-odd-unit"])
def test_a_sign_flip_of_units_negates_their_states_and_keeps_the_outputs(flipped):
    """tanh is odd, so negating a unit's incoming and outgoing weights negates its states.

    The flip negates row j of w_in, b_in and b_res, row and column j of
    w_res (so w_res[j, j] keeps its sign) and w_out[j]. Every product that
    meets unit j meets it with both factors negated or exactly one, so the
    states of the flipped units come out negated, the others unchanged, and
    every output is the same, bit for bit.
    """
    rng = np.random.default_rng(11)
    model = random_model(rng, 12, 5, alpha=0.3)
    sign = np.ones(12)
    sign[flipped] = -1.0
    flip = assemble_model(
        w_in=sign[:, None] * model.w_in, b_in=sign * model.b_in,
        w_res=sign[:, None] * model.w_res * sign[None, :], b_res=sign * model.b_res,
        alpha=0.3, w_out=model.w_out * sign, b_out=model.b_out,
    )
    batch = np.stack([random_sample(rng, 5, 15) for _ in range(4)])
    states = run_reservoir(model, batch)
    np.testing.assert_array_equal(run_reservoir(flip, batch), states * sign)
    np.testing.assert_array_equal(
        model_output(flip, final_states(flip, batch)), model_output(model, final_states(model, batch))
    )


def test_states_stay_inside_unit_box():
    rng = np.random.default_rng(6)
    model = assemble_model(
        w_in=rng.normal(size=(8, 4)) * 3, b_in=rng.normal(size=8) * 3,
        w_res=rng.normal(size=(8, 8)), b_res=rng.normal(size=8), alpha=0.9,
    )
    states = run_reservoir(model, rng.uniform(-1, 1, size=(1, 4, 30)))
    assert np.max(np.abs(states)) <= 1.0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("forward", [run_reservoir, final_states])
def test_a_non_finite_cell_anywhere_in_a_batch_is_a_config_error(forward, bad):
    """One NaN or infinite cell, in any sample and column, is rejected without a RuntimeWarning.

    The suite turns any RuntimeWarning into a failure, so this also checks
    that the finiteness test warns about nothing.
    """
    model = assemble_model(w_in=np.ones((2, 3)), b_in=[0.0, 0.0], w_res=np.zeros((2, 2)), b_res=[0.0, 0.0], alpha=0.5)
    for position in [(0, 0, 0), (2, 1, 3), (3, 2, 4)]:
        batch = np.zeros((4, 3, 5))
        batch[position] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            forward(model, batch)


def test_model_output_and_parameter_count():
    model = assemble_model(
        w_in=np.zeros((2, 1)), b_in=[0, 0], w_res=np.zeros((2, 2)), b_res=[0, 0], alpha=0.5
    )
    assert not model.is_trained
    states = run_reservoir(model, np.ones((1, 1, 2)))
    with pytest.raises(ConfigError):
        model_output(model, states[-1])

    constant = model.with_readout(np.zeros((1, 2)), np.array([2.5]))
    np.testing.assert_array_equal(model_output(constant, states[-1]), [2.5])

    summing = model.with_readout(np.array([[1.0, 1.0]]), np.array([0.0]))
    np.testing.assert_allclose(model_output(summing, np.array([[0.3, 0.7]])), [1.0], rtol=1e-15)


def test_with_readout_validates_shapes():
    model = assemble_model(
        w_in=np.zeros((3, 1)), b_in=np.zeros(3), w_res=np.zeros((3, 3)),
        b_res=np.zeros(3), alpha=0.5,
    )
    with pytest.raises(ConfigError):
        model.with_readout(np.ones((1, 2)), np.zeros(1))
    with pytest.raises(ConfigError):
        model.with_readout(np.ones((2, 3)), np.zeros(1))
    with pytest.raises(ConfigError):
        model.with_readout(np.ones(3), np.zeros(1))
