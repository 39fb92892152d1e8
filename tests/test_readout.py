import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnlrp.errors import ConfigError, NumericError
from esnlrp.readout import (
    AccuracyReport,
    ClassLabel,
    accuracy,
    fit_readout,
)


def penalized_normal_equations(x, y, ridge):
    """Reference solver: [X | 1] with the ridge applied to weights only."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = design.T @ design
    gram[np.arange(x.shape[1]), np.arange(x.shape[1])] += ridge
    return np.linalg.solve(gram, design.T @ y)


def test_exact_line_fit():
    solution = fit_readout(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(solution.w_out, [[1.0]], atol=1e-10)
    np.testing.assert_allclose(solution.b_out, [0.0], atol=1e-10)
    assert solution.train_mse <= 1e-20


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 10))
    y = rng.normal(size=50)
    solution = fit_readout(x, y)
    beta = penalized_normal_equations(x, y[:, None], 0.0)
    np.testing.assert_allclose(solution.w_out, beta[:-1].T, rtol=1e-8)
    np.testing.assert_allclose(solution.b_out, beta[-1], rtol=1e-8)


def test_ridge_matches_penalized_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 12))
    y = rng.normal(size=40)
    for ridge in (1e-6, 1e-2, 1.0):
        solution = fit_readout(x, y, ridge=ridge)
        beta = penalized_normal_equations(x, y[:, None], ridge)
        np.testing.assert_allclose(solution.w_out, beta[:-1].T, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(solution.b_out, beta[-1], rtol=1e-8)


def test_wide_dual_form_agrees_with_primal_equations():
    """More units than samples; the optimum is still that of the primal equations."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 50))
    y = rng.normal(size=20)
    ridge = 1e-3
    solution = fit_readout(x, y, ridge=ridge)
    beta = penalized_normal_equations(x, y[:, None], ridge)
    np.testing.assert_allclose(solution.w_out, beta[:-1].T, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(solution.b_out, beta[-1], rtol=1e-6)


def test_residual_orthogonal_to_design():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    solution = fit_readout(x, y)
    residual = x @ solution.w_out[0] + solution.b_out[0] - y
    np.testing.assert_allclose(x.T @ residual, np.zeros(6), atol=1e-6)
    assert abs(residual.sum()) <= 1e-6


def test_constant_targets_with_ridge_give_zero_weights():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 5))
    solution = fit_readout(x, np.full(25, 3.25), ridge=1e-3)
    np.testing.assert_allclose(solution.w_out, np.zeros((1, 5)), atol=1e-8)
    np.testing.assert_allclose(solution.b_out, [3.25], rtol=1e-10)


def test_rank_deficient_design_is_rejected_without_ridge():
    rng = np.random.default_rng(5)
    col = rng.normal(size=(30, 1))
    x = np.hstack([col, col])  # duplicated feature
    with pytest.raises(NumericError, match="rank"):
        fit_readout(x, rng.normal(size=30))
    fit_readout(x, rng.normal(size=30), ridge=1e-6)  # regularized: fine


def test_train_mse_grows_with_ridge():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 8))
    y = rng.normal(size=40)
    mses = [fit_readout(x, y, ridge=r).train_mse for r in (0.0, 1e-3, 1e-1, 10.0)]
    for lighter, heavier in zip(mses, mses[1:]):
        assert heavier >= lighter - 1e-12


def test_fit_readout_input_validation():
    good = np.ones((3, 2)) + np.arange(6).reshape(3, 2)
    with pytest.raises(ConfigError):
        fit_readout(np.ones(4), np.ones(4))
    with pytest.raises(ConfigError):
        fit_readout(good, np.ones(4))
    with pytest.raises(ConfigError):
        fit_readout(good, np.ones((3, 1)))  # one score per sample: targets are 1-D
    with pytest.raises(ConfigError):
        fit_readout(good[:1], np.ones(1))
    for ridge in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            fit_readout(good, np.ones(3), ridge=ridge)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ConfigError):
        fit_readout(bad, np.ones(3))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_plain_fit_is_scale_equivariant_in_targets(scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    base = fit_readout(x, y)
    scaled = fit_readout(x, y * scale)
    np.testing.assert_allclose(scaled.w_out, base.w_out * scale, rtol=1e-7, atol=1e-10 * scale)
    np.testing.assert_allclose(scaled.b_out, base.b_out * scale, rtol=1e-7, atol=1e-10 * scale)


def test_accuracy_sign_test_tie_and_non_finite_scores():
    el, la = ClassLabel.EL_NINO, ClassLabel.LA_NINA
    report = accuracy([0.7, -0.2, 0.0, 0.0], [el, la, el, la])
    assert report.per_class[el] == 1.0  # a score of exactly 0.0 counts as EL_NINO
    assert report.per_class[la] == 0.5
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            accuracy([1.0, bad], [el, la])


def test_accuracy_pooled_and_per_class():
    el, la = ClassLabel.EL_NINO, ClassLabel.LA_NINA
    labels = [el, la, la, el]
    report = accuracy(np.array([1.0, -1.0, 1.0, 1.0]), labels)
    assert isinstance(report, AccuracyReport)
    assert report.overall == 0.75
    assert report.per_class[el] == 1.0
    assert report.per_class[la] == 0.5
    assert report.n_samples == 4

    single_class = accuracy([1.0, 1.0], [el, el])
    assert single_class.overall == 1.0
    assert la not in single_class.per_class


def test_accuracy_rejects_degenerate_inputs():
    with pytest.raises(ConfigError):
        accuracy([], [])
    with pytest.raises(ConfigError):
        accuracy([1.0], [ClassLabel.EL_NINO, ClassLabel.LA_NINA])
