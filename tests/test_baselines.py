import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esnlrp import baselines
from esnlrp.baselines import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    ADAM_SLICE,
    HIDDEN_DIMS,
    MlpModel,
    adam_init,
    adam_step,
    init_mlp,
    linreg_predict,
    mlp_forward,
    mlp_gradients,
    mlp_predict,
    train_mlp,
)
from esnlrp.errors import ConfigError, NumericError
from esnlrp.readout import fit_readout
from helpers import MatrixRows, composed_affine

TOY_DIMS = (3, 4, 2, 1)


def flat_params(model):
    return list(model.weights) + list(model.biases)


def flat_vector(model):
    return np.concatenate([p.ravel() for p in flat_params(model)])


def rebuild(model, params):
    n_w = len(model.weights)
    return MlpModel(
        layer_dims=model.layer_dims,
        weights=tuple(params[:n_w]),
        biases=tuple(params[n_w:]),
    )


def test_production_network_size():
    model = init_mlp((10_988, *HIDDEN_DIMS, 1))
    assert model.param_count == 87_993


def test_init_mlp_deterministic_and_bounded():
    a = init_mlp(TOY_DIMS, seed=4)
    b = init_mlp(TOY_DIMS, seed=4)
    for pa, pb in zip(flat_params(a), flat_params(b)):
        np.testing.assert_array_equal(pa, pb)
    assert all(np.max(np.abs(p)) <= 0.05 for p in flat_params(a))
    c = init_mlp(TOY_DIMS, seed=5)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_gradients_match_central_differences():
    """The loss is quadratic in every parameter, so central differences are exact
    up to rounding; 1e-5 relative leaves ample room."""
    rng = np.random.default_rng(0)
    model = init_mlp(TOY_DIMS, seed=1)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    _, grads_w, grads_b = mlp_gradients(model, x, y)
    analytic = grads_w + grads_b
    h = 1e-6

    params = flat_params(model)
    for block_index, block in enumerate(params):
        numeric = np.zeros_like(block)
        for flat in range(block.size):
            for sign in (+1.0, -1.0):
                bumped = [p.copy() for p in params]
                bumped[block_index].flat[flat] += sign * h
                loss, _, _ = mlp_gradients(rebuild(model, bumped), x, y)
                numeric.flat[flat] += sign * loss / (2.0 * h)
        scale = np.maximum(np.abs(analytic[block_index]), 1.0)
        np.testing.assert_array_less(
            np.abs(numeric - analytic[block_index]) / scale, 1e-5
        )


@pytest.mark.parametrize("batch", [10, 3])
@pytest.mark.parametrize("width", [1, 4095, 4096, 4097, 16_020])
def test_blocked_weight_gradients_match_the_whole_products_bit_for_bit(width, batch):
    """Every weight gradient has the bytes of the one product delta.T @ activations.

    At 8 hidden units a block holds at most 4096 columns of the first
    layer's gradient: 4095 and 4096 fit one block, 4097 takes two of 2049
    and 2048 (4096 and a one-column remainder would round that column
    differently), and 16,020 takes four of 4005; a batch of 3 is a short
    last batch.
    """
    rng = np.random.default_rng(width + batch)
    model = init_mlp((width, *HIDDEN_DIMS, 1), seed=1)
    x = rng.uniform(-1.0, 1.0, size=(batch, width))
    y = np.where(rng.random(batch) < 0.5, -1.0, 1.0)
    _, grads_w, _ = mlp_gradients(model, x, y)
    assert ADAM_SLICE == 4096 * HIDDEN_DIMS[0]

    activations = mlp_forward(model, x)
    residual = activations[-1] - y[:, None]
    delta = residual * (2.0 / residual.size)
    for layer in range(len(model.weights) - 1, -1, -1):
        want = delta.T @ activations[layer]
        assert grads_w[layer].tobytes() == want.tobytes()
        if layer > 0:
            delta = delta @ model.weights[layer]


def test_forward_and_composed_affine_agree():
    rng = np.random.default_rng(2)
    model = init_mlp(TOY_DIMS, seed=3)
    x = rng.normal(size=(7, 3))
    w, b = composed_affine(model)
    np.testing.assert_allclose(mlp_forward(model, x)[-1], x @ w.T + b, rtol=1e-12)


def test_predict_shapes_and_constant_model():
    constant = MlpModel(
        layer_dims=(2, 1),
        weights=(np.zeros((1, 2)),),
        biases=(np.array([4.5]),),
    )
    np.testing.assert_array_equal(mlp_predict(constant, MatrixRows(np.ones((3, 2)))), [4.5] * 3)
    with pytest.raises(ConfigError):
        mlp_forward(constant, np.ones((2, 3)))
    with pytest.raises(ConfigError, match="input width 3 does not match model input dim 2"):
        mlp_predict(constant, MatrixRows(np.ones((2, 3))))
    with pytest.raises(ConfigError, match=r"3 inputs need targets of shape \(3,\)"):
        mlp_gradients(constant, np.ones((3, 2)), np.ones((3, 1)))


def test_mlp_model_shape_validation():
    with pytest.raises(ConfigError):
        MlpModel(layer_dims=(2, 1), weights=(np.zeros((1, 3)),), biases=(np.zeros(1),))
    with pytest.raises(ConfigError):
        MlpModel(layer_dims=(2, 1), weights=(np.zeros((1, 2)),), biases=(np.zeros(2),))
    with pytest.raises(ConfigError, match="2 layers need 2 weight and bias blocks, got 1 and 2"):
        MlpModel(layer_dims=(2, 3, 1), weights=(np.zeros((3, 2)),), biases=(np.zeros(3), np.zeros(1)))


@pytest.mark.parametrize("width", [2.0, True, "2"], ids=["float", "bool", "string"])
def test_mlp_layer_widths_must_be_integers(width):
    """A layer width is an int, not a bool, and is not coerced into one; a list of them is kept as a tuple."""
    blocks = dict(weights=(np.zeros((1, 2)),), biases=(np.zeros(1),))
    with pytest.raises(ConfigError, match=f"'layer_dims' must be an integer, got {width!r}"):
        MlpModel(layer_dims=[width, 1], **blocks)
    assert MlpModel(layer_dims=[2, 1], **blocks).layer_dims == (2, 1)


def test_adam_zero_gradient_is_a_no_op():
    model = init_mlp(TOY_DIMS, seed=0)
    state = adam_init(model)
    before = flat_vector(model)
    theta = before.copy()
    adam_step(theta, np.zeros_like(theta), state)
    np.testing.assert_array_equal(before, theta)


def test_adam_first_step_is_signed_learning_rate():
    model = MlpModel(layer_dims=(1, 1), weights=(np.array([[2.0]]),), biases=(np.array([0.5]),))
    state = adam_init(model)
    theta = flat_vector(model)
    adam_step(theta, np.array([3.0, -0.25]), state)
    assert theta[0] == pytest.approx(2.0 - ADAM_LR, rel=1e-5)
    assert theta[1] == pytest.approx(0.5 + ADAM_LR, rel=1e-5)
    assert state.step == 1


def test_adam_rejects_mismatched_blocks():
    model = init_mlp(TOY_DIMS, seed=0)
    state = adam_init(model)
    with pytest.raises(ConfigError):
        adam_step(flat_vector(model)[:2], np.zeros(2), state)


def reference_train_mlp(vectors, targets, epochs, batch, seed):
    """The list-based loop train_mlp replaced: new arrays for every block at every step.

    Backprop and the Adam update are spelled out here as they were, so a
    change to either in the package shows as a difference.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    n_samples = vectors.shape[0]
    streams = np.random.SeedSequence(seed).spawn(2)
    model = init_mlp((vectors.shape[1], 8, 8, targets.shape[1]), seed=seed)
    shuffle_rng = np.random.default_rng(streams[1])
    m = [np.zeros_like(p) for p in flat_params(model)]
    v = [np.zeros_like(p) for p in flat_params(model)]
    n_w = len(model.weights)
    step = 0
    history = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(n_samples)
        epoch_losses = []
        for lo in range(0, n_samples, batch):
            rows = order[lo : lo + batch]
            activations = mlp_forward(model, vectors[rows])
            residual = activations[-1] - targets[rows]
            loss = float(np.mean(residual**2))
            delta = residual * (2.0 / residual.size)
            grads_w, grads_b = [None] * n_w, [None] * n_w
            for layer in range(n_w - 1, -1, -1):
                grads_w[layer] = delta.T @ activations[layer]
                grads_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = delta @ model.weights[layer]
            step += 1
            scale = ADAM_LR * np.sqrt(1.0 - ADAM_BETA2**step) / (1.0 - ADAM_BETA1**step)
            params = []
            for i, (p, g) in enumerate(zip(flat_params(model), grads_w + grads_b)):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g**2
                params.append(p - scale * m[i] / (np.sqrt(v[i]) + ADAM_EPS))
            model = rebuild(model, params)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return model, history


@pytest.mark.parametrize(
    "n_samples, width, epochs, batch",
    [
        pytest.param(23, TOY_DIMS[0], 4, 5, id="toy"),
        pytest.param(40, 500, 30, 10, id="40x500"),
        pytest.param(12, 9000, 3, 5, id="12x9000"),
        pytest.param(23, 16_020, 2, 10, id="paper-width"),
    ],
)
def test_train_mlp_matches_the_list_based_reference_bit_for_bit(monkeypatch, n_samples, width, epochs, batch):
    """In-place training gives the reference's weights and loss history exactly.

    23 and 12 samples leave a short last batch; at width 9000 the parameter
    vector spans three Adam slices, and at the paper's 16,020 the first
    layer's weight gradient is written in four column blocks. Each case
    sets the schedule's constants to its own epochs and batch.
    """
    monkeypatch.setattr(baselines, "EPOCHS", epochs)
    monkeypatch.setattr(baselines, "BATCH_ROWS", batch)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n_samples, width))
    y = np.where(rng.random(n_samples) < 0.5, -1.0, 1.0)
    got, history = train_mlp(MatrixRows(x), y, seed=3)
    want, want_history = reference_train_mlp(x, y, epochs=epochs, batch=batch, seed=3)
    assert got.layer_dims == want.layer_dims == (width, 8, 8, 1)
    assert history == want_history
    for a, b in zip(flat_params(got), flat_params(want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    if width == 9000:
        assert got.param_count > 2 * ADAM_SLICE


def test_train_mlp_fits_a_linear_rule(monkeypatch):
    monkeypatch.setattr(baselines, "EPOCHS", 200)
    monkeypatch.setattr(baselines, "ADAM_LR", 0.01)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 4))
    y = x @ np.array([0.5, -0.25, 0.1, 0.7]) + 0.3
    model, history = train_mlp(MatrixRows(x), y, seed=0)
    assert history[-1] < history[0]
    assert history[-1] < 1e-3
    np.testing.assert_allclose(mlp_predict(model, MatrixRows(x)), y, atol=0.15)


def test_train_mlp_is_seed_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    a, history_a = train_mlp(MatrixRows(x), y, seed=7)
    b, history_b = train_mlp(MatrixRows(x), y, seed=7)
    assert history_a == history_b
    for pa, pb in zip(flat_params(a), flat_params(b)):
        np.testing.assert_array_equal(pa, pb)
    c, _ = train_mlp(MatrixRows(x), y, seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


# Trains the baseline at paper width in a fresh interpreter and prints the CPU
# seconds that the process and the calling thread spent in train_mlp, the loss
# history and a digest of the trained weights.
PAPER_WIDTH_TRAINING = """
import hashlib, json, resource, time
import numpy as np
from esnlrp import baselines
from esnlrp.baselines import train_mlp
from helpers import MatrixRows

baselines.EPOCHS = 10

rng = np.random.default_rng(0)
x = rng.uniform(-1.0, 1.0, size=(200, 16_020))
y = np.where(rng.random(200) < 0.5, -1.0, 1.0)
before, start = resource.getrusage(resource.RUSAGE_SELF), time.thread_time()
model, history = train_mlp(MatrixRows(x), y)
thread, after = time.thread_time() - start, resource.getrusage(resource.RUSAGE_SELF)
cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
digest = hashlib.sha256(b"".join(p.tobytes() for p in model.weights + model.biases))
print(json.dumps({"cpu_s": cpu, "thread_cpu_s": thread, "weights": digest.hexdigest(), "history": history}))
"""


def train_at_paper_width(blas_threads):
    """PAPER_WIDTH_TRAINING's result under OPENBLAS_NUM_THREADS=blas_threads."""
    paths = [str(Path(baselines.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    pythonpath = os.pathsep.join(p for p in (*paths, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    result = subprocess.run(
        [sys.executable, "-c", PAPER_WIDTH_TRAINING], env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(result.stdout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 cores for a second BLAS thread to run on")
def test_mlp_training_runs_on_one_core_under_two_blas_threads():
    """No product of train_mlp is split over BLAS threads, so no worker spins.

    200 x 16,020 rows for 10 epochs: with the first layer's weight gradient
    as one product, the process used 1.93-2.00 CPU seconds per CPU second
    of the calling thread; blocked, 1.00. The base is the calling thread's
    CPU time, not the wall time: when other processes share the cores, a
    spinning worker stretches the wall time too (1.6 s of CPU in 1.6 s of
    wall, 0.8 s of it the calling thread's), and a bound on the wall
    time would then pass.
    """
    run = train_at_paper_width(2)
    assert run["cpu_s"] <= 1.3 * run["thread_cpu_s"], run


def test_mlp_weights_are_the_same_under_one_and_two_blas_threads():
    one, two = train_at_paper_width(1), train_at_paper_width(2)
    assert one["weights"] == two["weights"]
    assert one["history"] == two["history"]


def test_train_mlp_aborts_on_overflow():
    x = np.full((10, 2), 1e200)
    y = np.ones(10)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch 1"):
        train_mlp(MatrixRows(x), y, seed=0)


def test_train_mlp_input_validation():
    x = MatrixRows(np.ones((10, 2)))
    with pytest.raises(ConfigError):
        train_mlp(x, np.ones(9))


def test_linreg_recovers_linear_map():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 5))
    w = rng.normal(size=5)
    y = x @ w + 1.25
    solution = fit_readout(x, y)
    np.testing.assert_allclose(linreg_predict(solution, MatrixRows(x)), y, atol=1e-8)
    np.testing.assert_allclose(solution.w_out[0], w, rtol=1e-8)
    np.testing.assert_allclose(solution.b_out, [1.25], rtol=1e-8)
    assert solution.train_mse <= 1e-16
