"""Reference models to compare the reservoir against.

Two baselines operate on vectorized fields: closed-form linear regression
(fitted by the reservoir readout solver, `readout.fit_readout`, and scored by
`linreg_predict`) and a small identity-activation
multilayer perceptron trained with mini-batch Adam on mean squared error.
The MLP's layers are all affine, so the whole network collapses to a single
affine map; it is kept in layered form anyway because the layered
parameterization (and its optimization trajectory) is what we compare
against, and the collapse makes for a free correctness check.

Both read their inputs through a row source (`RowSource`, such as
`data.BaselineRows`) a mini-batch at a time when they score, and the MLP
when it trains too, so no (samples x inputs) matrix is built but the one
the linear regression's closed-form fit needs. Training and scoring
run at one BLAS thread (`blas.one_thread`), so they use one core whatever the
BLAS thread count, and the weights are bit for bit the same under 1 and 2
threads. Where no thread-count setter is found, the weight gradients are
still written in column blocks too small for BLAS to split (see
`mlp_gradients`), so no product of a training step threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from . import blas
from .errors import ConfigError, NumericError, setting
from .readout import ReadoutSolution

# Widths of the two hidden layers; the input width comes from the data, the output is 1.
HIDDEN_DIMS = (8, 8)

ADAM_LR = 0.0005
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

INIT_HALF_RANGE = 0.05

# Rows per mini-batch, in training and in prediction, and passes of `train_mlp` over the train rows.
BATCH_ROWS = 10
EPOCHS = 30

# Adam updates the flat parameter vector this many elements at a time, so
# its temporaries stay in cache.
ADAM_SLICE = 32_768


class RowSource(Protocol):
    """`len()` input rows of `width` values each, read a few at a time."""

    @property
    def width(self) -> int: ...

    def __len__(self) -> int: ...

    def read(self, indices: Sequence[int], out: np.ndarray) -> np.ndarray:
        """The rows at `indices`, written into the first len(indices) rows of `out`."""
        ...


@dataclass(frozen=True)
class MlpModel:
    """Feed-forward net with identity activations throughout and one output unit; `layer_dims`,
    any sequence of integers (`errors.setting`), is kept as a tuple."""

    layer_dims: Tuple[int, ...]
    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_dims", tuple(setting("layer_dims", d, int) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise ConfigError(f"need at least input and output dims, got {self.layer_dims}")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"layer dims must be positive, got {self.layer_dims}")
        if self.layer_dims[-1] != 1:
            raise ConfigError(f"layer dims must end in 1, one score per sample, got {self.layer_dims}")
        n_layers = len(self.layer_dims) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ConfigError(
                f"{n_layers} layers need {n_layers} weight and bias blocks, "
                f"got {len(self.weights)} and {len(self.biases)}"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[i + 1], self.layer_dims[i])
            if w.shape != want:
                raise ConfigError(f"weight block {i} has shape {w.shape}, want {want}")
            if b.shape != (self.layer_dims[i + 1],):
                raise ConfigError(f"bias block {i} has shape {b.shape}, want ({self.layer_dims[i + 1]},)")

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class AdamState:
    """Moment accumulators over the flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_mlp(layer_dims: Sequence[int], seed: int = 0) -> MlpModel:
    """Uniform init in [-0.05, 0.05] from a dedicated substream of the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    dims = tuple(int(d) for d in layer_dims)
    weights = []
    biases = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        w = rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=(n_out, n_in))
        b = rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=n_out)
        w.setflags(write=False)
        b.setflags(write=False)
        weights.append(w)
        biases.append(b)
    return MlpModel(layer_dims=dims, weights=tuple(weights), biases=tuple(biases))


def mlp_forward(model: MlpModel, x: np.ndarray) -> List[np.ndarray]:
    """Layer activations for a batch, input first. Identity nonlinearity."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_dims[0]:
        raise ConfigError(f"input width {x.shape[1]} does not match model input dim {model.layer_dims[0]}")
    activations = [x]
    for w, b in zip(model.weights, model.biases):
        activations.append(activations[-1] @ w.T + b)
    return activations


def _scored(rows: RowSource, score: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One score per row of the source, shape (n,): `score` of BATCH_ROWS rows at a time, read through one buffer."""
    n = len(rows)
    scores = np.empty(n)
    buffer = np.empty((min(BATCH_ROWS, n), rows.width))
    for lo in range(0, n, BATCH_ROWS):
        hi = min(lo + BATCH_ROWS, n)
        scores[lo:hi] = score(rows.read(range(lo, hi), buffer))
    return scores


@blas.one_thread()
def mlp_predict(model: MlpModel, rows: RowSource) -> np.ndarray:
    """One score per row of the source, shape (n,), BATCH_ROWS rows at a time through one buffer."""
    if rows.width != model.layer_dims[0]:
        raise ConfigError(f"input width {rows.width} does not match model input dim {model.layer_dims[0]}")
    return _scored(rows, lambda x: mlp_forward(model, x)[-1][:, 0])


def mlp_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    out: Optional[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]] = None,
) -> Tuple[float, Sequence[np.ndarray], Sequence[np.ndarray]]:
    """MSE loss and its gradients for a batch of inputs and their (n,) targets.

    Loss is the mean over the batch of the squared residual. With identity
    activations backprop is a chain of matrix products; gradients are exact.
    `out` holds (weight, bias) gradient blocks to write into, in the shapes
    of the model's blocks.

    Each weight gradient `delta.T @ activations` is written in column
    blocks of equal width and at most about ADAM_SLICE elements: four of
    4005 columns at the paper's 16,020 inputs and 8 units, one for the
    small layers. At a batch of 10 a block (320k multiply-adds) is below
    OpenBLAS's threading cutoff (about 1M; the whole product is 1.28M), so
    it runs on the calling thread and no BLAS worker spins through the
    single-threaded Adam update that follows, even where `train_mlp`'s
    one-thread setting finds no OpenBLAS setter. Each element is still one
    dot product over the batch rows, so the result is bit for bit that of
    the whole product. The widths are equal so that no block is a single
    column: numpy sends that to BLAS's matrix-vector routine, which rounds
    differently.

    Measured with `blas.openblas` patched to find no setter, at
    OPENBLAS_NUM_THREADS=2 on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31):
    `train_mlp` on the 832 x 16,020 train split of `--synthetic
    89,180,1041` took 2.13-2.24 s wall and 2.13-2.19 s CPU with the blocks,
    and 2.17-3.01 s wall and 4.31-5.08 s CPU with one product per weight
    gradient (3 alternating runs each, the same weights).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise ConfigError(f"{x.shape[0]} inputs need targets of shape ({x.shape[0]},), got {y.shape}")
    activations = mlp_forward(model, x)
    residual = activations[-1] - y[:, None]
    loss = float(np.mean(residual**2))
    delta = residual * (2.0 / residual.size)
    if out is None:
        out = ([np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases])
    grads_w, grads_b = out
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w = grads_w[layer]
        n_blocks = -(-grad_w.size // ADAM_SLICE)
        cols = -(-grad_w.shape[1] // n_blocks)
        for lo in range(0, grad_w.shape[1], cols):
            np.matmul(delta.T, activations[layer][:, lo : lo + cols], out=grad_w[:, lo : lo + cols])
        np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            delta = delta @ model.weights[layer]
    return loss, grads_w, grads_b


def adam_init(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros(model.param_count), v=np.zeros(model.param_count))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One Adam update of a flat parameter vector at ADAM_LR, in place; advances the state.

    Each slice goes through the textbook expressions in their usual order,
    so the result is bit for bit that of the unsliced arithmetic.
    """
    if theta.shape != state.m.shape or grad.shape != theta.shape:
        raise ConfigError(
            f"parameters {theta.shape} and gradient {grad.shape} do not match the state's {state.m.shape}"
        )
    state.step += 1
    t = state.step
    scale = ADAM_LR * np.sqrt(1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA1**t)
    work = np.empty((2, min(ADAM_SLICE, theta.size)))
    for lo in range(0, theta.size, ADAM_SLICE):
        p, g = theta[lo : lo + ADAM_SLICE], grad[lo : lo + ADAM_SLICE]
        m, v = state.m[lo : lo + ADAM_SLICE], state.v[lo : lo + ADAM_SLICE]
        a, b = work[0, : p.size], work[1, : p.size]
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.add(m, a, out=m)
        # v = beta2 * v + (1 - beta2) * g**2
        np.multiply(v, ADAM_BETA2, out=v)
        np.square(g, out=a)
        np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.add(v, a, out=v)
        # p = p - scale * m / (sqrt(v) + eps)
        np.sqrt(v, out=a)
        np.add(a, ADAM_EPS, out=a)
        np.multiply(m, scale, out=b)
        np.divide(b, a, out=b)
        np.subtract(p, b, out=p)


def _blocks(layer_dims: Tuple[int, ...], flat: np.ndarray) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Weight and bias views into one flat vector: every weight block, then every bias block."""
    shapes = [(n_out, n_in) for n_in, n_out in zip(layer_dims[:-1], layer_dims[1:])]
    shapes += [(n_out,) for n_out in layer_dims[1:]]
    views = []
    start = 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    n_layers = len(layer_dims) - 1
    return tuple(views[:n_layers]), tuple(views[n_layers:])


@blas.one_thread()
def train_mlp(rows: RowSource, targets: np.ndarray, seed: int = 0) -> Tuple[MlpModel, List[float]]:
    """Mini-batch Adam on MSE for a (rows.width, *HIDDEN_DIMS, 1) net on the
    source's n rows and their (n,) targets: EPOCHS passes of BATCH_ROWS-row
    mini-batches at ADAM_LR; deterministic given the seed.

    The seed spawns two substreams, one for the weight init and one for the
    per-epoch reshuffle, so init and batch order never interact. Returns the
    trained model and the per-epoch mean loss history. A non-finite loss
    aborts immediately with the epoch and batch where it appeared.

    Parameters and gradients each live in one flat vector that the layer
    blocks view, so every step updates them in place. Each mini-batch is
    read from the source into one reused (BATCH_ROWS, width) buffer.
    """
    targets = np.asarray(targets, dtype=float)
    n_samples = len(rows)
    if targets.shape != (n_samples,):
        raise ConfigError(f"{n_samples} rows need targets of shape ({n_samples},), got {targets.shape}")

    streams = np.random.SeedSequence(seed).spawn(2)
    initial = init_mlp((rows.width, *HIDDEN_DIMS, 1), seed=seed)
    dims = initial.layer_dims
    shuffle_rng = np.random.default_rng(streams[1])
    state = adam_init(initial)

    theta = np.concatenate([p.ravel() for p in initial.weights + initial.biases])
    grad = np.empty_like(theta)
    model = MlpModel(dims, *_blocks(dims, theta))
    grad_blocks = _blocks(dims, grad)
    x_rows = np.empty((min(BATCH_ROWS, n_samples), rows.width))
    y_rows = np.empty(min(BATCH_ROWS, n_samples))

    history: List[float] = []
    for epoch in range(EPOCHS):
        order = shuffle_rng.permutation(n_samples)
        epoch_losses = []
        for lo in range(0, n_samples, BATCH_ROWS):
            picked = order[lo : lo + BATCH_ROWS]
            x = rows.read(picked, x_rows)
            # the rows come from a permutation, so clipping never applies; it
            # lets take() write straight into the buffer
            y = np.take(targets, picked, axis=0, out=y_rows[: picked.size], mode="clip")
            loss, _, _ = mlp_gradients(model, x, y, out=grad_blocks)
            if not np.isfinite(loss):
                raise NumericError(
                    f"loss became non-finite ({loss}) at epoch {epoch + 1}, batch {lo // BATCH_ROWS + 1}; "
                    "rescale the inputs"
                )
            adam_step(theta, grad, state)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    theta.setflags(write=False)
    return MlpModel(dims, *_blocks(dims, theta)), history


@blas.one_thread()
def linreg_predict(model: ReadoutSolution, rows: RowSource) -> np.ndarray:
    """One score per row of the source under a fitted linear model, shape (n,), BATCH_ROWS rows at
    a time through one buffer, as `mlp_predict` reads them."""
    return _scored(rows, lambda x: (x @ model.w_out.T + model.b_out)[:, 0])
