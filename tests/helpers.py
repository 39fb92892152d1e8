"""Shared builders for tests: models from explicit arrays, random draws."""

import numpy as np

from esnlrp.reservoir import EsnConfig, EsnModel


def assemble_model(w_in, b_in, w_res, b_res, alpha, w_out=None, b_out=None):
    """An EsnModel from explicit arrays, bypassing the random construction."""
    w_in = np.atleast_2d(np.asarray(w_in, dtype=float))
    n, d = w_in.shape
    config = EsnConfig(n_in=d, n_res=n, leak_rate=alpha)
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
