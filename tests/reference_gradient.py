"""Gradient x input reference for one sample: an explanation that does not conserve.

The exact derivative of the model output y = w_out . x(T) + b_out with
respect to every input u_k(t), by back-propagation through time of the
leaky update x(t) = (1 - alpha) x(t-1) + alpha act(t), act(t) = tanh(pre(t)),
pre(t) = W_in u(t) + b_in + W_res x(t-1) + b_res (no recurrent term at the
first step). With g(t) = dy/dx(t), starting from g(T) = w_out:

    dy/dpre(t) = alpha (1 - act(t)^2) g(t)
    dy/du(t)   = W_in^T dy/dpre(t)
    g(t-1)     = (1 - alpha) g(t) + W_res^T dy/dpre(t)

Gradient x input (Shrikumar et al. 2016; Ancona et al. 2018) is u_k(t) dy/du_k(t).
"""

import numpy as np

from reference_lrp import forward


def output_gradient(model, sample):
    """dy/du of one (n_in, T) sample, the dummy column included, shape (n_in, T)."""
    alpha = model.config.leak_rate
    _, act = forward(model, sample)
    gradient = np.zeros_like(sample, dtype=float)
    g = model.w_out[0].copy()
    for t in range(sample.shape[1] - 1, -1, -1):
        delta = alpha * (1.0 - act[t] ** 2) * g
        gradient[:, t] = model.w_in.T @ delta
        g = (1.0 - alpha) * g + model.w_res.T @ delta
    return gradient


def gradient_times_input(model, sample):
    """u_k(t) dy/du_k(t) of one (n_in, T) sample, the dummy column included."""
    return sample * output_gradient(model, sample)
