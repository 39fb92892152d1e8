"""Independent z+ relevance reference for one sample at full size.

Written from the z+ rule as stated by Montavon et al. 2019 ("Layer-wise
relevance propagation: an overview"), not against the library: a unit j
holding relevance R_j hands input k the share z_jk+ / sum_k' z_jk'+ of it,
where z_jk = w_jk v_k is the contribution of input v_k through weight w_jk
and z+ = max(z, 0); a unit whose positive contributions sum below epsilon
passes nothing on, and its relevance is booked as absorbed.

Each layer forms every contribution z_jk explicitly, one sample at a time:
the input and recurrent halves of a step are kept as two matrices, never
stacked, and no sign split or batching is used. The forward pass is its
own per-sample loop that keeps the activation act(t) apart, so the
activation track is alpha * act(t) here, where the library recovers it
from the states. Unlike the path oracle this reaches paper shape: a step
of a 300-unit reservoir on 89 inputs is a 300 x 389 set of contributions.
"""

import numpy as np


def forward(model, sample):
    """States x(t) and activations act(t) of one (n_in, T) sample, row t-1 for step t."""
    alpha = model.config.leak_rate
    n_steps = sample.shape[1]
    x = np.zeros((n_steps, model.config.n_res))
    act = np.zeros_like(x)
    for t in range(n_steps):
        pre = model.w_in @ sample[:, t] + model.b_in
        if t:
            pre = pre + model.w_res @ x[t - 1] + model.b_res
        act[t] = np.tanh(pre)
        x[t] = alpha * act[t] + ((1.0 - alpha) * x[t - 1] if t else 0.0)
    return x, act


def zplus_layer(relevance, contribution_blocks, epsilon):
    """Pass each unit's relevance down its contributions, one (n_units, m_i) block per input group.

    Returns the relevance on each group's inputs and the relevance absorbed
    by units whose positive contributions, over all groups, sum below epsilon.
    """
    positive = [np.maximum(z, 0.0) for z in contribution_blocks]
    denominator = sum(z.sum(axis=1) for z in positive)
    live = denominator >= epsilon
    absorbed = float(relevance[~live].sum())
    fraction = np.zeros_like(relevance)
    fraction[live] = relevance[live] / denominator[live]
    return [fraction @ z for z in positive], absorbed


def reference_relevance(model, sample, epsilon):
    """(scores, dummy_scores, absorbed, total) of one (n_in, T) sample.

    scores has one column per input column after the first, which is the
    dummy column and receives all relevance left at the first state.
    """
    alpha = model.config.leak_rate
    n_steps = sample.shape[1]
    x, act = forward(model, sample)
    w_out, b_out = model.w_out[0], float(model.b_out[0])
    total = float(w_out @ x[-1]) + b_out

    # readout: one unit, the output, with contributions w_out[j] x_j(T)
    (r,), absorbed = zplus_layer(np.array([total]), [(w_out * x[-1])[None, :]], epsilon)
    scores = np.zeros((sample.shape[0], n_steps - 1))
    for t in range(n_steps - 1, 0, -1):
        # leak and activation tracks of each unit: x(t) = (1-alpha) x(t-1) + alpha act(t)
        z_leak = np.maximum((1.0 - alpha) * x[t - 1], 0.0)
        z_act = np.maximum(alpha * act[t], 0.0)
        denominator = z_leak + z_act
        live = denominator >= epsilon
        absorbed += float(r[~live].sum())
        r_leak = np.zeros_like(r)
        r_act = np.zeros_like(r)
        r_leak[live] = r[live] * z_leak[live] / denominator[live]
        r_act[live] = r[live] * z_act[live] / denominator[live]

        # recurrent step: contributions of u(t) through W_in and of x(t-1) through W_res
        (r_input, r_state), lost = zplus_layer(
            r_act, [model.w_in * sample[:, t][None, :], model.w_res * x[t - 1][None, :]], epsilon
        )
        scores[:, t - 1] = r_input
        r = r_leak + r_state
        absorbed += lost

    (dummy,), lost = zplus_layer(r, [model.w_in * sample[:, 0][None, :]], epsilon)
    return scores, dummy, absorbed + lost, total
