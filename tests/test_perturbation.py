"""Region perturbation: removing what a map marks must move the output.

Conservation and the oracle check the arithmetic of the maps, not that they
point at what the model uses. Following Bach et al. (2015, "On pixel-wise
explanations for non-linear classifier decisions by layer-wise relevance
propagation") and Samek et al. (2017, "Evaluating the visualization of what
a deep neural network has learned"), each preprocessed sample has its top-k
cells, ranked by relevance signed toward the predicted class, set to zero
and is fed forward again. The signed drop of the output is compared with the
drop from zeroing k random valid cells.
"""

import numpy as np
import pytest

from esnlrp import data, readout
from esnlrp.lrp import RunningMean, relevance_map
from esnlrp.readout import fit_readout
from esnlrp.reservoir import EsnConfig, final_states, init_reservoir, model_output

from helpers import distractor_task, random_model, random_sample, write_enso_container
from reference_gradient import gradient_times_input, output_gradient

SEED = 3
N_TRAIN = 40
FRACTIONS = (0.02, 0.05, 0.10)
# the top-k drop must exceed the random drop this many times over, at every k
MARGIN = 3.0


def synthetic_input(d, t):
    # 50 samples leave the first 40 for the train split
    sample_set = data.synthesize_task(50, d, t, seed=SEED)
    return sample_set.train_samples, np.ones((d, t), dtype=bool)


def container_input(tmp_path):
    path = tmp_path / "sst.sstg"
    write_enso_container(path)
    source = data.enso_source(path)
    return list(source.draw(range(N_TRAIN))), source.valid_mask


def perturbation_drops(samples, valid_mask, n_res):
    """Mean signed output drop, per fraction of valid cells zeroed, for the
    top-relevance cells and for random valid cells."""
    batch = np.stack([data.preprocess_field(s.field) for s in samples])
    model = init_reservoir(EsnConfig(n_in=batch.shape[1], n_res=n_res, seed=SEED))
    states = final_states(model, batch)
    solution = fit_readout(states, np.array([s.index for s in samples]), ridge=1e-8)
    model = model.with_readout(solution.w_out, solution.b_out)

    output = model_output(model, states)
    sign = np.where(output >= 0.0, 1.0, -1.0)  # the predicted class, as `readout.accuracy` decides it
    scores = np.stack([m.scores for m in relevance_map(model, batch)])
    assert np.all(scores[:, ~valid_mask] == 0.0)  # invalid (land) cells are zero inputs
    # the dummy column is never a candidate, nor is an invalid cell
    cells = np.flatnonzero(valid_mask)
    signed = (sign[:, None, None] * scores).reshape(len(samples), -1)[:, cells]
    rng = np.random.default_rng(SEED)

    def drop(picked):
        """Mean signed drop of the output when each sample's picked cells are zeroed."""
        perturbed = batch.copy()
        rows, cols = np.unravel_index(cells[picked], valid_mask.shape)
        perturbed[np.arange(len(samples))[:, None], rows, cols + 1] = 0.0
        return float(np.mean(sign * (output - model_output(model, final_states(model, perturbed)))))

    result = []
    for fraction in FRACTIONS:
        k = max(1, round(fraction * cells.size))
        top = np.argsort(-signed, axis=1, kind="stable")[:, :k]
        random = np.stack([rng.choice(cells.size, size=k, replace=False) for _ in samples])
        result.append((fraction, drop(top), drop(random)))
    return result


@pytest.mark.parametrize(
    "build, n_res",
    [
        pytest.param(lambda tmp_path: synthetic_input(89, 180), 300, id="synthetic-89x180"),
        pytest.param(lambda tmp_path: synthetic_input(16, 96), 100, id="synthetic-16x96"),
        pytest.param(container_input, 300, id="generated-container"),
    ],
)
def test_zeroing_the_most_relevant_cells_moves_the_output_most(tmp_path, build, n_res):
    samples, valid_mask = build(tmp_path)
    drops = perturbation_drops(samples, valid_mask, n_res)
    print(" ".join(f"k={f:.0%}: top {top:.3f} random {rand:.3f}" for f, top, rand in drops))
    for fraction, top, rand in drops:
        assert top > MARGIN * abs(rand), f"k={fraction:.0%}: top-k drop {top:.4f}, random drop {rand:.4f}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_zeroing_the_distractor_barely_moves_the_output(seed):
    """Two blobs of equal energy, only one of them labelled (Kindermans et al. 2018, "Learning
    how to explain neural networks: PatternNet and PatternAttribution"): the trained ESN uses the
    signal, so zeroing the distractor box moves its output by less than 5% of what zeroing the
    signal box does. The El Nino mean map's share of absolute mass in each box is printed, not
    asserted: the z+ maps give the two boxes about equal mass. The same shares of the mean
    gradient x input map (`reference_gradient`) are printed beside them.
    """
    fields, targets, signal_box, distractor_box = distractor_task(200, 24, 96, seed)
    batch = np.stack([data.preprocess_field(field) for field in fields])
    n_train = data.train_count(len(batch))
    model = init_reservoir(EsnConfig(n_in=24, n_res=100, seed=seed))
    states = final_states(model, batch)
    solution = fit_readout(states[:n_train], targets[:n_train], ridge=1e-8)
    model = model.with_readout(solution.w_out, solution.b_out)
    output = model_output(model, states)

    def moved(box):
        """Mean |change| of the output when each sample's box cells are zeroed."""
        r0, r1, c0, c1 = box
        zeroed = batch.copy()
        zeroed[:, r0 : r1 + 1, c0 + 1 : c1 + 2] = 0.0  # past the ones column
        return float(np.mean(np.abs(output - model_output(model, final_states(model, zeroed)))))

    elnino = batch[:n_train][targets[:n_train] >= data.LABEL_THRESHOLD]
    mean = RunningMean()
    for rmap in relevance_map(model, elnino):
        mean.add(rmap)
    gradient_map = np.mean([gradient_times_input(model, sample)[:, 1:] for sample in elnino], axis=0)

    def shares(scores):
        """The signal and the distractor box's shares of the map's absolute mass."""
        mass = np.abs(scores)
        return [float(mass[r0 : r1 + 1, c0 : c1 + 1].sum() / mass.sum()) for r0, r1, c0, c1 in (signal_box, distractor_box)]

    signal, distractor = moved(signal_box), moved(distractor_box)
    print(
        f"output moved: signal {signal:.3f} distractor {distractor:.4f}; El Nino map mass, signal box "
        "against distractor box: z+ {:.3f} {:.3f}, gradient x input {:.3f} {:.3f}".format(
            *shares(mean.normalized()), *shares(gradient_map)
        )
    )
    assert distractor < 0.05 * signal


def test_shuffling_the_readout_over_the_units_breaks_the_model():
    """Model randomisation (Adebayo et al. 2018, "Sanity checks for saliency maps"): on the
    synthetic task (16x96, 300 samples, 100 units, leak rate 0.05), each of five seeded shuffles
    of the trained readout's weights over the units scores the validation split worse than the
    trained model does. Printed, not asserted: each shuffled model's El Nino mean map's
    correlation with the trained one, and the trained map's correlation with a magnitude
    heatmap that needs no model, mean |u| x 0.98^(T-t) (compare Sixt et al. 2020, "When
    explanations lie").
    """
    sample_set = data.synthesize_task(300, 16, 96, seed=SEED)
    batch = np.stack([data.preprocess_field(s.field) for s in sample_set.samples])
    targets = np.array([s.index for s in sample_set.samples])
    n_train = sample_set.n_train
    model = init_reservoir(EsnConfig(n_in=16, n_res=100, leak_rate=0.05, seed=SEED))
    states = final_states(model, batch)
    solution = fit_readout(states[:n_train], targets[:n_train], ridge=1e-8)
    trained = model.with_readout(solution.w_out, solution.b_out)
    elnino = batch[:n_train][targets[:n_train] >= data.LABEL_THRESHOLD]

    def val_accuracy(m):
        return readout.accuracy(model_output(m, states[n_train:]), [s.label for s in sample_set.val_samples]).overall

    def mean_map(m):
        mean = RunningMean()
        for rmap in relevance_map(m, elnino):
            mean.add(rmap)
        return mean.normalized()

    def correlation(a, b):
        return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])

    accuracy, trained_map = val_accuracy(trained), mean_map(trained)
    magnitude = np.abs(elnino[:, :, 1:]).mean(axis=0) * 0.98 ** np.arange(elnino.shape[2] - 2, -1, -1)
    print(f"trained: val accuracy {accuracy:.3f}, map r with mean |u| x 0.98^(T-t) {correlation(trained_map, magnitude):.3f}")
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(trained.config.n_res)
        shuffled = trained.with_readout(trained.w_out[:, order], trained.b_out)
        shuffled_accuracy = val_accuracy(shuffled)
        print(f"shuffle {seed}: val accuracy {shuffled_accuracy:.3f}, map r with trained {correlation(mean_map(shuffled), trained_map):.3f}")
        assert shuffled_accuracy < accuracy


def test_the_gradient_reference_matches_central_differences():
    """`reference_gradient.output_gradient` is the derivative of `reservoir.model_output`: it agrees
    with central finite differences at every input of a small random model."""
    rng = np.random.default_rng(5)
    model = random_model(rng, n=6, d=4, alpha=0.3)
    sample = random_sample(rng, 4, 7)
    step = 1e-5

    def output(u):
        return float(model_output(model, final_states(model, u[None]))[0])

    numeric = np.zeros_like(sample)
    for k, t in np.ndindex(*sample.shape):
        up, down = sample.copy(), sample.copy()
        up[k, t] += step
        down[k, t] -= step
        numeric[k, t] = (output(up) - output(down)) / (2.0 * step)
    gradient = output_gradient(model, sample)
    np.testing.assert_allclose(gradient, numeric, rtol=0.0, atol=1e-8 * np.max(np.abs(gradient)))
    np.testing.assert_array_equal(gradient_times_input(model, sample), sample * gradient)
