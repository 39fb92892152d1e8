"""Acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s or -rA); the
dataset-dependent criteria skip with an explicit message when no SST
container is named by ESNLRP_SST, and the fading-memory study then runs on the
generated task instead, as specified.
"""

import dataclasses
import functools
import os
import time

import numpy as np
import pytest

from esnlrp import data
from esnlrp.baselines import init_mlp, linreg_predict, mlp_gradients, mlp_predict, train_mlp
from esnlrp.baselines import MlpModel
from esnlrp.lrp import RunningMean, column_center_of_gravity, relevance_map
from esnlrp.readout import ClassLabel, accuracy, fit_readout
from esnlrp.reservoir import (
    EsnConfig,
    init_reservoir,
    run_reservoir,
    spectral_radius,
)

from helpers import (
    MatrixRows, assemble_model, encode, enso_sample_set, preprocess_for_baseline, random_model, random_sample,
)
from oracle_lrp import oracle_relevance

SYNTHETIC_SCALE = dict(n_samples=300, d=16, t=96, seed=0)
SYNTHETIC_ESN = dict(n_res=100, sparsity=0.3, spectral_radius=0.8, seed=0)
RIDGE = 1e-8


def dataset_path():
    """The real SST container's path, from ESNLRP_SST (a variable only these tests read), or None."""
    return os.environ.get("ESNLRP_SST") or None


@functools.lru_cache(maxsize=1)
def real_dataset():
    path = dataset_path()
    if path is None:
        return None
    return enso_sample_set(path)


def require_dataset():
    loaded = real_dataset()
    if loaded is None:
        pytest.skip("SST container not named (set ESNLRP_SST to its path); this criterion needs the real dataset")
    return loaded


def train_esn(sample_set, alpha, ridge=RIDGE, **esn_kwargs):
    kwargs = {**SYNTHETIC_ESN, **esn_kwargs}
    train = sample_set.train_samples
    model = init_reservoir(
        EsnConfig(n_in=train[0].field.shape[0], leak_rate=alpha, **kwargs)
    )
    solution = fit_readout(encode(model, train), np.array([s.index for s in train]), ridge=ridge)
    return model.with_readout(solution.w_out, solution.b_out)


def esn_accuracy(model, samples):
    scores = encode(model, samples) @ model.w_out[0] + model.b_out[0]
    return accuracy(scores, [s.label for s in samples])


def class_mean_map(model, samples, label):
    mean = RunningMean()
    for s in samples:
        if s.label is label:
            mean.add(relevance_map(model, data.preprocess_field(s.field)[None])[0])
    return mean.normalized()


def test_criterion_1_conservation_property():
    rng = np.random.default_rng(1)
    alphas = (0.0, 0.01, 0.5, 1.0)
    started = time.monotonic()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 11))
        t = int(rng.integers(2, 21))
        model = random_model(rng, n, d, alphas[i % 4])
        rmap = relevance_map(model, random_sample(rng, d, t)[None])[0]
        assert rmap.conserved(), (
            f"pair {i}: N={n} D={d} T={t} alpha={alphas[i % 4]} "
            f"error {rmap.conservation_error():.3e} exceeds 1e-6*max(1,|y|)"
        )
        worst = max(worst, rmap.conservation_error() / max(1.0, abs(rmap.total)))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"conservation sweep took {elapsed:.1f}s, budget is 60s"
    print(
        f"criterion 1 PASS: 1000 random pairs conserve within 1e-6*max(1,|y|) "
        f"(worst relative error {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2)
    alphas = [0.0, 0.01, 0.5, 1.0]
    started = time.monotonic()
    draws = 0
    worst = 0.0
    while draws < 200:
        for n in (1, 2, 3):
            for d in (1, 2):
                for t in (1, 2, 3):
                    alpha = alphas[draws % 4] if draws % 2 == 0 else float(rng.uniform())
                    model = random_model(rng, n, d, alpha)
                    sample = random_sample(rng, d, t)
                    rmap = relevance_map(model, sample[None])[0]
                    scores, dummy, absorbed, total = oracle_relevance(
                        model.w_in.tolist(), model.b_in.tolist(), model.w_res.tolist(),
                        model.b_res.tolist(), model.w_out[0].tolist(),
                        float(model.b_out[0]), alpha, sample.tolist(),
                    )
                    gap = max(
                        float(np.max(np.abs(rmap.scores - np.array(scores))))
                        if rmap.scores.size else 0.0,
                        float(np.max(np.abs(rmap.dummy_scores - np.array(dummy)))),
                        abs(rmap.absorbed - absorbed),
                        abs(rmap.total - total),
                    )
                    assert gap <= 1e-10, (
                        f"draw {draws}: N={n} D={d} T={t} alpha={alpha} "
                        f"disagrees with the path oracle by {gap:.3e}"
                    )
                    worst = max(worst, gap)
                    draws += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget is 60s"
    print(
        f"criterion 2 PASS: {draws} draws match the path-enumeration oracle "
        f"within 1e-10 (worst gap {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_3_reported_accuracies():
    sample_set, _ = require_dataset()
    per_seed = {"train": [], "val": []}
    for seed in range(5):
        model = train_esn(
            sample_set, alpha=0.01, ridge=0.0, n_res=300, seed=seed
        )
        for split, samples in (
            ("train", sample_set.train_samples), ("val", sample_set.val_samples)
        ):
            report = esn_accuracy(model, samples)
            per_seed[split].append(
                (report.per_class[ClassLabel.EL_NINO], report.per_class[ClassLabel.LA_NINA])
            )
    train_mean = np.mean(per_seed["train"], axis=0)
    val_mean = np.mean(per_seed["val"], axis=0)
    assert np.all(train_mean == 1.0), f"train per-class accuracy {train_mean} != 100%"
    assert np.all(val_mean >= 0.97), f"val per-class accuracy {val_mean} below 97%"
    print(
        f"criterion 3 PASS: 5-seed mean accuracy train {train_mean.tolist()} "
        f"val {val_mean.tolist()}"
    )


def sweep_alpha_study(sample_set):
    accuracies = []
    gravities = []
    for alpha in (0.01, 0.05, 0.2, 0.4):
        model = train_esn(sample_set, alpha=alpha)
        accuracies.append(esn_accuracy(model, sample_set.val_samples).overall)
        mean = class_mean_map(model, sample_set.train_samples, ClassLabel.EL_NINO)
        gravities.append(column_center_of_gravity(mean))
    return accuracies, gravities


def test_criterion_4_fading_memory_sweep():
    if real_dataset() is not None:
        sample_set, _ = real_dataset()
        targets = (0.99, 0.99, 0.95, 0.58)
        accuracies, gravities = sweep_alpha_study(sample_set)
        for measured, target in zip(accuracies, targets):
            assert abs(measured - target) <= 0.05, (
                f"val accuracy {measured:.3f} not within 5 points of {target:.2f}"
            )
        for earlier, later in zip(gravities, gravities[1:]):
            assert later >= earlier - 1e-9, f"center of gravity fell: {gravities}"
        print(
            f"criterion 4 PASS (dataset): val accuracies {accuracies} "
            f"within 5 points of {targets}, gravity {gravities} non-decreasing"
        )
        return

    sample_set = data.synthesize_task(**SYNTHETIC_SCALE)
    accuracies, gravities = sweep_alpha_study(sample_set)
    for earlier, later in zip(accuracies, accuracies[1:]):
        assert later <= earlier + 1e-9, f"accuracy rose along alpha: {accuracies}"
    drop = accuracies[0] - accuracies[-1]
    assert drop >= 0.20, (
        f"alpha=0.4 only {drop * 100:.1f} points below alpha=0.01: {accuracies}"
    )
    for earlier, later in zip(gravities, gravities[1:]):
        assert later >= earlier - 1e-9, f"center of gravity fell: {gravities}"
    print(
        "criterion 4 PASS (synthetic fallback): val accuracies "
        f"{[round(a, 3) for a in accuracies]} non-increasing, drop {drop * 100:.0f} "
        f"points, gravity {[round(g, 2) for g in gravities]} non-decreasing"
    )


def test_criterion_5_permutation_robustness():
    sample_set = data.synthesize_task(**SYNTHETIC_SCALE)
    alpha = 0.05

    base_model = train_esn(sample_set, alpha=alpha)
    base_accuracy = esn_accuracy(base_model, sample_set.val_samples).overall
    base_mean = class_mean_map(base_model, sample_set.train_samples, ClassLabel.EL_NINO)

    permutation = data.column_permutation(SYNTHETIC_SCALE["t"], seed=1)
    permuted = (dataclasses.replace(s, field=s.field[:, permutation]) for s in sample_set.samples)
    permuted_set = data.SampleSet(tuple(permuted))
    for original, shuffled in zip(sample_set.samples, permuted_set.samples):
        round_trip = data.inverse_permute(shuffled.field, permutation)
        np.testing.assert_array_equal(round_trip, original.field)

    perm_model = train_esn(permuted_set, alpha=alpha)
    perm_accuracy = esn_accuracy(perm_model, permuted_set.val_samples).overall
    perm_mean = class_mean_map(perm_model, permuted_set.train_samples, ClassLabel.EL_NINO)
    restored = data.inverse_permute(perm_mean, permutation)

    gap = abs(base_accuracy - perm_accuracy)
    assert gap <= 0.01, f"accuracy gap {gap:.4f} exceeds one point"
    r = float(np.corrcoef(base_mean.ravel(), restored.ravel())[0, 1])
    assert r >= 0.8, f"restored map correlates only r={r:.3f} with the base map"
    print(
        f"criterion 5 PASS: accuracy gap {gap:.4f} <= 0.01, restored-map r={r:.3f} "
        ">= 0.8, column round-trip exact"
    )


def central_difference_check(model, x, y, h=1e-6, budget=1e-5):
    _, grads_w, grads_b = mlp_gradients(model, x, y)
    analytic = grads_w + grads_b
    params = list(model.weights) + list(model.biases)
    n_w = len(model.weights)
    worst = 0.0
    for block_index, block in enumerate(params):
        for flat in range(block.size):
            probes = []
            for sign in (+1.0, -1.0):
                bumped = [p.copy() for p in params]
                bumped[block_index].flat[flat] += sign * h
                probe = MlpModel(
                    layer_dims=model.layer_dims,
                    weights=tuple(bumped[:n_w]),
                    biases=tuple(bumped[n_w:]),
                )
                probes.append(mlp_gradients(probe, x, y)[0])
            numeric = (probes[0] - probes[1]) / (2.0 * h)
            reference = analytic[block_index].flat[flat]
            gap = abs(numeric - reference) / max(abs(reference), 1.0)
            assert gap <= budget, (
                f"block {block_index} entry {flat}: numeric {numeric:.8e} vs "
                f"analytic {reference:.8e}"
            )
            worst = max(worst, gap)
    return worst


def test_criterion_6_baselines():
    rng = np.random.default_rng(6)
    worst = 0.0
    for dims in ((2, 1), (3, 4, 1), (4, 3, 2, 1)):
        model = init_mlp(dims, seed=1)
        x = rng.normal(size=(6, dims[0]))
        y = rng.normal(size=6)
        worst = max(worst, central_difference_check(model, x, y))

    if real_dataset() is None:
        print(
            f"criterion 6 PASS (gradients only): central-difference gap {worst:.3e} "
            "<= 1e-5; accuracy part skipped, needs the real dataset"
        )
        pytest.skip(
            "gradient check passed; the 100% train/val accuracy part needs the "
            "SST container (set ESNLRP_SST to its path)"
        )

    sample_set, mask = real_dataset()

    def vectors(samples):
        return np.stack([preprocess_for_baseline(s, mask) for s in samples])

    train, val = sample_set.train_samples, sample_set.val_samples
    x_train, y_train = vectors(train), np.array([s.index for s in train])

    linreg = fit_readout(x_train, y_train, ridge=RIDGE)
    for split, samples, x in (("train", train, x_train), ("val", val, vectors(val))):
        scores = linreg_predict(linreg, MatrixRows(x))
        report = accuracy(scores, [s.label for s in samples])
        assert report.overall == 1.0, f"linreg {split} accuracy {report.overall} != 100%"

    mlp, _ = train_mlp(data.BaselineRows(train, mask), y_train, seed=0)
    assert mlp.param_count == 87_993
    for split, samples in (("train", train), ("val", val)):
        scores = mlp_predict(mlp, data.BaselineRows(samples, mask))
        report = accuracy(scores, [s.label for s in samples])
        assert report.overall == 1.0, f"mlp {split} accuracy {report.overall} != 100%"
    print(
        f"criterion 6 PASS: gradient gap {worst:.3e} <= 1e-5; linreg and "
        "87,993-parameter mlp at 100% train and val accuracy"
    )


def test_criterion_7_data_pipeline_counts():
    sample_set, _ = require_dataset()
    n_months = data.open_sst(dataset_path()).n_months
    n_labeled = len(sample_set.samples)
    n_train = len(sample_set.train_samples)
    n_val = len(sample_set.val_samples)
    assert n_months == 1704, f"loaded {n_months} months, expected 1704"
    assert abs(n_labeled - 1041) <= 0.02 * 1041, (
        f"{n_labeled} labeled samples, outside 1041 +- 2%"
    )
    assert (n_train, n_val) == (
        int(data.TRAIN_FRACTION * n_labeled), n_labeled - int(data.TRAIN_FRACTION * n_labeled)
    )
    print(
        f"criterion 7 PASS: {n_months} months, {n_labeled} labeled "
        f"(deviation {n_labeled - 1041} from 1041), split {n_train}/{n_val} "
        f"(target 832/209, deviation {n_train - 832}/{n_val - 209})"
    )


def test_criterion_8_numerics():
    # spectral-radius rescale, judged by an independent eigenvalue oracle
    for n_res, target in ((50, 0.8), (120, 1.3)):
        model = init_reservoir(EsnConfig(n_in=4, n_res=n_res, spectral_radius=target, seed=2))
        measured = float(np.max(np.abs(np.linalg.eigvals(model.w_res))))
        assert abs(measured - target) <= 1e-6 * target, (
            f"n_res={n_res}: eigenvalue radius {measured} vs target {target}"
        )

    # alpha=0 freezes the state at zero
    rng = np.random.default_rng(8)
    frozen = init_reservoir(EsnConfig(n_in=3, n_res=30, leak_rate=0.0, seed=3))
    states = run_reservoir(frozen, random_sample(rng, 3, 12)[None])
    assert np.all(states == 0.0)

    # alpha=1 with w_res=0: every score lands on the final column
    memoryless = assemble_model(
        w_in=rng.uniform(-1, 1, size=(6, 4)), b_in=rng.uniform(-1, 1, size=6),
        w_res=np.zeros((6, 6)), b_res=rng.uniform(-1, 1, size=6),
        alpha=1.0, w_out=rng.uniform(0, 1, size=(1, 6)), b_out=[0.0],
    )
    rmap = relevance_map(memoryless, random_sample(rng, 4, 9)[None])[0]
    assert np.all(rmap.scores[:, :-1] == 0.0)
    assert np.all(rmap.dummy_scores == 0.0)
    assert rmap.conservation_error() <= 1e-9 * max(1.0, abs(rmap.total))

    # readout against explicitly solved normal equations
    x = rng.normal(size=(60, 12))
    y = rng.normal(size=60)
    design = np.hstack([x, np.ones((60, 1))])
    for ridge in (0.0, 1e-4):
        solution = fit_readout(x, y, ridge=ridge)
        gram = design.T @ design
        gram[np.arange(12), np.arange(12)] += ridge
        beta = np.linalg.solve(gram, design.T @ y)
        np.testing.assert_allclose(solution.w_out[0], beta[:-1], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(solution.b_out, beta[-1:], rtol=1e-8)
    print(
        "criterion 8 PASS: rescale within 1e-6 (eigenvalue oracle), alpha=0 "
        "trajectories zero, alpha=1/w_res=0 relevance on final column only, "
        "readout matches normal equations within 1e-8"
    )
