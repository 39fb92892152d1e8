import base64
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esnlrp import baselines, blas, cli, data, lrp, persistence, readout, reservoir
from esnlrp.errors import ConfigError
from helpers import (
    MatrixRows, alive, encode, enso_sample_set, one_weight, preprocess_for_baseline, track_generated_samples,
    write_enso_container,
)

SMALL = ["--synthetic", "8,12,12", "--n-res", "20", "--ridge", "1e-8"]


def run_cli(*args):
    return cli.main(list(args))


def subprocess_env(**extra):
    """The environment for a child interpreter that imports esnlrp from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


def read_report(path):
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def metric(rows, model, split, name):
    for row in rows:
        if row["model"] == model and row["split"] == split and row["metric"] == name:
            return row["value"]
    raise KeyError(f"{model}/{split}/{name} not in report")


def test_train_writes_model_and_report(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    assert (out / "esn_model.json").exists()
    assert (out / "samples.csv").exists()
    rows = read_report(out / "train_report.csv")
    for split in ("train", "val"):
        value = float(metric(rows, "esn", split, "accuracy_overall"))
        assert 0.0 <= value <= 1.0
    assert metric(rows, "esn", "train", "n_samples") == "9"
    assert metric(rows, "esn", "val", "n_samples") == "3"


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_repeated_runs_are_byte_identical(tmp_path, command):
    """Every file a command writes is the same on a rerun (at a fixed BLAS thread count)."""
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        if command in ("evaluate", "relevance"):
            assert run_cli("train", "--out", str(out), "--seed", "5", *SMALL) == 0
        assert run_cli(command, "--out", str(out), "--seed", "5", *SMALL) == 0
    files = tree_bytes(first)
    assert len(files) > 1
    assert files == tree_bytes(second)


def test_importing_the_cli_loads_no_scipy():
    probe = "import sys, esnlrp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "[]"


def test_importing_the_package_root_or_data_loads_only_what_it_uses():
    """The package root loads no submodule, and `esnlrp.data` only the two it imports and
    `esnlrp.blas`, which `esnlrp.readout` imports to run its solve at one BLAS thread."""
    probe = (
        "import sys, esnlrp; print(sorted(m for m in sys.modules if m.startswith('esnlrp.')));"
        "import esnlrp.data; print(sorted(m for m in sys.modules if m.startswith('esnlrp.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.splitlines() == ["[]", "['esnlrp.blas', 'esnlrp.data', 'esnlrp.errors', 'esnlrp.readout']"]


def test_each_command_runs_a_sample_forward_once_per_use(tmp_path, monkeypatch):
    """Fitting and scoring share one forward pass per sample; maps add one each.

    Encoding goes through final_states, whose batch costs its stacked input
    (n_in * T floats per sample); maps go through run_reservoir, whose batch
    costs its trajectory (the states, T * n_res floats per sample). No batch
    exceeds the byte budget unless it is a single sample. SMALL gives 13
    steps of 8 inputs and 20 units, 832 and 2080 bytes per sample, so a
    9000-byte budget feeds runs of ten and four, and a 4000-byte budget runs
    of four and one.
    """
    batches = []
    forward, final = reservoir.run_reservoir, reservoir.final_states

    def counting_forward(model, sample):
        n_samples, _, n_steps = sample.shape
        batches.append((n_samples, n_samples * n_steps * model.config.n_res * 8))
        return forward(model, sample)

    def counting_final(model, sample):
        n_samples, n_in, n_steps = sample.shape
        batches.append((n_samples, n_samples * n_in * n_steps * 8))
        return final(model, sample)

    monkeypatch.setattr(reservoir, "run_reservoir", counting_forward)
    monkeypatch.setattr(reservoir, "final_states", counting_final)
    # 12 samples, 9 of them train; synthetic maps the 9 train samples, and
    # leak-sweep does that at each of its 4 leak rates, permutation under
    # its base and its permuted model
    expected = {"train": 12, "evaluate": 12, "synthetic": 21, "leak-sweep": 84, "permutation": 42}
    for budget in (cli.TRAJECTORY_BUDGET_BYTES, 9000, 4000):
        monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", budget)
        for command, count in expected.items():
            batches.clear()
            assert run_cli(command, "--out", str(tmp_path / "out"), *SMALL) == 0
            assert sum(n for n, _ in batches) == count, (command, budget)
            assert all(n == 1 or nbytes <= budget for n, nbytes in batches), (command, budget, batches)


# Where numpy's OpenBLAS exposes its thread-count setter, the sweep shape's
# 100 units run every phase at one thread (`blas`), so its outputs are the
# same bytes under any thread count. Elsewhere every phase threads as the
# environment sets, and the outputs only agree within a tolerance.
PINNED = blas.openblas() is not None


def test_relevance_maps_agree_across_blas_thread_counts(tmp_path):
    """Maps from one saved model are byte-identical under 1 and 2 BLAS threads (without a
    thread-count setter, they agree within 1e-12 of their peak).

    At this shape all 48 training samples form one batch, so the batched
    products are large enough for OpenBLAS to split them over two threads.
    """
    shape = ["--synthetic", "16,96,60", "--n-res", "100", "--ridge", "1e-8"]
    model_dir = tmp_path / "model"
    assert run_cli("train", "--out", str(model_dir), *shape) == 0
    maps, files = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        shutil.copytree(model_dir, out)
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "esnlrp.cli", "relevance", "--out", str(out), *shape],
            env=env, check=True, timeout=300,
        )
        paths = sorted((out / "relevance").glob("sample_*.csv"))
        maps[threads] = [np.loadtxt(p, delimiter=",", ndmin=2) for p in paths]
        files[threads] = tree_bytes(out)
    assert len(maps["1"]) == len(maps["2"]) == 48
    if PINNED:
        assert files["1"] == files["2"]
    for one, two in zip(maps["1"], maps["2"]):
        assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(one))


SWEEP_SHAPE = ["--synthetic", "16,96,300", "--n-res", "100", "--ridge", "1e-8"]


def test_fresh_fits_agree_across_blas_thread_counts(tmp_path):
    """train and leak-sweep from scratch under 1 and 2 BLAS threads write the same bytes.

    Without a thread-count setter, at the sweep shape (240 train samples,
    100 units) the encoded states are the same under both settings, so
    what remains is the readout solve: its weights agree within 1e-12 of
    their peak, the leak-sweep mean maps within 1e-9 of their peak, and the
    centres of gravity within 1e-9.
    """
    runs, files = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        for command in ("train", "leak-sweep"):
            subprocess.run(
                [sys.executable, "-m", "esnlrp.cli", command, "--out", str(out), *SWEEP_SHAPE],
                env=env, check=True, timeout=300,
            )
        model = persistence.load_model(out / "esn_model.json")
        runs[threads] = {
            "w_out": np.append(model.w_out, model.b_out),
            "maps": [np.loadtxt(out / f"mean_map_{tag}.csv", delimiter=",") for tag in cli.SWEEP_TAGS],
            "centres": [float(row["mean_map_center_of_gravity"]) for row in read_report(out / "sweep_report.csv")],
        }
        files[threads] = tree_bytes(out)
    if PINNED:
        assert files["1"] == files["2"]
    one, two = runs["1"], runs["2"]
    assert np.max(np.abs(one["w_out"] - two["w_out"])) <= 1e-12 * np.max(np.abs(one["w_out"]))
    for a, b in zip(one["maps"], two["maps"]):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))
    np.testing.assert_allclose(one["centres"], two["centres"], rtol=0.0, atol=1e-9)


def test_paper_shape_fits_agree_across_blas_thread_counts(tmp_path):
    """train and relevance from scratch at paper shape under 1 and 2 BLAS threads, and
    `train --baseline mlp`.

    With 89x180 inputs and 300 units the encoding products and the 28-map
    batch thread, so only agreement is promised, not bits: the train report
    is byte-identical, w_res is bit for bit the same (its eigenvalue solve
    runs at one thread; without a thread-count setter, within 1e-12 of its
    peak), and w_out and every map agree within 1e-9 of theirs. `train
    --baseline` runs every phase at one thread, its fit beside the encoding
    of the train split (240 samples, in runs of 97, 97 and 46), so its
    outputs are the same bytes where a thread-count setter is found.
    """
    shape = ["--synthetic", "89,180,35", "--ridge", "1e-8"]
    runs, baseline_files = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        for command in ("train", "relevance"):
            subprocess.run(
                [sys.executable, "-m", "esnlrp.cli", command, "--out", str(out), *shape],
                env=env, check=True, timeout=300,
            )
        model = persistence.load_model(out / "esn_model.json")
        runs[threads] = {
            "report": (out / "train_report.csv").read_bytes(),
            "w_res": model.w_res,
            "w_out": np.append(model.w_out, model.b_out),
            "maps": [np.loadtxt(p, delimiter=",", ndmin=2) for p in sorted((out / "relevance").glob("sample_*.csv"))],
        }
        subprocess.run(
            [sys.executable, "-m", "esnlrp.cli", "train", *PAPER_BASELINE, "--out", str(tmp_path / f"mlp_{threads}")],
            env=env, check=True, timeout=300,
        )
        baseline_files[threads] = tree_bytes(tmp_path / f"mlp_{threads}")
    if PINNED:
        assert baseline_files["1"] == baseline_files["2"]
    assert sorted(baseline_files["1"]) == ["baseline_mlp.json", "esn_model.json", "samples.csv", "train_report.csv"]
    one, two = runs["1"], runs["2"]
    assert one["report"] == two["report"]
    if PINNED:
        np.testing.assert_array_equal(one["w_res"], two["w_res"])
    assert np.max(np.abs(one["w_res"] - two["w_res"])) <= 1e-12 * np.max(np.abs(one["w_res"]))
    assert np.max(np.abs(one["w_out"] - two["w_out"])) <= 1e-9 * np.max(np.abs(one["w_out"]))
    assert len(one["maps"]) == len(two["maps"]) == 28
    for a, b in zip(one["maps"], two["maps"]):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


# `train --baseline mlp` at paper shape: 240 train samples, encoded in runs of 97, 97 and 46, and 60 validation samples.
PAPER_BASELINE = ["--baseline", "mlp", "--synthetic", "89,180,300", "--ridge", "1e-8"]

# Runs `train --baseline mlp` at paper shape in a fresh interpreter through a
# counting OpenBLAS handle, and prints each call of `train_mlp`,
# `final_states` and `adam_step` as it starts and ends, with its thread and
# the thread count it reads, then the count and the live threads after.
TRAIN_BESIDE_ENCODING = """
import json, sys, threading
from esnlrp import baselines, blas, cli, reservoir

handle, sets, calls = blas.openblas(), [], []
blas.openblas = lambda: blas.Handle(lambda n: (sets.append(n), handle.set(n))[1], handle.get)

def watched(module, name):
    fn = getattr(module, name)

    def call(*args, **kwargs):
        calls.append((name, "start", threading.get_ident(), handle.get()))
        try:
            return fn(*args, **kwargs)
        finally:
            calls.append((name, "end", threading.get_ident(), handle.get()))

    setattr(module, name, call)

watched(baselines, "train_mlp")
watched(baselines, "adam_step")
watched(reservoir, "final_states")
code = cli.main(["train", *sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps({"exit": code, "sets": sets, "calls": calls, "after": handle.get(), "threads": threading.active_count()}))
"""


@pytest.mark.skipif(not PINNED, reason="no OpenBLAS thread-count setter to read the count with")
def test_train_fits_the_baseline_on_a_worker_while_the_train_split_is_encoded(tmp_path):
    """Under 2 BLAS threads `train --baseline mlp` sets one thread before the worker starts and
    2 again after it is joined: the MLP's Adam steps and every encoding read 1, the fit runs on
    its own Python thread while the calling thread encodes, and no thread is left."""
    result = subprocess.run(
        [sys.executable, "-c", TRAIN_BESIDE_ENCODING, str(tmp_path / "out"), *PAPER_BASELINE],
        env=subprocess_env(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True, check=True, timeout=300,
    )
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["exit"] == 0
    assert run["after"] == 2 and run["threads"] == 1
    assert run["sets"] == [1, 2] * (len(run["sets"]) // 2)  # each block restores its own count
    starts = [(name, thread, count) for name, edge, thread, count in run["calls"] if edge == "start"]
    assert len([name for name, _, _ in starts if name == "final_states"]) == 4  # 97, 97 and 46, then 60
    assert {count for name, _, count in starts if name in ("final_states", "adam_step")} == {1}
    order = [(name, edge) for name, edge, _, _ in run["calls"]]
    [fit_thread] = {thread for name, thread, _ in starts if name == "train_mlp"}
    encode_thread = next(thread for name, thread, _ in starts if name == "final_states")
    assert fit_thread != encode_thread
    assert order.index(("final_states", "start")) < order.index(("train_mlp", "end"))


@pytest.mark.skipif(not PINNED, reason="without a thread-count setter no worker is ever started")
def test_without_a_setter_train_fits_the_baseline_first_and_writes_the_same_bytes(tmp_path, monkeypatch):
    """Where no thread-count setter is found, `train --baseline mlp` starts no thread: it fits the
    MLP, then encodes. At one BLAS thread it writes the bytes of the run that overlaps them, and
    the ESN model of `train` without a baseline, whose one pass has the same runs.

    Runs of 64 encode the 240-sample train split in runs of 64, 64, 64 and
    48, then the 60 validation samples. At 300 units the final states
    depend on the runs (100 units hide a shift of the runs by one sample).
    """
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 64 * ENCODE_BYTES_16X96)
    shape = ["--synthetic", "16,96,300", "--n-res", "300", "--ridge", "1e-8"]
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
    handle = blas.openblas()
    argv = ["train", "--baseline", "mlp", *shape]
    before = handle.get()
    handle.set(1)
    try:
        assert run_cli(*argv, "--out", str(tmp_path / "beside")) == 0
        assert len(started) == 1
        monkeypatch.setattr(blas, "openblas", lambda: None)
        assert run_cli(*argv, "--out", str(tmp_path / "first")) == 0
        assert len(started) == 1
        assert run_cli("train", *shape, "--out", str(tmp_path / "alone")) == 0
    finally:
        handle.set(before)
    assert tree_bytes(tmp_path / "beside") == tree_bytes(tmp_path / "first")
    assert (tmp_path / "beside" / cli.MODEL_FILE).read_bytes() == (tmp_path / "alone" / cli.MODEL_FILE).read_bytes()


@pytest.mark.skipif(not PINNED, reason="without a thread-count setter no worker is ever started")
@pytest.mark.parametrize("baseline", ["mlp", "linreg"])
def test_train_with_a_baseline_starts_one_worker_thread(tmp_path, monkeypatch, baseline):
    """However few the train samples (9 here, one run), `train --baseline` fits the baseline on one
    worker thread while the calling thread encodes them."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
    assert run_cli("train", "--baseline", baseline, *SMALL, "--out", str(tmp_path)) == 0
    assert len(started) == 1


def test_no_run_holds_samples_of_both_splits(tmp_path, monkeypatch):
    """At 4 samples a run, `train`, `train --baseline mlp` and `evaluate` encode the 9 train samples
    in runs of 4, 4 and 1, then the 3 validation samples in a run of their own."""
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 4 * 13 * 8 * 8)
    sizes = []
    final_states = reservoir.final_states

    def recorded(model, batch):
        sizes.append(len(batch))
        return final_states(model, batch)

    monkeypatch.setattr(reservoir, "final_states", recorded)
    for argv in (["train"], ["train", "--baseline", "mlp"], ["evaluate"]):
        sizes.clear()
        assert run_cli(*argv, *SMALL, "--out", str(tmp_path)) == 0
        assert sizes == [4, 4, 1, 3], argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow, raised on the worker outside any np.errstate
def test_a_failed_baseline_fit_exits_four_after_the_worker_is_joined(tmp_path, monkeypatch, capsys):
    """The fit's NumericError leaves `train` only after the join, with its exit code and message,
    also where the encoding beside it fails too, and the --out that `train` made goes as with
    any failure. Runs of 4 of the 9 train samples are encoded meanwhile."""
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 4 * 13 * 8 * 8)
    monkeypatch.setattr(baselines, "ADAM_LR", 1e300)
    threads = threading.active_count()
    fresh = tmp_path / "new" / "out"
    assert run_cli("train", "--baseline", "mlp", *SMALL, "--out", str(fresh)) == 4
    assert "numeric failure: loss became non-finite" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir()) == []
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run_cli("train", "--baseline", "mlp", *SMALL, "--out", str(existing)) == 4
    assert list(existing.iterdir()) == []

    def failing(model, batch):
        raise ConfigError("the encoding failed")

    monkeypatch.setattr(reservoir, "final_states", failing)
    assert run_cli("train", "--baseline", "mlp", *SMALL, "--out", str(existing)) == 4
    assert "numeric failure: loss became non-finite" in capsys.readouterr().err
    assert threading.active_count() == threads


# Runs leak-sweep at the sweep shape in a fresh interpreter and prints the CPU
# seconds that the process and the calling thread spent in it.
SWEEP_CPU = """
import json, resource, sys, time
from esnlrp import cli

before, start = resource.getrusage(resource.RUSAGE_SELF), time.thread_time()
code = cli.main(["leak-sweep", *sys.argv[2:], "--out", sys.argv[1]])
thread, after = time.thread_time() - start, resource.getrusage(resource.RUSAGE_SELF)
cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
print(json.dumps({"exit": code, "cpu_s": cpu, "thread_cpu_s": thread}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 cores for a second BLAS thread to run on")
@pytest.mark.skipif(not PINNED, reason="no OpenBLAS thread-count setter to pin the phases with")
def test_leak_sweep_runs_on_one_core_under_two_blas_threads(tmp_path):
    """At 100 units every phase of leak-sweep runs at one BLAS thread, so no worker spins.

    The base is the calling thread's CPU time, as in
    `test_mlp_training_runs_on_one_core_under_two_blas_threads`. With every
    phase threaded as the environment set, the process used about 1.9 CPU
    seconds per second of wall time (2 cores); pinned, about 1.15.
    """
    result = subprocess.run(
        [sys.executable, "-c", SWEEP_CPU, str(tmp_path / "out"), *SWEEP_SHAPE],
        env=subprocess_env(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True, check=True, timeout=300,
    )
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["exit"] == 0
    assert run["cpu_s"] <= 1.3 * run["thread_cpu_s"], run


# Maps 4 samples at paper shape (89x181 inputs, 300 units) in a fresh
# interpreter and prints every thread count set through the OpenBLAS handle
# and the count read at each step back.
PAPER_SHAPE_MAP = """
import json
import numpy as np
from esnlrp import blas, lrp, reservoir

handle, counts = blas.openblas(), {"set": [], "step_back": []}
blas.openblas = lambda: blas.Handle(lambda n: (counts["set"].append(n), handle.set(n))[1], handle.get)
step_back = lrp.relevance_step_back

def counted(*args, **kwargs):
    counts["step_back"].append(handle.get())
    return step_back(*args, **kwargs)

lrp.relevance_step_back = counted
model = reservoir.init_reservoir(reservoir.EsnConfig(n_in=89, n_res=300, leak_rate=0.01, seed=1))
rng = np.random.default_rng(0)
model = model.with_readout(rng.uniform(-1.0, 1.0, (1, 300)), np.zeros(1))
maps = lrp.relevance_map(model, rng.uniform(-1.0, 1.0, (4, 89, 181)))
print(json.dumps({"maps": len(maps), **counts}))
"""


@pytest.mark.skipif(not PINNED, reason="no OpenBLAS thread-count setter to read the count with")
def test_a_paper_shape_relevance_map_never_runs_above_one_blas_thread_under_one():
    """300 units keep the environment's count for their products, and here that is 1: no phase
    of the pass, the eigenvalue solve of the reservoir draw included, sets a higher one."""
    result = subprocess.run(
        [sys.executable, "-c", PAPER_SHAPE_MAP],
        env=subprocess_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, check=True, timeout=300,
    )
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["maps"] == 4
    assert len(run["step_back"]) == 180
    assert set(run["step_back"]) == {1}
    assert all(n <= 1 for n in run["set"]), run["set"]


@pytest.mark.skipif(not PINNED, reason="no OpenBLAS thread-count setter to read the count with")
def test_without_a_setter_every_phase_runs_at_the_environments_count(tmp_path, monkeypatch):
    """With the setter lookup finding nothing, no phase changes the BLAS thread count, so every
    product runs at the count the environment set, as before the phases had their own.

    The count is raised to 2 in-process first, so that a phase pinned to 1
    would show. The eigenvalue and readout solves, the MLP's products and
    each step back read the count as they run.
    """
    handle = blas.openblas()
    seen = []

    def watched(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, handle.get()))
            return fn(*args, **kwargs)
        return call

    for module, name in ((np.linalg, "eigvals"), (np.linalg, "svd"), (lrp, "relevance_step_back"),
                         (baselines, "mlp_forward")):
        monkeypatch.setattr(module, name, watched(getattr(module, name)))
    monkeypatch.setattr(blas, "openblas", lambda: None)
    before = handle.get()
    handle.set(2)
    try:
        assert run_cli("train", "--out", str(tmp_path / "out"), "--baseline", "mlp", *SMALL) == 0
        assert run_cli("leak-sweep", "--out", str(tmp_path / "out"), *SMALL) == 0
    finally:
        handle.set(before)
    assert {name for name, _ in seen} == {"eigvals", "svd", "relevance_step_back", "mlp_forward"}
    assert {count for _, count in seen} == {2}


def test_the_lookup_finds_no_setter_in_a_numpy_that_bundles_none(tmp_path, monkeypatch):
    """`blas.openblas()` passes over a bundled file named *openblas* that is no library, and a
    loaded library under such a name (libm, linked to) that exports no setter, and finds None."""
    maps = Path("/proc/self/maps")
    libm = next((word for word in (maps.read_text().split() if maps.exists() else []) if "/libm." in word), None)
    if libm is None:
        pytest.skip("no loaded libm listed in /proc/self/maps")
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libopenblas-text.so").write_text("not a library")
    (libs / "libopenblas-libm.so").symlink_to(libm)
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert blas.openblas.__wrapped__() is None


def two_readout_rows(doc):
    """Stack a second copy of the readout: w_out (2, n_res), b_out (2,)."""
    for key in ("w_out", "b_out"):
        block = doc["arrays"][key]
        block["shape"][0] = 2
        block["data"] = base64.b64encode(2 * base64.b64decode(block["data"])).decode("ascii")


def an_mlp_of_the_readout(doc):
    """A well-formed MLP document in place of the reservoir's: one (1, n_res) layer, the readout's blocks."""
    arrays = doc["arrays"]
    doc.update(kind="mlp", config={"layer_dims": [doc["config"]["n_res"], 1]})
    doc["arrays"] = {"w0": arrays["w_out"], "b0": arrays["b_out"]}


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda doc: doc["config"].update(bogus=1), "bogus", id="unknown-config-key"),
        pytest.param(lambda doc: doc["config"].pop("n_res"), "n_res", id="missing-config-key"),
        pytest.param(lambda doc: doc["config"].update(activation="sigmoid"), "activation", id="sigmoid"),
        pytest.param(lambda doc: doc["arrays"].pop("w_res"), "w_res", id="missing-array-block"),
        pytest.param(lambda doc: doc["arrays"]["w_in"]["shape"].reverse(), "w_in", id="transposed-w-in"),
        pytest.param(
            lambda doc: doc["arrays"]["w_in"].update(data=5), "array block 'w_in' is malformed", id="non-text-array-data"
        ),
        pytest.param(two_readout_rows, "w_out", id="two-readout-rows"),
        pytest.param(one_weight("w_out", np.nan), "'w_out' holds a non-finite value", id="nan-readout-weight"),
        pytest.param(one_weight("w_res", np.inf), "'w_res' holds a non-finite value", id="inf-recurrent-weight"),
        pytest.param(lambda doc: doc["config"].update(seed=-1), "seed must be a non-negative", id="negative-seed"),
        pytest.param(lambda doc: doc["arrays"]["w_out"]["shape"].pop(0), "w_out", id="one-dimensional-w-out"),
        pytest.param(an_mlp_of_the_readout, "does not hold a trained reservoir model", id="an-mlp"),
        pytest.param(
            lambda doc: [doc["arrays"].pop(k) for k in ("w_out", "b_out")],
            "does not hold a trained reservoir model", id="untrained",
        ),
    ],
)
def test_malformed_model_files_exit_three(tmp_path, capsys, edit, key):
    """Both commands that load the model exit 3 naming the bad entry, and write nothing."""
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    doc = json.loads((out / "esn_model.json").read_text())
    edit(doc)
    (out / "esn_model.json").write_text(json.dumps(doc))
    for command in ("evaluate", "relevance"):
        assert run_cli(command, "--out", str(out), *SMALL) == 3
        assert key in capsys.readouterr().err
    assert not (out / "eval_report.csv").exists()
    assert not (out / "relevance").exists()


@pytest.mark.parametrize(
    "key, value, kind",
    [("n_res", 6.0, "an integer"), ("n_in", 8.0, "an integer"), ("leak_rate", True, "a number")],
    ids=["n_res=6.0", "n_in=8.0", "leak_rate=true"],
)
def test_model_file_settings_of_the_wrong_type_exit_three(tmp_path, capsys, key, value, kind):
    """A saved config value of the wrong type is a data error naming the key, for both commands
    that load the model, and nothing is written; the integers keep the values the model was
    trained with (8 inputs, 6 units), so only their type is at fault."""
    out = tmp_path / "out"
    settings = ["--synthetic", "8,12,12", "--n-res", "6", "--ridge", "1e-8"]
    assert run_cli("train", "--out", str(out), *settings) == 0
    doc = json.loads((out / "esn_model.json").read_text())
    doc["config"][key] = value
    (out / "esn_model.json").write_text(json.dumps(doc))
    for command in ("evaluate", "relevance"):
        assert run_cli(command, "--out", str(out), *settings) == 3
        assert f"'{key}' must be {kind}" in capsys.readouterr().err
    assert not (out / "eval_report.csv").exists()
    assert not (out / "relevance").exists()


def test_fields_of_another_height_than_the_model_exit_three(tmp_path, capsys):
    """Fields with more rows than the saved model has inputs are a data error, and nothing is written."""
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    for command in ("evaluate", "relevance"):
        assert run_cli(command, "--synthetic", "10,12,12", "--out", str(out)) == 3
        assert "fields have 10 rows" in capsys.readouterr().err
    assert not (out / "eval_report.csv").exists()
    assert not (out / "relevance").exists()


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthetic": [8, 12, 12], "n_res": 16, "ridge": 1e-8, "alpha": 0.05,
    }))
    out = tmp_path / "out"
    assert run_cli("train", "--config", str(config), "--out", str(out), "--alpha", "0.2") == 0
    saved = json.loads((out / "esn_model.json").read_text())
    assert saved["config"]["leak_rate"] == 0.2  # flag beats config file
    assert saved["config"]["n_res"] == 16


def test_config_file_class_alias_and_unknown_key(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"class": "elnino"}))
    assert run_cli(
        "relevance", "--config", str(config), "--out", str(out), *SMALL
    ) == 0
    audit = (out / "relevance_audit.csv").read_text(encoding="ascii").splitlines()
    assert all(line.split(",")[2] == "elnino" for line in audit[1:])

    capsys.readouterr()
    for key in ("sparseness", "class_filter", "epsilon"):
        config.write_text(json.dumps({key: 0.5}))
        assert run_cli("train", "--config", str(config), "--out", str(out), *SMALL) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, key",
    [
        pytest.param({"n_res": 20.5}, "n_res", id="n_res=20.5"),
        pytest.param({"alpha": "0.1"}, "alpha", id="alpha=str"),
        pytest.param({"synthetic": 5}, "synthetic", id="synthetic=5"),
        pytest.param({"synthetic": [8.0, 12, 12]}, "synthetic", id="synthetic=float"),
        pytest.param({"ridge": True}, "ridge", id="ridge=true"),
        pytest.param({"alpha": 10**400}, "alpha", id="alpha=10**400"),
    ],
)
def test_config_file_values_of_the_wrong_type_exit_two(tmp_path, capsys, settings, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": [8, 12, 12], "ridge": 1e-8, **settings}))
    assert run_cli("train", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert f"{key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("{not json", "cannot read config file", id="not-json"),
        pytest.param("[8, 12, 12]", "must hold a JSON object", id="a-list"),
        pytest.param('{"class": "x"}', "--class must be one of", id="class=x"),
        pytest.param('{"baseline": "x"}', "--baseline must be one of", id="baseline=x"),
    ],
)
def test_config_files_that_cannot_be_used_exit_two_naming_the_file(tmp_path, capsys, text, message):
    """A config file that is no JSON object, or names a --class or --baseline there is none of, is a
    configuration error naming the file, found before --out is made."""
    config = tmp_path / "config.json"
    config.write_text(text, encoding="ascii")
    out = tmp_path / "o"
    assert run_cli("train", *SMALL, "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and str(config) in err
    assert not out.exists()


def test_integers_for_number_settings_save_as_the_flags_do(tmp_path):
    """A config file's integer for a number setting reads as that number: the saved model is the
    same, byte for byte, as with the flags."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 1, "spectral_radius": 1}))
    for out, settings in (("file", ["--config", str(config)]), ("flags", ["--alpha", "1", "--spectral-radius", "1"])):
        assert run_cli("train", *SMALL, *settings, "--out", str(tmp_path / out)) == 0
    saved = (tmp_path / "file" / "esn_model.json").read_bytes()
    assert saved == (tmp_path / "flags" / "esn_model.json").read_bytes()
    assert json.loads(saved)["config"]["leak_rate"] == 1.0 and b'"leak_rate": 1.0' in saved


def test_a_config_file_value_out_of_range_exits_two_where_a_flag_overrides_it(tmp_path, capsys):
    """The file's settings are checked in full before the flags apply, and the error names the file."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 1.5}))
    out = tmp_path / "o"
    assert run_cli("train", *SMALL, "--config", str(config), "--alpha", "0.2", "--out", str(out)) == 2
    assert f"config file {config}: leak_rate must" in capsys.readouterr().err
    assert not out.exists()


def test_python_callers_meet_the_type_check_of_every_setting():
    """An ExperimentConfig built in Python checks the types a config file's values must have."""
    cfg = cli.ExperimentConfig(command="train", synthetic=[8, 12, 12], alpha=1, ridge=0)
    assert cfg.synthetic == (8, 12, 12) and type(cfg.alpha) is float and type(cfg.ridge) is float
    for settings, message in [
        ({"n_res": 20.0}, "'n_res' must be an integer, got 20.0"),
        ({"seed": False}, "'seed' must be an integer, got False"),
        ({"out": Path("o")}, "'out' must be a string"),
        ({"synthetic": (8, 12)}, "'synthetic' must be a list of three integers"),
        ({"synthetic": [8, 12.0, 12]}, "'synthetic' must be an integer, got 12.0"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.ExperimentConfig(command="train", **settings)
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        cli.ExperimentConfig(command="bogus")


# flag, value, and the setting the error message must name
INVALID_FLAGS = [
    ("--alpha", "1.5", "leak_rate"),
    ("--seed", "-1", "seed"),
    ("--permute-seed", "-1", "permute_seed"),
    ("--spectral-radius", "inf", "spectral_radius"),
    ("--spectral-radius", "-1", "spectral_radius"),
    ("--n-res", "0", "n_res"),
    ("--sparsity", "2", "sparsity"),
    ("--ridge", "inf", "ridge"),
    ("--ridge", "nan", "ridge"),
    ("--synthetic", "5,12,12", "synthetic"),
    ("--synthetic", "8,12,1", "synthetic"),
]


@pytest.mark.parametrize(
    "command, flag, value, setting",
    [
        # train's cases keep the bare flag=value id, so their test ids stay stable
        pytest.param(command, *case, id=f"{case[0][2:]}={case[1]}" + ("" if command == "train" else f"-{command}"))
        for command in cli.COMMANDS
        for case in INVALID_FLAGS
    ],
)
def test_invalid_alpha_is_a_config_error(tmp_path, capsys, command, flag, value, setting):
    """Every command checks every setting, used or not, before it reads data or
    creates --out; the bad flag comes last so it overrides SMALL."""
    out = tmp_path / "o"
    assert run_cli(command, "--out", str(out), *SMALL, flag, value) == 2
    assert f"configuration error: {setting} must" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_synthetic_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("train", "--out", str(tmp_path / "o"), "--synthetic", "8,12")
    assert err.value.code == 2


def test_missing_dataset_paths_exit_three(tmp_path, capsys, monkeypatch, enso_container):
    """A command reads only the inputs its command line names: without --data or --synthetic it
    exits 3 before --out is made, though ESNLRP_SST and ./data/sst.sstg both name a valid container."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("train", "--out", "o", "--data", str(tmp_path / "nope.sstg")) == 3
    assert "data error: cannot read" in capsys.readouterr().err
    (tmp_path / "data").mkdir()
    shutil.copyfile(enso_container[0], tmp_path / "data" / "sst.sstg")
    monkeypatch.setenv("ESNLRP_SST", str(enso_container[0]))
    monkeypatch.setattr(data, "open_sst", lambda path: pytest.fail(f"{path} was read"))
    assert run_cli("train", "--out", "o") == 3
    assert "pass --data <path> or --synthetic d,t,n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli("evaluate", "--out", "o", *SMALL) == 3  # no trained model yet


@pytest.mark.parametrize(
    "argv",
    [["train", "--synthetic", "8,12,12"], ["synthetic"], ["synthetic", "--synthetic", "8,12,12"]],
    ids=["train-synthetic", "synthetic", "synthetic-synthetic"],
)
def test_data_beside_generated_samples_exits_two_before_anything_is_read(tmp_path, capsys, monkeypatch, argv):
    """--data names a second source where the samples are generated: a configuration error, found
    before any source is read or --out is made, even where the path does not exist."""
    monkeypatch.setattr(cli, "sample_source", lambda cfg: pytest.fail("a source was read"))
    out = tmp_path / "o"
    assert run_cli(*argv, "--data", str(tmp_path / "nope.sstg"), "--out", str(out)) == 2
    assert "configuration error: --data" in capsys.readouterr().err
    assert not out.exists()


def test_rank_deficient_plain_regression_exits_four(tmp_path, capsys):
    out = tmp_path / "out"
    # 9 train samples cannot determine 21 readout coefficients without a ridge
    code = run_cli("train", "--out", str(out), "--synthetic", "8,12,12", "--n-res", "20")
    assert code == 4
    assert "rank" in capsys.readouterr().err


def test_evaluate_after_train(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    assert run_cli("evaluate", "--out", str(out), *SMALL) == 0
    rows = read_report(out / "eval_report.csv")
    assert float(metric(rows, "esn", "val", "accuracy_overall")) >= 0.0


def test_relevance_outputs_conserve_and_normalize(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    assert run_cli("relevance", "--out", str(out), *SMALL) == 0

    audit = (out / "relevance_audit.csv").read_text(encoding="ascii").splitlines()
    assert audit[0].startswith("sample,month_id,label,output,")
    assert len(audit) == 1 + 9
    for line in audit[1:]:
        assert line.split(",")[-1] == "1"  # within_tolerance

    per_sample = sorted((out / "relevance").glob("sample_*.csv"))
    assert len(per_sample) == 9
    first = np.loadtxt(per_sample[0], delimiter=",", ndmin=2)
    assert first.shape == (8, 12)

    mean = np.loadtxt(out / "mean_map.csv", delimiter=",", ndmin=2)
    assert mean.shape == (8, 12)
    assert np.max(np.abs(mean)) == pytest.approx(1.0, abs=1e-7)
    header = (out / "mean_map.pgm").read_bytes()[:20]
    assert header.startswith(b"P5\n12 8\n255\n")


@pytest.mark.parametrize("n", [20, 24], ids=["split-at-16", "split-at-19"])
@pytest.mark.parametrize("class_filter", cli.CLASS_FILTERS)
def test_relevance_streams_the_class_train_samples_of_the_synthetic_task(n, class_filter):
    """The samples `relevance` maps on --synthetic are those of the built set, bit for bit.

    They are the --class samples of `synthesize_task(...).train_samples`, in
    order: the same fields, indices and month ids, drawn at the positions
    `cli.class_positions` picks from the source's keys. At n = 24 the first
    validation sample has the odd index 19, a La Nina one.
    """
    cfg = cli.ExperimentConfig(command="relevance", synthetic=(8, 12, n), seed=3, class_filter=class_filter)
    source = cli.sample_source(cfg)
    streamed = list(source.draw(cli.class_positions(source.keys, class_filter)))
    train = data.synthesize_task(n, 8, 12, seed=3).train_samples
    expected = [s for s in train if class_filter in ("both", s.label.value)]
    assert len(streamed) == len(expected) > 0
    for got, want in zip(streamed, expected):
        assert (got.index, got.month_id) == (want.index, want.month_id)
        assert got.field.tobytes() == want.field.tobytes()
    assert max(s.month_id for s in streamed) < data.train_count(n)


@pytest.mark.parametrize("source", ["synthetic", "data"])
def test_relevance_of_one_class_builds_no_field_of_the_other(tmp_path, monkeypatch, source):
    """`relevance --class elnino` builds the fields of the El Nino train samples and no other.

    On --synthetic the generator builds one field per El Nino train sample,
    8 of the 16 train samples. On the 384-month container the generator
    does the same, and once the container's one scan is done it is read
    at those months only.
    """
    path = tmp_path / "sst.sstg"
    if source == "synthetic":
        inputs, generator = ["--synthetic", "8,12,20"], "synthetic_samples"
    else:
        write_enso_container(path)
        inputs, generator = ["--data", str(path)], "enso_samples"
    common = [*inputs, "--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path / "out")]
    assert run_cli("train", *common) == 0
    keys = cli.sample_source(cli.build_config(cli.build_parser().parse_args(["relevance", *common]))).keys
    elnino = [k.month_id for k in keys.train_samples if k.label is readout.ClassLabel.EL_NINO]
    assert 0 < len(elnino) < keys.n_train

    refs = track_generated_samples(monkeypatch, generator)
    reads = []
    read, scan = data.SstContainer.read, data.scan

    def recorded(self, months):
        months = list(months)
        for month, grid in zip(months, read(self, months)):
            reads.append(month)
            yield grid

    def scanned(*args):
        result = scan(*args)
        reads.clear()  # what the scan read
        return result

    monkeypatch.setattr(data.SstContainer, "read", recorded)
    monkeypatch.setattr(data, "scan", scanned)
    assert run_cli("relevance", "--class", "elnino", *common) == 0
    audit = (tmp_path / "out" / "relevance_audit.csv").read_text(encoding="ascii").splitlines()[1:]
    assert [int(line.split(",")[1]) for line in audit] == elnino
    assert len(refs) == len(elnino)
    first_id = (1980 - data.EPOCH_YEAR) * 12
    assert reads == ([] if source == "synthetic" else [m - first_id for m in elnino])


def test_relevance_with_no_sample_of_the_class_exits_three_and_writes_nothing(tmp_path, capsys):
    """Two samples leave one to train, an El Nino one: --class lanina has nothing to map."""
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    assert run_cli("relevance", "--out", str(out), "--class", "lanina", "--synthetic", "8,12,2", *SMALL[2:]) == 3
    assert "no training samples left after --class lanina" in capsys.readouterr().err
    assert not (out / "relevance").exists()
    assert not (out / "relevance_audit.csv").exists()


def test_a_relevance_rerun_leaves_no_stale_maps(tmp_path):
    """A rerun with fewer maps removes the sample files of the earlier run that it does not write."""
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    assert run_cli("relevance", "--out", str(out), "--class", "both", *SMALL) == 0
    assert len(list((out / "relevance").glob("sample_*.csv"))) == 9
    assert run_cli("relevance", "--out", str(out), "--class", "elnino", *SMALL) == 0
    audit = (out / "relevance_audit.csv").read_text(encoding="ascii").splitlines()[1:]
    assert len(audit) == 5
    written = sorted(p.name for p in (out / "relevance").iterdir())
    assert written == [f"sample_{i:04d}.csv" for i in range(5)]


def test_relevance_memory_does_not_grow_with_the_synthetic_sample_count(tmp_path, monkeypatch):
    """`relevance --synthetic 16,96,N` allocates as much at N = 800 as at N = 200.

    The samples stream from the generator a batch at a time, 16 here (a
    trajectory of 97 steps of 20 units costs 15,520 bytes per sample), so
    neither the 160 nor the 640 train fields are ever held together.
    """
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 16 * 15_520)
    model = ["--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    assert run_cli("train", "--synthetic", "16,96,40", *model) == 0
    peaks = {}
    for n in (200, 800):
        tracemalloc.start()
        try:
            assert run_cli("relevance", "--synthetic", f"16,96,{n}", "--class", "elnino", *model) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[800] < 1.25 * peaks[200], f"peaks {peaks}"


@pytest.mark.parametrize("baseline", cli.BASELINES)
def test_train_fits_the_baseline_before_the_validation_split_is_drawn(tmp_path, monkeypatch, baseline):
    """The baseline is fit on the train split alone, each split is let go before the next is
    drawn, and every sample is let go before the readout fit.

    When the baseline's fit starts (`train_mlp`, or the first of the two
    `fit_readout` calls for linreg) the generator has drawn exactly the
    `train_count(n)` train samples; when it draws the first validation
    sample none of them is alive, so the held validation split never adds
    to the train split's peak; when the ESN readout is fit (the last
    `fit_readout` call) none of the 20 samples is alive.
    """
    refs = track_generated_samples(monkeypatch)
    n_train = data.train_count(20)
    drawn_at_baseline_fit, alive_at_readout_fit, train_alive_at_first_val = [], [], []
    train_mlp, fit_readout, generate = baselines.train_mlp, readout.fit_readout, data.synthetic_samples

    def generate_checked(*args, **kwargs):
        def check(sample):
            if len(refs) == n_train + 1:  # `sample` is the first validation sample
                train_alive_at_first_val.append(sum(alive(refs[:n_train])))
            return sample

        return map(check, generate(*args, **kwargs))

    def train_mlp_checked(*args, **kwargs):
        drawn_at_baseline_fit.append(len(refs))
        return train_mlp(*args, **kwargs)

    def fit_readout_checked(*args, **kwargs):
        if baseline == "linreg" and not alive_at_readout_fit:
            drawn_at_baseline_fit.append(len(refs))
        alive_at_readout_fit.append(alive(refs))
        return fit_readout(*args, **kwargs)

    monkeypatch.setattr(baselines, "train_mlp", train_mlp_checked)
    monkeypatch.setattr(readout, "fit_readout", fit_readout_checked)
    monkeypatch.setattr(data, "synthetic_samples", generate_checked)
    argv = ["train", "--synthetic", "8,12,20", "--n-res", "20", "--ridge", "1e-8", "--baseline", baseline]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert len(refs) == 20
    assert drawn_at_baseline_fit == ([] if baseline == "none" else [n_train])
    assert train_alive_at_first_val == [0]
    assert alive_at_readout_fit[-1] == [False] * 20


def test_a_map_batch_of_fewer_units_than_inputs_fits_the_budget_with_its_inputs(tmp_path, monkeypatch):
    """At `--n-res 20` on 89-row fields a map batch's stacked inputs, 89 floats per step,
    outweigh its trajectory of 20: no batch holds more samples than the inputs fit the budget."""
    model = ["--synthetic", "89,12,40", "--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    assert run_cli("train", *model) == 0
    budget = 4 * 13 * 89 * 8  # four samples of 13 steps of 89 inputs
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", budget)
    sizes = []
    run_reservoir = reservoir.run_reservoir

    def recorded(model, inputs):
        sizes.append(len(inputs))
        return run_reservoir(model, inputs)

    monkeypatch.setattr(reservoir, "run_reservoir", recorded)
    assert run_cli("relevance", "--class", "both", *model) == 0
    assert sum(sizes) == data.train_count(40)
    assert max(sizes) == budget // (13 * 89 * 8)


# Encoding a 16x96 sample costs 97 steps of 16 inputs, 12,416 bytes.
ENCODE_BYTES_16X96 = 97 * 16 * 8


def streamed_peaks(tmp_path, monkeypatch, command, *flags):
    """Traced peak bytes of `command --synthetic 16,96,N` at N = 200 and 800, in 64-sample batches.

    An untraced run at N = 40 comes first (for `evaluate`, the `train` that
    saves its model), so the process's one-time allocations, such as the
    first worker thread's, fall inside neither peak whatever ran before.
    """
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 64 * ENCODE_BYTES_16X96)
    model = ["--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    assert run_cli("train" if command == "evaluate" else command, "--synthetic", "16,96,40", *flags, *model) == 0
    peaks = {}
    for n in (200, 800):
        tracemalloc.start()
        try:
            assert run_cli(command, "--synthetic", f"16,96,{n}", *flags, *model) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_memory_does_not_grow_with_the_synthetic_sample_count(tmp_path, monkeypatch, command):
    """`train` without a baseline, and `evaluate`, allocate as much at N = 800 as at N = 200.

    The samples stream from the generator through one forward pass, 64 to a
    batch, so neither the 200 nor the 800 fields (2.5 and 9.8 MB) are ever
    held together. What does grow with N is each sample's key (its index
    and month id), its final state of 20 units and its score, about 300
    bytes a sample.
    """
    peaks = streamed_peaks(tmp_path, monkeypatch, command)
    assert peaks[800] < 1.25 * peaks[200], f"peaks {peaks}"


def test_train_with_the_mlp_baseline_holds_no_more_than_the_train_split(tmp_path, monkeypatch):
    """With `--baseline mlp` the peak grows with N by no more than the train split's fields.

    The MLP trains on the train fields, which are held until the MLP has
    scored them and are let go before the validation fields are drawn;
    those are held in turn while the pass encodes them and the MLP scores
    them, a quarter of the train split's fields. The train split is
    encoded while the MLP is fit, so its final states (20 units, 160 bytes
    a sample) are held beside the fields. The 5% on top of the 480 more
    train fields covers those states, the fields' array headers and the
    samples' keys, targets and shuffle order; holding the 120 more
    validation fields beside the train fields would add 25%.
    """
    peaks = streamed_peaks(tmp_path, monkeypatch, "train", "--baseline", "mlp")
    train_growth = (data.train_count(800) - data.train_count(200)) * 16 * 96 * 8
    growth = peaks[800] - peaks[200]
    assert growth < 1.05 * train_growth, f"peaks {peaks}: {growth / train_growth:.3f} of the train fields' growth"


@pytest.mark.parametrize("command", ["leak-sweep", "permutation", "synthetic"])
def test_the_studies_memory_does_not_grow_with_the_synthetic_sample_count(tmp_path, monkeypatch, command):
    """`leak-sweep`, `permutation` and `synthetic` allocate as much at N = 800 as at N = 200.

    The fit pass draws the samples from the generator into batches of 64,
    and each map pass draws the train samples again, so no set of fields
    (2.5 and 9.8 MB) is held. What grows with N is each sample's key,
    final states (20 units under each of up to four models) and scores.
    """
    peaks = streamed_peaks(tmp_path, monkeypatch, command)
    assert peaks[800] < 1.25 * peaks[200], f"peaks {peaks}"


@pytest.mark.parametrize("command", ["permutation", "leak-sweep"])
def test_the_studies_hold_at_most_one_batch_of_samples_at_every_fit_and_map(tmp_path, monkeypatch, command):
    """Every readout fit and every map of a study runs with at most one batch of generated samples alive.

    The fit pass draws all 20 samples from the generator, and the map pass
    draws the 16 train samples again; no set of fields is built. A fit
    batch holds 7 samples here (13 steps of 8 inputs cost 832 bytes per
    sample) and a map batch 3 (13 steps of 20 units cost 2080): none is
    alive at a fit, which follows the whole pass, and at a map only those
    of the batch being mapped.
    """
    refs = track_generated_samples(monkeypatch)
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 3 * 2080)
    alive_at_fit, alive_at_map = [], []
    fit, relevance = readout.fit_readout, lrp.relevance_map

    def fit_checked(*args, **kwargs):
        alive_at_fit.append(sum(alive(refs)))
        return fit(*args, **kwargs)

    def map_checked(model, batch):
        alive_at_map.append((sum(alive(refs)), len(batch)))
        return relevance(model, batch)

    monkeypatch.setattr(readout, "fit_readout", fit_checked)
    monkeypatch.setattr(lrp, "relevance_map", map_checked)
    argv = [command, "--synthetic", "8,12,20", "--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0
    n_models = 2 if command == "permutation" else len(cli.SWEEP_ALPHAS)
    assert len(refs) == 20 + data.train_count(20)
    assert alive_at_fit == [0] * n_models
    # 16 train samples in batches of 3, 3, 3, 3, 3 and 1, each mapped under every model
    assert len(alive_at_map) == 6 * n_models
    assert all(n_alive <= batch <= 3 for n_alive, batch in alive_at_map), alive_at_map


def test_linreg_at_ridge_zero_with_too_few_samples_exits_four_before_reading_a_row(tmp_path, monkeypatch, capsys):
    """16 train samples cannot fit 96 linear-regression weights unpenalized; no field is drawn, and
    no row read, to find that out."""
    read = []
    monkeypatch.setattr(data.BaselineRows, "read", lambda self, indices, out: read.append(indices))
    drawn = track_generated_samples(monkeypatch)
    out = tmp_path / "out"
    argv = ["train", "--synthetic", "8,12,20", "--n-res", "20", "--baseline", "linreg", "--out", str(out)]
    assert run_cli(*argv) == 4
    assert "rank" in capsys.readouterr().err
    assert read == [] and drawn == []
    assert not (out / "esn_model.json").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["evaluate", *SMALL], 3),
        (["relevance", *SMALL], 3),
        (["train", "--synthetic", "8,12,20", "--n-res", "20", "--baseline", "linreg"], 4),
    ],
    ids=["evaluate", "relevance", "train-linreg-ridge-0"],
)
def test_a_failed_command_leaves_no_out_it_created(tmp_path, argv, code):
    """A failure removes the empty directories it made for --out, parents too; an existing --out stays."""
    fresh = tmp_path / "new" / "out"
    assert run_cli(*argv, "--out", str(fresh)) == code
    assert list(tmp_path.iterdir()) == []
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run_cli(*argv, "--out", str(existing)) == code
    assert existing.is_dir() and list(existing.iterdir()) == []


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
def test_out_naming_a_file_exits_two(tmp_path, capsys, under):
    """--out naming a file, or a path under one, is a configuration error, and the file stays."""
    blocker = tmp_path / "f"
    blocker.write_text("kept", encoding="ascii")
    assert run_cli("train", *SMALL, "--out", str(blocker / under)) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text(encoding="ascii") == "kept"


def relevance_dir_is_a_file(out):
    assert run_cli("train", *TINY, "--out", str(out)) == 0
    (out / "relevance").write_text("kept", encoding="ascii")
    return ["relevance", *TINY], out / "relevance"


def report_path_is_a_directory(out):
    (out / "train_report.csv").mkdir(parents=True)
    return ["train", *TINY], out / "train_report.csv"


TINY = ["--synthetic", "8,12,40", "--n-res", "6", "--ridge", "1e-3"]


@pytest.mark.parametrize("block", [relevance_dir_is_a_file, report_path_is_a_directory])
def test_a_blocked_output_path_exits_two_naming_it(tmp_path, capsys, block):
    """An output path under --out that cannot be written (a file where the maps' directory goes,
    a directory where a report goes) is a configuration error naming the path."""
    out = tmp_path / "o"
    argv, blocked = block(out)
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 2
    assert str(blocked) in capsys.readouterr().err


@pytest.mark.parametrize("settings", [["--n-res", "1"], ["--n-res", "300", "--sparsity", "1e-6"]], ids=["1-unit", "sparse"])
def test_a_sparsity_that_leaves_no_recurrent_weight_exits_two_before_any_fit(tmp_path, monkeypatch, capsys, settings):
    """round(sparsity * n_res**2) = 0 draws no recurrent weight whatever the seed: a configuration
    error found with the other settings, before the baseline is fitted."""
    monkeypatch.setattr(baselines, "train_mlp", lambda *args, **kwargs: pytest.fail("the MLP was fitted"))
    argv = ["train", "--synthetic", "8,12,12", *settings, "--ridge", "1e-3", "--baseline", "mlp"]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert "no recurrent weight" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


TRAIN_MM = ["train", "--synthetic", "8,12,12", "--n-res", "20", "--ridge", "1e-8", "--out", "mm"]


def write_float_n_res_config(directory):
    (directory / "c.json").write_text(json.dumps({"n_res": 20.5}))


def train_and_edit(edit):
    """A set-up that trains a model of 6 units into m6, then applies `edit` to its file."""

    def setup(directory):
        assert run_cli("train", "--synthetic", "8,12,12", "--n-res", "6", "--ridge", "1e-8", "--out", str(directory / "m6")) == 0
        doc = json.loads((directory / "m6" / "esn_model.json").read_text())
        edit(doc)
        (directory / "m6" / "esn_model.json").write_text(json.dumps(doc))

    return setup


def block_the_train_report(directory):
    (directory / "blocked" / "train_report.csv").mkdir(parents=True)


def place_a_container_at_data_sst(directory):
    """A valid container where no flag names it, which a command must not read."""
    (directory / "data").mkdir()
    write_enso_container(directory / "data" / "sst.sstg")


@pytest.mark.parametrize(
    "setup, argv, code, absent",
    [
        (None, ["train", "--synthetic", "5,12,12", "--out", "bad"], 2, "bad"),
        (None, ["evaluate", "--synthetic", "16,96,300", "--n-res", "100", "--ridge", "1e-8", "--out", "empty"], 3, "empty"),
        (TRAIN_MM, ["relevance", "--synthetic", "10,12,12", "--out", "mm"], 3, "mm/relevance"),
        (TRAIN_MM, [*TRAIN_MM[:-1], "mm/esn_model.json"], 2, None),
        (None, ["train", "--synthetic", "8,12,12", "--n-res", "1", "--out", "one"], 2, "one"),
        (None, ["train", "--synthetic", "8,12,2", "--out", "one-sample"], 3, "one-sample"),
        (write_float_n_res_config, ["train", "--config", "c.json", "--synthetic", "8,12,12", "--out", "cfg"], 2, "cfg"),
        (
            train_and_edit(lambda doc: doc["config"].update(n_res=6.0)),
            ["evaluate", "--synthetic", "8,12,12", "--out", "m6"], 3, "m6/eval_report.csv",
        ),
        (
            train_and_edit(one_weight("w_out", np.nan)),
            ["evaluate", "--synthetic", "8,12,12", "--out", "m6"], 3, "m6/eval_report.csv",
        ),
        (block_the_train_report, [*TRAIN_MM[:-1], "blocked"], 2, None),
        (None, ["train", "--synthetic", "8,12,12", "--data", "nope.sstg", "--out", "two-sources"], 2, "two-sources"),
        (place_a_container_at_data_sst, ["train", "--out", "unnamed"], 3, "unnamed"),
    ],
    ids=[
        "bad-shape", "no-model", "field-height", "out-is-a-file", "one-unit", "one-train-sample",
        "config-n-res-20.5", "model-n-res-6.0", "model-nan-weight", "blocked-output", "data-beside-synthetic",
        "unnamed-input",
    ],
)
def test_the_installed_entry_point_exits_with_the_documented_codes(tmp_path, setup, argv, code, absent):
    """The `esnlrp` console script that installing the package makes gives each error its exit
    code and leaves no --out it made. `setup` is a command the script runs first, or a function
    that prepares the directory. Skipped where the script is not installed."""
    script = shutil.which("esnlrp")
    if script is None:
        pytest.skip("no esnlrp console script on PATH; install the package to run this test")
    env = subprocess_env()
    if callable(setup):
        setup(tmp_path)
    elif setup is not None:
        subprocess.run([script, *setup], cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120)
    assert subprocess.run([script, *argv], cwd=tmp_path, env=env, capture_output=True, timeout=120).returncode == code
    assert absent is None or not (tmp_path / absent).exists()


def test_run_leaves_its_config_as_it_was(tmp_path):
    """`synthetic` without --synthetic studies the default task on a copy of the config, not by setting it."""
    cfg = cli.ExperimentConfig(command="synthetic", out=str(tmp_path), n_res=20, ridge=1e-8)
    before = replace(cfg)
    cli.run(cfg)
    assert cfg == before
    assert metric(read_report(tmp_path / "synthetic_report.csv"), "esn", "val", "n_samples") == "60"


def test_several_models_in_one_pass_give_what_each_gives_alone(monkeypatch):
    """`forward_pass` and `maps_for` over several encoders give, bit for bit, what each gives alone.

    Three models read the same draw: two leak rates as drawn, and one with
    its columns permuted, taking its turn last, first (so the batch goes
    back to the drawn order) and in the middle. The small budget splits the
    20 samples into several batches in both passes.
    """
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 3 * 2080)
    cfg = cli.ExperimentConfig(command="leak-sweep", n_res=20)
    base, fast = (reservoir.init_reservoir(replace(cfg.esn_config(8), leak_rate=alpha)) for alpha in (0.01, 0.4))
    encoders = {
        "base": cli.Encoder(base),
        "fast": cli.Encoder(fast),
        "permuted": cli.Encoder(base, data.column_permutation(12, seed=3)),
    }
    source = data.synthetic_source(20, 8, 12, seed=2)
    keys = list(source.keys.samples)
    everything = range(20)

    def noting(drawn):
        """The source, whose every draw notes each sample's key as it is drawn."""

        def draw():
            for sample in source.draw():
                drawn.append(data.SampleKey(sample.index, sample.month_id))
                yield sample

        return replace(source, draw=draw)

    alone = {}
    for name, encoder in encoders.items():
        drawn = []
        [states] = cli.forward_pass([encoder], noting(drawn))
        assert drawn == keys
        fitted = replace(encoder, model=encoder.model.with_readout(np.ones((1, 20)), np.zeros(1)))
        alone[name] = states, fitted, [(key, rmap) for _, key, rmap in cli.maps_for([fitted], source, everything)]

    for order in (["base", "fast", "permuted"], ["permuted", "base", "fast"], ["base", "permuted", "fast"]):
        drawn = []
        states = cli.forward_pass([encoders[name] for name in order], noting(drawn))
        assert drawn == keys
        assert isinstance(states, list) and len(states) == len(order)  # the states alone
        for name, together in zip(order, states):
            assert together.tobytes() == alone[name][0].tobytes(), (order, name)

        maps = [[] for _ in order]
        for i, key, rmap in cli.maps_for([alone[name][1] for name in order], source, everything):
            maps[i].append((key, rmap))
        for name, together in zip(order, maps):
            assert [key for key, _ in together] == [key for key, _ in alone[name][2]] == keys
            for (_, a), (_, b) in zip(together, alone[name][2]):
                assert a.scores.tobytes() == b.scores.tobytes(), (order, name)
                assert a.dummy_scores.tobytes() == b.dummy_scores.tobytes()
                assert (a.absorbed, a.total) == (b.absorbed, b.total)


def test_leak_sweep_draws_one_reservoir_for_its_four_leak_rates(tmp_path, monkeypatch):
    """`leak-sweep` draws and scales its reservoir once: its four models, in both passes, differ
    only in the leak rate and share one `w_res` array (and every other weight)."""
    drawn, models = [], []
    init = reservoir.init_reservoir
    monkeypatch.setattr(reservoir, "init_reservoir", lambda config: drawn.append(init(config)) or drawn[-1])
    for name in ("final_states", "run_reservoir"):

        def recorded(model, batch, run=getattr(reservoir, name)):
            models.append(model)
            return run(model, batch)

        monkeypatch.setattr(reservoir, name, recorded)
    assert run_cli("leak-sweep", *SMALL, "--out", str(tmp_path)) == 0
    [model] = drawn
    assert {m.config.leak_rate for m in models} == set(cli.SWEEP_ALPHAS)
    for m in models:
        assert all(getattr(m, block) is getattr(model, block) for block in ("w_in", "b_in", "w_res", "b_res"))
        assert replace(m.config, leak_rate=model.config.leak_rate) == model.config


@pytest.mark.parametrize("command", ["leak-sweep", "permutation"])
def test_a_study_of_a_class_with_no_train_sample_exits_three_before_drawing_a_field(
    tmp_path, monkeypatch, capsys, command
):
    """On a container whose 124 train months are all El Nino, `--class lanina` leaves nothing
    to map: the study exits 3, as `relevance` does, before any field is drawn or any model fit."""
    container = tmp_path / "warm.sstg"
    offsets = [0.0] * 40
    for year in (3, 13, 23, *range(30, 38)):
        offsets[year] = 4.0
    offsets[38:40] = [-4.0, -4.0]
    write_enso_container(container, n_years=40, offsets=offsets)
    keys = data.enso_source(container).keys
    assert (len(keys.samples), keys.n_train) == (156, 124)
    assert {key.label for key in keys.train_samples} == {readout.ClassLabel.EL_NINO}

    refs = track_generated_samples(monkeypatch, "enso_samples")
    out = tmp_path / "out"
    argv = [command, "--data", str(container), "--n-res", "20", "--ridge", "1e-8", "--out", str(out)]
    assert run_cli(*argv, "--class", "lanina") == 3
    assert "no training samples left after --class lanina" in capsys.readouterr().err
    assert refs == [] and not out.exists()
    assert run_cli(*argv, "--class", "elnino") == 0


def write_two_month_container(path):
    """A 1980-2009 container whose Nino-3.4 index labels exactly two months: the box holds +1 in
    January 1980 and -1 in January 1995, and every other cell and month holds 0."""
    fields = np.zeros((360, data.GRID_N_LAT, data.GRID_N_LON))
    rows, cols = data.nino34_region()
    fields[0, rows[:, None], cols] = 1.0
    fields[180, rows[:, None], cols] = -1.0
    data.write_sst(path, fields, 1980)


@pytest.mark.parametrize(
    "command, source",
    [("train", "synthetic"), ("leak-sweep", "synthetic"), ("permutation", "synthetic"), ("synthetic", "synthetic"),
     ("train", "data")],
    ids=["train", "leak-sweep", "permutation", "synthetic", "train-data"],
)
def test_a_one_sample_train_split_exits_three_before_drawing_a_field(tmp_path, monkeypatch, capsys, command, source):
    """Two samples leave one to train, too few to fit a readout: each fitting command exits 3,
    read from the keys before any field is drawn, and leaves no --out behind."""
    if source == "synthetic":
        inputs, generator = ["--synthetic", "8,12,2"], "synthetic_samples"
    else:
        write_two_month_container(tmp_path / "two.sstg")
        inputs, generator = ["--data", str(tmp_path / "two.sstg")], "enso_samples"
        keys = data.enso_source(tmp_path / "two.sstg").keys
        assert (len(keys.samples), keys.n_train) == (2, 1)
    refs = track_generated_samples(monkeypatch, generator)
    out = tmp_path / "out"
    assert run_cli(command, *inputs, "--n-res", "5", "--ridge", "1e-3", "--out", str(out)) == 3
    assert "need at least two train samples to fit the readout, the split has 1" in capsys.readouterr().err
    assert refs == [] and not out.exists()


def test_every_numeric_flag_and_out_state_their_fields_default():
    """Each "(default: ...)" of a help line is the ExperimentConfig field's default, and every
    numeric flag and --out states one."""
    [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    for parser in commands.choices.values():
        flags = [a for a in parser._actions if a.type in (int, float) or a.dest == "out"]
        assert {a.dest for a in flags} >= {"out", "seed", "alpha", "n_res", "sparsity", "spectral_radius", "ridge"}
        for action in flags:
            stated = re.search(r"\(default: ([^)]*)\)$", action.help)
            assert stated, f"{action.dest} states no default"
            assert (action.type or str)(stated.group(1)) == getattr(cli.ExperimentConfig, action.dest), action.dest


@pytest.mark.parametrize("command", ["permutation", "leak-sweep"])
def test_every_model_of_a_pass_reads_the_same_batch(tmp_path, monkeypatch, command):
    """Each run of a pass is one buffer, which every model's reservoir reads in turn, in the
    encoding pass and in the map pass: no model reads a batch of its own."""
    addresses = []
    for name in ("final_states", "run_reservoir"):

        def recorded(model, batch, run=getattr(reservoir, name)):
            addresses.append(batch.__array_interface__["data"][0])
            return run(model, batch)

        monkeypatch.setattr(reservoir, name, recorded)
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 3 * 2080)
    argv = [command, "--synthetic", "8,12,20", "--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0
    n_models = 2 if command == "permutation" else len(cli.SWEEP_ALPHAS)
    # 16 train samples encoded in runs of 7, 7 and 2, then 4 validation samples in a run of their own,
    # then the 16 train samples mapped in runs of 3, 3, 3, 3, 3 and 1
    assert len(addresses) == 10 * n_models
    runs = [addresses[i : i + n_models] for i in range(0, len(addresses), n_models)]
    assert all(len(set(run)) == 1 for run in runs), runs


@pytest.mark.parametrize(
    "baseline, n",
    # the default shape keeps the ids of the bare baseline names
    [pytest.param(b, n, id=b if n == 300 else f"{b}-{n}") for n in (300, 303) for b in cli.BASELINES],
)
def test_train_streams_to_the_outputs_of_the_whole_set(tmp_path, monkeypatch, baseline, n):
    """`train --synthetic 16,96,n` writes the samples and report bytes of the whole-set computation.

    That computation builds the set (`synthesize_task`), encodes it in one
    batch (`helpers.encode`), scores each split with `mlp_predict` or
    `linreg_predict`, the train rows and then the validation rows, and
    fits each model as `train` does. The streamed pass's ESN states equal
    its own bit for bit, and so do the baseline's scores, one
    `Baseline.score` call per split. At n = 303 the train split's 242 rows
    are not a multiple of `baselines.BATCH_ROWS`, so each split is read
    from its own first row, in chunks that differ from those of one read
    of every row.
    """
    streamed_states, streamed_scores = [], []
    final_states, score = reservoir.final_states, cli.Baseline.score

    def final_states_recorded(model, batch):
        streamed_states.append(final_states(model, batch).copy())
        return streamed_states[-1]

    def score_recorded(self, samples):
        streamed_scores.append(score(self, samples))
        return streamed_scores[-1]

    monkeypatch.setattr(reservoir, "final_states", final_states_recorded)
    monkeypatch.setattr(cli.Baseline, "score", score_recorded)
    out = tmp_path / "out"
    argv = ["--synthetic", f"16,96,{n}", "--n-res", "100", "--ridge", "1e-8", "--seed", "4", "--baseline", baseline]
    assert run_cli("train", *argv, "--out", str(out)) == 0
    monkeypatch.undo()

    cfg = cli.build_config(cli.build_parser().parse_args(["train", *argv]))
    task = data.synthesize_task(n, 16, 96, seed=4)
    n_train, y_train = task.n_train, np.array([s.index for s in task.train_samples])
    unfitted = reservoir.init_reservoir(cfg.esn_config(16))
    states = encode(unfitted, task.samples)
    assert np.concatenate(streamed_states).tobytes() == states.tobytes()
    solution = readout.fit_readout(states[:n_train], y_train, ridge=cfg.ridge)
    model = unfitted.with_readout(solution.w_out, solution.b_out)
    rows = cli.split_rows("esn", task, reservoir.model_output(model, states))
    if baseline == "mlp":
        mlp, history = baselines.train_mlp(data.BaselineRows(task.train_samples), y_train, seed=4)
        scores = [baselines.mlp_predict(mlp, data.BaselineRows(split)) for split in (task.train_samples, task.val_samples)]
        fit_row = f"mlp,train,final_loss,{history[-1]:.9g}"
    elif baseline == "linreg":
        inputs = data.BaselineRows(task.samples)
        x = inputs.read(range(len(inputs)), np.empty((len(inputs), inputs.width)))
        linreg = readout.fit_readout(x[:n_train], y_train, ridge=cfg.ridge)
        scores = [baselines.linreg_predict(linreg, MatrixRows(split)) for split in (x[:n_train], x[n_train:])]
        fit_row = f"linreg,train,mse,{linreg.train_mse:.9g}"
    else:
        scores = []
    assert [a.tobytes() for a in streamed_scores] == [a.tobytes() for a in scores]
    if scores:
        rows += cli.split_rows(baseline, task, np.concatenate(scores)) + [fit_row]

    cli.write_report(tmp_path / "report.csv", rows)
    data.write_sample_index_csv(tmp_path / "samples.csv", task)
    for name, written in (("report.csv", "train_report.csv"), ("samples.csv", "samples.csv")):
        assert (out / written).read_bytes() == (tmp_path / name).read_bytes()


def test_leak_sweep_report_and_maps(tmp_path):
    out = tmp_path / "out"
    assert run_cli("leak-sweep", "--out", str(out), *SMALL) == 0
    lines = (out / "sweep_report.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "alpha,tag,accuracy_overall,accuracy_elnino,accuracy_lanina,mean_map_center_of_gravity"
    assert len(lines) == 5
    for line, tag in zip(lines[1:], ("A", "B", "C", "D")):
        parts = line.split(",")
        assert parts[1] == tag
        for cell in (parts[0], parts[2], parts[5]):
            assert np.isfinite(float(cell))
        assert (out / f"mean_map_{tag}.csv").exists()
        assert (out / f"mean_map_{tag}.pgm").exists()


def test_permutation_report(tmp_path):
    out = tmp_path / "out"
    assert run_cli("permutation", "--out", str(out), "--permute-seed", "3", *SMALL) == 0
    rows = read_report(out / "permutation_report.csv")
    gap = float(metric(rows, "comparison", "val", "accuracy_gap"))
    assert 0.0 <= gap <= 1.0
    r = float(metric(rows, "comparison", "maps", "pearson_restored_vs_base"))
    assert -1.0 <= r <= 1.0
    assert cli.pearson(np.full((2, 3), 0.5), np.arange(6.0).reshape(2, 3)) == 0.0  # a constant map
    for name in ("base", "permuted", "restored"):
        assert (out / f"mean_map_{name}.csv").exists()
        assert (out / f"mean_map_{name}.pgm").exists()


def test_synthetic_study_reports_per_class_localization(tmp_path):
    out = tmp_path / "out"
    assert run_cli("synthetic", "--out", str(out), *SMALL) == 0
    rows = read_report(out / "synthetic_report.csv")
    for class_name in ("elnino", "lanina"):
        ratio = float(metric(rows, "esn", "train", f"localization_ratio_{class_name}"))
        assert np.isfinite(ratio) and ratio >= 0.0
        assert (out / f"mean_map_{class_name}.csv").exists()
        assert (out / f"mean_map_{class_name}.pgm").exists()
    box = metric(rows, "esn", "train", "signal_box")
    r0, r1, c0, c1 = (int(v) for v in box.split(":"))
    assert 0 <= r0 <= r1 < 8 and 0 <= c0 <= c1 < 12


def test_baseline_training_rows(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), "--baseline", "linreg", *SMALL) == 0
    rows = read_report(out / "train_report.csv")
    assert float(metric(rows, "linreg", "train", "accuracy_overall")) >= 0.5
    assert np.isfinite(float(metric(rows, "linreg", "train", "mse")))
    assert (out / "baseline_linreg.json").exists()

    out2 = tmp_path / "out2"
    assert run_cli("train", "--out", str(out2), "--baseline", "mlp", *SMALL) == 0
    rows = read_report(out2 / "train_report.csv")
    assert np.isfinite(float(metric(rows, "mlp", "train", "final_loss")))
    assert (out2 / "baseline_mlp.json").exists()


def test_the_linreg_baseline_scores_batch_rows_at_a_time(monkeypatch):
    """The fitted linear regression scores the samples `baselines.BATCH_ROWS` rows at a time, so it
    builds no (samples x cells) matrix to score them, and gives the whole matrix's scores."""
    cfg = cli.ExperimentConfig(command="train", synthetic=(8, 12, 40), baseline="linreg", ridge=1e-8)
    sample_set = data.synthesize_task(40, 8, 12, seed=0)
    baseline = cli.fit_baseline(cfg, sample_set.train_samples, None)
    rows = data.BaselineRows(sample_set.samples)
    whole = rows.read(range(40), np.empty((40, rows.width)))
    reads = []
    read = data.BaselineRows.read

    def recorded(self, indices, out):
        reads.append(len(indices))
        return read(self, indices, out)

    monkeypatch.setattr(data.BaselineRows, "read", recorded)
    scores = baseline.score(sample_set.samples)
    assert sum(reads) == 40 and max(reads) <= baselines.BATCH_ROWS
    np.testing.assert_allclose(scores, whole @ baseline.model.w_out[0] + baseline.model.b_out[0], rtol=0, atol=1e-12)


def test_the_mlp_baseline_builds_no_input_matrix():
    """At the sweep shape fitting the MLP allocates under a quarter of the fields' bytes.

    A (samples x cells) input matrix would be as large as the fields
    themselves; the MLP reads its mini-batches straight from them instead.
    """
    cfg = cli.ExperimentConfig(command="train", synthetic=(16, 96, 300), baseline="mlp")
    sample_set = data.synthesize_task(300, 16, 96, seed=0)
    fields_bytes = sum(s.field.nbytes for s in sample_set.samples)
    tracemalloc.start()
    try:
        baseline = cli.fit_baseline(cfg, sample_set.train_samples, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert baseline.name == "mlp" and baseline.fit_row.startswith("mlp,train,final_loss,")
    assert peak < 0.25 * fields_bytes, f"peak {peak / fields_bytes:.2f} of the fields' bytes"


@pytest.fixture(scope="module")
def enso_container(tmp_path_factory):
    """One generated container shared by the data-path tests: (path, Nino-3.4 box)."""
    path = tmp_path_factory.mktemp("enso") / "sst.sstg"
    return path, write_enso_container(path)


DATA_PATH_MODEL = ["--ridge", "1e-8", "--n-res", "50"]


def test_the_data_path_runs_end_to_end_on_a_generated_container(tmp_path, enso_container):
    """load -> anomalies -> index -> labels -> split -> train -> relevance through the CLI.

    The reference years give 180 El Nino and 180 La Nina months, 2010 is
    neutral and 2011 adds 12 El Nino months: 372 samples, of which the
    first 297 (1980 up to September 2004) train, 153 of them El Nino.
    """
    container, box = enso_container
    out = tmp_path / "out"
    common = ["--data", str(container), *DATA_PATH_MODEL, "--out", str(out)]
    assert run_cli("train", "--baseline", "linreg", *common) == 0
    assert run_cli("relevance", "--class", "elnino", *common) == 0

    with open(out / "samples.csv", newline="", encoding="ascii") as handle:
        samples = list(csv.DictReader(handle))
    assert len(samples) == 372
    assert sum(row["split"] == "train" for row in samples) == 297
    assert sum(row["split"] == "val" for row in samples) == 75
    assert sum(row["label"] == readout.ClassLabel.EL_NINO.value for row in samples) == 192
    assert persistence.load_model(out / "baseline_linreg.json").w_out.shape[-1] == 11_920

    audit = (out / "relevance_audit.csv").read_text(encoding="ascii").splitlines()[1:]
    assert len(audit) == 153
    assert all(line.split(",")[-1] == "1" for line in audit)  # within_tolerance
    land = np.zeros((data.GRID_N_LAT, data.GRID_N_LON), dtype=bool)
    land[:20] = True
    land[60:70, 100:150] = True
    for path in sorted((out / "relevance").glob("sample_*.csv")):
        scores = np.loadtxt(path, delimiter=",")
        assert scores.shape == land.shape
        assert np.all(scores[land] == 0.0)
    mean = np.loadtxt(out / "mean_map.csv", delimiter=",")
    assert np.all(mean[land] == 0.0)
    assert data.box_mass_ratio(mean, box) > 5.0


@pytest.mark.parametrize(
    "defect, message",
    [
        ("nan-box-in-last-month", "Nino-3.4 box has no valid cells in month index 383"),
        ("reference-outside-span", "reference period 1980..2009 falls outside the data span 1990..1999"),
    ],
    ids=["nan-box-in-last-month", "reference-outside-span"],
)
def test_data_errors_after_the_header_check_exit_three_and_write_nothing(
    tmp_path, capsys, enso_container, defect, message
):
    """A container with a sound header whose months cannot be labelled makes `train` and `relevance` exit 3.

    Neither writes to --out: the container is read through before the first output.
    """
    container, (r0, r1, c0, c1) = enso_container
    out = tmp_path / "out"
    assert run_cli("train", "--data", str(container), *DATA_PATH_MODEL, "--out", str(out)) == 0
    written = tree_bytes(out)
    bad = tmp_path / "bad.sstg"
    if defect == "nan-box-in-last-month":
        fields = np.fromfile(container, dtype="<f4", offset=data.HEADER_SIZE).reshape(-1, 89, 180)
        fields[-1, r0 : r1 + 1, c0 : c1 + 1] = np.nan
        data.write_sst(bad, fields, 1980)
    else:
        data.write_sst(bad, np.zeros((120, data.GRID_N_LAT, data.GRID_N_LON)), 1990)
    capsys.readouterr()
    for command in ("train", "relevance"):
        assert run_cli(command, "--data", str(bad), *DATA_PATH_MODEL, "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert tree_bytes(out) == written


@pytest.fixture(scope="module")
def containers_by_years(tmp_path_factory):
    """Generated containers of 32 and 64 years, by year count."""
    root = tmp_path_factory.mktemp("years")
    paths = {n_years: root / f"sst{n_years}.sstg" for n_years in (32, 64)}
    for n_years, path in paths.items():
        write_enso_container(path, n_years)
    return paths


# Encoding an 89x180 field costs 181 steps of 89 inputs, 128,872 bytes.
ENCODE_BYTES_89X180 = 181 * 89 * 8


@pytest.mark.parametrize(
    "command, flags",
    [("train", []), ("evaluate", []), ("relevance", ["--class", "elnino"])],
    ids=["train", "evaluate", "relevance"],
)
def test_data_memory_does_not_grow_with_the_month_count(tmp_path, monkeypatch, containers_by_years, command, flags):
    """`train`, `evaluate` and `relevance --class elnino` on --data allocate within 16 month grids
    (2 MB) as much on a 64-year container as on a 32-year one.

    Every pass reads the container a month at a time: the 384 more months
    would take 49 MB as one float64 cube. What grows is each sample's key,
    final state of 20 units and score, one index value and 130 Nino-3.4
    box values a month, and the audit rows of `relevance`. The batches, 16
    samples to encode and 16 to map, are full on both containers.
    """
    monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", 16 * ENCODE_BYTES_89X180)
    model = ["--n-res", "20", "--ridge", "1e-8", "--out", str(tmp_path)]
    if command != "train":
        assert run_cli("train", "--data", str(containers_by_years[32]), *model) == 0
    peaks = {}
    for n_years, path in containers_by_years.items():
        tracemalloc.start()
        try:
            assert run_cli(command, "--data", str(path), *flags, *model) == 0
            peaks[n_years] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[64] - peaks[32]) < 16 * data.GRID_N_LAT * data.GRID_N_LON * 8, f"peaks {peaks}"


def test_the_masked_mlp_baseline_trains_as_on_the_explicit_matrix(tmp_path, enso_container):
    """`train --data --baseline mlp` reads the 11,920 valid cells of each field.

    It gives bit for bit the model, final loss and accuracy rows of
    `train_mlp` and `mlp_predict` over the explicit `preprocess_for_baseline`
    matrix.
    """
    container, _ = enso_container
    out = tmp_path / "out"
    assert run_cli("train", "--data", str(container), "--baseline", "mlp", *DATA_PATH_MODEL, "--out", str(out)) == 0
    got = persistence.load_model(out / "baseline_mlp.json")

    sample_set, valid_mask = enso_sample_set(container)
    x = np.stack([preprocess_for_baseline(s, valid_mask) for s in sample_set.samples])
    assert x.shape == (372, 11_920)
    n = sample_set.n_train
    want, history = baselines.train_mlp(MatrixRows(x[:n]), [s.index for s in sample_set.train_samples], seed=0)
    assert got.layer_dims == want.layer_dims == (11_920, 8, 8, 1)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.tobytes() == b.tobytes()
    report = (out / "train_report.csv").read_text(encoding="ascii").splitlines()
    expected = cli.split_rows("mlp", sample_set, baselines.mlp_predict(want, MatrixRows(x)))
    assert [row for row in report if row.startswith("mlp,")] == expected + [f"mlp,train,final_loss,{history[-1]:.9g}"]


def test_the_leak_sweep_shows_fading_memory_on_the_data_path(tmp_path, enso_container):
    """The paper's fading-memory study on the generated container.

    The reservoir reads each field column by column, and the Nino-3.4 box
    spans columns 95-120 of 180. A slowly leaking reservoir still holds
    the box when it reaches the readout; as the leak rate grows it forgets
    the box, and the El Nino mean map's mass moves toward the last columns.
    """
    container, _ = enso_container
    out = tmp_path / "out"
    assert run_cli("leak-sweep", "--data", str(container), *DATA_PATH_MODEL, "--class", "elnino", "--out", str(out)) == 0
    with open(out / "sweep_report.csv", newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["alpha"]) for row in rows] == list(cli.SWEEP_ALPHAS)
    gravity = [float(row["mean_map_center_of_gravity"]) for row in rows]
    assert all(a < b for a, b in zip(gravity, gravity[1:])), gravity
    assert float(rows[0]["accuracy_overall"]) >= 0.9


def test_the_permutation_study_restores_the_box_on_the_data_path(tmp_path, enso_container):
    """Train on column-permuted fields; the restored mean map localises in Nino-3.4.

    Pearson r between the restored and the base map is printed, not
    asserted: on this input the two maps weight the box's columns
    differently, and r stays well below the synthetic criterion's 0.8.
    """
    container, box = enso_container
    out = tmp_path / "out"
    assert run_cli("permutation", "--data", str(container), *DATA_PATH_MODEL, "--class", "elnino", "--out", str(out)) == 0
    restored = np.loadtxt(out / "mean_map_restored.csv", delimiter=",")
    ratio = data.box_mass_ratio(restored, box)
    r = float(metric(read_report(out / "permutation_report.csv"), "comparison", "maps", "pearson_restored_vs_base"))
    print(f"restored map: Nino-3.4 box-mass ratio {ratio:.2f}, Pearson r against the base map {r:.2f}")
    assert ratio > 5.0
