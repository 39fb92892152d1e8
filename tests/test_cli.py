import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esnlrp import cli, persistence, reservoir

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
    # leak-sweep does that at each of its 4 leak rates
    expected = {"train": 12, "evaluate": 12, "synthetic": 21, "leak-sweep": 84}
    for budget in (cli.TRAJECTORY_BUDGET_BYTES, 9000, 4000):
        monkeypatch.setattr(cli, "TRAJECTORY_BUDGET_BYTES", budget)
        for command, count in expected.items():
            batches.clear()
            assert run_cli(command, "--out", str(tmp_path / "out"), *SMALL) == 0
            assert sum(n for n, _ in batches) == count, (command, budget)
            assert all(n == 1 or nbytes <= budget for n, nbytes in batches), (command, budget, batches)


def test_relevance_maps_agree_across_blas_thread_counts(tmp_path):
    """Maps from one saved model agree within 1e-12 of their peak under 1 and 2 BLAS threads.

    At this shape all 48 training samples form one batch, so the batched
    products are large enough for OpenBLAS to split them over two threads.
    """
    shape = ["--synthetic", "16,96,60", "--n-res", "100", "--ridge", "1e-8"]
    model_dir = tmp_path / "model"
    assert run_cli("train", "--out", str(model_dir), *shape) == 0
    maps = {}
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
    assert len(maps["1"]) == len(maps["2"]) == 48
    for one, two in zip(maps["1"], maps["2"]):
        assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(one))


def test_fresh_fits_agree_across_blas_thread_counts(tmp_path):
    """train and leak-sweep from scratch under 1 and 2 BLAS threads.

    At the sweep shape (240 train samples, 100 units) the encoded states
    are the same under both settings, so what remains is the readout
    solve: its weights agree within 1e-12 of their peak, the leak-sweep
    mean maps within 1e-9 of their peak, and the centres of gravity
    within 1e-9.
    """
    shape = ["--synthetic", "16,96,300", "--n-res", "100", "--ridge", "1e-8"]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        for command in ("train", "leak-sweep"):
            subprocess.run(
                [sys.executable, "-m", "esnlrp.cli", command, "--out", str(out), *shape],
                env=env, check=True, timeout=300,
            )
        model = persistence.load_model(out / "esn_model.json")
        runs[threads] = {
            "w_out": np.append(model.w_out, model.b_out),
            "maps": [np.loadtxt(out / f"mean_map_{tag}.csv", delimiter=",") for tag in cli.SWEEP_TAGS],
            "centres": [float(row["mean_map_center_of_gravity"]) for row in read_report(out / "sweep_report.csv")],
        }
    one, two = runs["1"], runs["2"]
    assert np.max(np.abs(one["w_out"] - two["w_out"])) <= 1e-12 * np.max(np.abs(one["w_out"]))
    for a, b in zip(one["maps"], two["maps"]):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))
    np.testing.assert_allclose(one["centres"], two["centres"], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda doc: doc["config"].update(bogus=1), "bogus", id="unknown-config-key"),
        pytest.param(lambda doc: doc["config"].pop("n_res"), "n_res", id="missing-config-key"),
        pytest.param(lambda doc: doc["config"].update(activation="sigmoid"), "activation", id="sigmoid"),
        pytest.param(lambda doc: doc["arrays"].pop("w_res"), "w_res", id="missing-array-block"),
        pytest.param(lambda doc: doc["arrays"]["w_in"]["shape"].reverse(), "w_in", id="transposed-w-in"),
    ],
)
def test_malformed_model_files_exit_three(tmp_path, capsys, edit, key):
    out = tmp_path / "out"
    assert run_cli("train", "--out", str(out), *SMALL) == 0
    doc = json.loads((out / "esn_model.json").read_text())
    edit(doc)
    (out / "esn_model.json").write_text(json.dumps(doc))
    assert run_cli("evaluate", "--out", str(out), *SMALL) == 3
    assert key in capsys.readouterr().err


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

    config.write_text(json.dumps({"sparseness": 0.5}))
    assert run_cli("train", "--config", str(config), "--out", str(out), *SMALL) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, key",
    [
        pytest.param({"n_res": 20.5}, "n_res", id="n_res=20.5"),
        pytest.param({"alpha": "0.1"}, "alpha", id="alpha=str"),
        pytest.param({"synthetic": 5}, "synthetic", id="synthetic=5"),
        pytest.param({"ridge": True}, "ridge", id="ridge=true"),
    ],
)
def test_config_file_values_of_the_wrong_type_exit_two(tmp_path, capsys, settings, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": [8, 12, 12], "ridge": 1e-8, **settings}))
    assert run_cli("train", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert f"{key!r} must be" in capsys.readouterr().err


# flag, value, and the setting the error message must name
INVALID_FLAGS = [
    ("--alpha", "1.5", "leak_rate"),
    ("--seed", "-1", "seed"),
    ("--permute-seed", "-1", "permute_seed"),
    ("--spectral-radius", "inf", "spectral_radius"),
    ("--ridge", "inf", "ridge"),
    ("--ridge", "nan", "ridge"),
]


@pytest.mark.parametrize(
    "flag, value, setting", [pytest.param(*case, id=f"{case[0][2:]}={case[1]}") for case in INVALID_FLAGS]
)
def test_invalid_alpha_is_a_config_error(tmp_path, capsys, flag, value, setting):
    """Malformed numeric flags exit 2; the bad flag comes last so it overrides SMALL."""
    assert run_cli("train", "--out", str(tmp_path / "o"), *SMALL, flag, value) == 2
    assert f"configuration error: {setting} must" in capsys.readouterr().err


def test_malformed_synthetic_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("train", "--out", str(tmp_path / "o"), "--synthetic", "8,12")
    assert err.value.code == 2


def test_missing_dataset_paths_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ESNLRP_SST", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli("train", "--out", "o", "--data", str(tmp_path / "nope.sstg")) == 3
    assert "data error" in capsys.readouterr().err
    assert run_cli("train", "--out", "o") == 3  # no dataset anywhere, no --synthetic
    assert run_cli("evaluate", "--out", "o", *SMALL) == 3  # no trained model yet


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
