import base64
import json
from pathlib import Path

import numpy as np
import pytest

from esnlrp.baselines import init_mlp
from esnlrp.errors import DataError
from esnlrp.persistence import load_model, save_model
from esnlrp.readout import ReadoutSolution
from esnlrp.reservoir import EsnConfig, EsnModel, init_reservoir

from helpers import assemble_model, one_weight


def test_trained_esn_round_trip(tmp_path):
    model = init_reservoir(EsnConfig(n_in=4, n_res=20, leak_rate=0.05, seed=11))
    rng = np.random.default_rng(0)
    model = model.with_readout(rng.normal(size=(1, 20)), rng.normal(size=1))
    path = tmp_path / "esn.json"
    save_model(path, model)
    loaded = load_model(path)

    assert isinstance(loaded, EsnModel)
    assert loaded.config == model.config
    for name in ("w_in", "b_in", "w_res", "b_res", "w_out", "b_out"):
        original = getattr(model, name)
        restored = getattr(loaded, name)
        np.testing.assert_array_equal(restored, original)
        assert not restored.flags.writeable


def test_untrained_esn_round_trip(tmp_path):
    model = init_reservoir(EsnConfig(n_in=2, n_res=10, seed=3))
    path = tmp_path / "esn.json"
    save_model(path, model)
    loaded = load_model(path)
    assert not loaded.is_trained
    np.testing.assert_array_equal(loaded.w_res, model.w_res)


def test_mlp_round_trip(tmp_path):
    model = init_mlp((3, 4, 2, 1), seed=9)
    path = tmp_path / "mlp.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.layer_dims == model.layer_dims
    for original, restored in zip(
        list(model.weights) + list(model.biases),
        list(loaded.weights) + list(loaded.biases),
    ):
        np.testing.assert_array_equal(restored, original)
        assert not restored.flags.writeable


def test_readout_solution_round_trip(tmp_path):
    solution = ReadoutSolution(
        w_out=np.array([[0.5, -0.25, 1.0]]), b_out=np.array([0.125]), train_mse=0.0625
    )
    path = tmp_path / "readout.json"
    save_model(path, solution)
    loaded = load_model(path)
    assert isinstance(loaded, ReadoutSolution)
    np.testing.assert_array_equal(loaded.w_out, solution.w_out)
    np.testing.assert_array_equal(loaded.b_out, solution.b_out)
    assert loaded.train_mse == solution.train_mse


@pytest.mark.parametrize(
    "key, shape", [("w_out", [2, 3]), ("b_out", [5])], ids=["two-weight-rows", "five-biases"]
)
def test_a_linear_model_with_more_than_one_score_does_not_load(tmp_path, key, shape):
    """A linreg readout is one row of weights plus one bias, like the reservoir's."""
    solution = ReadoutSolution(w_out=np.ones((1, 3)), b_out=np.zeros(1), train_mse=0.0)
    path = tmp_path / "readout.json"
    save_model(path, solution)
    doc = json.loads(path.read_text())
    values = np.arange(np.prod(shape), dtype="<f8")
    doc["arrays"][key] = {"shape": shape, "data": base64.b64encode(values.tobytes()).decode("ascii")}
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="w_out/b_out"):
        load_model(path)


def test_resave_is_byte_identical(tmp_path):
    model = init_reservoir(EsnConfig(n_in=3, n_res=12, seed=21))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(first, model)
    save_model(second, load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_save_rejects_unknown_objects(tmp_path):
    with pytest.raises(DataError):
        save_model(tmp_path / "x.json", {"not": "a model"})


def test_load_rejects_malformed_documents(tmp_path):
    path = tmp_path / "m.json"

    path.write_text("not json at all")
    with pytest.raises(DataError, match="cannot read"):
        load_model(path)

    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(DataError, match="not a"):
        load_model(path)

    path.write_text(json.dumps({"format": "esnlrp-model", "version": 99}))
    with pytest.raises(DataError, match="version"):
        load_model(path)

    path.write_text(json.dumps({"format": "esnlrp-model", "version": 1, "kind": "tree"}))
    with pytest.raises(DataError, match="unknown model kind"):
        load_model(path)

    with pytest.raises(DataError):
        load_model(tmp_path / "absent.json")

    save_model(path, init_reservoir(EsnConfig(n_in=2, n_res=3, seed=1)))
    saved = json.loads(path.read_text())
    for section, edit, key in [
        ("config", lambda c: c.update(bogus=1), "bogus"),
        ("config", lambda c: c.pop("n_res"), "n_res"),
        ("config", lambda c: c.pop("n_in"), "n_in"),
        ("config", lambda c: c.update(n_in="2"), "malformed"),
        ("config", lambda c: c.update(activation="sigmoid"), "activation"),
        ("config", lambda c: c.update(weight_range=0.2), "weight_range"),
        ("arrays", lambda a: a.pop("w_res"), "w_res"),
        ("arrays", lambda a: a.pop("b_in"), "b_in"),
        ("arrays", lambda a: a["w_in"].update(data=None), "array block 'w_in' is malformed"),
        (None, one_weight("b_res", np.nan), "array block 'b_res' holds a non-finite value"),
        (None, lambda d: d.pop("config"), "config"),
        (None, lambda d: d.pop("arrays"), "arrays"),
    ]:
        doc = json.loads(json.dumps(saved))
        edit(doc[section] if section else doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=key):
            load_model(path)

    save_model(path, init_mlp((2, 3, 1), seed=0))
    saved = json.loads(path.read_text())
    for dims, message in [
        ([2], "need at least input and output dims"),
        ([2, 0, 1], "must be positive"),
        ([2, 3, 2], "must end in 1"),
        ([2, 3, 3, 1], "lacks key 'w2'"),
    ]:
        saved["config"]["layer_dims"] = dims
        path.write_text(json.dumps(saved))
        with pytest.raises(DataError, match=message):
            load_model(path)

    save_model(path, ReadoutSolution(w_out=np.ones((1, 2)), b_out=np.zeros(1), train_mse=0.5))
    saved = json.loads(path.read_text())
    saved["arrays"]["train_mse"] = saved["arrays"]["w_out"]  # two values
    path.write_text(json.dumps(saved))
    with pytest.raises(DataError, match="train_mse block must hold one value"):
        load_model(path)


VERSION_1_MODEL = Path(__file__).parent / "data" / "esn_model_v1.json"


def test_loads_version_1_files_that_name_activation_and_weight_range(tmp_path):
    """A trained model written when the config still carried activation and weight_range.

    It loads with the values every model had, tanh and 0.1 (any other value
    is rejected above), and a resave drops those keys and changes nothing else.
    """
    doc = json.loads(VERSION_1_MODEL.read_text())
    assert (doc["config"]["activation"], doc["config"]["weight_range"]) == ("tanh", 0.1)
    model = load_model(VERSION_1_MODEL)
    assert model.is_trained
    redrawn = init_reservoir(model.config)
    for name in ("w_in", "b_in", "b_res"):
        np.testing.assert_array_equal(getattr(model, name), getattr(redrawn, name))
    np.testing.assert_allclose(model.w_res, redrawn.w_res, rtol=1e-12, atol=0.0)

    save_model(tmp_path / "resaved.json", model)
    del doc["config"]["activation"], doc["config"]["weight_range"]
    assert json.loads((tmp_path / "resaved.json").read_text()) == doc


def test_load_rejects_corrupted_array_block(tmp_path):
    model = assemble_model(
        w_in=np.ones((2, 1)), b_in=np.zeros(2), w_res=np.zeros((2, 2)),
        b_res=np.zeros(2), alpha=0.5,
    )
    path = tmp_path / "m.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    doc["arrays"]["w_in"]["data"] = "@@not base64@@"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="w_in"):
        load_model(path)

    doc["arrays"]["w_in"]["data"] = ""
    doc["arrays"]["w_in"]["shape"] = [2, 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="w_in"):
        load_model(path)


@pytest.mark.parametrize("dims", [[96.9, 8, 8, 1], ["96", 8, 8, 1]], ids=["float-width", "string-width"])
def test_a_saved_mlp_whose_layer_widths_are_not_integers_does_not_load(tmp_path, dims):
    """Each layer width must be an integer; none is truncated or parsed into one."""
    path = tmp_path / "mlp.json"
    save_model(path, init_mlp((96, 8, 8, 1), seed=0))
    doc = json.loads(path.read_text())
    doc["config"]["layer_dims"] = dims
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="'layer_dims' must be an integer"):
        load_model(path)
