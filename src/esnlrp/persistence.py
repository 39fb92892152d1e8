"""Model serialization: one JSON document per model, bit-exact on round-trip.

Every weight and bias block is stored as base64-encoded little-endian
64-bit floats alongside its shape, and the full configuration rides along
in plain JSON, so a saved model reloads to numerically identical arrays on
any platform. Three kinds are covered: the reservoir network, the MLP
baseline, and the plain linear model.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from .baselines import MlpModel
from .errors import ConfigError, DataError
from .readout import ReadoutSolution
from .reservoir import EsnConfig, EsnModel

FORMAT_NAME = "esnlrp-model"
FORMAT_VERSION = 1

_PathLike = Union[str, Path]
_Model = Union[EsnModel, MlpModel, ReadoutSolution]

# Config keys of older version-1 reservoir files, with the one value each ever took.
_FIXED_ESN_KEYS = {"activation": "tanh", "weight_range": 0.1}


def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(arrays: dict, key: str) -> np.ndarray:
    obj = arrays[key]
    try:
        raw = base64.b64decode(obj["data"], validate=True)  # data other than ASCII text is a TypeError or ValueError
        arr = np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).astype(float)
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"array block {key!r} is malformed: {exc}") from exc
    if not np.isfinite(arr).all():  # a NaN or inf would run through every command unseen
        raise DataError(f"array block {key!r} holds a non-finite value")
    arr.setflags(write=False)
    return arr


def save_model(path: _PathLike, model: _Model) -> None:
    """Write any supported model to a deterministic JSON document."""
    if isinstance(model, EsnModel):
        doc = {
            "kind": "esn",
            "config": dataclasses.asdict(model.config),
            "arrays": {
                "w_in": _encode(model.w_in),
                "b_in": _encode(model.b_in),
                "w_res": _encode(model.w_res),
                "b_res": _encode(model.b_res),
            },
        }
        if model.is_trained:
            doc["arrays"]["w_out"] = _encode(model.w_out)
            doc["arrays"]["b_out"] = _encode(model.b_out)
    elif isinstance(model, MlpModel):
        doc = {
            "kind": "mlp",
            "config": {"layer_dims": list(model.layer_dims)},
            "arrays": {},
        }
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            doc["arrays"][f"w{i}"] = _encode(w)
            doc["arrays"][f"b{i}"] = _encode(b)
    elif isinstance(model, ReadoutSolution):
        doc = {
            "kind": "linreg",
            "config": {},
            "arrays": {
                "w_out": _encode(model.w_out),
                "b_out": _encode(model.b_out),
                "train_mse": _encode(np.array(model.train_mse)),
            },
        }
    else:
        raise DataError(f"cannot persist object of type {type(model).__name__}")
    doc["format"] = FORMAT_NAME
    doc["version"] = FORMAT_VERSION
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="ascii")


def _esn_config(values: dict) -> EsnConfig:
    """The EsnConfig of a saved document, which must name every field once."""
    values = dict(values)
    for key, fixed in _FIXED_ESN_KEYS.items():
        if key in values and values.pop(key) != fixed:
            raise DataError(f"config key {key!r} must be {fixed!r} if present")
    stray = sorted(set(values) ^ {f.name for f in dataclasses.fields(EsnConfig)})
    if stray:
        raise DataError(f"config key {stray[0]!r} is {'unknown' if stray[0] in values else 'missing'}")
    return EsnConfig(**values)


def _build(kind: str, config: dict, arrays: dict) -> _Model:
    if kind == "esn":
        blocks = {k: _decode(arrays, k) for k in ("w_in", "b_in", "w_res", "b_res")}
        model = EsnModel(config=_esn_config(config), **blocks)
        if "w_out" in arrays:
            model = model.with_readout(_decode(arrays, "w_out"), _decode(arrays, "b_out"))
        return model
    if kind == "mlp":
        n_layers = len(config["layer_dims"]) - 1
        return MlpModel(
            layer_dims=config["layer_dims"],  # each an integer, or a ConfigError
            weights=tuple(_decode(arrays, f"w{i}") for i in range(n_layers)),
            biases=tuple(_decode(arrays, f"b{i}") for i in range(n_layers)),
        )
    mse = _decode(arrays, "train_mse")
    if mse.size != 1:
        raise DataError(f"train_mse block must hold one value, got shape {mse.shape}")
    return ReadoutSolution(
        w_out=_decode(arrays, "w_out"), b_out=_decode(arrays, "b_out"), train_mse=float(mse.reshape(()))
    )


def load_model(path: _PathLike) -> _Model:
    """Read a model document back; the kind field picks the constructor.

    A malformed document, a missing or unknown key, a non-finite weight and
    a setting out of its range (`EsnConfig`) included, is a DataError.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path} is not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path} has unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in ("esn", "mlp", "linreg"):
        raise DataError(f"{path} has unknown model kind {kind!r}")
    config, arrays = doc.get("config"), doc.get("arrays")
    if not (isinstance(config, dict) and isinstance(arrays, dict)):
        raise DataError(f"{path} lacks a 'config' or 'arrays' object")
    try:
        return _build(kind, config, arrays)
    except KeyError as exc:
        raise DataError(f"{path} lacks key {exc}") from exc
    except (ConfigError, DataError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is malformed: {exc}") from exc
