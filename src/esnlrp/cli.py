"""Batch experiment driver.

Subcommands reproduce the studies end to end and emit everything as files:
JSON models, CSV tables, and grayscale PGM heatmaps with CSV sidecars. Every
command is a pure function of (configuration, input files, seed, BLAS thread
count); rerunning with the same inputs at a fixed BLAS thread count produces
byte-identical outputs, so there are no timestamps anywhere. Across thread
counts, fresh fits agree within 1e-12 of the readout's peak at the 16x96 sweep
shape but differ in the last digits at paper shape, where the encoding threads.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, data, lrp, persistence, readout, reservoir
from .errors import ConfigError, DataError, NumericError

SWEEP_ALPHAS = (0.01, 0.05, 0.2, 0.4)
SWEEP_TAGS = ("A", "B", "C", "D")
DEFAULT_SYNTHETIC = (16, 96, 300)

COMMANDS = ("train", "evaluate", "relevance", "leak-sweep", "permutation", "synthetic")
CLASS_FILTERS = ("elnino", "lanina", "both")
BASELINES = ("linreg", "mlp", "none")

MODEL_FILE = "esn_model.json"

# Bytes that one batch of samples may cost its caller: encoding holds the stacked
# inputs (n_in floats per step), mapping the states (n_res floats per step).
# Samples are fed forward, and mapped, in the largest runs that fit.
TRAJECTORY_BUDGET_BYTES = 12 * 2**20


@dataclass
class ExperimentConfig:
    """Merged view of config-file values and command-line flags."""

    command: str
    data: Optional[str] = None
    out: str = "out"
    seed: int = 0
    alpha: float = 0.01
    n_res: int = 300
    sparsity: float = 0.3
    spectral_radius: float = 0.8
    ridge: float = 0.0
    class_filter: str = "both"
    baseline: str = "none"
    permute_seed: int = 1
    synthetic: Optional[Tuple[int, int, int]] = None
    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.class_filter not in CLASS_FILTERS:
            raise ConfigError(f"--class must be one of {CLASS_FILTERS}, got {self.class_filter!r}")
        if self.baseline not in BASELINES:
            raise ConfigError(f"--baseline must be one of {BASELINES}, got {self.baseline!r}")
        for name in ("seed", "permute_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
        if self.synthetic is not None:
            try:
                ok = len(self.synthetic) == 3 and all(int(v) == v and v >= 1 for v in self.synthetic)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ConfigError(f"--synthetic needs three positive integers d,t,n, got {self.synthetic!r}")
            self.synthetic = tuple(int(v) for v in self.synthetic)

    def esn_config(self, n_in: int, alpha: Optional[float] = None) -> reservoir.EsnConfig:
        return reservoir.EsnConfig(
            n_in=n_in,
            n_res=self.n_res,
            leak_rate=self.alpha if alpha is None else alpha,
            sparsity=self.sparsity,
            spectral_radius=self.spectral_radius,
            seed=self.seed,
        )

    def lrp_config(self) -> lrp.LrpConfig:
        return lrp.LrpConfig(epsilon=self.epsilon)


# Field types, resolved from the annotations, that config-file values must have.
CONFIG_FIELD_TYPES = get_type_hints(ExperimentConfig)


def parse_synthetic(text: str) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected d,t,n, got {text!r}")
    try:
        d, t, n = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers d,t,n, got {text!r}") from exc
    return d, t, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esnlrp",
        description="Train and explain leaky echo state networks on gridded 2-D patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "train": "train a reservoir (and optional baselines), write model and accuracy report",
        "evaluate": "re-evaluate a previously trained model on a dataset",
        "relevance": "per-sample relevance maps, conservation audit, and the mean map",
        "leak-sweep": "train at leak rates 0.01/0.05/0.2/0.4 and compare maps",
        "permutation": "train on column-permuted data and restore the mean map",
        "synthetic": "full study on the generated task with known signal location",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=descriptions[name])
        sp.add_argument("--config", default=None, help="JSON file of settings; flags override it")
        sp.add_argument("--data", default=None, help="dataset container path")
        sp.add_argument("--out", default=None, help="output directory (default: out)")
        sp.add_argument("--seed", type=int, default=None, help="master seed (default: 0)")
        sp.add_argument("--alpha", type=float, default=None, help="leak rate (default: 0.01)")
        sp.add_argument("--n-res", dest="n_res", type=int, default=None, help="reservoir units (default: 300)")
        sp.add_argument("--sparsity", type=float, default=None, help="fraction of nonzero recurrent weights")
        sp.add_argument(
            "--spectral-radius", dest="spectral_radius", type=float, default=None,
            help="target spectral radius of the recurrent matrix (default: 0.8)",
        )
        sp.add_argument("--ridge", type=float, default=None, help="readout ridge penalty (default: 0)")
        sp.add_argument(
            "--class", dest="class_filter", choices=CLASS_FILTERS, default=None,
            help="restrict relevance maps to one class",
        )
        sp.add_argument("--baseline", choices=BASELINES, default=None, help="also train a baseline")
        sp.add_argument(
            "--permute-seed", dest="permute_seed", type=int, default=None,
            help="seed of the column permutation (default: 1)",
        )
        sp.add_argument(
            "--synthetic", type=parse_synthetic, default=None, metavar="D,T,N",
            help="generate D-row, T-column fields, N samples, instead of loading data",
        )
    return parser


def config_file_value(path: Path, key: str, name: str, value: object) -> object:
    """A config-file value checked against the type of its ExperimentConfig field.

    Numbers may not be booleans, integer fields take only integers, and
    `synthetic` takes a list of three numbers (ExperimentConfig checks that
    they are positive integers).
    """
    hint = CONFIG_FIELD_TYPES[name]
    if get_origin(hint) is Union:
        if value is None:
            return None
        hint = get_args(hint)[0]

    def is_number(v: object) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if hint is str:
        ok, want = isinstance(value, str), "a string"
    elif hint is int:
        ok, want = isinstance(value, int) and is_number(value), "an integer"
    elif hint is float:
        ok, want = is_number(value), "a number"
    else:
        ok = isinstance(value, list) and len(value) == 3 and all(is_number(v) for v in value)
        want = "a list of three integers"
        value = tuple(value) if ok else value
    if not ok:
        raise ConfigError(f"config file {path}: {key!r} must be {want}, got {value!r}")
    return value


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Start from defaults, apply the config file, then non-default flags."""
    values: Dict[str, object] = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        known = {f.name for f in dataclass_fields(ExperimentConfig)} - {"command"}
        for key, value in loaded.items():
            name = "class_filter" if key == "class" else key
            if name not in known:
                raise ConfigError(f"config file {path} has unknown key {key!r}")
            values[name] = config_file_value(path, key, name, value)
    for field in dataclass_fields(ExperimentConfig):
        if field.name in ("command",) or not hasattr(args, field.name):
            continue
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    return ExperimentConfig(command=args.command, **values)


def resolve_samples(cfg: ExperimentConfig) -> Tuple[data.SampleSet, Optional[data.SstDataset]]:
    """Either generate the synthetic task or run the full dataset pipeline."""
    if cfg.synthetic is not None:
        d, t, n = cfg.synthetic
        return data.synthesize_task(n, d, t, seed=cfg.seed), None
    path = data.locate_dataset(cfg.data)
    if path is None:
        raise DataError(
            "no dataset found: pass --data <path>, set "
            f"{data.ENV_DATASET}, place {data.DEFAULT_DATASET_PATH}, or use --synthetic d,t,n"
        )
    return data.load_enso_samples(path)


def filtered(samples: Sequence[data.LabeledSample], class_filter: str) -> List[data.LabeledSample]:
    if class_filter == "both":
        return list(samples)
    want = readout.ClassLabel.EL_NINO if class_filter == "elnino" else readout.ClassLabel.LA_NINA
    return [s for s in samples if s.label is want]


def batches(samples: Sequence[data.LabeledSample], step_bytes: int) -> Iterator[np.ndarray]:
    """Preprocessed samples stacked (B, n_in, T), in consecutive runs.

    One sample costs its caller `step_bytes` per time step. Each run is as
    long as its cost fits TRAJECTORY_BUDGET_BYTES, and at least one sample.
    Runs reuse one array (a batch is valid until the next is drawn): a new
    one per run would take the heap space a freed trajectory left.
    """
    if not samples:
        return
    shape = data.preprocess_field(samples[0].field).shape
    size = max(1, TRAJECTORY_BUDGET_BYTES // (shape[1] * step_bytes))
    buffer = np.empty((min(size, len(samples)),) + shape)
    for start in range(0, len(samples), size):
        batch = buffer[: min(size, len(samples) - start)]
        for row, sample in zip(batch, samples[start : start + size]):
            row[...] = data.preprocess_field(sample.field)
        yield batch


def encode(model: reservoir.EsnModel, samples: Sequence[data.LabeledSample]) -> np.ndarray:
    """Final reservoir state of each sample, one row per sample.

    No trajectory is recorded, so a batch costs only its stacked input.
    """
    states = np.empty((len(samples), model.config.n_res))
    start = 0
    for batch in batches(samples, model.config.n_in * 8):
        states[start : start + len(batch)] = reservoir.final_states(model, batch)
        start += len(batch)
    return states


def fit_esn(
    cfg: ExperimentConfig, sample_set: data.SampleSet, alpha: Optional[float] = None
) -> Tuple[reservoir.EsnModel, np.ndarray]:
    """Build a reservoir, fit its readout on the train split, score every sample.

    The scores hold the train rows, then the val rows (see `split_rows`).
    """
    train = sample_set.train_samples
    if not train:
        raise DataError("sample set has no training samples")
    model = reservoir.init_reservoir(cfg.esn_config(train[0].field.shape[0], alpha))
    states = encode(model, train + sample_set.val_samples)
    solution = readout.fit_readout(states[: len(train)], np.array([s.index for s in train]), ridge=cfg.ridge)
    model = model.with_readout(solution.w_out, solution.b_out)
    return model, states @ model.w_out[0] + model.b_out[0]


def maps_for(
    model: reservoir.EsnModel, samples: Sequence[data.LabeledSample], cfg: ExperimentConfig
) -> Iterator[lrp.RelevanceMap]:
    """Relevance map of each sample, in order, built one batch at a time.

    A batch's trajectory is dropped as soon as its maps are built.
    """
    lcfg = cfg.lrp_config()
    # a trajectory holds the states, one float per unit and step
    for batch in batches(samples, model.config.n_res * 8):
        yield from lrp.relevance_map(model, reservoir.run_reservoir(model, batch), lcfg)


def accuracy_rows(model_name: str, split: str, report: readout.AccuracyReport) -> List[str]:
    rows = [f"{model_name},{split},accuracy_overall,{report.overall:.9g}"]
    for cls in (readout.ClassLabel.EL_NINO, readout.ClassLabel.LA_NINA):
        if cls in report.per_class:
            rows.append(f"{model_name},{split},accuracy_{cls.value},{report.per_class[cls]:.9g}")
    rows.append(f"{model_name},{split},n_samples,{report.n_samples}")
    return rows


def split_rows(model_name: str, sample_set: data.SampleSet, scores: np.ndarray) -> List[str]:
    """Accuracy rows per split, from scores ordered train rows first, then val rows."""
    rows: List[str] = []
    start = 0
    for split, samples in (("train", sample_set.train_samples), ("val", sample_set.val_samples)):
        if samples:
            report = readout.accuracy(scores[start : start + len(samples)], [s.label for s in samples])
            rows.extend(accuracy_rows(model_name, split, report))
        start += len(samples)
    return rows


def val_accuracy(sample_set: data.SampleSet, scores: np.ndarray) -> readout.AccuracyReport:
    val = sample_set.val_samples
    return readout.accuracy(scores[len(sample_set.train_samples) :], [s.label for s in val])


def write_report(path: Path, rows: List[str], header: str = "model,split,metric,value") -> None:
    path.write_text("\n".join([header] + rows) + "\n", encoding="ascii")


def baseline_rows(cfg: ExperimentConfig, sample_set: data.SampleSet, anomalies: Optional[data.SstDataset], out: Path) -> List[str]:
    if cfg.baseline == "none":
        return []
    if anomalies is not None:
        mask = anomalies.grid.valid_mask
    else:
        mask = np.ones(sample_set.samples[0].field.shape, dtype=bool)

    train = sample_set.train_samples
    ordered = train + sample_set.val_samples
    x = np.empty((len(ordered), int(mask.sum())))
    for i, s in enumerate(ordered):
        x[i] = data.preprocess_for_baseline(s, mask)
    x_train, y_train = x[: len(train)], np.array([s.index for s in train])
    if cfg.baseline == "linreg":
        solution = baselines.fit_linreg(x_train, y_train, ridge=cfg.ridge)
        persistence.save_model(out / "baseline_linreg.json", solution)
        rows = split_rows("linreg", sample_set, baselines.linreg_predict(solution, x))
        rows.append(f"linreg,train,mse,{solution.train_mse:.9g}")
    else:
        model, history = baselines.train_mlp(x_train, y_train, seed=cfg.seed)
        persistence.save_model(out / "baseline_mlp.json", model)
        rows = split_rows("mlp", sample_set, np.atleast_1d(baselines.mlp_predict(model, x)))
        rows.append(f"mlp,train,final_loss,{history[-1]:.9g}")
    return rows


def cmd_train(cfg: ExperimentConfig, out: Path) -> None:
    sample_set, anomalies = resolve_samples(cfg)
    model, scores = fit_esn(cfg, sample_set)
    persistence.save_model(out / MODEL_FILE, model)
    data.write_sample_index_csv(out / "samples.csv", sample_set)
    rows = split_rows("esn", sample_set, scores)
    rows.extend(baseline_rows(cfg, sample_set, anomalies, out))
    write_report(out / "train_report.csv", rows)


def load_trained_model(out: Path) -> reservoir.EsnModel:
    model_path = out / MODEL_FILE
    if not model_path.exists():
        raise DataError(f"no trained model at {model_path}; run the train command first")
    model = persistence.load_model(model_path)
    if not isinstance(model, reservoir.EsnModel) or not model.is_trained:
        raise DataError(f"{model_path} does not hold a trained reservoir model")
    return model


def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> None:
    model = load_trained_model(out)
    sample_set, _ = resolve_samples(cfg)
    states = encode(model, sample_set.train_samples + sample_set.val_samples)
    scores = states @ model.w_out[0] + model.b_out[0]
    write_report(out / "eval_report.csv", split_rows("esn", sample_set, scores))


def cmd_relevance(cfg: ExperimentConfig, out: Path) -> None:
    model = load_trained_model(out)
    sample_set, _ = resolve_samples(cfg)
    samples = filtered(sample_set.train_samples, cfg.class_filter)
    if not samples:
        raise DataError(f"no training samples left after --class {cfg.class_filter}")

    rel_dir = out / "relevance"
    rel_dir.mkdir(parents=True, exist_ok=True)
    audit = ["sample,month_id,label,output,scores_sum,dummy_sum,absorbed,conservation_error,within_tolerance"]

    def exported() -> Iterator[lrp.RelevanceMap]:
        """Write each map's CSV and audit row as it streams past."""
        for i, (sample, rmap) in enumerate(zip(samples, maps_for(model, samples, cfg))):
            lrp.write_matrix_csv(rel_dir / f"sample_{i:04d}.csv", rmap.scores)
            audit.append(
                f"{i},{sample.month_id},{sample.label.value},{rmap.total:.9g},"
                f"{rmap.scores.sum():.9g},{rmap.dummy_scores.sum():.9g},{rmap.absorbed:.9g},"
                f"{rmap.conservation_error():.9g},{int(rmap.conserved())}"
            )
            yield rmap

    mean = lrp.mean_relevance(exported())
    (out / "relevance_audit.csv").write_text("\n".join(audit) + "\n", encoding="ascii")
    lrp.write_matrix_csv(out / "mean_map.csv", mean)
    lrp.write_heatmap_pgm(out / "mean_map.pgm", mean)


def cmd_leak_sweep(cfg: ExperimentConfig, out: Path) -> None:
    sample_set, _ = resolve_samples(cfg)
    rows = ["alpha,tag,accuracy_overall,accuracy_elnino,accuracy_lanina,mean_map_center_of_gravity"]
    for alpha, tag in zip(SWEEP_ALPHAS, SWEEP_TAGS):
        model, scores = fit_esn(cfg, sample_set, alpha=alpha)
        report = val_accuracy(sample_set, scores)
        maps = maps_for(model, filtered(sample_set.train_samples, cfg.class_filter), cfg)
        mean = lrp.mean_relevance(maps)
        lrp.write_matrix_csv(out / f"mean_map_{tag}.csv", mean)
        lrp.write_heatmap_pgm(out / f"mean_map_{tag}.pgm", mean)
        per = [
            f"{report.per_class[cls]:.9g}" if cls in report.per_class else ""
            for cls in (readout.ClassLabel.EL_NINO, readout.ClassLabel.LA_NINA)
        ]
        rows.append(
            f"{alpha:.9g},{tag},{report.overall:.9g},{per[0]},{per[1]},"
            f"{lrp.column_center_of_gravity(mean):.9g}"
        )
    (out / "sweep_report.csv").write_text("\n".join(rows) + "\n", encoding="ascii")


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation over all cells; degenerate (constant) inputs give 0."""
    a, b = np.asarray(a, float).ravel(), np.asarray(b, float).ravel()
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def cmd_permutation(cfg: ExperimentConfig, out: Path) -> None:
    sample_set, _ = resolve_samples(cfg)
    base_model, base_scores = fit_esn(cfg, sample_set)
    base_report = val_accuracy(sample_set, base_scores)
    base_maps = maps_for(base_model, filtered(sample_set.train_samples, cfg.class_filter), cfg)
    base_mean = lrp.mean_relevance(base_maps)

    permuted_set = data.permute_columns(sample_set, cfg.permute_seed)
    perm_model, perm_scores = fit_esn(cfg, permuted_set)
    perm_report = val_accuracy(permuted_set, perm_scores)
    perm_maps = maps_for(perm_model, filtered(permuted_set.train_samples, cfg.class_filter), cfg)
    perm_mean = lrp.mean_relevance(perm_maps)
    restored = data.inverse_permute(perm_mean, permuted_set)

    for name, matrix in (("base", base_mean), ("permuted", perm_mean), ("restored", restored)):
        lrp.write_matrix_csv(out / f"mean_map_{name}.csv", matrix)
        lrp.write_heatmap_pgm(out / f"mean_map_{name}.pgm", matrix)

    r = pearson(base_mean, restored)
    rows = accuracy_rows("esn_base", "val", base_report)
    rows += accuracy_rows("esn_permuted", "val", perm_report)
    rows.append(f"comparison,val,accuracy_gap,{abs(base_report.overall - perm_report.overall):.9g}")
    rows.append(f"comparison,maps,pearson_restored_vs_base,{r:.9g}")
    write_report(out / "permutation_report.csv", rows)


def cmd_synthetic(cfg: ExperimentConfig, out: Path) -> None:
    """Full study on the generated task.

    Relevance maps are averaged per class: map signs follow the sign of the
    model output, so pooling the positive- and negative-target classes would
    cancel the very signal being located.
    """
    if cfg.synthetic is None:
        cfg.synthetic = DEFAULT_SYNTHETIC
    d, t, _ = cfg.synthetic
    sample_set, _ = resolve_samples(cfg)
    model, scores = fit_esn(cfg, sample_set)
    persistence.save_model(out / MODEL_FILE, model)
    rows = split_rows("esn", sample_set, scores)
    box = data.synthetic_blob_box(d, t)
    for class_filter in ("elnino", "lanina"):
        samples = filtered(sample_set.train_samples, class_filter)
        if not samples:
            continue
        mean = lrp.mean_relevance(maps_for(model, samples, cfg))
        lrp.write_matrix_csv(out / f"mean_map_{class_filter}.csv", mean)
        lrp.write_heatmap_pgm(out / f"mean_map_{class_filter}.pgm", mean)
        rows.append(f"esn,train,localization_ratio_{class_filter},{data.box_mass_ratio(mean, box):.9g}")
    rows.append(f"esn,train,signal_box,{box[0]}:{box[1]}:{box[2]}:{box[3]}")
    write_report(out / "synthetic_report.csv", rows)


def run(cfg: ExperimentConfig) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    handlers = {
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "relevance": cmd_relevance,
        "leak-sweep": cmd_leak_sweep,
        "permutation": cmd_permutation,
        "synthetic": cmd_synthetic,
    }
    handlers[cfg.command](cfg, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run(build_config(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
