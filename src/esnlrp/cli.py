"""Batch experiment driver.

Subcommands reproduce the studies end to end and emit everything as files:
JSON models, CSV tables, and grayscale PGM heatmaps with CSV sidecars. Every
command is a pure function of (configuration, input files, seed, BLAS thread
count); rerunning with the same inputs at a fixed BLAS thread count produces
byte-identical outputs, so there are no timestamps anywhere. Each phase sets
its own BLAS thread count (`blas`): at the 16x96 sweep shape's 100 units every
phase runs at one thread, so the outputs are the same bytes under any thread
count. A relevance pass runs at one thread at any size (`lrp.relevance_map`,
its z+ factors on a second Python thread from 150 units up), so the maps of
one model file are the same bytes too. At paper shape the encoding threads,
and fresh fits differ in the last digits, except in `train --baseline`,
which runs every phase at one thread and the baseline's fit beside the
encoding on a second Python thread (`fit_beside_encoding`), so its outputs
are the same bytes too.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
A data error includes a malformed model file (a non-finite weight, and a
setting out of its range such as a negative seed, included) and, for
`evaluate` and `relevance`, fields whose height differs from the saved
model's `n_in`; both are found before anything is written.

Every command first takes its samples' source (`sample_source`), which
knows every sample's key (index and month id) and the fields' shape before
any field is built: on --synthetic from the amplitudes alone, on --data
from the container's Nino-3.4 index. The checks that read them (the field
height; a --class with no train sample, in `relevance`, `leak-sweep` and
`permutation`; a train split of fewer than two samples, in the commands
that fit; too few for the linear-regression baseline at ridge 0, in
`train`) therefore run before any field is drawn or anything written,
and a pass draws the fields of only the samples it keeps.

Every encoding draws the samples once, in order, and encodes them in runs
of `batches` that end at the train/validation split: the train split's
runs, then the validation split's (`forward_pass`). Each batch is fed to
every reservoir of the command (one reservoir at the four leak rates of
`leak-sweep`, the base and the column-permuted model of `permutation`, the
one model of the others). In `train`, the train split is encoded while
the --baseline model is fit on it (`fit_beside_encoding`), and each split
is held as a list while both models read it (`Baseline.score`). A sample
is let go once all the models are done with it. The studies then
map the train samples of --class in one more draw, each batch under every
model in turn (`maps_for`), building no field of the other class. All the models of a
pass read one batch, reordered in place for each (`in_turn`). Every pass
draws the samples afresh as it asks for them, from the generator on
--synthetic and from the container, a month at a time, on --data, so no
command holds a set of fields but `train --baseline`, which holds one split
at a time: the train split, on which it fits the baseline before any
validation sample exists, then the validation split. Without a baseline,
`train`, like every other command, holds one batch of samples at most.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, blas, data, lrp, persistence, readout, reservoir
from .errors import ConfigError, DataError, NumericError, setting

SWEEP_ALPHAS = (0.01, 0.05, 0.2, 0.4)
SWEEP_TAGS = ("A", "B", "C", "D")
DEFAULT_SYNTHETIC = (16, 96, 300)

CLASS_FILTERS = ("elnino", "lanina", "both")
BASELINES = ("linreg", "mlp", "none")

MODEL_FILE = "esn_model.json"

# Bytes that one batch of samples may cost its caller: encoding holds the stacked
# inputs (n_in floats per step), mapping the inputs and the states (n_res floats
# per step) and, from blas.THREADED_MIN_UNITS units up, the slots of the z+
# factors (`lrp.pass_bytes`), and neither of them may outgrow the budget.
# Samples are fed forward, and mapped, in the largest runs that fit.
TRAJECTORY_BUDGET_BYTES = 12 * 2**20


@dataclass
class ExperimentConfig:
    """Merged view of config-file values and command-line flags, each checked for type and range."""

    command: str
    data: Optional[str] = None
    out: str = "out"
    seed: int = reservoir.EsnConfig.seed
    alpha: float = reservoir.EsnConfig.leak_rate
    n_res: int = reservoir.EsnConfig.n_res
    sparsity: float = reservoir.EsnConfig.sparsity
    spectral_radius: float = reservoir.EsnConfig.spectral_radius
    ridge: float = 0.0
    class_filter: str = "both"
    baseline: str = "none"
    permute_seed: int = 1
    synthetic: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        """Check every setting's type (`errors.setting`), then its range, used or not, before any data is read."""
        for name, kind in CONFIG_FIELD_TYPES.items():
            value = getattr(self, name)
            if get_origin(kind) is Union:  # Optional: None, or a value of its one type
                if value is None:
                    continue
                kind = get_args(kind)[0]
            if get_origin(kind) is not tuple:
                setattr(self, name, setting(name, value, kind))
            elif isinstance(value, (list, tuple)) and len(value) == len(get_args(kind)):
                setattr(self, name, tuple(setting(name, v, k) for v, k in zip(value, get_args(kind))))
            else:
                raise ConfigError(f"{name!r} must be a list of three integers, got {value!r}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.class_filter not in CLASS_FILTERS:
            raise ConfigError(f"--class must be one of {CLASS_FILTERS}, got {self.class_filter!r}")
        if self.baseline not in BASELINES:
            raise ConfigError(f"--baseline must be one of {BASELINES}, got {self.baseline!r}")
        if self.permute_seed < 0:
            raise ConfigError(f"permute_seed must be a non-negative integer, got {self.permute_seed!r}")
        if self.synthetic is not None:
            d, t, n = self.synthetic
            data.check_synthetic_shape(n, d, t)
        if self.data is not None and (self.synthetic is not None or self.command == "synthetic"):
            raise ConfigError(f"--data {self.data} names a second source beside the generated samples; pass one")
        self.esn_config(n_in=1)  # the reservoir's rules (`reservoir.EsnConfig`), the seed's included
        readout.check_ridge(self.ridge)

    def esn_config(self, n_in: int) -> reservoir.EsnConfig:
        return reservoir.EsnConfig(
            n_in=n_in,
            n_res=self.n_res,
            leak_rate=self.alpha,
            sparsity=self.sparsity,
            spectral_radius=self.spectral_radius,
            seed=self.seed,
        )


# Field types, resolved from the annotations once, that every ExperimentConfig checks its values against.
CONFIG_FIELD_TYPES = get_type_hints(ExperimentConfig)

# Each numeric flag sets the ExperimentConfig field of its name, of that field's type and default.
NUMERIC_FLAGS = (
    ("--seed", "master seed"),
    ("--alpha", "leak rate"),
    ("--n-res", "reservoir units"),
    ("--sparsity", "fraction of nonzero recurrent weights"),
    ("--spectral-radius", "target spectral radius of the recurrent matrix"),
    ("--ridge", "readout ridge penalty"),
    ("--permute-seed", "seed of the column permutation"),
)


def parse_synthetic(text: str) -> Tuple[int, int, int]:
    try:
        d, t, n = (int(p) for p in text.split(","))
    except ValueError as exc:  # a part that is no integer, or other than three parts
        raise argparse.ArgumentTypeError(f"expected three integers d,t,n, got {text!r}") from exc
    return d, t, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esnlrp",
        description="Train and explain leaky echo state networks on gridded 2-D patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="JSON file of settings; flags override it")
        sp.add_argument("--data", default=None, help="dataset container path")
        sp.add_argument("--out", default=None, help=f"output directory (default: {ExperimentConfig.out})")
        for flag, text in NUMERIC_FLAGS:
            name = flag[2:].replace("-", "_")
            text = f"{text} (default: {getattr(ExperimentConfig, name)})"
            sp.add_argument(flag, dest=name, type=CONFIG_FIELD_TYPES[name], default=None, help=text)
        sp.add_argument(
            "--class", dest="class_filter", choices=CLASS_FILTERS, default=None,
            help="restrict relevance maps to one class",
        )
        sp.add_argument("--baseline", choices=BASELINES, default=None, help="also train a baseline")
        sp.add_argument(
            "--synthetic", type=parse_synthetic, default=None, metavar="D,T,N",
            help="generate D-row, T-column fields, N samples, instead of loading data",
        )
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's settings, checked in full as one ExperimentConfig (an error names the file,
    even where a flag overrides the value), then the non-default flags over them. Every setting has
    a flag; its config-file key is the flag's `dest`, or `class` for `--class`."""
    names = {"class" if f.name == "class_filter" else f.name: f.name for f in dataclass_fields(ExperimentConfig)}
    del names["command"]
    values: Dict[str, object] = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if unknown := [key for key in loaded if key not in names]:
            raise ConfigError(f"config file {path} has unknown key {unknown[0]!r}")
        values = {names[key]: value for key, value in loaded.items()}
    try:
        cfg = ExperimentConfig(command=args.command, **values)
    except ConfigError as exc:  # the defaults hold, so the file is at fault
        raise ConfigError(f"config file {args.config}: {exc}") from exc
    return replace(cfg, **{name: getattr(args, name) for name in names.values() if getattr(args, name) is not None})


def sample_source(cfg: ExperimentConfig) -> data.SampleSource:
    """The samples of --synthetic or of --data, their keys and field shape known before any
    field is built (`data.SampleSource`).

    On --synthetic the keys come from the amplitudes alone and a draw runs
    `data.synthetic_samples`. On --data the container is checked and its
    index computed here (`data.enso_source`), so a data error comes before
    anything is written, and a draw reads the months it keeps from the file.
    With neither, no other input is consulted: it is a DataError.
    """
    if cfg.synthetic is not None:
        d, t, n = cfg.synthetic
        return data.synthetic_source(n, d, t, seed=cfg.seed)
    if cfg.data is None:
        raise DataError("no samples: pass --data <path> or --synthetic d,t,n")
    return data.enso_source(cfg.data)


def class_positions(keys: data.SampleSet, class_filter: str) -> List[int]:
    """The positions of the train samples of --class among `keys`, in order (--class names a
    label's value), read before any field is drawn; none is a DataError."""
    positions = [i for i, key in enumerate(keys.train_samples) if class_filter in ("both", key.label.value)]
    if not positions:
        raise DataError(f"no training samples left after --class {class_filter}")
    return positions


def check_train_split(keys: data.SampleSet) -> None:
    """A readout fit needs at least two train samples; fewer, read from the keys, is a DataError."""
    if keys.n_train < 2:
        raise DataError(f"need at least two train samples to fit the readout, the split has {keys.n_train}")


@dataclass(frozen=True)
class Encoder:
    """A reservoir and the order it reads each field's columns in: as drawn for `columns`
    of None, else column j of its field is column columns[j] of the drawn one
    (`data.column_permutation`), so the base and the column-permuted model of
    `permutation` share one draw of the samples and one batch (`in_turn`)."""

    model: reservoir.EsnModel
    columns: Optional[np.ndarray] = None


def batches(samples: Iterable[data.LabeledSample], shape: Tuple[int, int], sample_bytes: int) -> Iterator[np.ndarray]:
    """Consecutive runs of the samples, whose fields have `shape`: each run's preprocessed
    fields stacked (B, n_in, T+1), in the order they are drawn.

    `samples` may be any iterable, a generator included. Each sample is
    drawn when its run is filled, written into the batch and let go at
    once, so no sample outlives its drawing. One sample costs its caller
    `sample_bytes`, and every run but the last holds as many samples as
    fit TRAJECTORY_BUDGET_BYTES, and at least one. Runs reuse one
    array (a batch is valid until the next is drawn): a new one per run
    would take the heap space a freed trajectory left.
    """
    samples = iter(samples)
    size = max(1, TRAJECTORY_BUDGET_BYTES // sample_bytes)
    buffer = np.empty((size, shape[0], shape[1] + 1))  # `data.preprocess_field` prepends the ones column

    def write(i: int, sample: data.LabeledSample) -> None:
        buffer[i] = data.preprocess_field(sample.field)

    # a comprehension, unlike a for loop's variable, keeps no reference to the last sample written
    while n := len([write(i, sample) for i, sample in enumerate(itertools.islice(samples, size))]):
        yield buffer[:n]


def in_turn(encoders: Sequence[Encoder], batch: np.ndarray) -> Iterator[Tuple[Encoder, np.ndarray]]:
    """Each encoder with `batch`, a run of `batches`, whose field columns are first reordered
    in place into the encoder's order, one sample at a time; the ones column stays first."""
    drawn = np.arange(batch.shape[2] - 1)
    order = drawn  # column j of the batch's fields is drawn column order[j]
    for encoder in encoders:
        wanted = drawn if encoder.columns is None else encoder.columns
        if not np.array_equal(order, wanted):
            moves = 1 + np.argsort(order)[wanted]
            for sample in batch:
                sample[:, 1:] = sample[:, moves]
            order = wanted
        yield encoder, batch


@dataclass(frozen=True)
class Baseline:
    """A --baseline model fitted on the train split, the cells it reads, and the report row of its fit."""

    name: str
    model: Union[baselines.MlpModel, readout.ReadoutSolution]
    valid_mask: Optional[np.ndarray]
    fit_row: str

    def score(self, samples: Sequence[data.LabeledSample]) -> np.ndarray:
        """One score per sample of a split, shape (n,), from its valid cells (`data.BaselineRows`),
        which `baselines.mlp_predict` or `linreg_predict` reads a mini-batch at a time."""
        predict = baselines.mlp_predict if isinstance(self.model, baselines.MlpModel) else baselines.linreg_predict
        return predict(self.model, data.BaselineRows(samples, self.valid_mask))


def encoded_runs(
    encoders: Sequence[Encoder], samples: Iterable[data.LabeledSample], shape: Tuple[int, int]
) -> Iterator[List[np.ndarray]]:
    """The samples, whose fields have `shape`, run by run of `batches` in order: under each
    encoder, the run's final reservoir states, one row per sample.

    Each run goes through every encoder's reservoir in turn, in that
    encoder's column order (`in_turn`), and no trajectory is recorded, so
    a run costs only its stacked inputs. The encoders' reservoirs all read
    the same number of inputs. A sample is let go once all the models are
    done with it: a stream's samples are held no longer than one run.
    """
    for batch in batches(samples, shape, (shape[1] + 1) * encoders[0].model.config.n_in * 8):
        yield [reservoir.final_states(encoder.model, inputs) for encoder, inputs in in_turn(encoders, batch)]


def forward_pass(encoders: Sequence[Encoder], source: data.SampleSource) -> List[np.ndarray]:
    """One draw of every sample of `source`, in order: under each encoder, their final reservoir
    states, one row per sample. The train split is encoded in runs of `batches`, then the
    validation split in runs of its own (`encoded_runs`), so no run holds samples of both."""
    samples = source.draw()
    runs = [*encoded_runs(encoders, itertools.islice(samples, source.keys.n_train), source.shape)]
    runs += encoded_runs(encoders, samples, source.shape)
    return [np.concatenate(encoded) for encoded in zip(*runs)]


def fit_esn(
    cfg: ExperimentConfig, encoders: Sequence[Encoder], keys: data.SampleSet, states: Sequence[np.ndarray]
) -> Tuple[List[Encoder], List[np.ndarray]]:
    """Fit each encoder's readout on the train rows of its final states, one row per sample
    of `keys` in order (`forward_pass`), and score every sample.

    Returns the encoders with their trained models and each model's ESN
    scores in sample order, so the train rows come first (see `split_rows`).
    """
    train = keys.train_samples
    targets = np.array([k.index for k in train])
    fitted, scores = [], []
    for encoder, encoded in zip(encoders, states):
        solution = readout.fit_readout(encoded[: len(train)], targets, ridge=cfg.ridge)
        model = encoder.model.with_readout(solution.w_out, solution.b_out)
        fitted.append(replace(encoder, model=model))
        scores.append(reservoir.model_output(model, encoded))
    return fitted, scores


def maps_for(
    encoders: Sequence[Encoder], source: data.SampleSource, positions: Sequence[int]
) -> Iterator[Tuple[int, data.SampleKey, lrp.RelevanceMap]]:
    """The relevance maps of the samples of `source` at `positions` under every encoder's model,
    from one draw of them: batch by batch, each encoder's index with each sample's key and map.

    Each batch is mapped under each model in turn, in its encoder's
    column order (`in_turn`), by one `lrp.relevance_map` call, which runs
    that model's forward pass on the batch itself and reads the stabilizer
    `lrp.EPSILON` (ε is neither a flag nor an argument). A batch's states
    live only inside that call, and its maps are dropped as soon as they
    are drawn.
    """
    keys = iter([source.keys.samples[p] for p in positions])
    sample_bytes = lrp.pass_bytes(encoders[0].model.config, source.shape[1] + 1)
    for batch in batches(source.draw(positions), source.shape, sample_bytes):
        run = list(itertools.islice(keys, len(batch)))
        for i, (encoder, inputs) in enumerate(in_turn(encoders, batch)):
            maps = lrp.relevance_map(encoder.model, inputs)
            yield from zip(itertools.repeat(i), run, maps)
            del maps  # before the next model maps the batch


def mean_maps(encoders: Sequence[Encoder], source: data.SampleSource, positions: Sequence[int]) -> List[np.ndarray]:
    """Each encoder's mean map over the samples at `positions` (see `lrp.RunningMean`), from one draw of them."""
    means = [lrp.RunningMean() for _ in encoders]
    for i, _, rmap in maps_for(encoders, source, positions):
        means[i].add(rmap)
    return [mean.normalized() for mean in means]


def accuracy_rows(model_name: str, split: str, report: readout.AccuracyReport) -> List[str]:
    rows = [f"{model_name},{split},accuracy_overall,{report.overall:.9g}"]
    for cls in (readout.ClassLabel.EL_NINO, readout.ClassLabel.LA_NINA):
        if cls in report.per_class:
            rows.append(f"{model_name},{split},accuracy_{cls.value},{report.per_class[cls]:.9g}")
    rows.append(f"{model_name},{split},n_samples,{report.n_samples}")
    return rows


def split_rows(model_name: str, sample_set: data.SampleSet, scores: np.ndarray) -> List[str]:
    """Accuracy rows per split, from scores in sample order."""
    n = sample_set.n_train
    rows: List[str] = []
    for split, samples, part in (
        ("train", sample_set.train_samples, scores[:n]),
        ("val", sample_set.val_samples, scores[n:]),
    ):
        if samples:
            rows.extend(accuracy_rows(model_name, split, readout.accuracy(part, [s.label for s in samples])))
    return rows


def val_accuracy(sample_set: data.SampleSet, scores: np.ndarray) -> readout.AccuracyReport:
    return readout.accuracy(scores[sample_set.n_train :], [s.label for s in sample_set.val_samples])


def write_report(path: Path, rows: List[str]) -> None:
    path.write_text("\n".join(["model,split,metric,value"] + rows) + "\n", encoding="ascii")


def fit_baseline(
    cfg: ExperimentConfig, train: Sequence[data.LabeledSample], valid_mask: Optional[np.ndarray]
) -> Baseline:
    """Fit the --baseline model (not "none") on the train samples.

    Both baselines read each field's valid cells, scaled (`data.BaselineRows`;
    a `valid_mask` of None means every cell is valid). The MLP reads them a
    mini-batch at a time, so it builds no (samples x cells) matrix. The
    linear regression's closed-form solve needs that matrix, and builds it
    for the train samples only (`cmd_train` has checked that at ridge 0
    they are enough for a full-rank fit).
    """
    inputs = data.BaselineRows(train, valid_mask)
    y_train = np.array([s.index for s in train])
    if cfg.baseline == "linreg":
        x = inputs.read(range(len(inputs)), np.empty((len(inputs), inputs.width)))
        solution = readout.fit_readout(x, y_train, ridge=cfg.ridge)
        return Baseline("linreg", solution, valid_mask, f"linreg,train,mse,{solution.train_mse:.9g}")
    model, history = baselines.train_mlp(inputs, y_train, seed=cfg.seed)
    return Baseline("mlp", model, valid_mask, f"mlp,train,final_loss,{history[-1]:.9g}")


def fit_beside_encoding(
    cfg: ExperimentConfig, encoder: Encoder, source: data.SampleSource
) -> Tuple[np.ndarray, Baseline, np.ndarray]:
    """The final states of every sample under `encoder`, in the runs of `forward_pass`, the
    --baseline model fitted on the train split, and its scores of every sample. `cmd_train`
    calls it inside `blas.one_thread`.

    The train samples are drawn first and held while the baseline is fit
    on them, before any validation sample is drawn. The fit goes to a
    `blas.worker`: where a thread-count setter is found, it runs on the
    worker's thread while the calling thread encodes the whole split, each
    at one BLAS thread. Elsewhere both would run at the environment's
    count, so no thread is started: the calling thread encodes the split,
    then fits. With `blas.openblas` patched to find none, at
    OPENBLAS_NUM_THREADS=2 on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31),
    `train --synthetic 89,180,1041 --baseline mlp` took 3.53 s wall and
    4.61 s CPU so, and 3.65 s and 6.58 s with a worker thread started
    anyway: medians of 5 alternating pairs, the thread slower in 4 of 5
    pairs and costlier in CPU in 5 of 5.
    The fit is done before any error leaves, and the fit's error comes
    first. Then the baseline scores the held split, which is let go before
    the validation split is drawn. That split is held in the same way: it
    is encoded in runs of `batches`, scored, and let go on return.
    """
    samples = source.draw()
    train = list(itertools.islice(samples, source.keys.n_train))
    with blas.worker(True) as submit:
        fit = submit(fit_baseline, cfg, train, source.valid_mask)
        try:
            runs = [states for [states] in encoded_runs([encoder], train, source.shape)]
        finally:
            baseline = fit()  # raises the fit's error, over the encoding's
    train_scores = baseline.score(train)
    train.clear()
    val = list(samples)
    runs += [states for [states] in encoded_runs([encoder], val, source.shape)]
    return np.concatenate(runs), baseline, np.concatenate([train_scores, baseline.score(val)])


def cmd_train(cfg: ExperimentConfig, out: Path) -> None:
    """Fit the ESN, and the --baseline beside it (`fit_beside_encoding`), and score every sample.

    Without a baseline one `forward_pass` encodes every sample and nothing
    is held ahead of it; each phase sets its own BLAS thread count. With one,
    the command runs at one BLAS thread from the baseline's fit to the
    last write, the encoding included, so its outputs are the same bytes
    under any thread count. Both encode the samples in the same runs, so at
    one BLAS thread the ESN model is the same bytes with a baseline or without.
    """
    source = sample_source(cfg)
    check_train_split(source.keys)
    if cfg.baseline == "linreg":  # at ridge 0 it needs more train samples than cells, known before any draw
        cells = np.prod(source.shape) if source.valid_mask is None else np.count_nonzero(source.valid_mask)
        readout.check_rank_attainable(source.keys.n_train, int(cells), cfg.ridge)
    encoder = Encoder(reservoir.init_reservoir(cfg.esn_config(source.shape[0])))
    if cfg.baseline == "none":
        [states] = forward_pass([encoder], source)
        write_train(cfg, out, source, encoder, states)
    else:
        with blas.one_thread():  # opened before the worker starts, closed after the last write
            write_train(cfg, out, source, encoder, *fit_beside_encoding(cfg, encoder, source))


def write_train(
    cfg: ExperimentConfig,
    out: Path,
    source: data.SampleSource,
    encoder: Encoder,
    states: np.ndarray,
    baseline: Optional[Baseline] = None,
    baseline_scores: Optional[np.ndarray] = None,
) -> None:
    """Fit the ESN's readout on the final states of every sample of `source`, in order, and write
    `train`'s outputs: the ESN model, the sample index and the report, with the baseline's."""
    [encoder], [scores] = fit_esn(cfg, [encoder], source.keys, [states])
    persistence.save_model(out / MODEL_FILE, encoder.model)
    data.write_sample_index_csv(out / "samples.csv", source.keys)
    rows = split_rows("esn", source.keys, scores)
    if baseline is not None:
        persistence.save_model(out / f"baseline_{baseline.name}.json", baseline.model)
        rows += split_rows(baseline.name, source.keys, baseline_scores) + [baseline.fit_row]
    write_report(out / "train_report.csv", rows)


def load_trained_model(out: Path) -> reservoir.EsnModel:
    model_path = out / MODEL_FILE
    if not model_path.exists():
        raise DataError(f"no trained model at {model_path}; run the train command first")
    model = persistence.load_model(model_path)
    if not isinstance(model, reservoir.EsnModel) or not model.is_trained:
        raise DataError(f"{model_path} does not hold a trained reservoir model")
    return model


def check_field_height(model: reservoir.EsnModel, height: int, out: Path) -> None:
    """Fields must have one row per model input; a mismatch is a DataError."""
    if height != model.config.n_in:
        raise DataError(f"fields have {height} rows but the model in {out / MODEL_FILE} takes {model.config.n_in}")


def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> None:
    """Score every sample with the saved model in one streamed `forward_pass`."""
    model = load_trained_model(out)
    source = sample_source(cfg)
    check_field_height(model, source.shape[0], out)
    [states] = forward_pass([Encoder(model)], source)
    write_report(out / "eval_report.csv", split_rows("esn", source.keys, reservoir.model_output(model, states)))


def cmd_relevance(cfg: ExperimentConfig, out: Path) -> None:
    """Map the train samples of --class, writing each map and its audit row, then the mean map.

    Only the samples of --class are drawn, and they stream through
    `maps_for`: each is built, preprocessed into its batch and let go
    before the batch is mapped, so one batch is the most ever held, however
    many samples there are. The checks (a sample is left, the field height
    is the model's) read the source's keys and shape before any field is
    built or anything written; then the maps an earlier run left in
    `relevance/` are removed, so the directory holds this run's only.
    """
    model = load_trained_model(out)
    source = sample_source(cfg)
    positions = class_positions(source.keys, cfg.class_filter)
    check_field_height(model, source.shape[0], out)

    rel_dir = out / "relevance"
    rel_dir.mkdir(parents=True, exist_ok=True)
    for stale in rel_dir.glob("sample_*.csv"):
        stale.unlink()
    audit = ["sample,month_id,label,output,scores_sum,dummy_sum,absorbed,conservation_error,within_tolerance"]
    running = lrp.RunningMean()
    for i, (_, key, rmap) in enumerate(maps_for([Encoder(model)], source, positions)):
        lrp.write_matrix_csv(rel_dir / f"sample_{i:04d}.csv", rmap.scores)
        audit.append(
            f"{i},{key.month_id},{key.label.value},{rmap.total:.9g},"
            f"{rmap.scores.sum():.9g},{rmap.dummy_scores.sum():.9g},{rmap.absorbed:.9g},"
            f"{rmap.conservation_error():.9g},{int(rmap.conserved())}"
        )
        running.add(rmap)
    mean = running.normalized()
    (out / "relevance_audit.csv").write_text("\n".join(audit) + "\n", encoding="ascii")
    lrp.write_matrix_csv(out / "mean_map.csv", mean)
    lrp.write_heatmap_pgm(out / "mean_map.pgm", mean)


def study(
    cfg: ExperimentConfig, encoders: Sequence[Encoder], source: data.SampleSource
) -> Tuple[List[readout.AccuracyReport], List[np.ndarray]]:
    """Each model's val accuracy and mean map: the encoders' fresh reservoirs are fitted on one
    draw of every sample, and the --class train samples mapped under them in one more. A --class
    with no train sample, or a train split too small to fit, is a DataError before any field is drawn."""
    check_train_split(source.keys)
    positions = class_positions(source.keys, cfg.class_filter)
    fitted, scores = fit_esn(cfg, encoders, source.keys, forward_pass(encoders, source))
    means = mean_maps(fitted, source, positions)
    return [val_accuracy(source.keys, s) for s in scores], means


def cmd_leak_sweep(cfg: ExperimentConfig, out: Path) -> None:
    """One reservoir, drawn once, at each leak rate of SWEEP_ALPHAS (a parameter of the state
    update, not of the weights), all four models fitted and mapped in one `study`."""
    source = sample_source(cfg)
    model = reservoir.init_reservoir(cfg.esn_config(source.shape[0]))
    encoders = [Encoder(replace(model, config=replace(model.config, leak_rate=alpha))) for alpha in SWEEP_ALPHAS]
    reports, means = study(cfg, encoders, source)
    rows = ["alpha,tag,accuracy_overall,accuracy_elnino,accuracy_lanina,mean_map_center_of_gravity"]
    for alpha, tag, report, mean in zip(SWEEP_ALPHAS, SWEEP_TAGS, reports, means):
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
    """One reservoir, fitted and mapped in one `study` on the fields as they are and with
    their columns permuted (--permute-seed); the permuted mean map is then restored.

    Both models read one batch per run: its columns are permuted in place
    before the permuted model's turn (`in_turn`), so no permuted field or
    second batch is built.
    """
    source = sample_source(cfg)
    permutation = data.column_permutation(source.shape[1], cfg.permute_seed)
    model = reservoir.init_reservoir(cfg.esn_config(source.shape[0]))
    encoders = [Encoder(model), Encoder(model, permutation)]
    (base_report, perm_report), (base_mean, perm_mean) = study(cfg, encoders, source)
    restored = data.inverse_permute(perm_mean, permutation)

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
    cancel the very signal being located. The fit draws every sample, and
    each class's maps draw that class's train samples afresh.
    """
    if cfg.synthetic is None:
        cfg = replace(cfg, synthetic=DEFAULT_SYNTHETIC)
    d, t, _ = cfg.synthetic
    source = sample_source(cfg)
    check_train_split(source.keys)
    encoder = Encoder(reservoir.init_reservoir(cfg.esn_config(d)))
    [encoder], [scores] = fit_esn(cfg, [encoder], source.keys, forward_pass([encoder], source))
    persistence.save_model(out / MODEL_FILE, encoder.model)
    rows = split_rows("esn", source.keys, scores)
    box = data.synthetic_blob_box(d, t)
    for class_filter in ("elnino", "lanina"):
        [mean] = mean_maps([encoder], source, class_positions(source.keys, class_filter))
        lrp.write_matrix_csv(out / f"mean_map_{class_filter}.csv", mean)
        lrp.write_heatmap_pgm(out / f"mean_map_{class_filter}.pgm", mean)
        rows.append(f"esn,train,localization_ratio_{class_filter},{data.box_mass_ratio(mean, box):.9g}")
    rows.append(f"esn,train,signal_box,{box[0]}:{box[1]}:{box[2]}:{box[3]}")
    write_report(out / "synthetic_report.csv", rows)


# Each command's handler and its help line, in the order `--help` lists them.
COMMANDS: Dict[str, Tuple[Callable[[ExperimentConfig, Path], None], str]] = {
    "train": (cmd_train, "train a reservoir (and optional baselines), write model and accuracy report"),
    "evaluate": (cmd_evaluate, "re-evaluate a previously trained model on a dataset"),
    "relevance": (cmd_relevance, "per-sample relevance maps, conservation audit, and the mean map"),
    "leak-sweep": (cmd_leak_sweep, f"train at leak rates {'/'.join(map(str, SWEEP_ALPHAS))} and compare maps"),
    "permutation": (cmd_permutation, "train on column-permuted data and restore the mean map"),
    "synthetic": (cmd_synthetic, "full study on the generated task with known signal location"),
}


def run(cfg: ExperimentConfig) -> None:
    """Run the command into --out. A failed command removes the directories it made for --out
    while they are empty; an existing --out, and the files written before a failure, stay. An OSError
    that escapes the command is a write under --out (an input's is a DataError): a ConfigError."""
    out = Path(cfg.out)
    made = [path for path in (out, *out.parents) if not path.exists()]  # innermost first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out, or a directory above it, names a file
        raise ConfigError(f"--out {out} cannot be made a directory: {exc}") from exc
    try:
        COMMANDS[cfg.command][0](cfg, out)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the first directory that is not empty ends the removal
            for directory in made:
                directory.rmdir()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write under --out {out}: {exc}") from exc
        raise


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
