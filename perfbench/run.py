"""esnlrp benchmark: study workloads run through the real ``esnlrp`` CLI.

Usage (from the root of a source checkout, the directory holding src/esnlrp):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in its own Python process with ``PYTHONPATH=src`` and BLAS
threads set to the number of usable cores. With ``--trace 0`` the benchmark
prepares the workload's inputs SETUP_REPEATS times, then repeats the timed
command for S seconds (at least once) and reports end-to-end metrics. With
``--trace 1`` it prepares once, repeats the untraced command for S seconds,
then makes one traced run (perfbench/traced.py) and reports per-layer
metrics. Every output is checked; the last stdout line is the JSON result.

The CLI receives ``--seed`` as the benchmark seed modulo SEED_POOL: the
relevance check compares against a mean map recorded from commit 8798b03,
and perfbench/reference holds one per seed of the pool
(perfbench/record_reference.py writes them).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from traced import LAYERS  # perfbench/ is on sys.path as the script's directory

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = BENCH_DIR / "reference"

SEED_POOL = 8
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # a benchmark run must end within 180 s
MIN_ACCURACY = 0.9
REFERENCE_TOLERANCE = 1e-7  # of the reference map's peak
REFERENCE_SCALE = 1e8  # reference maps are stored as int32 of round(value * scale)

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    ("reservoir.forward_s", "s"),
    ("reservoir.forward_calls", "count"),
    ("reservoir.forward_per_sample", "ratio"),
    ("reservoir.forward_ns_per_weight", "ns/weight"),
    ("reservoir.init_s", "s"),
    ("reservoir.spectral_scale_s", "s"),
    ("readout.fit_s", "s"),
    ("readout.classify_s", "s"),
    ("lrp.map_s", "s"),
    ("lrp.map_calls", "count"),
    ("lrp.map_ms_p50", "ms"),
    ("lrp.map_ms_p90", "ms"),
    ("lrp.map_self_s", "s"),
    ("lrp.output_layer_s", "s"),
    ("lrp.step_back_s", "s"),
    ("lrp.step_back_calls", "count"),
    ("lrp.step_back_ns_per_weight", "ns/weight"),
    ("lrp.first_column_s", "s"),
    ("lrp.mean_s", "s"),
    ("lrp.export_s", "s"),
    ("lrp.export_bytes", "bytes"),
    ("data.synthesize_s", "s"),
    ("data.preprocess_s", "s"),
    ("baselines.mlp_train_s", "s"),
    ("baselines.preprocess_s", "s"),
    ("baselines.predict_s", "s"),
    ("persistence.save_s", "s"),
    ("persistence.load_s", "s"),
    ("persistence.model_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span totals reported as "<span>_s" (time inside the span, children included).
SPAN_SECONDS = (
    "reservoir.forward", "reservoir.init", "reservoir.spectral_scale", "readout.fit",
    "readout.classify", "lrp.map", "lrp.output_layer", "lrp.step_back", "lrp.first_column",
    "lrp.mean", "lrp.export", "data.synthesize", "data.preprocess", "baselines.mlp_train",
    "baselines.preprocess", "baselines.predict", "persistence.save", "persistence.load",
)


# ---------------------------------------------------------------- processes


@dataclass
class Op:
    """One process the benchmark started, with what it cost and what was wrong."""

    kind: str
    returncode: int
    start_ns: int
    end_ns: int
    cpu_s: float
    rss_mb: float
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def spawn(kind: str, argv: List[str], cwd: Path, deadline: float) -> Op:
    """Run ``python3 ARGV`` to completion; rusage comes from wait4, not from polling.

    The child inherits the BLAS thread settings made by use_checkout_sources().
    """
    log = cwd / f"{kind}.log"
    start = time.monotonic_ns()
    with open(log, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=sink, stderr=subprocess.STDOUT
        )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(kind, proc.returncode, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if op.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        op.problems.append(f"exit code {op.returncode}: {' '.join(tail)}")
    return op


def digest_tree(root: Path) -> Dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def sources_digest() -> str:
    """Digest of the package sources, so stored output hashes follow the code they came from."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------ output checks


def read_rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def check_train(out: Path, seed: int) -> List[str]:
    from esnlrp import baselines, persistence, reservoir

    problems = []
    report = {(r["model"], r["split"], r["metric"]): float(r["value"]) for r in read_rows(out / "train_report.csv")}
    for model in ("esn", "mlp"):
        acc = report.get((model, "val", "accuracy_overall"), float("nan"))
        if not acc >= MIN_ACCURACY:
            problems.append(f"{model} val accuracy_overall {acc} < {MIN_ACCURACY}")
    esn = persistence.load_model(out / "esn_model.json")
    if not (isinstance(esn, reservoir.EsnModel) and esn.is_trained and (esn.config.n_in, esn.config.n_res) == (89, 300)):
        problems.append("esn_model.json does not reload as a trained 89-input, 300-unit reservoir")
    if not isinstance(persistence.load_model(out / "baseline_mlp.json"), baselines.MlpModel):
        problems.append("baseline_mlp.json does not reload as an MLP")
    return problems


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"relevance-paper-seed{seed}.npz"


def check_relevance(out: Path, seed: int) -> List[str]:
    import numpy as np
    from esnlrp import data

    problems = []
    audit = read_rows(out / "relevance_audit.csv")
    if len(audit) != 120:
        problems.append(f"audit has {len(audit)} rows, expected 120")
    outside = sum(row["within_tolerance"] != "1" for row in audit)
    if outside:
        problems.append(f"{outside} maps fail the conservation tolerance")
    mean = np.loadtxt(out / "mean_map.csv", delimiter=",", ndmin=2)
    ratio = data.box_mass_ratio(mean, data.synthetic_blob_box(89, 180))
    if not ratio > 2.0:
        problems.append(f"box mass ratio {ratio} <= 2")
    if not reference_path(seed).is_file():
        return problems + [f"no reference mean map for seed {seed}"]
    with np.load(reference_path(seed)) as stored:
        reference = stored["mean_map"] / REFERENCE_SCALE
    if mean.shape != reference.shape:
        problems.append(f"mean map shape {mean.shape} != reference {reference.shape}")
    else:
        deviation = float(np.max(np.abs(mean - reference)))
        if not deviation <= REFERENCE_TOLERANCE * float(np.max(np.abs(reference))):
            problems.append(f"mean map deviates from the recorded reference by {deviation:.3g}")
    return problems


def check_sweep(out: Path, seed: int) -> List[str]:
    problems = []
    rows = read_rows(out / "sweep_report.csv")
    alphas = [float(r["alpha"]) for r in rows]
    if alphas != [0.01, 0.05, 0.2, 0.4]:
        return [f"sweep rows have alphas {alphas}, expected 0.01, 0.05, 0.2, 0.4"]
    gravity = [float(r["mean_map_center_of_gravity"]) for r in rows]
    if any(later <= earlier for earlier, later in zip(gravity, gravity[1:])):
        problems.append(f"centre of gravity {gravity} does not rise strictly with alpha")
    accuracy = float(rows[0]["accuracy_overall"])
    if not accuracy >= MIN_ACCURACY:
        problems.append(f"accuracy at alpha 0.01 is {accuracy} < {MIN_ACCURACY}")
    return problems


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    command: tuple  # esnlrp arguments, without --seed and --out
    setup: Callable[[int], List[str]]  # python arguments of one set-up, writing into setup/
    keep: tuple  # set-up outputs each command finds in its --out directory
    check: Callable[[Path, int], List[str]]


def synthesize_inputs(shape: str) -> Callable[[int], List[str]]:
    return lambda seed: [str(BENCH_DIR / "inputs.py"), shape, str(seed), "setup/inputs.digest"]


def train_model(*args: str) -> Callable[[int], List[str]]:
    return lambda seed: ["-m", "esnlrp.cli", "train", *args, "--seed", str(seed), "--out", "setup"]


WORKLOADS = {
    "train-paper": Workload(
        command=("train", "--synthetic", "89,180,1041", "--baseline", "mlp"),
        setup=synthesize_inputs("89,180,1041"),
        keep=(),
        check=check_train,
    ),
    "relevance-paper": Workload(
        command=("relevance", "--synthetic", "89,180,300", "--ridge", "1e-8", "--class", "elnino"),
        setup=train_model("--synthetic", "89,180,300", "--ridge", "1e-8"),
        keep=("esn_model.json",),
        check=check_relevance,
    ),
    "sweep-small": Workload(
        command=("leak-sweep", "--synthetic", "16,96,300", "--n-res", "100", "--ridge", "1e-8"),
        setup=synthesize_inputs("16,96,300"),
        keep=(),
        check=check_sweep,
    ),
}


# ------------------------------------------------------------------ the run


class Run:
    """One benchmark invocation of one workload and seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed % SEED_POOL
        self.dir = WORK / name
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.ops: List[Op] = []
        self.sources = sources_digest()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def set_up(self, repeats: int) -> bool:
        first = None
        for _ in range(repeats):
            shutil.rmtree(self.dir / "setup", ignore_errors=True)
            (self.dir / "setup").mkdir()
            op = spawn("setup", self.workload.setup(self.seed), self.dir, self.deadline)
            digest = digest_tree(self.dir / "setup")
            first = first or digest
            if not op.problems and digest != first:
                op.problems.append("set-up outputs differ from the first set-up's")
            self.ops.append(op)
        return not any(op.problems for op in self.ops)

    def fresh_out(self) -> Path:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        for name in self.workload.keep:
            shutil.copyfile(self.dir / "setup" / name, out / name)
        return out

    def verify(self, op: Op, out: Path) -> None:
        """Output checks plus the determinism check, recorded as problems of op."""
        if op.returncode != 0:
            return
        try:
            op.problems.extend(self.workload.check(out, self.seed))
        except Exception as exc:  # any failure to read or check the outputs fails this run
            op.problems.append(f"output check raised {type(exc).__name__}: {exc}")
        # The first run of this workload and CLI seed on these sources sets the expected hashes.
        digest = digest_tree(out)
        stored = WORK / "digests" / self.sources / f"{self.name}-seed{self.seed}.json"
        if not stored.exists():
            stored.parent.mkdir(parents=True, exist_ok=True)
            stored.write_text(json.dumps(digest, indent=1, sort_keys=True), encoding="ascii")
        first = json.loads(stored.read_text(encoding="ascii"))
        changed = sorted(k for k in set(digest) | set(first) if digest.get(k) != first.get(k))
        if changed:
            op.problems.append(f"outputs differ from the first run's: {changed[:3]} ({len(changed)} files)")

    def cli_args(self) -> List[str]:
        return [*self.workload.command, "--seed", str(self.seed), "--out", "out"]

    def measure(self, seconds: float) -> List[Op]:
        """Repeat the untraced command until `seconds` have passed (at least once)."""
        argv = ["-m", "esnlrp.cli", *self.cli_args()]
        commands: List[Op] = []
        start = time.monotonic()
        while not commands or time.monotonic() - start < seconds:
            if commands and time.monotonic() + commands[-1].wall_s > self.deadline:
                break
            out = self.fresh_out()
            op = spawn("command", argv, self.dir, self.deadline)
            self.verify(op, out)
            commands.append(op)
            self.ops.append(op)
        return commands

    def traced(self) -> Tuple[Op, Optional[dict]]:
        out = self.fresh_out()
        trace_path = self.dir / "trace.json"
        argv = [str(BENCH_DIR / "traced.py"), str(trace_path), *self.cli_args()]
        op = spawn("traced", argv, self.dir, self.deadline)
        self.verify(op, out)
        self.ops.append(op)
        trace = json.loads(trace_path.read_text(encoding="ascii")) if op.returncode == 0 else None
        return op, trace


# ----------------------------------------------------------------- metrics


def layer_metrics(op: Op, trace: dict, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer figures from the span tree; structural faults fail the traced run."""
    names, spans = trace["names"], trace["spans"]
    main_start, main_end = trace["main_ns"]
    child_ns = [0] * len(spans)
    last_end: Dict[int, int] = {}
    top_ns = 0
    misnested = 0
    for name_id, start, end, parent in spans:
        lo, hi = (main_start, main_end) if parent < 0 else spans[parent][1:3]
        # spans are listed in start order: a child lies inside its parent, siblings never overlap
        if not lo <= start <= end <= hi or start < last_end.get(parent, lo):
            misnested += 1
        last_end[parent] = end
        if parent < 0:
            top_ns += end - start
        else:
            child_ns[parent] += end - start
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    map_ms = []
    for index, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        total[name] += end - start
        own[name] += end - start - child_ns[index]
        calls[name] += 1
        if name == "lrp.map":
            map_ms.append((end - start) / 1e6)
    if misnested:
        op.problems.append(f"{misnested} spans are not properly nested")

    wall_ns = op.end_ns - op.start_ns
    import_ns = trace["imported_ns"] - op.start_ns
    cli_self_ns = wall_ns - import_ns - top_ns
    if cli_self_ns < 0:
        op.problems.append("top-level spans cover more than the traced wall")

    counters = trace["counters"]
    metrics: Dict[str, float] = {f"{name}_s": total[name] / 1e9 for name in SPAN_SECONDS}
    metrics.update({
        "reservoir.forward_calls": calls["reservoir.forward"],
        "reservoir.forward_per_sample": calls["reservoir.forward"] / max(trace["distinct_samples"], 1),
        "reservoir.forward_ns_per_weight": total["reservoir.forward"] / max(counters.get("forward_weights", 0), 1),
        "lrp.map_calls": calls["lrp.map"],
        "lrp.map_ms_p50": percentile(map_ms, 50),
        "lrp.map_ms_p90": percentile(map_ms, 90),
        "lrp.map_self_s": own["lrp.map"] / 1e9,
        "lrp.step_back_calls": calls["lrp.step_back"],
        "lrp.step_back_ns_per_weight": total["lrp.step_back"] / max(counters.get("step_back_weights", 0), 1),
        "lrp.export_bytes": counters.get("export_bytes", 0),
        "persistence.model_bytes": counters.get("model_bytes", 0),
        "cli.import_s": import_ns / 1e9,
        "cli.self_s": cli_self_ns / 1e9,
        "trace.wall_s": wall_ns / 1e9,
        "trace.overhead_s": wall_ns / 1e9 - untraced_wall_s,
    })
    return metrics


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_text(values: List[float]) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it, and the sample count."""
    n = len(values)
    for q in (99, 90, 50):
        if n * (100 - q) / 100.0 >= 10:
            return f"p{q} {percentile(values, q):.4f} (n={n})"
    return f"no percentile has 10 samples beyond it (n={n})"


def absent_layers(trace: dict) -> List[str]:
    """Span names none of whose wrapped functions exist any more."""
    present = defaultdict(bool)
    for module_name, attribute, span_name in LAYERS:
        present[span_name] |= trace["present"].get(f"{module_name}.{attribute}", False)
    return sorted(name for name, ok in present.items() if not ok)


def environment(trace: Optional[dict]) -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    if trace is not None:
        # *_ns_per_weight are span time over weights touched, computed from array sizes
        env["ns_per_weight_shapes_n_res_n_in_T"] = trace["shapes"]
    return env


# -------------------------------------------------------------------- main


def use_checkout_sources() -> bool:
    """Import esnlrp from this checkout's src/ with the benchmark's BLAS threads."""
    if not (SRC / "esnlrp" / "cli.py").is_file():
        return False
    os.environ.update({var: str(NPROC) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"no esnlrp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so spawn() kills its child before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed)
    setup_ok = run.set_up(1 if args.trace else SETUP_REPEATS)
    commands = run.measure(args.seconds) if setup_ok else []
    walls = [op.wall_s for op in commands]
    trace = None
    lines = [f"workload {args.workload}  seed {args.seed} (CLI --seed {run.seed})  commands {len(commands)}"]

    if args.trace:
        metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
        if commands:
            op, trace = run.traced()
            if trace is not None:
                metrics = layer_metrics(op, trace, statistics.median(walls))
                absent = absent_layers(trace)
                lines.append(f"absent layers (reported as 0): {', '.join(absent) or 'none'}")
                lines.append(
                    f"traced wall {metrics['trace.wall_s']:.4f} s = import {metrics['cli.import_s']:.4f} s"
                    f" + cli self {metrics['cli.self_s']:.4f} s + top-level spans"
                    f" {metrics['trace.wall_s'] - metrics['cli.import_s'] - metrics['cli.self_s']:.4f} s"
                )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "cpu_s": statistics.median(op.cpu_s for op in commands) if commands else 0.0,
            "peak_rss_mb": statistics.median(op.rss_mb for op in commands) if commands else 0.0,
            "setup_s": statistics.median(op.wall_s for op in run.ops if op.kind == "setup"),
        }
        units = END_TO_END

    attempted = len(run.ops)
    failed = sum(bool(op.problems) for op in run.ops)
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / attempted
        lines.append(f"wall_s tail: {tail_text(walls)}")
        lines.append(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} runs)")

    for name, unit in units:
        lines.append(f"  {name:32s} {metrics[name]:>16.6f} {unit}")
    for op in run.ops:
        for problem in op.problems:
            lines.append(f"FAILED {op.kind}: {problem}")
    env = environment(trace)
    result = {
        "correct": failed == 0 and setup_ok and (trace is not None or not args.trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    (run.dir / "result.json").write_text(
        json.dumps({"result": result, "environment": env, "ops": [vars(op) for op in run.ops]}, indent=1),
        encoding="ascii",
    )
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
