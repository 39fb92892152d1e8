"""Run one esnlrp command in-process with a span around every layer call.

Usage: python3 traced.py TRACE_JSON ARG...

ARG... goes to ``esnlrp.cli.main`` unchanged. Times are
``time.monotonic_ns()`` readings; CLOCK_MONOTONIC is shared by all processes
on Linux, so the parent can measure the import from its own spawn time.

Each entry of LAYERS replaces one public module attribute with a wrapper that
records (name, start, end, parent). Callers inside the package look these
attributes up at call time, so nothing in the package changes. An attribute
that no longer exists is reported as absent instead of failing the run.
Spans stay in memory and are written to TRACE_JSON once the command returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time

# (module, attribute, span name); several attributes may share one span name.
LAYERS = (
    ("data", "synthesize_task", "data.synthesize"),
    ("data", "preprocess_for_esn", "data.preprocess"),
    ("data", "preprocess_for_baseline", "baselines.preprocess"),
    ("reservoir", "init_reservoir", "reservoir.init"),
    ("reservoir", "scale_to_spectral_radius", "reservoir.spectral_scale"),
    ("reservoir", "run_reservoir", "reservoir.forward"),
    ("readout", "fit_readout", "readout.fit"),
    ("readout", "binarize", "readout.classify"),
    ("readout", "accuracy", "readout.classify"),
    ("lrp", "relevance_map", "lrp.map"),
    ("lrp", "relevance_output_layer", "lrp.output_layer"),
    ("lrp", "relevance_step_back", "lrp.step_back"),
    ("lrp", "relevance_first_column", "lrp.first_column"),
    ("lrp", "mean_relevance", "lrp.mean"),
    ("lrp", "write_matrix_csv", "lrp.export"),
    ("lrp", "write_heatmap_pgm", "lrp.export"),
    ("baselines", "train_mlp", "baselines.mlp_train"),
    ("baselines", "mlp_predict", "baselines.predict"),
    ("baselines", "linreg_predict", "baselines.predict"),
    ("persistence", "save_model", "persistence.save"),
    ("persistence", "load_model", "persistence.load"),
)

# Errors an attribute extractor may hit when a wrapped function's signature changed.
SIGNATURE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


class Tracer:
    """In-memory span list plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.shapes: dict[str, set] = {}
        self.sample_digests: set[bytes] = set()

    def wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name_id, time.monotonic_ns(), 0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self.stack.pop()
            if after is not None:
                try:
                    after(self, args, kwargs)
                except SIGNATURE_ERRORS:
                    self.count("unmeasured_calls", 1)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def shape(self, key: str, n_res: int, n_in: int, steps: int) -> None:
        self.shapes.setdefault(key, set()).add((int(n_res), int(n_in), int(steps)))


def arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def after_forward(tracer: Tracer, args, kwargs) -> None:
    """Weights touched per forward pass: T steps over W_in (n_res x n_in) and W_res (n_res x n_res)."""
    config = arg(args, kwargs, 0, "model").config
    sample = arg(args, kwargs, 1, "sample")
    steps = sample.shape[1]
    tracer.count("forward_weights", steps * config.n_res * (config.n_in + config.n_res))
    tracer.shape("reservoir.forward", config.n_res, config.n_in, steps)
    contiguous = sample if sample.flags.c_contiguous else sample.copy(order="C")
    tracer.sample_digests.add(hashlib.blake2b(contiguous.data, digest_size=16).digest())


def after_step_back(tracer: Tracer, args, kwargs) -> None:
    """Weights touched per step back: W_in and W_res once each."""
    config = arg(args, kwargs, 0, "model").config
    traj = arg(args, kwargs, 1, "traj")
    tracer.count("step_back_weights", config.n_res * (config.n_in + config.n_res))
    tracer.shape("lrp.step_back", config.n_res, config.n_in, traj.n_steps)


def after_export(tracer: Tracer, args, kwargs) -> None:
    tracer.count("export_bytes", os.path.getsize(arg(args, kwargs, 0, "path")))


def after_model_file(tracer: Tracer, args, kwargs) -> None:
    tracer.count("model_bytes", os.path.getsize(arg(args, kwargs, 0, "path")))


AFTER = {
    "reservoir.forward": after_forward,
    "lrp.step_back": after_step_back,
    "lrp.export": after_export,
    "persistence.save": after_model_file,
    "persistence.load": after_model_file,
}


def install(tracer: Tracer) -> dict[str, bool]:
    """Wrap every layer attribute that exists; report which ones do."""
    present = {}
    for module_name, attribute, span_name in LAYERS:
        key = f"{module_name}.{attribute}"
        try:
            module = importlib.import_module(f"esnlrp.{module_name}")
        except ImportError:
            present[key] = False
            continue
        fn = getattr(module, attribute, None)
        present[key] = callable(fn)
        if present[key]:
            setattr(module, attribute, tracer.wrap(span_name, fn, AFTER.get(span_name)))
    return present


def main() -> int:
    trace_path = sys.argv[1]
    import esnlrp.cli

    imported_ns = time.monotonic_ns()
    tracer = Tracer()
    present = install(tracer)
    main_start = time.monotonic_ns()
    exit_code = esnlrp.cli.main(sys.argv[2:])
    main_end = time.monotonic_ns()
    record = {
        "imported_ns": imported_ns,
        "main_ns": [main_start, main_end],
        "exit_code": exit_code,
        "present": present,
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "distinct_samples": len(tracer.sample_digests),
        "shapes": {k: sorted(v) for k, v in tracer.shapes.items()},
    }
    with open(trace_path, "w", encoding="ascii") as handle:
        json.dump(record, handle, separators=(",", ":"))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
