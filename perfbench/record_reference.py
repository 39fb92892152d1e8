"""Record the relevance-paper mean maps that run.py checks against.

Usage: python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference (8798b03 for the maps in perfbench/reference). For every CLI seed of the pool it runs the workload's set-up and
command once and stores mean_map.csv as int32 of round(value * 1e8) in
perfbench/reference/relevance-paper-seed<k>.npz, well inside the 1e-7
tolerance of the check.
"""

from __future__ import annotations

import sys

import numpy as np

import run


def main() -> int:
    if not run.use_checkout_sources():
        print(f"no esnlrp sources under {run.SRC}", file=sys.stderr)
        return 2
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in range(run.SEED_POOL):
        bench = run.Run("relevance-paper", seed)
        if not bench.set_up(1):
            print(f"seed {seed}: set-up failed: {bench.ops[-1].problems}", file=sys.stderr)
            return 1
        (op,) = bench.measure(0.0)
        if op.returncode != 0:
            print(f"seed {seed}: {op.problems}", file=sys.stderr)
            return 1
        mean = np.loadtxt(bench.dir / "out" / "mean_map.csv", delimiter=",", ndmin=2)
        quantized = np.rint(mean * run.REFERENCE_SCALE).astype("<i4")
        np.savez_compressed(run.reference_path(seed), mean_map=quantized)
        print(f"seed {seed}: recorded {mean.shape}; other checks: {op.problems or 'passed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
