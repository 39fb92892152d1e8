"""The thread count of numpy's bundled OpenBLAS, set per phase of a command.

OpenBLAS splits a large enough product over its worker threads, and a
worker spins for a while after each product, waiting for the next. Between
the small per-step products of a small reservoir that spinning costs a
second core and buys no wall time. So each phase runs at a count chosen
from its work:

- one thread for the solves and the baselines: the eigenvalue solve of
  `reservoir.spectral_radius`, the readout solve (`readout.fit_readout`), and
  the MLP's training and scoring and the linear regression's scoring
  (`baselines`);
- for the per-step products of a reservoir (its forward pass, and the step
  back of a relevance pass), the count the environment set where the
  reservoir has at least THREADED_MIN_UNITS units, else one thread
  (`for_units`).

A phase at one thread gives the same bits under any thread count. The count
is set through `openblas_set_num_threads` in the OpenBLAS that numpy loaded,
found with `ctypes` under one of the names its builds export (threadpoolctl
lists the same names). Where none is found, every phase runs at the count
the environment set. The lookup runs on first use, not on import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
from pathlib import Path
from typing import Callable, ContextManager, Iterator, NamedTuple, Optional

import numpy as np

# Reservoirs of at least this many units run their per-step products at the
# environment's thread count, smaller ones at one thread. A step's products
# cost B * n_res * (n_in + n_res) multiply-adds against B * n_res of
# elementwise work, so the units set how much a second thread can take over.
# The crossover, measured on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31) as
# the wall time of one map batch and of one encoding batch at 1 thread over
# that at 2 (17x97 and 90x181 inputs per sample, about the sweep and the
# paper shape, 28 to 300 samples per batch, medians of 3 processes per side):
# 0.89-1.06 at 100 units, for twice the CPU time; 1.00-1.49 at 150 to 300.
THREADED_MIN_UNITS = 150


class Handle(NamedTuple):
    """OpenBLAS's thread-count setter and getter."""

    set: Callable[[int], None]
    get: Callable[[], int]


@functools.cache
def openblas() -> Optional[Handle]:
    """The thread-count setter and getter of the OpenBLAS numpy loaded, or None.

    A library is bound only if it is loaded already (RTLD_NOLOAD where the
    platform has it), so the lookup never starts a second thread pool.
    """
    mode = getattr(os, "RTLD_NOLOAD", 0)
    package = Path(np.__file__).parent
    # where numpy's wheels keep their bundled libraries: numpy.libs beside the
    # package (Linux, Windows), .dylibs (macOS) and .libs (older Windows wheels)
    for directory in (package.parent / "numpy.libs", package / ".dylibs", package / ".libs"):
        for path in sorted(directory.glob("*openblas*")):
            try:
                library = ctypes.CDLL(str(path), mode=mode)
            except OSError:
                continue
            for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "", "_64")):
                try:
                    setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}")
                    getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return Handle(setter, getter)
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the block at one BLAS thread, then restore the count it found.

    Without a setter, or at one thread already, it does nothing. The count
    is the process's: blocks open on two Python threads at once would
    restore each other's count.
    """
    handle = openblas()
    before = 1 if handle is None else handle.get()
    if before <= 1:
        yield
        return
    handle.set(1)
    try:
        yield
    finally:
        handle.set(before)


def for_units(n_res: int) -> ContextManager[None]:
    """The thread count of a reservoir's per-step products: the environment's from
    THREADED_MIN_UNITS units up, else one thread."""
    return contextlib.nullcontext() if n_res >= THREADED_MIN_UNITS else one_thread()
