"""Generate a workload's synthetic inputs and record their digest.

Usage: python3 inputs.py D,T,N SEED OUT_FILE

Builds the same task as ``esnlrp <command> --synthetic D,T,N --seed SEED``
and writes a BLAKE2 digest of every field, index, label and split tag to
OUT_FILE, so repeated set-ups can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import sys

from esnlrp import data


def main() -> int:
    d, t, n = (int(v) for v in sys.argv[1].split(","))
    sample_set = data.synthesize_task(n, d, t, seed=int(sys.argv[2]))
    digest = hashlib.blake2b(digest_size=32)
    for sample, tag in zip(sample_set.samples, sample_set.split):
        digest.update(sample.field.tobytes())
        digest.update(f"{sample.index!r},{sample.label.value},{tag}\n".encode("ascii"))
    with open(sys.argv[3], "w", encoding="ascii") as handle:
        handle.write(digest.hexdigest() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
