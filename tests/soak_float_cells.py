"""Soak of write_csv's float array kernel against its list path.

Seeded random finite bit patterns are written as one float64 array column, which takes the
numpy kernel, and as the same values in a list, which takes format(); the bytes must agree.
Each chunk of n of them is followed by a table of n // 2 decimals, random integers below 10^17
divided by 10^j for j in 0..16, and their negations: they put the point among the 17 digits or
end in zeros, as few bit patterns do.  Run from the root of a checkout:

    PYTHONPATH=src python tests/soak_float_cells.py [count [seed]]

count, the number of bit patterns, defaults to 10^7 and seed to 1.  Exit status 0 when every
chunk agrees, 1 at the first one that does not, which it names.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from dynamokit.reports import write_csv

CHUNK = 200_000  # values per table, so that the list path stays small


def main(count: int = 10**7, seed: int = 1) -> int:
    rng = np.random.default_rng(seed)
    decimal_rng = np.random.default_rng([seed, 1])  # its own stream: the bit patterns stay put
    start, done = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        array_csv, list_csv = Path(tmp) / "array.csv", Path(tmp) / "list.csv"
        while done < count:
            bits = rng.integers(0, 2**64, CHUNK, dtype=np.uint64).view(np.float64)
            values = bits[np.isfinite(bits)][:count - done]
            # uint64 integers, so that numpy 1.24 and 2 draw and convert them alike
            ints = decimal_rng.integers(0, np.uint64(10**17), len(values) // 2, dtype=np.uint64)
            decimals = ints.astype(np.float64) / 10.0 ** decimal_rng.integers(0, 17, len(ints))
            for kind, table in (("values", values), ("decimals", np.append(decimals, -decimals))):
                write_csv(array_csv, ["x"], table)
                write_csv(list_csv, ["x"], table.tolist())
                if array_csv.read_bytes() != list_csv.read_bytes():
                    print(f"seed {seed}: the tables of {kind} {done}..{done + len(values)} differ")
                    return 1
            done += len(values)
    print(f"{done} random finite floats and their decimals agree in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
