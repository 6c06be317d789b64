"""A fixed reference computation that the benchmark times beside the program.

The benchmark's end-to-end time metric is the program's CPU time divided by
the CPU time of this computation, which runs just before every operation in
the same process.  On a shared host the speed one process gets drifts by tens
of percent from minute to minute (co-tenants on sibling hyperthreads, shared
caches and memory bandwidth), and CPU time follows that drift as much as wall
time does.  The program and the reference slow down together, so their ratio
holds steady where either time alone does not.  The reference mixes the kinds
of work the program does: interpreted Python loops, dict and string handling,
and numpy arithmetic, sorting and random draws.  It never changes; a faster
program shows as a lower ratio.
"""

from __future__ import annotations

import time

import numpy as np

_ARRAY = np.random.default_rng(12345).random(32_768)
CHECKSUM_DIGITS = 9


def reference() -> tuple[float, float]:
    """Run the reference once; returns its CPU time in seconds and a checksum."""
    start = time.process_time()
    acc, table, parts = 0, {}, []
    for i in range(12_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
        if i % 8 == 0:
            parts.append(f"{i},{acc}")
    text = "\n".join(parts)
    values = np.sort(np.exp(-_ARRAY) * np.log1p(_ARRAY))
    np.cumsum(values, out=values)
    draws = np.random.default_rng(acc).poisson(2.0, 16_384)
    checksum = float(values[-1]) + float(draws.sum()) + len(text) + sum(table.values())
    return time.process_time() - start, round(checksum, CHECKSUM_DIGITS)
