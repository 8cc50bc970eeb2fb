"""Host-speed calibration: a fixed reference computation that does not
touch the program under test.

Its time is recorded before and after each workload, beside the metrics
and never gated, so a reader can tell a slow host (the reference got
slower too) from a slow program (only the workload got slower).  This
host's CPU speed swings by up to 1.7x for seconds at a time.
"""

from __future__ import annotations

import statistics
import time


def _reference() -> int:
    # Integer arithmetic, dict and list traffic: the interpreter work the
    # program's Python layers are made of.
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = (i * 2654435761) % 4093
        table[key] = table.get(key, 0) + i
        total += key
    ordered = sorted(table.values())
    return total + ordered[len(ordered) // 2]


def reference_ms(repeats: int = 9) -> float:
    """Median wall time of the reference computation, in milliseconds."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        _reference()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)
