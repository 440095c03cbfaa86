"""The reference loop that timings are scaled by.

The machine this benchmark was built on ran the same computation up to
1.7x slower for minutes at a time, while the ratio of a command's time to
that of this loop, run next to it, held within about 1%.  A reference
second is the time in which `ref_loop` runs 500 times.  This module
imports nothing but `time`, so a fresh interpreter can load it before the
import it measures.
"""

import time


def ref_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and int work."""
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(10000):
        d[i & 255] = s
        s += (i * i) % 7 + d.get((i >> 3) & 255, 0) % 3
    return time.perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time in reference seconds, given the loop's time
    just before and just after."""
    return seconds * 2 / ((before + after) * 500)
