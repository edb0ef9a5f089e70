"""Machine-speed calibration for timings taken on a shared machine.

On a shared 2-core machine the speed of a core changes by up to 2x from
second to second and for minutes at a time, as other tenants load it.  A
raw timing then measures the neighbours as much as the program.  Each timed
region is therefore bracketed by ``reference_loop``, a fixed piece of
pure-Python work of the same kind the program does (tuple keys, dict
updates, integer arithmetic), run on the same core just before and just
after.  ``scaled`` converts a raw time to seconds at the reference speed:
the raw time times ``REF_S`` over the mean of the two reference timings.
``REF_S`` is the reference loop's time on an unloaded core of the machine
the benchmark was tuned on, so on that machine, when it is quiet, a scaled
time equals the raw one.
"""

from __future__ import annotations

import time

REF_S = 0.0165
REF_ITERATIONS = 60000


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(1, REF_ITERATIONS):
        key = (i % 31, (i * 7) % 5)
        table[key] = table.get(key, 0) + (i * i) // (i % 11 + 1)
    return time.perf_counter() - t0


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` converted to seconds at the reference speed."""
    return raw_s * REF_S * 2 / (before_s + after_s)
