"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: the same pass can
take twice as long from one minute to the next, with the process on CPU the
whole time, so neither CPU time nor a longer run removes it.  ``Calibrator``
times a fixed loop that does not touch ``ssdr`` (interpreted Python, small
dense linear algebra and elementwise passes over an n x n array, the three
kinds of work the workloads do) right next to every timed section.  A
section's time is reported rescaled by ``(NOMINAL_S / loop time) ** exponent``:
seconds on a machine where the loop takes ``NOMINAL_S``.  The exponent says
how strongly the section's kind of work follows the loop (``workloads.py``).
Work added to or removed from ``ssdr`` moves the rescaled time as it moves
the raw one; a slow phase of the host moves both the section and the loop,
and cancels.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.12   # about the loop's time on a 2-core x86-64 VM


class Calibrator:
    """Times the fixed loop; the inputs are made once, outside the timing."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        small = rng.standard_normal((120, 120))
        self._sym = small @ small.T
        self._big = rng.standard_normal((700, 700))
        # Written in place: a fresh 4 MB temporary would take its pages from the
        # allocator, whose state depends on what the process did before.
        self._buf = np.empty_like(self._big)

    def _loop(self) -> float:
        table, acc = {}, 0
        for i in range(160_000):
            table[i & 511] = i
            acc += (i * 7) % 13 + len(table)
        for _ in range(24):
            np.linalg.eigh(self._sym)
            np.argsort(self._sym @ self._sym, axis=1)
        for _ in range(12):
            np.multiply(self._big, self._big, out=self._buf)
            self._buf *= -0.5
            np.exp(self._buf, out=self._buf).sum(axis=0)
        return float(acc)

    def time(self) -> float:
        """Seconds one run of the loop takes now."""
        start = time.perf_counter()
        self._loop()
        return time.perf_counter() - start

    def scale(self, elapsed: float, loop_s: float, exponent: float = 1.0) -> float:
        """``elapsed`` in seconds of the nominal machine, given the loop's
        time measured next to it.  ``exponent`` is how strongly the timed
        work follows the loop: 1 for work that a slow phase slows as much as
        the loop, less for work it slows less (memory-bound passes)."""
        return elapsed * (NOMINAL_S / loop_s) ** exponent
