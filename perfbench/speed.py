"""The machine's speed around each operation, from a fixed reference computation.

The benchmark shares a few cores of a host with other work, and the speed it
gets drifts by a third and more within minutes.  So a reference computation
is timed between operations, once per ``EVERY_S`` seconds of operation time,
and each time is reported scaled to a machine on which the reference takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / median(the WINDOW reference times
                                             nearest the operation)

The reference is not torusflow code, so a change to torusflow does not move
it.  Drift does not slow the interpreter and numpy alike, so there are two
references, and a workload uses the one like the work its operations spend
their time on:

* ``python`` -- exact rational arithmetic and dict updates, like parsing and
  the exact layers, and like numpy on small batches, where the interpreter's
  overhead dominates.
* ``numpy`` -- nearest-node distances of a large point batch, then bucketing
  the points into grid cells, like the verifier on large batches.  Set-up is
  scaled by it too, by the one time taken right after each set-up.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# either reference's time on a quiet 2-vCPU VM, in seconds; only a scale, so
# that scaled times read close to measured ones
REFERENCE_S = 0.02
# seconds of operation time between two reference measurements
EVERY_S = 1.0
# reference times around an operation whose median scales it
WINDOW = 7


def _python_reference(_state):
    total = Fraction(0)
    counts = {}
    for i in range(1, 6000):
        total += Fraction(i % 7, i % 11 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total


def _numpy_reference(state):
    points, nodes = state
    diff = points[:, None, :] - nodes[None, :, :]
    nearest = (diff * diff).sum(axis=-1).min(axis=1)
    cells = np.floor(points * 20.0).astype(np.int64)
    return nearest.size + np.unique(cells[:, 0] * 100003 + cells[:, 1]).size


REFERENCES = {"python": _python_reference, "numpy": _numpy_reference}


class Speed:
    """Reference times of one run, in the order they were taken."""

    def __init__(self, reference):
        rng = np.random.default_rng(0)
        self._state = (rng.standard_normal((6000, 2)) * 10.0,
                       rng.standard_normal((64, 2)))
        self._compute = REFERENCES[reference]
        self.reference = reference
        self.times = []
        self._since = 0.0

    def measure(self):
        start = time.perf_counter()
        self._compute(self._state)
        self.times.append(time.perf_counter() - start)

    def position(self):
        """Where the next reference time will go; marks an operation."""
        return len(self.times)

    def after_op(self, seconds):
        """Measure once every ``EVERY_S`` seconds of operations."""
        self._since += seconds
        if self._since >= EVERY_S:
            self._since = 0.0
            self.measure()

    def scale_latest(self):
        """Factor from measured seconds to seconds at the reference speed,
        for work done just before the latest reference time."""
        return REFERENCE_S / self.times[-1]

    def scale(self, position):
        """Factor from measured seconds to seconds at the reference speed,
        for an operation marked at ``position``."""
        lo = max(0, min(position - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.times[lo:lo + WINDOW])
