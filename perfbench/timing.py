"""Op timing corrected for the machine's drifting speed.

On a shared two-core box the same op can take twice as long for seconds at a
time, because of load outside this process that nothing inside it can see.
A median over a 20-second run still moved by 20-35% between runs.  So each
timed step is bracketed by a fixed calibration loop, and its time is scaled
by CALIBRATION_REF_S over the mean of the two calibration times around it.
The result is the step's time at the machine's reference speed: a change to
qcontext moves it in proportion to wall time, while the calibration loop,
which uses no qcontext code, absorbs most of the box's drift.  The raw wall
times are kept and printed too.

numpy is imported on the first calibration, not with this module, so the
set-up timing of a worker that imports it starts before numpy loads.
"""
from __future__ import annotations

import statistics
import time

# The calibration loop's median time on the reference machine (a 2-core
# Intel Xeon VM, Python 3.11, numpy 2.4).  Only the scale of the corrected
# figures depends on it.
CALIBRATION_REF_S = 0.01
_BULK = 100_000
_BULK_ROUNDS = 2
_LOOP_ROUNDS = 600


def calibration_s() -> float:
    """Time one pass of a fixed mix of bulk numpy work and interpreter work.

    About 10 ms: shorter passes measured the speed too noisily to follow it.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    edges = np.cumsum(np.full(8, 0.125))
    counts = np.zeros(9, dtype=np.int64)
    for _ in range(_BULK_ROUNDS):
        counts += np.bincount(np.searchsorted(edges, rng.random(_BULK)), minlength=9)
    table: dict[int, int] = {}
    for i in range(_LOOP_ROUNDS):
        for j in range(20):
            table[(i * j) & 127] = table.get((i * j) & 127, 0) + j
    if counts.sum() != _BULK * _BULK_ROUNDS or len(table) == 0:
        raise RuntimeError("calibration loop produced a wrong result")
    return time.perf_counter() - start


class CorrectedClock:
    """Times calls and scales each by the calibration measured just before and after it.

    Each calibration is the median of `passes` runs of the loop; calls of a
    second or more can afford several, which follow the speed more closely.
    """

    def __init__(self, passes: int = 1) -> None:
        self.passes = passes
        calibration_s()  # the first pass pays one-time costs (allocation, RNG set-up)
        self.last_calibration = self._calibrate()

    def _calibrate(self) -> float:
        return statistics.median(calibration_s() for _ in range(self.passes))

    def time(self, fn, *args):
        """Run fn(*args); return (its result, wall seconds, scale).

        Wall seconds times scale is the corrected time.
        """
        before = self.last_calibration
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.last_calibration = self._calibrate()
        return result, wall, CALIBRATION_REF_S / (0.5 * (before + self.last_calibration))
