"""Machine-speed calibration for the timed figures.

On a shared 2-core Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) the
effective CPU speed drifted by up to a third over minutes while the
program's work stayed the same. `calibration_ns` times a fixed
mix of interpreter, small-array numpy and JSON work, like the program's
own; it lives here, not in the program, so it never changes between the
commits being compared. Dividing an op's time by the calibration in force
before it, and multiplying by CAL_REFERENCE_NS, cancels the drift but not a
change in the program. Raw times are reported next to the adjusted ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# the calibration's usual time on that VM; adjusted figures are times at that speed
CAL_REFERENCE_NS = 1.9e6
CAL_INTERVAL_S = 0.5  # the timed loops recalibrate at least this often
# the calibration in force is the median of the last few: one calibration is
# itself noisy, and that noise would widen the latency tail
CAL_WINDOW = 3

_MATRIX = np.array([[4.0, 1.0], [1.0, 3.0]])
_DOC = {"beta": [1.25, -0.5], "curve": [[i / 64, 1 - i / 64] for i in range(64)], "note": "x" * 40}


def calibration_ns() -> float:
    """Median of three timings of the fixed work, in ns."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(8000):
            acc += i * i
        for _ in range(120):
            np.linalg.inv(_MATRIX)
        json.loads(json.dumps(_DOC))
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)
