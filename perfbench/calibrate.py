"""A fixed calibration loop that measures how fast the machine runs right now.

The benchmark runs on a shared machine whose speed drifts by up to half
within minutes.  The drift slows the program and this loop alike, so the
benchmark times the loop between its measurements and reports each time
scaled to the *reference speed*: the speed at which one loop takes
``REF_S`` seconds.  The loop never calls pbclab, so no change to the
program can change it.  Like a simulation step, it mixes Python float
arithmetic with operations on 4-element numpy arrays.

    python3 perfbench/calibrate.py    # the loop's time on this machine now
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.1  # [s] the loop's duration at the reference speed
STEPS = 9000  # about REF_S on the 2-vCPU Xeon the benchmark was defined on

_A = np.array([[-0.5, 1.0, 0.0, 0.0],
               [-1.0, -0.5, 0.25, 0.0],
               [0.0, -0.25, -0.5, 1.0],
               [0.0, 0.0, -1.0, -0.5]])
_B = np.array([0.0, 1.0, 0.0, -1.0])


def loop_s() -> float:
    """Run the calibration loop once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    x = np.ones(4)
    u = 0.5
    h = 1e-3
    for _ in range(STEPS):
        k = _A @ x + _B * u
        x = x + (0.5 * h) * (k + _A @ (x + h * k))
        e = float(x[1]) - 0.1
        u = min(max(0.5 - 0.2 * e + 0.01 * e * e, 0.0), 1.0)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("calibration loop diverged")
    return time.perf_counter() - t0


def scale(cal_times) -> float:
    """The factor that turns a time measured next to these calibration loops
    into the time at the reference speed: ``REF_S`` over their median.  The
    median of many loops spread over a run follows the run's speed and
    ignores the short bursts, faster or slower, that a single loop catches."""
    return REF_S / statistics.median(cal_times)


if __name__ == "__main__":
    runs = [loop_s() for _ in range(21)]
    print(f"calibration loop: median {statistics.median(runs):.4f} s, "
          f"min {min(runs):.4f} s, max {max(runs):.4f} s over {len(runs)} runs "
          f"(reference {REF_S} s)")
