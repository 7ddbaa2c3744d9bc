"""Calibration loop for timing on a host whose speed drifts.

The machine the benchmark was tuned on changes speed by up to 2x for
seconds at a time.  Dividing a measured time by a calibration taken next to
it, in a process that has run the loop before, cancels that drift.
"""

import time

# Time of calibrate() on the machine the benchmark was tuned on (2-vCPU
# sandbox, Python 3.11.7, fast phase).  Reported times are wall times scaled
# by CAL_REF_S / (calibration measured next to them).
CAL_REF_S = 0.0012


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic, the kind of
    allocation-heavy interpreter work the package does."""
    from fractions import Fraction  # imported here: the worker times its imports
    t0 = time.perf_counter()
    keep = []
    for k in range(1, 300):
        keep.append(Fraction(k, k + 7) * Fraction(3, k + 1) + Fraction(1, k + 2))
    return time.perf_counter() - t0
