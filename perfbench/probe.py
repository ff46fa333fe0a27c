"""The speed probe: a fixed pure-Python job, to scale times to reference speed.

Its own module, so that a fresh interpreter can import the package first and
the probe after it (see ``run.time_setup``): importing the probe loads
``fractions``, which the package import must pay for itself.
"""

import gc
import time
from fractions import Fraction

REF_S = 0.006  # probe time at reference speed


def speed_probe() -> float:
    """Seconds for a fixed pure-Python job like the package's inner loops.

    It shares no code with the package, so a faster program leaves it alone,
    and it runs with the collector off, so the program's heap does not slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1200):
            acc += Fraction(i % 97 - 48, i % 13 + 1)
        cells = {}
        for i in range(6000):
            key = (i % 101, i & 7)
            cells[key] = (cells.get(key, 0) + i * (i ^ 5)) % 1000003
        return time.perf_counter() - start
    finally:
        gc.enable()
