"""Machine-speed reference for scaling measured times.

The machine this benchmark was built on is a shared 2-vCPU VM whose speed
swings by 20 % or more within seconds and drifts by 40 % over minutes: a
fixed pure-Python loop shows it as plainly as the package does. The
benchmark therefore times this fixed kernel between its samples and
reports every time scaled to a machine on which the kernel takes
NOMINAL_S: scaled = measured * NOMINAL_S / kernel time around the sample.
A change to the package moves the scaled times; a change in machine
speed, which moves kernel and package alike, cancels.

The kernel mixes Python arithmetic with 3x3 numpy operations, the same
kind of work as the package's own, and lives here, outside the package,
so no change under src/ can alter it.
"""

import statistics
import time

import numpy as np

#: kernel duration the scaled times refer to: a fixed anchor near the
#: slow end of what the kernel took on the machine described above
NOMINAL_S = 0.010
_ITERATIONS = 1000


def kernel_seconds():
    """Wall time of one pass of the fixed kernel."""
    a = np.arange(9.0).reshape(3, 3) + 1.0
    s = 0.0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        b = a * 1.0001 + i
        s += float(np.sum(b * b)) + b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return time.perf_counter() - t0


def scales(refs):
    """Scale factor for each sample i taken between refs[i] and refs[i + 1].

    Each uses the median of the four kernel times around the sample, so
    one stray slow kernel pass does not distort it.
    """
    return [NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i in range(len(refs) - 1)]
