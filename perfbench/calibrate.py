"""Machine-speed calibration for the ``train_step`` timings.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by tens of percent over seconds to
minutes.  A fixed kernel of small numpy operations driven from Python
(the mix of interpreter dispatch and small-array arithmetic the engine
runs on) is timed right after each training-step pair, in the same
thread, and each pair's times are scaled by ``REFERENCE_S /
kernel_time``: they read as the time on a machine that runs the kernel
in ``REFERENCE_S``.  On a 2-core VM this cut the run-to-run spread of
the step rate about threefold, and held it while the raw rate fell by
a third.

``serve`` and ``reproduce`` are not scaled.  Their work runs in other
processes, so a kernel can only be timed between phases, and there it
did not follow their speed (``serve`` is bound by polling, lock and
file-system waits; ``reproduce`` by spawning, I/O and training).  Raw
figures are printed beside the scaled ones.
"""

import time

import numpy as np

#: Kernel time the scaled figures refer to (about a 2-core cloud VM).
REFERENCE_S = 0.006


def kernel():
    """Run the calibration kernel once; returns its wall time."""
    a = np.full((48, 48), 0.01, np.float32)
    b = np.ones((48, 48), np.float32)
    start = time.perf_counter()
    for _ in range(400):
        b = np.tanh(a @ b) * 0.5 + a
        b = b - b.mean(axis=0, keepdims=True)
    return time.perf_counter() - start


def scale(seconds, kernel_s):
    """``seconds`` as it would read at the reference machine speed."""
    return seconds * REFERENCE_S / kernel_s
