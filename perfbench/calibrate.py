"""Machine-speed calibration for end-to-end times.

On a shared host the same computation can run 30 % slower or faster for
seconds to tens of seconds at a time, which is as long as a run.  A run
therefore samples a fixed reference kernel before every task and after the
last (a small complex SVD and eigenvalue solve, Kronecker products and a
Python loop: the operations lindkit spends its time in) and reports each
task time scaled to the speed at which the reference kernel takes
REFERENCE_S:

    calibrated = measured * REFERENCE_S / mean(reference before, reference after)

Before each timed run of the kernel, a sample reads an 8 MiB buffer,
untimed.  That is four times the per-core L2 cache of the machine the
benchmark was tuned on, so it puts L1 and L2 into the same state whatever
the task before it did.  The sample therefore does not depend on the task's
memory traffic, and a change to it cannot move the scale factor.  The
kernel's own data then comes from L3, as a task's does.  In trials this
sample tracked machine speed at least as well as one taken straight after
the task, and better than one taken with warm caches.  Raw wall times are
printed next to the calibrated ones.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0020  # reference kernel time defining the nominal speed
FLUSH_BYTES = 8 << 20


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20181017)
        self._a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._flush = np.ones(FLUSH_BYTES // 8)

    def run_kernel(self):
        np.linalg.svd(self._a)
        np.linalg.eigvals(self._a)
        for _ in range(15):
            np.kron(self._b, self._b.conj())
        acc = 0
        for i in range(2000):
            acc += i * i
        return acc

    def measure(self) -> float:
        """One calibration sample, right next to a task so that it sees the
        same machine speed: an untimed pass over the flush buffer, then one
        timed run of the kernel."""
        self._flush.sum()
        t0 = time.perf_counter()
        self.run_kernel()
        return time.perf_counter() - t0


def factor(refs, i: int) -> float:
    """Scale for a task that ran between reference samples i and i + 1.

    Only the two adjacent samples are used: on the host this was tuned on,
    the speed changes within a second, and wider windows or the best of
    several kernel runs tracked it worse."""
    return 2.0 * REFERENCE_S / (refs[i] + refs[i + 1])
