"""Machine-speed probe for a shared, noisy box.

On the 2-core box this benchmark was built on, the same fixed work took
from 18 to 31 s from one minute to the next, with the process on the CPU
the whole time: other tenants slow the cores down.  The probe times a small
fixed kernel between pieces of work.  The kernel is Python-dispatched numpy
on 2x2 matrices, like the package's hot path, and the package never runs
it.  A time is rescaled to the speed at which the kernel takes
``REFERENCE_KERNEL_S``, using the median kernel time of the samples taken
while it was measured.  Raw times are reported next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time

# Kernel time on the reference box (2-core x86, Python 3.11, numpy 2.4)
# when nothing else was running.
REFERENCE_KERNEL_S = 2.6e-3
# Sample at most this often; each sample costs about two kernel times.
INTERVAL_S = 0.5


class SpeedProbe:
    """Kernel timings taken at most every INTERVAL_S, and the time they cost."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((96, 2, 2)) + 1j * rng.standard_normal((96, 2, 2))
        self._mats = [m @ m.conj().T + np.eye(2) for m in a]
        self._np = np
        self.kernel_s: list[float] = []
        self.probe_s = 0.0
        self._last = float("-inf")

    def _kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for m in self._mats:
            w, v = np.linalg.eigh(m)
            float(np.trace((v * w) @ v.conj().T @ m).real)
        return time.perf_counter() - t0

    def tick(self, force: bool = False) -> None:
        """Take a sample if the last one is at least INTERVAL_S old (or forced)."""
        t0 = time.perf_counter()
        if not force and t0 - self._last < INTERVAL_S:
            return
        self.kernel_s.append(min(self._kernel(), self._kernel()))
        self._last = time.perf_counter()
        self.probe_s += self._last - t0

    def rescale(self, seconds: float) -> float:
        """``seconds`` measured alongside the samples, at the reference speed."""
        return seconds * REFERENCE_KERNEL_S / statistics.median(self.kernel_s)
