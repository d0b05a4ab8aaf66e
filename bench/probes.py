"""Machine-speed probe: fixed reference work timed right before each repetition.

The cores this benchmark was built on are shared with other tenants.  Their
speed drifts by up to 1.5x in phases that last from seconds to minutes, while
CPU time still equals wall time.  A median over repetitions cannot average
out a phase that covers a whole run, so raw repetition times varied by 10-20%
between runs.

The worker therefore times this probe before every repetition, on the same
pinned CPU.  The probe is frozen benchmark code that never calls polyheat.
It has two parts, and each workload names the parts that follow its speed:

- ``fft``: six 256^2 transform round trips with pointwise work, 16-38 ms.
  It is memory-bound like the transforms every solver workload runs, and in
  tests on the 1-D and 2-D solves and the branch sweep its time followed
  their speed more closely than a loop of small transforms or the
  ``elementwise`` part did.
- ``elementwise``: a 24-term power series and two trigonometric terms over
  270 000 points, 40-60 ms, like the Bessel series of the kernel tables.
  With both parts the kernel tables' 15-repetition medians spread 0.033,
  against 0.062 with ``fft`` alone and 0.138 unscaled.

``wall_s`` is a repetition's wall time multiplied by ``reference_s / probe
time``.  That is the time the repetition would take on a machine where the
probe takes ``reference_s`` seconds.  The references are the parts' times on
a quiet core of the machine the benchmark was built on (an Intel Xeon with 2
vCPUs: 300 ``fft`` probes took 16 ms at the least and 22 ms in the median,
and ``elementwise`` took 44-50 ms in the median).  The raw times stay in the
run record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = {"fft": 0.020, "elementwise": 0.045}


class Probe:
    """The fixed computation, with its inputs built once."""

    def __init__(self, parts=("fft",)):
        self.parts = tuple(parts)
        self.reference_s = sum(REFERENCE_S[part] for part in self.parts)
        rng = np.random.default_rng(0)
        self._field = rng.standard_normal((256, 256))
        if "elementwise" in self.parts:
            self._x = rng.uniform(0.0, 40.0, 270_000)

    def __call__(self) -> float:
        """Seconds the fixed work took just now."""
        start = perf_counter()
        if "fft" in self.parts:
            a = self._field
            for _ in range(6):
                a = np.fft.ifftn(0.5 * np.fft.fftn(a)).real + 0.1 * np.sqrt(np.abs(a))
        if "elementwise" in self.parts:
            x = self._x
            half_sq = 0.25 * x * x
            term = 0.5 * x
            total = term.copy()
            for k in range(1, 25):
                term = term * (-half_sq) / (k * (k + 1))
                total += term
            total += np.sqrt(x) * (np.cos(x) - np.sin(x))
        return perf_counter() - start
