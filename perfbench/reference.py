"""Fixed reference kernels that gauge host speed next to every timed job.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 1.7x
within seconds and stay at a level for seconds to minutes (CPU time moves
with wall time; steal stays near zero), so no run length averages it out.
Each worker therefore times one of these kernels before the first job of a
cycle and after every job, and scales each job's time by
``REFERENCE_MS / mean(kernel ms just before, just after)``: the end-to-end
times are reported at a fixed reference host speed.  The kernels use numpy
alone and never call starcert, so a change to the program cannot move them.

Each workload uses the kernel whose slowdown tracked its own jobs best
(spread of the median job time over 15-second windows of one job stream):

* ``small``: numpy calls on 4x4 to 16x16 complex arrays, where per-call
  overhead dominates, as in the correlator loop and the N = 3 scan
  (scan-n3: 0.23 unscaled, 0.025 scaled);
* ``dense``: one complex 512x512 matrix product, as in the 1024x1024 joint
  states of prepare-n5 (0.066 unscaled, 0.028 scaled on a calm host).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_SMALL_H = _SMALL + _SMALL.conj().T
_DENSE = _rng.standard_normal((512, 512)) + 1j * _rng.standard_normal((512, 512))


def _small() -> None:
    for _ in range(100):
        x = np.kron(_SMALL[:4, :4], _SMALL[4:8, 4:8]) @ _SMALL
        np.trace(x)
        np.linalg.eigvalsh(_SMALL_H)


def _dense() -> None:
    _DENSE @ _DENSE


KERNELS = {"small": _small, "dense": _dense}
KERNEL_OF = {"certify-n4": "small", "prepare-n5": "dense", "scan-n3": "small"}
# Kernel times (ms) that define the reference host speed: about the fast
# level of the baseline host, so scaled times read close to unscaled ones there.
REFERENCE_MS = {"small": 7.0, "dense": 20.0}


def kernel_ms(kernel: str) -> float:
    """Wall time of one run of the kernel, in ms."""
    start = time.perf_counter()
    KERNELS[kernel]()
    return 1e3 * (time.perf_counter() - start)


def median_ms(kernel: str, seconds: float) -> float:
    """Median kernel time, in ms, over repeated runs for about ``seconds``."""
    end = time.perf_counter() + seconds
    times = [kernel_ms(kernel)]
    while time.perf_counter() < end:
        times.append(kernel_ms(kernel))
    return statistics.median(times)
