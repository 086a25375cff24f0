"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark shares a host whose speed drifts by up to 1.7x over seconds to
minutes, with CPU time rising as much as wall time (so the drift is not time
stolen from the process but slower execution).  A :class:`Clock` cuts each
workload execution into stretches of about a second at the workload's own
check points (between repeats, tuples or sweep chunks), measures a reference
kernel at every cut, outside the timed stretches, and reports the execution
in *reference seconds*: each stretch's measured time scaled by the kernel's
nominal time over its time around that stretch.  The kernels use numpy
only, on fixed inputs, so no change to spsdflow can change them; a change
that halves a workload's wall time halves its reported ``wall_s``.

Two kernels match the two kinds of work in the workloads:

- ``interp``: many small QR, eigvalsh and norm calls on an ``100 x 5``
  factor, interpreter and call-overhead bound like descent, the flow and
  the boundary operators at the benchmark's sizes;
- ``dense``: one dense ``500 x 500`` symmetric eigendecomposition, LAPACK
  bound like start sampling at ``n = 1000``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BLOCKS = 3          # a reference measurement is the median of this many timed blocks
PERIOD_S = 1.0      # a clock measures the reference at the first check point after this

# Median block times on the two-core x86-64 VM the baseline was measured on
# (one BLAS thread).  They only fix the scale of reported times: a reported
# time equals the measured one when the host runs at this speed.
NOMINAL_S = {"interp": 0.022, "dense": 0.039}

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((100, 5))
_M = _rng.standard_normal((100, 100))
_M = _M + _M.T
_D = _rng.standard_normal((500, 500))
_D = _D + _D.T


def _interp() -> None:
    for _ in range(500):
        q, _ = np.linalg.qr(_A)
        np.linalg.eigvalsh(q.T @ _M @ q)
        np.linalg.norm(_A)


def _dense() -> None:
    np.linalg.eigh(_D)


KERNELS = {"interp": _interp, "dense": _dense}


def slowdown(kind: str) -> float:
    """The host's current time per unit of work relative to nominal (> 1: slower)."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_S[kind]


class Clock:
    """Times one workload execution in measured and in reference seconds.

    ``start`` and ``stop`` bracket the execution; the workload calls
    ``check`` at its natural check points.  Reference measurements happen at
    ``start``, ``stop`` and the first check point at least ``PERIOD_S`` after
    the previous one; their own time is left out of both totals.  With
    ``kind=None`` nothing is measured and the two totals are equal.
    """

    def __init__(self, kind: str | None):
        self.kind = kind
        self.measured_s = 0.0
        self.reference_s = 0.0
        self.slowdowns: list[float] = []

    def _cut(self) -> None:
        now = time.perf_counter()
        elapsed = now - self._since
        if self.kind is not None:
            self.slowdowns.append(slowdown(self.kind))
            before, after = self.slowdowns[-2:]
            self.reference_s += 2.0 * elapsed / (before + after)
        else:
            self.reference_s += elapsed
        self.measured_s += elapsed
        self._since = time.perf_counter()

    def start(self) -> None:
        if self.kind is not None:
            self.slowdowns.append(slowdown(self.kind))
        self._since = time.perf_counter()

    def check(self) -> None:
        if time.perf_counter() - self._since >= PERIOD_S:
            self._cut()

    def stop(self) -> None:
        self._cut()
