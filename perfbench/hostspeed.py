"""Host speed during a run, sampled with a fixed numpy kernel.

On a shared host the same work runs at 1.0x to 2x its best time, in
bouts of a few seconds, and process CPU time rises with wall time, so
neither clock is steady.  ``Probe`` times a fixed kernel (no gatemem
code) before every pass and, from a CPU-time timer, about every
``PERIOD_S`` inside it.  A pass's *calibrated* time is its wall time,
less the probe's own time, scaled by ``REF_S`` over the median probe
time sampled across the pass: the time the pass would take on a host
that runs the kernel in ``REF_S``.

Contention slows batched array work and interpreter-bound loops over
small matrices by different amounts, so the kernel does both, in about
the proportion the workloads do: a Monte-Carlo batch like one of the
averaged distance's (5,000 Haar states of a qubit, a superoperator
applied, 2x2 eigenvalues), and estimator-like iterations on 4x4
matrices.  Over five seeds the spread of the calibrated cycle time was
0.02 (cx-target) and 0.01 (grid-avg) with this kernel, up to 0.07 with
either half alone, and 0.09-0.12 uncalibrated.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: a typical kernel time on the reference host (a shared 2-vCPU Xeon
#: virtual machine, numpy 2.4 with one OpenBLAS thread: 7 ms at best,
#: 11 ms under the usual load); only the scale of calibrated times
#: depends on it
REF_S = 0.011
#: CPU seconds between in-pass samples
PERIOD_S = 0.2

_RNG = np.random.default_rng(20190220)
_EFFECTS = _RNG.normal(size=(36, 4, 4)) + 1j * _RNG.normal(size=(36, 4, 4))
_START = np.eye(4, dtype=complex) + 0.1 * _EFFECTS[0]
_SUPEROP = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))


def _sampling(count: int = 5000) -> float:
    rng = np.random.default_rng(11)
    z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    rho = np.einsum("ni,nj->nij", z, z.conj())
    out = (rho.transpose(0, 2, 1).reshape(count, 4) @ _SUPEROP.T).reshape(count, 2, 2)
    diff = 0.5 * (out + np.conj(out.transpose(0, 2, 1)))
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _estimator(iterations: int = 80) -> float:
    rho = _START
    for _ in range(iterations):
        coeff = np.real(np.einsum("kij,ji->k", _EFFECTS, rho))
        r = np.einsum("k,kij->ij", coeff, _EFFECTS)
        rho = r @ rho @ r.conj().T
        rho = rho / np.trace(rho).real
    x = 0
    for i in range(60 * iterations):
        x += i * i
    return float(rho[0, 0].real) + x


def kernel() -> float:
    return _sampling() + _estimator()


class Probe:
    def __init__(self):
        #: (start, duration) of every kernel run
        self.samples: list[tuple[float, float]] = []
        self._active = False
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        self._sampling = False

    def _tick(self, signum, frame):
        if self._active and not self._sampling:  # a tick may land inside sample()
            self.sample()

    def start(self) -> None:
        """Sample once now and then on a CPU-time timer."""
        if not self.samples:
            kernel()  # warm caches and numpy's dispatch first
        self.sample()
        self._active = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._active = False

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated time of the interval [t0, t1]: its wall time less
        the probe's own time in it, scaled by the median of the samples
        in it and the nearest sample on either side."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        before = [d for s, d in self.samples if s < t0][-1:]
        after = [d for s, d in self.samples if s >= t1][:1]
        speed = statistics.median(before + inside + after)
        return (t1 - t0 - sum(inside)) * REF_S / speed

    def summary(self) -> dict:
        d = sorted(x for _, x in self.samples)
        return {"samples": len(d), "min_ms": d[0] * 1e3, "median_ms": statistics.median(d) * 1e3,
                "max_ms": d[-1] * 1e3, "ref_ms": REF_S * 1e3}
