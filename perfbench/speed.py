"""Machine speed during a run, from a fixed calibration load.

On a shared host the same work can take 1.6 times as long for minutes at
a time, while neighbours load the machine; such a slow phase can outlast
a whole run, so no estimator over the run's own executions (best-of-k,
medians) removes it, and CPU time does not either: the process keeps its
CPU and runs slower on it.  A slow phase slows compute of every kind
alike: a pure-Python loop and numpy FFTs timed side by side keep the same
ratio of times to within about 1% when averaged over 15 s, although each
drifts by 40%.  So the run times a fixed calibration load between its
executions and scales the time of its passes by how much slower than its
reference time that load ran.

The load imitates what the package spends its time in, and uses numpy
only, so a change to the package does not change it: small-array numpy
calls from a Python loop (the stepping kernel), batched 2x2 complex matrix
products (the reference's matrix exponentials) and FFTs (norm sampling).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one calibration chunk when the machine runs at full speed, on a
# 2.1 GHz Xeon vCPU; scaled times are times at that speed.
REFERENCE_CHUNK_S = 0.0093
# CPU time of ``import numpy`` in a fresh interpreter at full speed on the
# same vCPU.  Importing is file and page-fault work that the calibration
# load does not track, but numpy's import slows in step with the
# package's own: scaled by it, ``import locdamp`` timed in 12 rounds
# over two minutes stayed within 2.2% (range/median), against 46% raw.
NUMPY_IMPORT_S = 0.06
# One chunk is timed for every this many seconds of measured work, so the
# samples spread over the run like the work does.  This costs 10-20% more
# time, with the untimed chunk that refills the caches.  The machine's
# speed changes within seconds: over 30 s windows of the reference
# workload (2-vCPU Xeon), sampling every 0.5 s left scaled pass times 2.4%
# apart (IQR/median), against 1.0% at 0.1 s.
INTERVAL_S = 0.1


class Speedometer:
    """Times calibration chunks and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._state = rng.standard_normal((3, 2048))
        self._damp = 0.5 * np.eye(3)
        self._mats = 0.3 * (rng.standard_normal((8192, 2, 2)) + 1j * rng.standard_normal((8192, 2, 2)))
        self._modes = rng.standard_normal((2, 8192)) + 0j
        self._eye = np.broadcast_to(np.eye(2, dtype=complex), self._mats.shape)
        self._signal = rng.standard_normal((3, 4096))
        self.samples: list[float] = []
        self._owed = 0.0

    def _load(self) -> None:
        v = self._state.copy()
        stripe = slice(900, 1100)
        for _ in range(12):
            v[:, stripe] = self._damp @ v[:, stripe]
            for i in range(3):
                v[i, :] = np.roll(v[i, :], i + 1)
                v[i, : i + 1] = 0.0
        p = self._eye + self._mats / 4
        for j in range(3, 0, -1):
            p = self._eye + (self._mats / j) @ p
        np.einsum("kij,jk->ik", p, self._modes)
        spectrum = np.fft.fft(self._signal, axis=1)
        np.sqrt(np.sum(np.fft.ifft(spectrum, axis=1).real ** 2, axis=0)).max()

    def chunk(self) -> float:
        t0 = time.process_time()
        self._load()
        seconds = time.process_time() - t0
        self.samples.append(seconds)
        return seconds

    def calibrate(self, chunks: int) -> None:
        """Time ``chunks`` chunks.  The work measured before evicted the
        load's arrays from the caches, so one untimed chunk runs first."""
        self._load()
        for _ in range(chunks):
            self.chunk()

    def after(self, elapsed: float) -> None:
        """Account for ``elapsed`` seconds of measured work and calibrate
        for each whole ``INTERVAL_S`` owed."""
        self._owed += elapsed
        owed = int(self._owed / INTERVAL_S)
        if owed:
            self._owed -= owed * INTERVAL_S
            self.calibrate(owed)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def slowdown(samples: list[float]) -> float:
    """How much slower than at full speed the machine ran, on average over
    the time ``samples`` were spread across."""
    return statistics.fmean(samples) / REFERENCE_CHUNK_S
