"""Machine-speed normalisation of wall times on a shared machine.

On a machine shared with other tenants, the same single-threaded work can
take up to twice as long, and the slow and fast spells alternate within
tens of milliseconds to minutes. So `SpeedMeter` runs a fixed probe every
PERIOD_S seconds from a SIGALRM handler, in this process's main thread,
and records how long each probe took. Around the serving units (set-ups,
queries, batches) the caller stops the timer and probes between units
instead, so no probe lands inside them; the pipeline is probed every
PERIOD_S. The probe is the benchmark's own code and never
changes with the program. A timed interval is reported at
reference speed: its wall time, minus the probes run inside it, scaled by
REFERENCE_S over the probe time measured around it. Raw wall times are
printed next to the normalised metrics.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.01
# The probe's time in a fast spell (its 5th percentile over 20000 calls) on
# a 2-core Intel Xeon virtual machine with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 1.0e-4

_A = np.full((1, 64), 0.5, dtype=np.float32)
_B = np.full((64, 64), 0.25, dtype=np.float32)
_TABLE = [(i * 0x9E3779B1 >> 5) & 0xFFFFFFFF for i in range(256)]
_BYTES = bytes(range(160))


def probe() -> int:
    """Fixed work of two kinds that the machine's slow spells slow unequally:
    small numpy calls, like a 1-row layer, and a table-driven byte loop,
    like the checksum."""
    out = np.zeros((1, 64), dtype=np.float32)
    tmp = np.empty((1, 64), dtype=np.float32)
    for t in range(32):
        np.multiply(_A[:, t : t + 1], _B[t : t + 1, :], out=tmp)
        np.add(out, tmp, out=out)
    crc = 0xFFFFFFFF
    for byte in _BYTES:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


class SpeedMeter:
    """Probe samples taken while the meter is running (a context manager)."""

    def __init__(self):
        self.at: list[float] = []  # when each probe ended
        self.cost: list[float] = []  # how long it took

    def tick(self, *signal_args) -> None:
        """Run and time one probe; also the SIGALRM handler."""
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)

    def tick_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= PERIOD_S:
            self.tick()

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        self._arm(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def _arm(period: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, period, period)

    @contextlib.contextmanager
    def explicit(self):
        """Stop the timer; the caller runs tick_if_due() between timed units,
        so no probe lands inside a short measurement."""
        self._arm(0)
        try:
            yield self
        finally:
            self._arm(PERIOD_S)

    def factor(self, when) -> np.ndarray:
        """REFERENCE_S over the median of the three probes nearest each time."""
        at, cost = np.asarray(self.at), np.asarray(self.cost)
        i = np.searchsorted(at, np.asarray(when, dtype=float))
        near = np.clip(np.stack([i - 1, i, i + 1]), 0, len(at) - 1)
        return REFERENCE_S / np.median(cost[near], axis=0)

    def normalise(self, spans) -> np.ndarray:
        """Reference-speed durations of (start, end) intervals; NaN stays NaN.

        An interval is cut at every probe that ended inside it, the probe's
        own run time is taken out, and each piece is scaled by the speed
        measured around it.
        """
        at, cost = np.asarray(self.at), np.asarray(self.cost)
        out = []
        for t0, t1 in spans:
            if not t1 >= t0:
                out.append(np.nan)
                continue
            lo, hi = np.searchsorted(at, [t0, t1])
            edges = np.concatenate([[t0], at[lo:hi], [t1]])
            pieces = np.diff(edges)
            pieces[:-1] -= cost[lo:hi]
            out.append(float(np.sum(pieces * self.factor((edges[:-1] + edges[1:]) / 2))))
        return np.asarray(out)
