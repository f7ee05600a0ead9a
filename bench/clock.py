"""Wall times corrected for the host's current speed.

On a shared 2-vCPU host the same call runs up to 30% slower for minutes at a
time, depending on what the neighbours run; a fixed reference kernel
interleaved with the calls slows down by the same factor (over 15 s windows
their ratio held within 1% while raw times drifted 30%). Over shorter spans
the host's speed is noise that no probe predicts, so a run probes the
kernel between operations, once for every PROBE_EVERY_S seconds since the
last probe, and scales every raw time by one factor: REF_PROBE_S over the
run's median probe. A
result then reads as the wall time at the host speed where the probe takes
REF_PROBE_S.

The kernel is the benchmark's own code (numpy, scipy and plain Python, the
mix tschmm runs), so no change to tschmm can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracles

# the probe time at a typical speed of the reference host (README)
REF_PROBE_S = 7.0e-3
PROBE_EVERY_S = 0.25
_MAX_BURST = 10


def _reference_inputs():
    rng = np.random.default_rng(0)
    s, d = 4, 12
    a = rng.normal(size=(s, d, d))
    model = oracles.Hmm(
        np.full(s, 1.0 / s),
        np.full((s, s), 1.0 / s),
        rng.normal(size=(s, d)),
        np.einsum("sij,skj->sik", a, a) + np.eye(d),
        tuple(range(6)),
        tuple(range(6, 12)),
    )
    frames = rng.normal(size=(40, 6))
    text = ",".join(repr(float(v)) for v in rng.normal(size=300))
    return model, frames, text


_MODEL, _FRAMES, _TEXT = _reference_inputs()


def probe() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    oracles.gmr(_MODEL, _FRAMES)
    sum(float(v) for v in _TEXT.split(","))
    return time.perf_counter() - t0


class HostClock:
    """Probes the host between operations; `factor` scales a raw time."""

    def __init__(self):
        self.probes = [probe()]
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Probe once per PROBE_EVERY_S passed since the last probe (at most
        _MAX_BURST times), so probes cover the run evenly in time even when
        operations take seconds."""
        due = int((time.perf_counter() - self._last) / PROBE_EVERY_S)
        if due:
            self.probes += [probe() for _ in range(min(due, _MAX_BURST))]
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        return REF_PROBE_S / statistics.median(self.probes)
