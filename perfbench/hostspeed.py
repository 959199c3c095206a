"""Host speed, measured by a probe the benchmark owns.

The benchmark host is shared, and over minutes its speed changes by up
to 2x while the code under test stays the same.  So a fixed probe (a
pure-Python loop, small LAPACK calls and a medium einsum, the three
kinds of work the workloads do) runs between operations, and every
end-to-end time is scaled by ``NOMINAL_S`` over the median of the probes
taken nearest to it: the times read as if taken on a host on which the
probe takes ``NOMINAL_S``.  The probe calls nothing in qrecon, so a
change to the program does not move it.  Raw times are reported beside
the scaled ones.

Starting a Python process tracks the host differently: scaled by the
compute probe, the times of ``python -m qrecon.cli analyze`` subprocesses
spread more than raw (IQR/median over 21 blocks of 8 commands, 2-core
shared host: 0.38 against 0.23 raw).  Scaled by ``StartupProbe``, a
process that imports numpy and nothing of qrecon, they spread 0.07.  So
operations that start a process are scaled by that probe instead.

The MC kernel streams arrays of tens of MB, beyond the per-core cache,
and tracks the host differently again: the time of a 3000-sample
``expected_fidelity_mc`` call spread 0.24 raw, 0.12 scaled by the
compute probe and 0.044 scaled by ``StreamProbe``, contractions over an
8 MB array in the kernel's layout (42 blocks of 40 calls, same host).
A workload names the probe of each kind of operation that needs another
than the compute probe (``Workload.KIND_PROBES``).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Probe time of the reference host that scaled times refer to.
NOMINAL_S = 0.007
#: Least time between two probes taken between operations.
INTERVAL_S = 0.25
#: Probes whose median gives the host speed at one moment.
NEAREST = 7
#: StartupProbe time of the reference host, and least time between two.
STARTUP_NOMINAL_S = 0.15
STARTUP_INTERVAL_S = 0.0
#: StreamProbe time of the reference host.
STREAM_NOMINAL_S = 0.01


class Probe:
    """One fixed unit of mixed work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(3, 3))
        self.batch = rng.normal(size=(2000, 8, 8))
        self.matrix = rng.normal(size=(8, 8))

    def __call__(self):
        """Seconds the unit of work took."""
        start = perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(150):
            np.linalg.svd(self.small)
        for _ in range(3):
            np.einsum("nij,jk->nik", self.batch, self.matrix)
        return perf_counter() - start


class StartupProbe:
    """Start a Python process that imports numpy, as a CLI command's start does."""

    def __call__(self):
        # through pipes, as the CLI commands run: without them, waiting with a
        # timeout polls the child and rounds its time up to 50 ms steps
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)
        return perf_counter() - start


class StreamProbe:
    """Contractions over an 8 MB complex array, laid out as the MC kernel's
    batched states.  The array is built anew each time, so that it adds
    nothing to the worker's peak RSS."""

    SHAPE = (2048, 8, 2, 8, 2)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = rng.normal(size=self.SHAPE[1:]) + 1j * rng.normal(size=self.SHAPE[1:])
        self.kernel = rng.normal(size=(8, 8)) + 0j

    def __call__(self):
        start = perf_counter()
        states = np.empty(self.SHAPE, dtype=complex)
        states[...] = self.block
        for _ in range(2):
            np.einsum("ba,nacbd->ncd", self.kernel, states)
        return perf_counter() - start


def scale_now(probe, repeats=5):
    """Scale factor from a few probes taken now (after one warm-up)."""
    probe()
    return NOMINAL_S / statistics.median(probe() for _ in range(repeats))


class HostSpeed:
    """Probes taken between operations, and the scale factor at a time."""

    def __init__(self, probe=None, nominal_s=NOMINAL_S, interval_s=INTERVAL_S):
        self.probe = probe or Probe()
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.times = []
        self.seconds = []
        self._due = 0.0

    def between_ops(self):
        now = perf_counter()
        if now >= self._due:
            self.times.append(now)
            self.seconds.append(self.probe())
            self._due = perf_counter() + self.interval_s

    def scale(self, t):
        """The nominal probe time over the median of the probes nearest to time t."""
        if not self.seconds:
            return 1.0
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.seconds) - NEAREST))
        return self.nominal_s / statistics.median(self.seconds[lo:lo + NEAREST])

    def speed(self):
        """Median host speed over the run, relative to the reference host;
        None when no probe ran."""
        return self.nominal_s / statistics.median(self.seconds) if self.seconds else None


#: Probes by name: the probe, its time on the reference host and the least
#: time between two.
PROBES = {
    "compute": (Probe, NOMINAL_S, INTERVAL_S),
    "stream": (StreamProbe, STREAM_NOMINAL_S, INTERVAL_S),
    "startup": (StartupProbe, STARTUP_NOMINAL_S, STARTUP_INTERVAL_S),
}


def host_speed(name):
    """A ``HostSpeed`` measured by the named probe."""
    probe, nominal_s, interval_s = PROBES[name]
    return HostSpeed(probe(), nominal_s, interval_s)
