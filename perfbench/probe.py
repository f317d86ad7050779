"""Host-speed probe: a fixed ~2 ms piece of work that never calls eia.

The benchmark host is a shared VM.  How fast one of its vCPUs runs drifts by
up to 2x over seconds to minutes, independently of the other vCPU, for the
program and for any other code alike.  Raw pass times over ten runs then
spread by 7 to 48% of their median.  To take that drift out, the probe runs in the
worker's main thread every PERIOD_S seconds from a SIGALRM interval timer,
on whatever vCPU the program is on at that moment, and records how long it
took.  A timed interval is then reported as

    (interval - probe time inside it) * (PROBE_REF_S / mean probe time) ** e

with the mean over the interval's samples weighted by time (see measure):
the program's own time, rescaled to the speed at which the probe runs in
PROBE_REF_S.  The exponent e is 1 for set-up and the workload's
SPEED_EXPONENT for passes (workloads.py): array code slows less than the
probe when the vCPU slows, and float formatting slows more.  The probe
mixes the kinds of work the workloads do: Python-level float formatting
and parsing, stacked 4x4 complex products and elementwise complex
arithmetic.  Its own time, 2 to 9% of the timed time, is left out.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# about the median time of one probe on the host the benchmark was written on
# (2-vCPU Intel Xeon KVM guest, Python 3.11, numpy 2.4.6 on OpenBLAS); a
# rescaled time is in seconds of that host at the probe's median speed there
PROBE_REF_S = 1.8e-3
PERIOD_S = 0.025


class Probe:
    """The probe, its interval timer, and the samples it has taken."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # a sample allocates no array and no object the garbage collector
        # tracks, so that it moves neither the program's heap nor its
        # collections
        self._x = tuple(rng.standard_normal(240).tolist())
        self._format = " ".join(["%.17g"] * len(self._x))
        text = self._format % self._x
        ends = [k for k, c in enumerate(text) if c == " "] + [len(text)]
        self._spans = list(zip([0] + [k + 1 for k in ends[:-1]], ends))
        self._a = (rng.standard_normal((900, 4, 4))
                   + 1j * rng.standard_normal((900, 4, 4)) + 4.0 * np.eye(4))
        self._b = rng.standard_normal((900, 4, 4)) + 0j
        self._ab = np.empty_like(self._a)
        self._z = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        self._w = np.empty_like(self._z)
        self.starts = []      # perf_counter at the start of each sample
        self.durations = []   # seconds each sample took
        self._run(None, None)
        self.starts.clear()
        self.durations.clear()

    def _run(self, signum, frame):
        t0 = time.perf_counter()
        text = self._format % self._x
        for a, b in self._spans:
            float(text[a:b])
        np.matmul(self._a, self._b, out=self._ab)
        np.multiply(self._z, self._z, out=self._w)
        np.add(self._w, self._z, out=self._w)
        np.exp(self._w, out=self._w)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._run)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float, exponent: float = 1.0) -> dict:
        """Program time in [t0, t1], as measured and rescaled.

        The rescaled time is own * (PROBE_REF_S / probe time) ** exponent,
        where the exponent is how strongly the program's time follows the
        probe's (see workloads.SPEED_EXPONENT).

        Samples that start inside the interval ran inside it: the handler
        runs between the main thread's bytecodes, so a sample also marks the
        end of whatever long C call delayed it.  Each sample therefore
        stands for the time since the previous one (the last also for the
        rest of the interval), and the probe time is their mean weighted by
        that time.  An interval too short to hold a sample takes the speed
        of the samples on either side.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - sum(self.durations[i:j])
        if j > i:
            edges = [t0] + self.starts[i:j]
            weights = [b - a for a, b in zip(edges, edges[1:])]
            weights[-1] += t1 - self.starts[j - 1]
            mean = sum(w * d for w, d in zip(weights, self.durations[i:j])) / (t1 - t0)
        else:
            near = self.durations[max(i - 1, 0):i + 1]
            if not near:
                self._run(None, None)
                near = self.durations[-1:]
            mean = sum(near) / len(near)
        return {"own_s": own, "probe_s": mean, "ref_s": own * (PROBE_REF_S / mean) ** exponent,
                "samples": j - i}
