"""Host-speed probe for timings taken on a shared machine.

Other tenants of a shared host slow every computation on it by a factor
that drifts over seconds to minutes; on a 2-vCPU VM the same sweep ran
anywhere from about 1000 to 2400 trials/s within one minute, while CPU time
tracked wall time, so the slowdown is lost speed, not lost scheduling.  No
estimator over one run's own samples removes a drift that lasts longer than
the run.

The benchmark therefore interleaves a fixed probe computation, which uses
no bostbc code, with its measurements and reports each duration scaled to
a host on which the probe takes ``NOMINAL_PROBE_S``: a duration measured
while nearby probes took twice as long on average counts half.  A change
to bostbc cannot move the probe, so it moves the scaled timings exactly as
it moves the raw ones.  The raw durations and the probe statistics go to
the manifest.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Probe duration that scaled timings refer to, about the probe's duration
#: on the 2-vCPU host the benchmark was tuned on.
NOMINAL_PROBE_S = 2.5e-3

#: Least time between probes taken by :meth:`HostClock.tick`.
PROBE_EVERY_S = 0.1

#: Probes within this many seconds of a measurement's interval, or within
#: its own length if that is longer, scale it.  A sweep is one call with no
#: probes inside it, so it is scaled by the probes over a stretch of time
#: as long as itself on either side.
WINDOW_S = 1.0


class HostClock:
    """Probe durations by time, and the scale factors they imply."""

    def __init__(self, np):
        self._a = np.arange(64.0).reshape(8, 8)
        self.at = []      # perf_counter() at the end of each probe
        self.took = []    # duration of each probe, seconds

    def _work(self) -> float:
        # small matrix products, dict and list churn: the mix of numpy calls
        # and interpreter work that a bostbc trial does
        a, s = self._a, 0.0
        for _ in range(300):
            s += float((a @ a[:, :1])[0, 0])
            d = {j: j * 0.5 for j in range(16)}
            s += sum(d.values())
            s += sum(sorted([(j * 7919) % 13 for j in range(16)]))
        return s

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def tick(self) -> None:
        """Probe if the last probe is at least ``PROBE_EVERY_S`` old."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def nominal(self, t0: float, t1: float) -> float:
        """Duration of ``[t0, t1]`` in nominal seconds: scaled by
        ``NOMINAL_PROBE_S`` over the mean probe near the interval.

        The host flips between fast and slow phases within a second, and a
        measurement lasting several seconds pays the time-average of the
        phases, which the mean probe tracks and the median does not."""
        window = max(WINDOW_S, t1 - t0)
        lo = bisect.bisect_left(self.at, t0 - window)
        hi = bisect.bisect_right(self.at, t1 + window)
        near = self.took[lo:hi] or self.took
        return (t1 - t0) * NOMINAL_PROBE_S / statistics.fmean(near)

    def summary(self) -> dict:
        q = statistics.quantiles(self.took, n=4) if len(self.took) > 1 \
            else self.took * 3
        return {"nominal_probe_s": NOMINAL_PROBE_S, "probes": len(self.took),
                "probe_s_mean": statistics.fmean(self.took),
                "probe_s_q1": q[0], "probe_s_median": q[1], "probe_s_q3": q[2]}
