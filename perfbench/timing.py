"""Host-speed-corrected timing.

The hosts this benchmark runs on change speed by 20-35 % over tens of
seconds (shared cores), in wall and CPU time alike, so medians of raw
timings differ that much between runs of the same code.  A short fixed
probe -- a numpy loop plus a pure-Python loop, the two kinds of work the
program does -- slows down with the program.  Over three minutes of short
simulations interleaved with probes on a 2-vCPU x86-64 host, the median
simulation time of 30-second windows ranged over 26 %, and the ratio of
that median to the window's median probe over 2.5 %.  A single probe is
too noisy to correct the segment next to it; the median of a run's probes
is not.

So a :class:`Stopwatch` takes a probe after every timed segment of work,
and the benchmark scales its end-to-end medians by
``PROBE_REF_S / median(every probe of the process)``: the time the run
would have taken on a host where the probe takes ``PROBE_REF_S``.  It
prints the raw medians beside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PROBE_REF_S = 0.025  # the probe's typical duration on a 2-vCPU x86-64 host


def host_probe() -> float:
    """Seconds for a fixed numpy loop plus a fixed pure-Python loop.

    The numpy loop sweeps 100k-point arrays, as sampled coefficient bounds
    do; the Python loop stands in for the stepper's interpreter-bound work.
    """
    start = perf_counter()
    x = np.linspace(0.0, 1000.0, 100_000)
    for _ in range(4):
        np.abs(0.5 * np.sin(1.7 * x + 0.3)).max()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - start


class Stopwatch:
    """Times segments of work and probes host speed before the first and after each.

    ``segments`` holds ``(label, seconds)``; ``probes`` every probe taken.
    Probe time is not part of any segment.
    """

    def __init__(self):
        self.probes = [host_probe()]
        self.segments: list[tuple[str, float]] = []

    def time(self, label: str, fn, *args, **kwargs):
        """Call ``fn``, record its segment, and return its result."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.segments.append((label, perf_counter() - start))
        self.probes.append(host_probe())
        return out

    def column(self, label: str | None = None) -> list[float]:
        """Seconds of each segment named ``label`` (all when None), in order."""
        return [seconds for name, seconds in self.segments if label in (None, name)]

    def total(self, label: str | None = None) -> float:
        return sum(self.column(label))
