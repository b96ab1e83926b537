"""Host-speed reference: a fixed pure-Python loop sampled inside timed windows.

A shared 2-CPU virtual machine changes speed from minute to minute, so raw
seconds of identical work can differ by 2x between two runs.  Every timed
window is therefore divided by this module's reference: a fixed loop of
interpreter work that never imports ``repro``, run while the window is
open.  A window that took ``raw_s`` seconds while one reference sample
took ``ref_s`` reports

    norm_s = raw_s * REF_NOMINAL_S / ref_s

that is, the seconds the window would have taken on a host where one
sample takes :data:`REF_NOMINAL_S` (``REF_NOMINAL_S / ref_s`` is averaged
over the window's samples, see :attr:`Window.factor`).  The wall time the
samples themselves take inside the window is subtracted from ``raw_s``
first.

``SIGALRM`` every :data:`SAMPLE_PERIOD_S` runs one sample in the main
thread, between two bytecodes of the measured code (a native call that
holds the thread defers it until it returns), and :data:`EDGE_SAMPLES`
more are taken at each edge of the window.  Samples must run while the
workload runs: on the host this was built on, the slow state coincides
with the process being busy, and samples taken between bursts of work
(for example between batches of served jobs) saw a faster host than the
work did.  A sample is timed on the sampling thread's CPU clock, so when
other threads run inside the window (the serving workload), the time it
waits for the interpreter lock is not counted as host slowness.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Loop iterations of one reference sample.
REF_ITERS = 1500

#: Seconds one reference sample takes on a host at nominal speed: a round
#: figure within the 0.65-1.25 ms one sample took on the 2-CPU x86-64 VM
#: this was built on.  A constant of the benchmark; changing it rescales
#: every time metric.
REF_NOMINAL_S = 0.001

#: Period of in-window sampling.
SAMPLE_PERIOD_S = 0.05

#: Samples taken at each edge of a window.
EDGE_SAMPLES = 3

_MASK = (1 << 192) - 1
_TABLE = tuple(range(1, 65))


def reference_work(iters: int = REF_ITERS) -> int:
    """The reference: big-int rails, tuple indexing and a small dict.

    The same mix of interpreter work the simulators' Python layers do,
    and nothing that depends on ``repro``.
    """
    h, l, acc = _MASK, 0, 0
    seen: dict[int, int] = {}
    for i in range(iters):
        a = _TABLE[i & 63]
        h = (h ^ (a << (i & 127))) & _MASK
        l = (l | h) & ~(a << 3)
        acc = (acc * 31 + (h & 0xFFFF) + len(seen)) & 0xFFFFFFFF
        seen[i & 31] = acc
    return acc ^ (l & 0xFF)


def cpu_seconds() -> float:
    """User+system seconds of this process (all threads) and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Window:
    """One timed window: raw and host-normalized seconds."""

    raw_s: float = 0.0
    cpu_raw_s: float = 0.0
    samples: list[float] = field(default_factory=list)
    #: Samples taken inside the window, and the wall and CPU seconds they
    #: took (not counted as the window's).
    inside: int = 0
    inside_s: float = 0.0
    inside_cpu_s: float = 0.0
    started: float = 0.0
    ended: float = 0.0

    @property
    def ref_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Mean host speed over the window, relative to nominal.

        The host switches between fast and slow states lasting about half
        a second, so the window's time is an integral over both: the mean
        of per-sample speeds (not of sample times) weighs each state by
        how long it lasted, and a sample stalled by preemption adds little.
        """
        return statistics.fmean(REF_NOMINAL_S / s for s in self.samples)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_raw_s * self.factor

    def normalize(self, start: float, end: float) -> float:
        """Normalize the span ``[start, end]`` measured inside the window.

        The span is scaled by the whole window's factor and by the share
        of the window the samples left to the work.  Scaling each served
        job by only the samples taken beside it made the tail depend on
        the host's load: on a quiet host a long job slowed the samples
        next to it, which shrank that job's time (p99 2.1-2.2x p50,
        against 2.5x raw), and on a busy host it did not (2.5x), so p99
        moved 31% between two sets of runs where p50 moved 14%.
        """
        return (end - start) * self.raw_s / (self.raw_s + self.inside_s) * self.factor

    def to_json(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "norm_s": self.norm_s,
            "cpu_raw_s": self.cpu_raw_s,
            "ref_median_s": self.ref_s,
            "factor": self.factor,
            "samples": self.samples,
            "samples_inside": self.inside,
        }


class HostReference:
    """Takes reference samples and turns timed windows into normalized ones.

    ``on_sample(seconds)`` is told the wall time of every sample taken inside a
    window, so a tracer can keep the sample out of the self time of the
    layer it interrupted; ``on_window_end(window)`` sees every finished
    window, so a tracer can normalize what it recorded inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.on_sample = None
        self.on_window_end = None
        self._window: Window | None = None

    def sample(self) -> float:
        """One reference sample; returns the wall seconds it took."""
        wall, thread = time.perf_counter(), time.thread_time()
        reference_work()
        seconds = time.thread_time() - thread
        wall = time.perf_counter() - wall
        self.samples.append(seconds)
        if self._window is not None:
            self._window.samples.append(seconds)
        return wall

    def _on_alarm(self, signum, frame) -> None:
        window = self._window
        if window is None:
            return
        cpu = cpu_seconds()
        wall = self.sample()
        window.inside += 1
        window.inside_s += wall
        window.inside_cpu_s += cpu_seconds() - cpu
        if self.on_sample is not None:
            self.on_sample(wall)

    @contextmanager
    def window(self):
        """Time the ``with`` body; yields the :class:`Window` it fills."""
        window = Window()
        self._window = window
        for _ in range(EDGE_SAMPLES):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        cpu = cpu_seconds()
        start = window.started = time.perf_counter()
        try:
            yield window
        finally:
            window.ended = time.perf_counter()
            wall = window.ended - start
            cpu = cpu_seconds() - cpu
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            window.raw_s = wall - window.inside_s
            window.cpu_raw_s = cpu - window.inside_cpu_s
            for _ in range(EDGE_SAMPLES):
                self.sample()
            self._window = None
            if self.on_window_end is not None:
                self.on_window_end(window)

    def summary(self) -> dict:
        """Median, interquartile range and count of every sample taken."""
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        return {
            "median_s": median,
            "iqr_s": q3 - q1,
            "count": len(self.samples),
            "nominal_s": REF_NOMINAL_S,
        }
