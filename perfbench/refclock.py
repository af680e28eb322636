"""Timings rescaled to a reference speed of the host.

On a shared host the speed of a core changes for seconds or minutes at a
time, by up to half, when other work lands on its sibling; a timing taken
once is then as much a measure of the neighbours as of knotplumb.  So a
fixed pure-Python kernel (small-int arithmetic, tuples, a dict, a sort:
the kind of work the library does, none of its code) is timed between
items and every SAMPLE_S while they run, and a stretch of time is
reported as

    seconds * NOMINAL_S / (kernel timing over the stretch)

that is, in seconds of a host on which the kernel takes NOMINAL_S.  The
kernel runs with the garbage collector off, best of three, so the heap a
workload leaves behind does not change it.  NOMINAL_S is about what the
kernel takes on a 2-core x86-64 CPython 3.11 host when nothing else runs
there, so the figures read close to plain seconds on such a host.
"""

import bisect
import gc
import signal
import time

NOMINAL_S = 0.0003


def _kernel():
    acc = {}
    total = 0
    for i in range(300):
        t = (i % 7, i % 11, i % 13)
        total += sum(x * x for x in t)
        acc[t] = acc.get(t, 0) + 1
    return total + len(sorted(acc, reverse=True))


def reference_seconds():
    """Best of three timings of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None or elapsed < best else best
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Rescales the times of a timed phase by the kernel timings taken in it.

    Used as a context manager around the phase, whose wall time it keeps
    as raw_wall.  The kernel is timed between items (through tracer.call,
    so that a traced run shows it as its own span, bench.reference) and,
    from a SIGALRM every SAMPLE_S, while an item runs, so that an item of
    several seconds is rescaled by the host's speed during it, not just at
    its ends.  interval() rescales any stretch of the phase, an item or a
    span, taking off the time the timer's kernel runs spent inside it.
    """

    SAMPLE_S = 0.25

    def __init__(self, tracer):
        self.tracer = tracer
        self.raw = {}  # label -> (start, end) of the item
        self.scaled = {}  # label -> rescaled seconds, once the phase is over
        self.points = []  # (start, kernel timing) of every kernel run
        self.between = []  # (start, end) of the kernel runs between items
        self.samples = []  # (start, cost) of the timer's kernel runs
        self.raw_wall = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        self._started = time.perf_counter()
        self._reference()
        return self

    def __exit__(self, *exc):
        self.raw_wall = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.points.sort()
        self._sample_starts = [t for t, _ in self.samples]
        self._sample_cum = [0.0]
        for _, cost in self.samples:
            self._sample_cum.append(self._sample_cum[-1] + cost)
        self.scaled = {label: self.interval(t0, t1) for label, (t0, t1) in self.raw.items()}
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        r = reference_seconds()
        self.points.append((t0, r))
        self.samples.append((t0, time.perf_counter() - t0))

    def _reference(self):
        t0 = time.perf_counter()
        r = self.tracer.call("bench.reference", reference_seconds)
        self.between.append((t0, time.perf_counter()))
        self.points.append((t0, r))

    def time(self, label, fn, *args, **kwargs):
        """Run fn as the item `label`; its seconds are rescaled on exit."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._reference()
            self.raw[label] = (t0, t1)

    def _kernel_at(self, t):
        """Kernel timing at t, interpolated between the runs around it."""
        i = bisect.bisect_left(self.points, (t,))
        if i == 0:
            return self.points[0][1]
        if i == len(self.points):
            return self.points[-1][1]
        (ta, ra), (tb, rb) = self.points[i - 1], self.points[i]
        return ra + (rb - ra) * (t - ta) / (tb - ta) if tb > ta else rb

    def interval(self, t0, t1):
        """Seconds from t0 to t1, less the timer's kernel runs in between,
        rescaled to NOMINAL_S by the kernel timings over the stretch."""
        lo = bisect.bisect_right(self.points, (t0, float("inf")))
        hi = bisect.bisect_left(self.points, (t1,))
        knots = [(t0, self._kernel_at(t0))] + self.points[lo:hi] + [(t1, self._kernel_at(t1))]
        # kernel runs' worth of work in the stretch, the timing linear between knots
        work = sum((tb - ta) * 2 / (ra + rb) for (ta, ra), (tb, rb) in zip(knots, knots[1:]))
        a = bisect.bisect_left(self._sample_starts, t0)
        b = bisect.bisect_left(self._sample_starts, t1)
        own = t1 - t0 - (self._sample_cum[b] - self._sample_cum[a])
        return own * NOMINAL_S * work / (t1 - t0) if t1 > t0 else 0.0

    @property
    def wall(self):
        """The phase's rescaled seconds less the kernel runs between items."""
        whole = self.interval(self._started, self._started + self.raw_wall)
        return whole - sum(self.interval(t0, t1) for t0, t1 in self.between)
