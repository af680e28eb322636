"""In-memory spans for the benchmark's traced runs.

A span records a name, start and end (time.perf_counter seconds), the
index of the span that was open when it started, and the id of the item
(desk tuple, tower spec or CLI invocation) being processed.  Spans come
from two places, both in this directory:

* calls the benchmark makes itself (Tracer.call), and
* library functions that one module reaches through another, replaced
  for the duration of the traced run at the module attribute the caller
  looks up (Tracer.patch), e.g. knotplumb.cabling.det_exact, which is
  what raw_plumbing calls, but not knotplumb.plumbing.det_exact, which is
  what the leading-minor loop inside is_negative_definite calls.

Nothing is written while the run is measured; write_jsonl dumps the spans
once the run has ended.  NullTracer has the two methods a workload calls,
call and restore, and adds only a function call, so workloads are written
once for both kinds of run.
"""

import functools
import json
import time
from collections import defaultdict


class NullTracer:
    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def restore(self):
        pass


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index or None, item]
        self.spans = []
        self._stack = []
        self._patches = []
        self.item = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, on_result=None):
        """Replace module.attr by a spanned wrapper until restore().

        on_result(result) is called after the span closes, so that counts
        read from return values (search nodes, tree sizes) are recorded
        where the work happens without being timed as part of it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- aggregation ---------------------------------------------------------

    def self_times(self, measure=None):
        """Per span: (duration, duration minus its direct children's).

        measure(start, end) gives a span's duration, end - start by
        default.  Spans are strictly nested (one thread, opened and closed
        in stack order), so child coverage is the sum of the children's
        durations.
        """
        measure = measure or (lambda start, end: end - start)
        durations = [measure(start, end) for _, start, end, _, _ in self.spans]
        own = list(durations)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= durations[i]
        return durations, own

    def totals(self, measure=None):
        """name -> (calls, total duration, total self time)."""
        durations, own = self.self_times(measure)
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, *_rest) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += durations[i]
            acc[2] += own[i]
        return {name: tuple(v) for name, v in out.items()}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                }) + "\n")
