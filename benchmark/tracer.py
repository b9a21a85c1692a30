"""Outside-in span tracer for the concpd benchmark.

The tracer never edits the package: it replaces module attributes with
timing wrappers and puts the originals back on ``uninstall``.  A wrapper
only sees calls made through the attribute it replaced, so wrapping
``concpd.solver.matricize`` times the unfoldings the solver makes and
leaves those made by ``concpd.cpd_als`` to that module's own binding.

Each span is ``[name, parent, start, end, attrs]``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``attrs`` whatever the wrapper's
``describe`` hook returned.  Spans stay in memory until ``write_csv``.
"""

import csv
import functools
import time

NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, module, attr, name, describe=None):
        """Replace ``module.attr`` by a wrapper recording one span per call.

        ``describe(args, kwargs, result)`` may return attributes to keep on
        the span (for example the sweep count of an ALS result).
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self):
        """Forget recorded spans (between rounds); wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "parent", "start_s", "end_s", "attrs"))
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                writer.writerow((i, name, parent, f"{start:.9f}", f"{end:.9f}",
                                 "" if attrs is None else attrs))


def duration(span):
    return span[END] - span[START]


def child_seconds(spans):
    """Per span, the time its direct children cover (one pass).

    Spans come from one thread, so direct children never overlap and a
    span's self time is its duration minus this.
    """
    out = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] += duration(span)
    return out
