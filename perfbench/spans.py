"""Nested timing spans recorded from outside the package.

`Tracer.wrap` replaces a function on a module object with a wrapper that
records (name, start, end, parent) around each call.  Callers inside the
package look the function up on its module at call time, so they run through
the wrapper too.  `restore` puts the originals back.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr, name, observe=None):
        """Time module.attr under span name; observe(counters, args, kwargs,
        result) runs after the span closes, in a `trace.hook` span, and may
        update the counters.  A function the module does not have is left
        alone."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                # a span of its own keeps the hook out of the caller's self time
                with self.span("trace.hook"):
                    observe(self.counters, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self):
        """{name: (calls, self seconds)}: a span's self time is its duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}
