"""In-memory spans and counters around gridtwin's public functions.

A Tracer replaces a function by a timing wrapper everywhere the package
holds it: in its own module and in every module that imported the name, so
calls between modules are seen too. Methods are wrapped on their class.
Nothing under src/ changes; `uninstall` puts every original back.

Spans are timed with `clock`: wall time by default, or time.thread_time for
the processor time of the calling thread, which leaves out the time the
thread waits while other work on the host runs.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()
        self._undo = []

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, tracer.clock(), 0.0, parent]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
                elapsed = span[2] - span[1]
                tracer.calls[name] += 1
                tracer.busy[name] += elapsed
                tracer.durations[name].append(elapsed)
                if after is not None:
                    after(tracer, args, result, error, elapsed)

        return wrapper

    def function(self, module, attr, name, after=None):
        """Wrap module.attr and every other package global bound to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, after))
        self._undo.append((cls, attr, original))

    def count_calls(self, cls, attr, counter):
        """Count calls to a hot method without a span per call."""
        original = cls.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def top_level(self, names):
        """Total time of spans in `names` that no other span in `names` encloses."""
        total = defaultdict(float)
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total[span[0]] += span[2] - span[1]
        return total

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)

