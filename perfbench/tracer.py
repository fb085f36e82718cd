"""Span tracer for the benchmark's traced runs.

The tracer rebinds public functions of the ``bivariation`` modules to wrappers
that record one span per call: name, start, end and parent.  Nothing under
``src/`` changes; the wrappers are installed at run time, on the defining
module and on every module that imported the function by name.

Self time of a span is its duration minus the time covered by its child spans.
Operation counts (slices, nodes, rows, bytes) are computed by hooks that run
after a span has closed; their own time is taken out of every span and out of
the traced wall time, so they do not distort self times.

Spans are kept in memory (the first ``KEEP_SPANS`` of them) and written out
by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

clock = time.perf_counter
KEEP_SPANS = 100_000  # bounds the memory and the size of the span dump


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.enabled = False
        self._stack: list[list] = []  # open frames: [span id, name, child time]
        self._next_id = 0
        self.memo: dict = {}  # for hooks that cache a computed count
        self.hook_errors: list[str] = []
        self.reset()

    def reset(self):
        """Start a new accounting period (one traced pass)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: set = set()  # for hooks that count repeated arguments
        self.spans_closed = 0
        self.covered = 0.0  # summed duration of top-level spans
        self.hook_s = 0.0  # time spent in hooks, excluded from every span
        self.top_hook_s = 0.0  # the part of hook_s spent outside any span

    def _enter(self, name):
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, start, end, count):
        self._stack.pop()
        name = frame[1]
        duration = end - start
        self.self_s[name] += duration - frame[2]
        self.spans_closed += 1
        if count:
            self.calls[name] += 1
        if parent is None:
            self.covered += duration
        else:
            parent[2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], parent[0] if parent else -1, name, start, end))

    def _run_hook(self, hook, parent, args, kwargs, result):
        start = clock()
        try:
            hook(self, parent[1] if parent else None, result, *args, **kwargs)
        except Exception as exc:  # a count is lost; the traced call stands
            self.hook_errors.append(f"{hook.__name__}: {exc!r}")
        spent = clock() - start
        self.hook_s += spent
        if parent is None:
            self.top_hook_s += spent
        else:
            parent[2] += spent

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call of ``fn``.

        A generator function gets one span per resumption and counts one call
        per generator created, so its self time is the time spent producing
        items.  ``hook(tracer, caller_name, result, *args, **kwargs)`` runs
        after the span closes.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        if not tracer.enabled:
                            yield from gen
                            return
                        frame, parent = tracer._enter(name)
                        start = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame, parent, start, clock(), first)
                            first = False
                        yield item
                finally:
                    gen.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame, parent = tracer._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, parent, start, clock(), True)
            if hook is not None:
                tracer._run_hook(hook, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, holders):
        """Rebind each ``(owner, attribute, span name, hook)`` target.

        The wrapper replaces the function on its owner (a module or a class)
        and on every module in ``holders`` that holds the same object.
        """
        for owner, attr, name, hook in targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            setattr(owner, attr, wrapped)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, pid, name, start, end in self.spans:
                fh.write(f"{sid},{pid},{name},{start!r},{end!r}\n")
