"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed around public functions of the solver package.  A
function imported by name into another module is a separate attribute there,
so each wrapper replaces every attribute of every loaded `mdd` module that
refers to the original function, as well as methods on `mdd.graph.Graph`.
Nested wrapped calls become child spans, and a span's self time is its
duration minus the durations of its children.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and recorded values of one traced run, kept in memory until
    written.

    A span is [name, start, end, parent index or None, instance id, failed,
    round].  Values are kept per round (one pass over the workload's jobs),
    as lists per name.
    """

    def __init__(self):
        self.spans = []
        self.counters = []
        self._stack = []
        self._restore = []
        self.instance_id = None

    def begin_round(self):
        self.counters.append(defaultdict(list))

    def record(self, name, value):
        self.counters[-1][name].append(value)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.instance_id,
                False, len(self.counters) - 1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, on_call=None, on_result=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package, targets):
        """Wrap each target of `targets`.

        A target is (span name, module, attribute, on_call, on_result); the
        attribute may name a function of the module or, as "Class.method",
        a method of one of its classes.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for name, module, attr, on_call, on_result in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, on_call, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, on_call, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                selfs[s[3]] -= s[2] - s[1]
        return selfs

    def write(self, path, header):
        """Write `header` and then one JSON object per span, one per line."""
        selfs = self.self_times()
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (s, self_s) in enumerate(zip(self.spans, selfs)):
                out.write(json.dumps({
                    "id": i, "name": s[0], "start": s[1], "end": s[2],
                    "parent": s[3], "instance": s[4], "failed": s[5],
                    "round": s[6], "self_s": self_s}) + "\n")
