"""In-memory span tracer that wraps mixdetect functions by name.

Each hook names a module attribute.  Attaching replaces that attribute, and
every other binding of the same object inside the package (``from .x import
f`` makes one), with a wrapper that records a span and, optionally, updates
counters.  A hook whose attribute no longer exists is listed as missing and
skipped; the tracer never fails the run it observes.

Spans are kept in memory as ``[name, start, end, parent]`` lists, where
``parent`` is the index of the enclosing span or -1.  Self time is computed
afterwards by :func:`summarize`.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.attached: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span; after(tracer, args, kwargs, result, exc)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.exit(idx)
                if after is not None:
                    try:
                        after(self, args, kwargs, result, exc)
                    except Exception:  # a counter must never break the run
                        self.counters["trace.counter_errors"] += 1

        return wrapper

    def attach(self, module, attr: str, name: str, after=None, replace=None) -> bool:
        """Wrap module.attr (and its aliases in the package); False if absent.

        replace(original) may build the substitute itself, for objects such
        as classes that a plain function wrapper would not stand in for.
        """
        label = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(label)
            return False
        try:
            new = replace(original) if replace else self.wrap(original, name, after)
        except TypeError:  # the name now holds something the hook cannot wrap
            self.missing.append(label)
            return False
        package = module.__name__.split(".")[0]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, original))
        self.attached.append(label)
        return True

    def detach(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered
    return out


def top_level_total(spans, names) -> float:
    """Seconds covered by spans in names that have no ancestor in names."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        # parents precede their children, so the flag is already set
        above = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[idx] = above
        if name in names and not above:
            total += end - start
    return total
