"""A span tracer that times a package's layers from outside.

`install` replaces each target function with a wrapper that records one
span per call, and rebinds it under every name that refers to it in the
package's modules (a module that did `from .partitions import
enumerate_partitions` holds its own reference).  `restore` puts every
original back.  Nothing in the traced package changes on disk.

A span has a name, start, end, the span that was open when it started
(its parent) and the op id current at the time.  Self time is a span's
duration minus the time covered by its child spans; a name's total counts
its outermost spans only, so a recursive function is not counted twice.
Spans are kept in memory up to a cap; beyond it they are only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

clock = time.perf_counter

MAX_SPANS = 2000  # spans kept in memory per process; later ones are only aggregated


@dataclass(frozen=True)
class Target:
    """One function to wrap: `attr` is a module attribute, or
    `Class.method` for a method or classmethod defined on a class."""

    name: str
    module: str
    attr: str
    hook: Optional[Callable] = None


class Tracer:
    """Span recorder with exact self time, outermost-only totals and
    per-name counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.dropped = 0
        self.root_s = 0.0
        self.hook_s = 0.0
        self.op = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child_s, id, args]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._bindings: list[tuple] = []

    # -- spans --------------------------------------------------------

    def enter(self, name: str, args: tuple = ()) -> list:
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0, self._next_id, args]
        self._stack.append(frame)
        frame[1] = clock()
        return frame

    def exit(self, frame: list):
        """Close the innermost span; returns its parent frame or None."""
        end = clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, span_id, _ = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            stat[2] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.root_s += duration
        else:
            parent[2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent[3] if parent else None, self.op, name, start, end)
            )
        else:
            self.dropped += 1
        return parent

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """A wrapper that records a span around each call of fn.  A hook
        `hook(tracer, args, kwargs, result, parent_frame)` runs after the
        span closes; its time is excluded from the parent's self time and
        reported as `hook_s`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer.exit(frame)
            if hook is not None:
                t0 = clock()
                hook(tracer, args, kwargs, result, parent)
                spent = clock() - t0
                tracer.hook_s += spent
                if parent is not None:
                    parent[2] += spent
            return result

        traced._traced_original = fn
        return traced

    # -- installation -------------------------------------------------

    def install(self, targets, packages=("burnside",)):
        """Wrap every target.  A target whose module or attribute no longer
        exists is listed in `missing` and skipped."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            if isinstance(owner, type):
                self._wrap_method(target, owner, attr)
            elif owner is not None and hasattr(owner, attr):
                self._wrap_function(target, getattr(owner, attr), packages)
            else:
                self.missing.append(target.name)

    def _wrap_method(self, target: Target, owner: type, attr: str):
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(target.name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(target.name, raw.__func__, target.hook))
        else:
            new = self.wrap(target.name, raw, target.hook)
        self._bindings.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _wrap_function(self, target: Target, original: Callable, packages):
        wrapper = self.wrap(target.name, original, target.hook)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if not any(mod_name == p or mod_name.startswith(p + ".") for p in packages):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self):
        """Put back every original, newest binding first."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates and kept spans as a JSON-ready dict."""
        return {
            "stats": self.stats,
            "counters": self.counters,
            "root_s": self.root_s,
            "hook_s": self.hook_s,
            "spans": self.spans,
            "dropped": self.dropped,
            "missing": self.missing,
        }


def original(obj):
    """The function a tracer wrapper stands for (obj itself if unwrapped)."""
    return getattr(obj, "_traced_original", obj)
