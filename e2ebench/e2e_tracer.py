"""Span tracer for the end-to-end benchmark, kept outside the program.

:class:`Tracer` records one span per call of a wrapped function: its
name, start and end (``perf_counter_ns``), the index of the span that
was open when it started (its parent) and the tracer's run id.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.

:func:`patched` installs the wrappers at every *import site* of a
target -- the defining module, each module that did ``from m import
f``, and module-level dispatch dicts holding the function -- and puts
the originals back on exit, so the program under test carries no
tracing code at all.

Self time (:func:`self_times`) is a span's duration minus the time its
direct children cover.  In one thread children nest strictly inside
their parent and never overlap each other, so that is their summed
duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

__all__ = ["Span", "Target", "Tracer", "patched", "self_times", "layer_totals"]

_now = time.perf_counter_ns


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span


class Target(NamedTuple):
    """One traced public call.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``;
    ``count(counters, args, kwargs, result, parent_name)`` (optional)
    adds the layer's work counters after each call.
    """

    name: str
    where: str
    count: Optional[Callable] = None


class Tracer:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [name, start, end, parent] lists while open; Span tuples are
        # built on demand so the hot path does one list append.
        self._spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    @property
    def spans(self) -> List[Span]:
        return [Span(*s) for s in self._spans]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, counters = self._spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result,
                      spans[stack[-1]][0] if stack else None)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self._spans):
                fh.write(json.dumps({
                    "run_id": self.run_id, "span": i, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def _resolve(where: str):
    """``"pkg.mod:Class.meth"`` -> (owner, attribute name, original)."""
    module_name, _, qual = where.partition(":")
    owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Target], prefixes: Iterable[str] = ("repro",)):
    """Wrap every target at all of its import sites; restore on exit.

    A module-level function is replaced in every loaded module whose
    name is one of ``prefixes`` (or below one), wherever a global or a
    value of a module-level dict *is* the original.  A method is
    replaced on its class.
    """
    prefixes = tuple(prefixes)
    restore: List[Callable[[], None]] = []
    try:
        for target in targets:
            owner, attr, original = _resolve(target.where)
            wrapper = tracer.wrap(target.name, original, target.count)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                restore.append(lambda c=owner, a=attr, o=original: setattr(c, a, o))
                continue
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and any(n == p or n.startswith(p + ".") for p in prefixes)]
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        restore.append(lambda ns=namespace, k=key, o=original: ns.__setitem__(k, o))
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                restore.append(lambda d=value, k=dkey, o=original: d.__setitem__(k, o))
        yield tracer
    finally:
        for undo in reversed(restore):
            undo()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time in seconds: duration minus direct children."""
    selfs = [(s.end_ns - s.start_ns) for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.end_ns - s.start_ns
    return [v / 1e9 for v in selfs]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"self_s": total self time, "calls": count}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return out
