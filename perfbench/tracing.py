"""In-memory span tracing for the traced run (``--trace 1``).

Wrappers installed from this file replace module functions and class
methods of the program for the duration of a traced phase and are removed
afterwards; ``src/`` is never edited, and plain runs install nothing.

Each call of a wrapped callable records one span: name, start, end, the
span that caused it and a trace id (the stream ``eid`` on the stream
workloads, the system on the eval workload). A layer's self time is its
span's duration minus the time its child spans cover. Spans are kept in
memory and written out when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

_STRIDE = 1 << 16  # span names per tracer, at most


class Tracer:
    """Spans and per-span totals of the callables it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trace_names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.trace_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._trace = [-1]  # the open trace id, -1 when none is open
        # Open spans, innermost last: [span index, child ns, owner name id].
        self.stack: list[list[int]] = []
        # owner name id * _STRIDE + name id -> [calls, total ns, self ns]
        self.agg: dict[int, list[int]] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def trace_id(self, label: str) -> int:
        """Interned id for a non-numeric trace (the eval workload's systems)."""
        if label not in self.trace_names:
            self.trace_names.append(label)
        return self.trace_names.index(label)

    # ------------------------------------------------------------ spans
    def wrap(self, fn, name: str, *, trace_of=None, on_result=None, owner=False):
        """``fn`` with a span around each call.

        ``trace_of(args)`` gives the trace id a call starts when no trace is
        open; ``on_result(args, result)`` records counters after the call.
        An ``owner`` span (a system's ``add_edge`` or ``finalize``) is the
        one its descendants' self time is booked under.
        """
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack, agg, current = self.stack, self.agg, self._trace
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_col.append, self.parent_col.append
        add_trace, add_start = self.trace_col.append, self.start_col.append
        end_col = self.end_col
        add_end = end_col.append

        def wrapper(*args, **kwargs):
            opened = trace_of is not None and current[0] == -1
            if opened:
                current[0] = trace_of(args)
            idx = len(end_col)
            if stack:
                top = stack[-1]
                parent, booked = top[0], nid if owner else top[2]
            else:
                parent, booked = -1, nid
            frame = [idx, 0, booked]
            push(frame)
            add_name(nid)
            add_parent(parent)
            add_trace(current[0])
            add_end(0)
            t0 = clock()
            add_start(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                end_col[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = booked * _STRIDE + nid
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0, 0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if opened:
                    current[0] = -1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -------------------------------------------------------- install
    def install(self, module: str, path: str, name: str, **hooks) -> None:
        """Replace ``module.path`` (``func`` or ``Class.method``) with a
        wrapped version. A callable that no longer exists is noted in
        ``missing`` and its metrics are reported absent."""
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        if isinstance(static, classmethod):
            wrapped = staticmethod(self.wrap(getattr(owner, attr), name, **hooks))
        else:
            wrapped = self.wrap(static, name, **hooks)
        self._installed.append((owner, attr, static))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, static = self._installed.pop()
            setattr(owner, attr, static)

    # ---------------------------------------------------------- output
    def stat(self, name: str) -> tuple[int, float, float] | None:
        """(calls, total s, self s) of span ``name``; None when the callable
        was missing."""
        if name in self.missing:
            return None
        calls = total = self_ns = 0
        for key, (c, t, s) in self.agg.items():
            if self.names[key % _STRIDE] == name:
                calls += c
                total += t
                self_ns += s
        return calls, total / 1e9, self_ns / 1e9

    def self_by_layer(self, owners: set[str]) -> dict[str, float]:
        """Self seconds booked under the given owner spans, by layer (the
        span name's prefix)."""
        out: dict[str, float] = {}
        for key, (_, _, s) in self.agg.items():
            r, n = (self.names[i] for i in divmod(key, _STRIDE))
            if r in owners:
                layer = n.split(".")[0]
                out[layer] = out.get(layer, 0.0) + s / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            trace=np.frombuffer(self.trace_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            names=np.array(json.dumps({"names": self.names, "trace_names": self.trace_names})),
        )
