"""In-memory span tracer that wraps the repo's public calls from outside.

A :class:`Tracer` patches methods on classes (and a few module-level
functions) of ``repro`` with timing wrappers, records one span per call
and restores every original on :meth:`Tracer.uninstall`.  Nothing under
``src/`` changes; with no tracer installed the program runs untouched.

Each span holds a name, start, end, parent span and request id (serve
spans carry the request id of the request they serve) plus an optional
tag.  Synchronous calls nest through an explicit stack.  Coroutine
calls (the ASGI app, the admission queue) cannot use the stack because
they suspend, so they pass their span down through a context variable
instead.  Garbage-collector pauses, read through ``gc.callbacks``, are
kept in a separate list and charged as children of whatever span was
running, so a layer's self time excludes the collector.

Spans live in flat typed arrays, not one Python object each: hundreds
of thousands of tracked objects would lengthen every full collection
and so inflate the very pauses the trace reports.

A layer's number is its self time: span duration minus the time its
child spans (and collector pauses) cover.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Request id of a span that serves no request.
NO_RID = -1


class Tracer:
    """Spans kept in memory, written out once at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.tags: Dict[int, Any] = {}
        self.gc_events: List[Tuple[int, float, float, int]] = []
        self.seen: Dict[str, Any] = {}
        self._stack: List[int] = []
        self._async_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._gc_started = 0.0
        self._gc_parent = -1

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _current(self) -> int:
        return self._stack[-1] if self._stack else self._async_parent.get()

    def _open(self, name_id: int, rid: Optional[int], tag: Any,
              root: bool) -> int:
        parent = -1 if root else self._current()
        if rid is None:
            rid = self.rid[parent] if parent >= 0 else NO_RID
        else:
            # The ASGI app learns its request id only inside the call;
            # the first child that knows it stamps its ancestors.
            ancestor = parent
            while ancestor >= 0 and self.rid[ancestor] == NO_RID:
                self.rid[ancestor] = rid
                ancestor = self.parent[ancestor]
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(parent)
        self.rid.append(rid)
        self.end.append(0.0)
        if tag is not None:
            self.tags[index] = tag
        self.start.append(time.perf_counter())
        return index

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_parent = self._current()
            self._gc_started = time.perf_counter()
        else:
            self.gc_events.append((
                info["generation"], self._gc_started, time.perf_counter(),
                self._gc_parent,
            ))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Any]] = None,
        rid: Optional[Callable[..., Optional[int]]] = None,
        root: bool = False,
        result: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module.  ``tag`` and ``rid`` receive
        the call's positional arguments and return the span's tag and
        request id.  ``root`` spans have no parent: the admission
        dispatcher runs in a task whose context was copied from one
        request, which must not adopt the batch.  ``result`` maps the
        return value to the span's tag (synchronous calls only).  A
        class that inherits ``attr`` gets the wrapper as its own
        attribute, so sibling classes stay untouched.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name_id, tag, rid, root)
        else:
            wrapper = self._sync_wrapper(
                original, name_id, tag, rid, root, result
            )
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, wrapper)

    def _sync_wrapper(self, fn, name_id, tag, rid, root, result):
        stack = self._stack
        ends = self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(
                name_id,
                rid(*args) if rid is not None else None,
                tag(*args) if tag is not None else None,
                root,
            )
            stack.append(index)
            try:
                value = fn(*args, **kwargs)
                if result is not None:
                    self.tags[index] = result(value)
                return value
            finally:
                ends[index] = time.perf_counter()
                stack.pop()

        return wrapper

    def _async_wrapper(self, fn, name_id, tag, rid, root):
        ends = self.end

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index = self._open(
                name_id,
                rid(*args) if rid is not None else None,
                tag(*args) if tag is not None else None,
                root,
            )
            token = self._async_parent.set(index)
            try:
                return await fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                self._async_parent.reset(token)

        return wrapper

    def install_gc(self) -> None:
        """Record every collector pause from now until :meth:`uninstall`."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute and stop recording GC pauses."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Self time of every span, in seconds (children and GC removed)."""
        parents = np.array(self.parent, dtype=np.int64)
        durations = np.array(self.end) - np.array(self.start)
        covered = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(covered, parents[nested], durations[nested])
        for _, start, end, parent in self.gc_events:
            if parent >= 0:
                covered[parent] += end - start
        return durations - covered

    def by_name(self) -> Dict[str, np.ndarray]:
        """Span indices grouped by name (names never recorded omitted)."""
        ids = np.array(self.name, dtype=np.int64)
        groups = {}
        for name_id, name in enumerate(self.names):
            members = np.flatnonzero(ids == name_id)
            if members.size:
                groups[name] = members
        return groups

    def name_of(self, index: int) -> str:
        """The name of one span."""
        return self.names[self.name[index]]

    def write(self, path: Path) -> None:
        """Write spans and GC pauses as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index in range(len(self)):
                rid = self.rid[index]
                out.write(json.dumps({
                    "id": index, "name": self.name_of(index),
                    "start": self.start[index], "end": self.end[index],
                    "parent": self.parent[index],
                    "rid": None if rid == NO_RID else rid,
                    "tag": self.tags.get(index),
                }) + "\n")
            for generation, start, end, parent in self.gc_events:
                out.write(json.dumps({
                    "name": f"python.gc.gen{generation}", "start": start,
                    "end": end, "parent": parent,
                }) + "\n")
