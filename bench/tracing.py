"""Spans recorded from outside the program.

A traced run replaces each layer's public entry point, at the attribute
where callers look it up, with a wrapper that records one span per call
(name, start, end, parent, tag).  The program source is untouched, and
:meth:`Patches.restore` puts every original back.  Spans stay in
memory until :func:`dump_spans` writes them as JSONL.

A span name is ``<layer>`` or ``<layer>/<detail>``; only plain
``<layer>`` spans count as calls of that layer, while every span's self
time (its duration minus the part its child spans cover) is charged to
its layer.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Index of the innermost open span in the active recorder.  A context
#: variable, not a thread-local, so a call handed to a worker thread by
#: ``asyncio.to_thread`` still nests under the span that awaited it.
_parent: contextvars.ContextVar[Optional[int]] = \
    contextvars.ContextVar("bench_parent_span", default=None)

NAME, START, END, PARENT, TAG = range(5)


class Patches:
    """Attributes of the program replaced from outside it, each put back
    by :meth:`restore` (latest first, so replacements may stack)."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a module, class or dict entry) by
        ``make(original)`` until :meth:`restore`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
            self._undo.append(lambda: owner.__setitem__(attr, original))
            return
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Recorder(Patches):
    """In-memory span store plus the wrappers that feed it.  One
    recorder is installed at a time."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, tag: Optional[str]) -> tuple:
        parent = _parent.get()
        with self._lock:
            if tag is None and parent is not None:
                tag = self.spans[parent][TAG]
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tag])
        return index, _parent.set(index)

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = time.perf_counter()
        _parent.reset(token)

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        index, token = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index, token)

    def traced(self, fn: Callable, name: str,
               tag: Optional[Callable[..., str]] = None,
               observe: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` wrapped so each call records a span.  ``tag`` derives
        the span tag from the call's arguments; ``observe`` sees each
        return value."""
        rec = self

        def label(args, kwargs) -> Optional[str]:
            return tag(*args, **kwargs) if tag is not None else None

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                index, token = rec._open(name, label(args, kwargs))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec._close(index, token)
        elif inspect.isgeneratorfunction(fn):
            # Callers drain these in one go (``list(...)``), so the span
            # covers the whole iteration.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index, token = rec._open(name, label(args, kwargs))
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    rec._close(index, token)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index, token = rec._open(name, label(args, kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec._close(index, token)
                if observe is not None:
                    observe(result)
                return result
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` by its traced form until
        :meth:`restore`."""
        self.replace(owner, attr,
                     lambda fn: self.traced(fn, name, **kwargs))


def dump_spans(spans: Sequence[list], path: str) -> None:
    """Write spans as JSONL, one ``{name, start, end, parent, tag}``
    object per line (``parent`` is a line index)."""
    with open(path, "w") as handle:
        for name, start, end, parent, tag in spans:
            handle.write(json.dumps({
                "name": name, "start": start, "end": end,
                "parent": parent, "tag": tag}) + "\n")


def load_spans(path: str) -> List[list]:
    spans = []
    with open(path) as handle:
        for line in handle:
            rec = json.loads(line)
            spans.append([rec["name"], rec["start"], rec["end"],
                          rec["parent"], rec["tag"]])
    return spans


# -- arithmetic ---------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus its direct children's durations
    (clamped at zero: children on other threads may overlap)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [max(0.0, span[END] - span[START] - child[i])
            for i, span in enumerate(spans)]


def layer_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls", "self_s"}}`` plus ``{name: {"incl_s"}}`` for
    every span name (inclusive time, children counted)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        layer, _, detail = span[NAME].partition("/")
        totals[layer]["self_s"] += own
        if not detail:
            totals[layer]["calls"] += 1
        totals[span[NAME]]["incl_s"] += span[END] - span[START]
    return totals
