"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` replaces methods and import-time function bindings with
timing wrappers and restores them on :meth:`Tracer.uninstall`; no
program file changes.  Each thread keeps its own span stack, because the
``sea-gateway`` and ``sea-scan`` threads run layer code too.  A span's
*self time* is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (layer, thread id, start, duration, self time)
Span = Tuple[str, int, float, float, float]


class _TimedContext:
    """Charges a context manager's enter and exit to one layer."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: "Tracer", layer: str, inner) -> None:
        self._tracer, self._layer, self._inner = tracer, layer, inner

    def __enter__(self):
        frame = self._tracer.push(self._layer)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.pop(frame)

    def __exit__(self, *exc):
        frame = self._tracer.push(self._layer)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.pop(frame)


class Tracer:
    """In-memory spans plus the counts and values the wrappers note."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.thread_names: Dict[int, str] = {}
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # Span stacks ------------------------------------------------------------
    def push(self, layer: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self.thread_names[threading.get_ident()] = threading.current_thread().name
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append(
            (frame[0], threading.get_ident(), frame[1], duration, duration - frame[2])
        )

    # Patching ---------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., Any]] = None,
        context: bool = False,
    ) -> None:
        """Time ``owner.attr`` as ``layer``.

        ``before(*args, **kwargs)`` runs untimed ahead of the call and its
        return value reaches ``after(result, state, *args, **kwargs)``,
        which runs untimed once the call returns.  ``context=True`` times
        a returned context manager's enter and exit as well.  Only
        attributes that exist are wrapped, so ``getattr`` probes in the
        program see exactly what they saw untraced.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            frame = tracer.push(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if context:
                result = _TimedContext(tracer, layer, result)
            if after is not None:
                after(result, state, *args, **kwargs)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` puts the original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped as a ``layer`` span (for callables passed as data)."""

        def traced(*args, **kwargs):
            frame = self.push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(frame)

        return traced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Readout ----------------------------------------------------------------
    def self_time(self, factor_at: Callable[[float], float],
                  skip_threads: Iterable[int] = ()) -> Dict[str, float]:
        """Normalized self seconds per layer."""
        skip = set(skip_threads)
        totals: Dict[str, float] = defaultdict(float)
        for layer, thread, start, _, own in self.spans:
            if thread not in skip:
                totals[layer] += own * factor_at(start)
        return totals

    def pool_threads(self) -> List[int]:
        """Scan-pool threads, whose spans overlap their caller's."""
        return [t for t, name in self.thread_names.items() if name.startswith("sea-scan")]

    def durations(self, layer: str, factor_at: Callable[[float], float]) -> List[float]:
        return [d * factor_at(s) for name, _, s, d, _ in self.spans if name == layer]

    def write(self, path: str) -> None:
        """Write every span as one JSON document (layers interned)."""
        layers = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        threads = sorted({span[1] for span in self.spans})
        tindex = {tid: i for i, tid in enumerate(threads)}
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["layer", "thread", "start_us", "dur_us", "self_us"],
                    "layers": layers,
                    "spans": [
                        [index[l], tindex[t], round((s - origin) * 1e6, 1),
                         round(d * 1e6, 2), round(o * 1e6, 2)]
                        for l, t, s, d, o in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )
