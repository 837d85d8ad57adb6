"""In-memory spans recorded from the benchmark's own code.

A span has a name, start, end, parent span and the run id; spans are kept in
memory and written out once the run ends.  A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record one span; the yielded record gets its `end` on exit."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            **attrs,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[Any, str, str]]) -> Iterator[list[str]]:
        """Replace each existing `module.attr` by a span-recording wrapper.

        Yields the names that could not be patched because the attribute no
        longer exists; every patch is undone on exit.
        """
        saved, missing = [], []
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))
        try:
            yield missing
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, total duration and total self time."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            duration = s["end"] - s["start"]
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def duration(record: dict[str, Any]) -> float:
    return record["end"] - record["start"]
