"""Benchmark-side spans and the timing proxies that produce them.

Spans are recorded by the benchmark around calls into each layer's
public functions; nothing inside ``src/`` is instrumented. Every span
lives in memory (one list per :class:`Tracer`) until the run ends.
All spans of one request share its request id, and each span records
the span that was open when it started, so a layer's self time is its
duration minus the time its direct children cover.

The proxies are passed through the service facade's own ``cache=``,
``pool=`` and ``queue=`` parameters; they subclass the real classes and
only add a span around the calls the facade makes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.distributed import CoordinatorClient
from repro.service import ResultCache, SolverPool


class Span:
    """One timed call; a context manager that records itself."""

    __slots__ = ("name", "request", "parent", "start", "end", "attrs",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.request = tracer.request
        self.parent: Optional[int] = tracer._open[-1] if tracer._open else None
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = time.perf_counter()
        self._tracer._open.pop()


class Tracer:
    """In-memory span recorder for one single-threaded closed loop."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.request = 0

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children).

        Children of one parent run one after another in this loop, so
        their durations never overlap and can simply be summed.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            totals[record.name] = (
                totals.get(record.name, 0.0)
                + record.duration - covered[index]
            )
        return totals

    def totals(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": record.parent,
                    "request": record.request, "name": record.name,
                    "start": record.start, "dur": record.duration,
                    "attrs": record.attrs,
                }, default=str) + "\n")


class TimedCache(ResultCache):
    """``ResultCache`` with a span around each facade lookup and store."""

    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._tracer = tracer

    def get_with_tier(self, digest: str):
        with self._tracer.span("cache.get"):
            return super().get_with_tier(digest)

    def put(self, digest: str, outcome: Dict[str, Any]) -> None:
        with self._tracer.span("cache.put"):
            super().put(digest, outcome)


class TimedPool(SolverPool):
    """``SolverPool`` with a span around each batch the facade solves.

    ``busy`` sums, per chunk, the wall of the chunk's slowest job. The
    jobs of one chunk advance in lockstep through the fleet kernel and
    each reports its wall from the chunk's start, so summing every
    job's ``wall_time`` would count a chunk once per job.
    """

    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self.busy = 0.0

    def solve(self, payloads):
        payloads = list(payloads)
        with self._tracer.span("pool.solve", jobs=len(payloads)):
            results = super().solve(payloads)
        size = self._auto_chunk(len(payloads))
        self.busy += sum(
            max(r.get("wall_time", 0.0) for r in results[i:i + size])
            for i in range(0, len(results), size)
        )
        return results


class TimedClient(CoordinatorClient):
    """``CoordinatorClient`` with spans around enqueue and result polls."""

    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def submit_many(self, payloads):
        with self._tracer.span("fabric.submit", jobs=len(payloads)):
            return super().submit_many(payloads)

    def results_fetch(self, digests):
        with self._tracer.span("fabric.fetch", pending=len(digests)):
            return super().results_fetch(digests)
