"""Span recording around the program's layer entry points, from outside.

:class:`Tracer` replaces each named method on its class with a wrapper that
records a span (name, start, end, parent, request id, phase) in memory, and
restores the originals on :meth:`Tracer.uninstall`.  The client thread issues
every request and waits for its reply, so a span that opens on a gateway
thread with nothing open on that thread is parented to the innermost span
open on the client thread: ``ApiRouter.handle`` on a gateway worker becomes
a child of the ``JsonLinesTransport.send`` that is waiting for it, and the
two share the request id.  A layer's self time is its span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    """An open span; closed spans are kept as plain tuples (see :data:`FIELDS`)."""

    __slots__ = ("sid", "parent", "rid", "name", "start", "phase")

    def __init__(self, sid: int, parent: int, rid: int, name: str, start: float, phase: str):
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.phase = phase


#: Field order of a closed span.  Tuples of numbers and strings are not
#: tracked by the garbage collector, so tens of thousands of recorded spans
#: do not lengthen the program's collections.
FIELDS = ("id", "parent", "request", "name", "start", "end", "phase")
SID, PARENT, RID, NAME, START, END, PHASE = range(len(FIELDS))


#: ``after(tracer, span, args, result)``, called once the wrapped call returned.
AfterHook = Callable[["Tracer", Span, tuple, object], None]


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: ``setup``, ``timed`` or ``check``; set by the workload as it goes.
        self.phase = "setup"
        self.counters: Counter = Counter()
        self._client_thread = threading.get_ident()
        self._client_stack: List[Span] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._patches: List[Tuple[type, str, object]] = []
        #: Span id -> name, for closed spans.
        self._names: Dict[int, str] = {}

    # -- installation ---------------------------------------------------------
    def wrap(self, owner: type, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(span)
            if after is not None:
                after(tracer, span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, layers) -> None:
        for owner, attr, name, after in layers:
            self.wrap(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span = Span(
            next(self._span_ids),
            parent.sid if parent is not None else 0,
            parent.rid if parent is not None else next(self._request_ids),
            name,
            time.perf_counter(),
            self.phase,
        )
        stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span.sid, span.parent, span.rid, span.name, span.start, end, span.phase))
        self._names[span.sid] = span.name

    def parent_name(self, span: Span) -> Optional[str]:
        """Name of ``span``'s parent: closed, or still open on this thread."""
        stack = self._stack()
        if stack and stack[-1].sid == span.parent:
            return stack[-1].name
        return self._names.get(span.parent)

    # -- analysis -------------------------------------------------------------
    def layer_table(self, phase: str = "timed") -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s`` within ``phase``."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span[PARENT]:
                child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span[PHASE] != phase:
                continue
            row = table.setdefault(span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            duration = span[END] - span[START]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span[SID], 0.0)
            row["max_s"] = max(row["max_s"], duration)
        return table

    def child_count(self, parent: str, child: str, phase: str = "timed") -> int:
        """How many ``child`` spans of ``phase`` ran directly under a ``parent`` span."""
        return sum(
            1
            for span in self.spans
            if span[NAME] == child and span[PHASE] == phase and self._names.get(span[PARENT]) == parent
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span)), separators=(",", ":")) + "\n")


def _count_shard_pages(tracer: Tracer, span: Span, args: tuple, result: object) -> None:
    """Jobs a shard returned for a federated ``job.list`` (the scatter's cost)."""
    request = args[1] if len(args) > 1 else None
    if not (isinstance(request, dict) and request.get("op") == "job.list"):
        return
    if tracer.parent_name(span) != "federation":
        return
    if span.phase != "timed" or not isinstance(result, dict) or not result.get("ok"):
        return
    tracer.counters["shard_page_jobs"] += len((result.get("payload") or {}).get("jobs", ()))


#: Client calls the workloads make; each is one request on the wire.
SDK_METHODS = (
    "login",
    "submit_job",
    "job_status",
    "job_page",
    "fleet",
    "server_status",
    "analytics_report",
)


def program_layers():
    """``(class, method, span name, after-hook)`` for every layer boundary timed."""
    from repro.accessserver.persistence import FileBackend, PersistenceManager
    from repro.accessserver.server import AccessServer
    from repro.analytics.engine import AnalyticsEngine
    from repro.api.client import BatteryLabClient
    from repro.api.gateway import JsonLinesTransport
    from repro.api.router import ApiRouter
    from repro.core.api import BatteryLabAPI
    from repro.federation.router import FederationRouter
    from repro.powermonitor.traces import CurrentTrace, TraceBuilder
    from repro.simulation.entity import SimulationContext
    from repro.simulation.events import EventBus

    layers = [(BatteryLabClient, method, "sdk", None) for method in SDK_METHODS]
    layers += [
        (JsonLinesTransport, "send", "wire", None),
        (FederationRouter, "handle", "federation", None),
        (ApiRouter, "handle", "router", _count_shard_pages),
        (AccessServer, "submit_job", "server.submit", None),
        (AccessServer, "run_pending_jobs", "dispatch.wave", None),
        (AccessServer, "enable_persistence", "recovery", None),
        (FileBackend, "append", "journal.append", None),
        (PersistenceManager, "checkpoint", "checkpoint", None),
        (EventBus, "publish", "bus.publish", None),
        (AnalyticsEngine, "fold", "analytics.fold", None),
        (AnalyticsEngine, "report", "analytics.report", None),
        (SimulationContext, "run_for", "clock", None),
        (BatteryLabAPI, "measure", "measure", None),
        (BatteryLabAPI, "start_monitor", "monitor.start", None),
        (BatteryLabAPI, "stop_monitor", "monitor.stop", None),
        (TraceBuilder, "extend", "sampler.extend", None),
        (TraceBuilder, "build", "trace.build", None),
        (CurrentTrace, "summary", "trace.summary", None),
    ]
    return layers
