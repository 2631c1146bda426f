"""Spans at layer boundaries, recorded from outside the library.

Tracing inside ``src/`` is a later change; this module wraps the public
entry points of each layer (class attributes and module-level names) with
timing shims, so a traced run records, per call:

* a span: name, start, end, parent span, and the request ids it served;
* leaf work folded into the enclosing span (ranking-function scoring).

Spans are kept in memory and summarised when the run ends.  All clocks
are ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux — so spans from
the benchmark process, the server process, and shard workers share one
timebase.

Request ids travel on the query objects themselves (``_pb_rid``); a
scatter call stamps its queries with its span id (``_pb_scatter``) so
legs running on pool threads can name their parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional

clock = time.perf_counter

#: Request id of the websocket message an asyncio task is serving.
CURRENT_RID: contextvars.ContextVar = contextvars.ContextVar("pb_rid",
                                                            default=None)


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "rids", "attrs",
                 "fn_s", "fn_tuples")

    def __init__(self, sid, name, t0, parent, rids):
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.rids = rids
        self.attrs: Dict[str, object] = {}
        self.fn_s = 0.0
        self.fn_tuples = 0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def as_json(self) -> dict:
        return {"sid": self.sid, "name": self.name, "t0": self.t0,
                "t1": self.t1, "parent": self.parent,
                "rids": list(self.rids), "attrs": self.attrs,
                "fn_s": self.fn_s, "fn_tuples": self.fn_tuples}

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        span = cls(obj["sid"], obj["name"], obj["t0"], obj["parent"],
                   tuple(obj["rids"]))
        span.t1 = obj["t1"]
        span.attrs = obj["attrs"]
        span.fn_s = obj["fn_s"]
        span.fn_tuples = obj["fn_tuples"]
        return span


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, rids=(), link: Optional[int] = None,
             push: bool = True) -> Span:
        """Open a span; its parent is the thread's open span, else ``link``."""
        top = self.current() if push else None
        parent = top.sid if top is not None else link
        span = Span(next(self._ids), name, clock(), parent, tuple(rids))
        if push:
            self._stack().append(span)
        return span

    def close(self, span: Span, push: bool = True) -> None:
        span.t1 = clock()
        if push:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
        self.spans.append(span)

    def add_scoring(self, seconds: float, tuples: int) -> None:
        """Fold scoring into the open span (scoring outside one — index
        construction — is not on any read's path and is dropped)."""
        top = self.current()
        if top is not None:
            top.fn_s += seconds
            top.fn_tuples += tuples


RECORDER = Recorder()
#: Shard stacks built while the shard probes were installed (an insert
#: drops a stack, and its counters with it; these keep them readable).
REBUILT: List[object] = []


# ----------------------------------------------------------------------
# request-id plumbing
# ----------------------------------------------------------------------
def tag(query, rid) -> None:
    """Stamp ``query`` with its request id (queries are frozen dataclasses)."""
    object.__setattr__(query, "_pb_rid", rid)


def rid_of(query):
    return getattr(query, "_pb_rid", None)


def rids_of(queries: Iterable) -> tuple:
    return tuple(rid for rid in (rid_of(q) for q in queries) if rid is not None)


def _link_of(queries: Iterable) -> Optional[int]:
    for query in queries:
        link = getattr(query, "_pb_scatter", None)
        if link is not None:
            return link
    return None


# ----------------------------------------------------------------------
# wrapping helpers
# ----------------------------------------------------------------------
_INSTALLED: List[tuple] = []


def _replace(owner, attr: str, wrapper) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    _INSTALLED.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def uninstall() -> None:
    """Restore every wrapped attribute (newest first)."""
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)


def wrap_sync(owner, attr: str, name: str, *, queries_arg=None,
              note=None) -> None:
    """Record a span around a synchronous callable.

    ``queries_arg`` picks the query (or list of queries) among the
    positional arguments — index into ``args`` — to read request ids and
    the cross-thread parent link from.  ``note(span, args, result)`` may
    attach attributes.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        queries = ()
        if queries_arg is not None and len(args) > queries_arg:
            value = args[queries_arg]
            queries = value if isinstance(value, (list, tuple)) else (value,)
        span = RECORDER.open(name, rids_of(queries), link=_link_of(queries))
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            if note is not None:
                note(span, args, result)
            RECORDER.close(span)

    _replace(owner, attr, wrapper)


def wrap_async(owner, attr: str, name: str, *, rid_from=None) -> None:
    """Record a span around a coroutine method (never pushed: tasks
    interleave on one thread, so parenthood goes by request id)."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        rid = rid_from(args) if rid_from is not None else None
        span = RECORDER.open(name, (rid,) if rid is not None else (),
                             push=False)
        try:
            return await original(*args, **kwargs)
        finally:
            RECORDER.close(span, push=False)

    _replace(owner, attr, wrapper)


def wrap_scoring(cls) -> None:
    """Fold ``evaluate_batch`` time and tuple counts into the open span."""
    original = cls.__dict__["evaluate_batch"]

    @functools.wraps(original)
    def wrapper(self, values):
        started = clock()
        try:
            return original(self, values)
        finally:
            RECORDER.add_scoring(clock() - started, len(values))

    _replace(cls, "evaluate_batch", wrapper)


# ----------------------------------------------------------------------
# the probe sets
# ----------------------------------------------------------------------
def install_setup_probes() -> None:
    """Index constructors: ``setup.ranking_cube`` / ``setup.signature_cube``."""
    from repro.cube.ranking_cube import RankingCube
    from repro.signature.cube import SignatureRankingCube

    wrap_sync(RankingCube, "__init__", "setup.ranking_cube")
    wrap_sync(SignatureRankingCube, "__init__", "setup.signature_cube")


def install_engine_probes() -> None:
    """Planner, backends, and scoring — the single-relation engine."""
    from repro.engine import backends
    from repro.engine.executor import Executor
    from repro.engine.planner import Planner
    from repro.functions.base import RankingFunction
    from repro.functions.distance import (
        ManhattanDistanceFunction,
        SquaredDistanceFunction,
    )
    from repro.functions.linear import LinearFunction

    wrap_sync(Executor, "execute", "engine.execute", queries_arg=1)
    wrap_sync(Executor, "execute_many", "engine.execute_many",
              queries_arg=1)
    wrap_sync(Planner, "plan", "engine.plan", queries_arg=1)
    for cls, layer in ((backends.RankingCubeBackend, "cube"),
                       (backends.SignatureCubeBackend, "signature"),
                       (backends.SkylineBackend, "skyline"),
                       (backends.SkylineScanBackend, "skyline"),
                       (backends.TableScanBackend, "baselines")):
        wrap_sync(cls, "run", f"{layer}.run", queries_arg=1)
        if "execute_batch" in cls.__dict__:
            wrap_sync(cls, "execute_batch", f"{layer}.run", queries_arg=1)
    for cls in (RankingFunction, LinearFunction, SquaredDistanceFunction,
                ManhattanDistanceFunction):
        wrap_scoring(cls)


def _stamp_scatter(original, name):
    """Scatter front door: a span that stamps its queries for the legs."""

    @functools.wraps(original)
    def wrapper(self, queries, *args, **kwargs):
        batch = queries if isinstance(queries, (list, tuple)) else (queries,)
        span = RECORDER.open(name, rids_of(batch))
        for query in batch:
            object.__setattr__(query, "_pb_scatter", span.sid)
        try:
            return original(self, queries, *args, **kwargs)
        finally:
            RECORDER.close(span)

    return wrapper


def _note_worker(span, args, result) -> None:
    span.attrs["op"] = args[1]
    if result is None or args[1] not in ("execute", "execute_many"):
        return
    out = result[0]
    first = out[0] if isinstance(out, list) and out else out
    remote = getattr(first, "extra", {}).get("pb_remote")
    if remote is not None:
        span.attrs["remote"] = remote


def install_shard_probes() -> None:
    """Scatter front door, legs (thread and process), and stack rebuilds."""
    from repro.shard.manager import ShardManager
    from repro.shard.scatter import ScatterGatherExecutor
    from repro.shard.worker import ShardWorker

    for attr, name in (("execute", "shard.execute"),
                       ("execute_many", "shard.execute_many")):
        original = ScatterGatherExecutor.__dict__[attr]
        _replace(ScatterGatherExecutor, attr, _stamp_scatter(original, name))
    wrap_sync(ShardWorker, "request", "shard.process_leg", queries_arg=2,
              note=_note_worker)

    original_for = ShardManager.__dict__["executor_for"]

    @functools.wraps(original_for)
    def executor_for(self, shard):
        if shard.index in self.built_executors():
            return original_for(self, shard)
        span = RECORDER.open("shard.rebuild")
        try:
            executor = original_for(self, shard)
        finally:
            RECORDER.close(span)
        REBUILT.append(executor)
        return executor

    _replace(ShardManager, "executor_for", executor_for)


def install_serve_probes() -> None:
    from repro.serve.service import QueryService

    wrap_async(QueryService, "submit", "serve.submit",
               rid_from=lambda args: rid_of(args[1]))
    wrap_async(QueryService, "insert", "serve.insert")
    from repro.shard.manager import ShardManager

    wrap_sync(ShardManager, "insert", "shard.insert")


def install_net_probes() -> None:
    """Websocket message handler, codec, and fair-share admission."""
    import repro.net.server as server_module
    from repro.net.admission import AdmissionController

    original_handle = server_module.QueryServer.__dict__["_ws_handle_message"]

    @functools.wraps(original_handle)
    async def handle(self, message, *args, **kwargs):
        try:
            rid = json.loads(message).get("id")
        except (ValueError, AttributeError):
            rid = None
        CURRENT_RID.set(rid)
        span = RECORDER.open("net.message", (rid,) if rid is not None
                             else (), push=False)
        try:
            return await original_handle(self, message, *args, **kwargs)
        finally:
            RECORDER.close(span, push=False)

    _replace(server_module.QueryServer, "_ws_handle_message", handle)

    original_decode = server_module.decode_query

    @functools.wraps(original_decode)
    def decode_query(*args, **kwargs):
        span = RECORDER.open("net.codec", push=False)
        try:
            query = original_decode(*args, **kwargs)
        finally:
            RECORDER.close(span, push=False)
        rid = CURRENT_RID.get()
        if rid is not None:
            tag(query, rid)
            span.rids = (rid,)
        return query

    _replace(server_module, "decode_query", decode_query)

    for attr in ("final_frame", "encode_result"):
        original = getattr(server_module, attr)

        def encoder(*args, _original=original, **kwargs):
            span = RECORDER.open("net.codec", push=False)
            rid = CURRENT_RID.get()
            if rid is not None:
                span.rids = (rid,)
            try:
                return _original(*args, **kwargs)
            finally:
                RECORDER.close(span, push=False)

        _replace(server_module, attr, encoder)

    wrap_async(AdmissionController, "submit", "net.admission",
               rid_from=lambda args: rid_of(args[1]))


# ----------------------------------------------------------------------
# shard workers: summarise each leg's spans into the returned results
# ----------------------------------------------------------------------
def install_worker_probes() -> None:
    """Inside a shard worker process: a per-call blocking-path breakdown
    shipped back in ``extra["pb_remote"]``.

    Only legs the parent traced — their queries carry a scatter stamp —
    are summarised; the engine probes go in at the first such leg, so a
    worker runs unprobed until the parent starts tracing.
    """
    from repro.engine.executor import Executor

    plain = {attr: Executor.__dict__[attr]
             for attr in ("execute", "execute_many")}
    probed: Dict[str, object] = {}

    def summarising(attr: str):
        @functools.wraps(plain[attr])
        def summarised(self, queries, *args, **kwargs):
            batch = (queries if isinstance(queries, (list, tuple))
                     else (queries,))
            if _link_of(batch) is None:
                return plain[attr](self, queries, *args, **kwargs)
            if not probed:
                for name, method in plain.items():
                    setattr(Executor, name, method)
                install_engine_probes()
                probed.update((name, Executor.__dict__[name])
                              for name in plain)
                for name, wrapper in wrappers.items():
                    setattr(Executor, name, wrapper)
            mark = len(RECORDER.spans)
            out = probed[attr](self, queries, *args, **kwargs)
            spans = RECORDER.spans[mark:]
            root = spans[-1] if spans else None
            if root is not None:
                remote = {"total_s": root.dur,
                          "layers": path_layers(root, spans),
                          "tuples": sum(s.fn_tuples for s in spans),
                          "plans": [s.dur for s in spans
                                    if s.name == "engine.plan"],
                          "runs": [(s.name, s.dur) for s in spans
                                   if s.name.endswith(".run")]}
                for result in (out if isinstance(out, list) else [out]):
                    result.extra["pb_remote"] = remote
            del RECORDER.spans[:]
            return out

        return summarised

    wrappers = {attr: summarising(attr) for attr in plain}
    for attr, wrapper in wrappers.items():
        _replace(Executor, attr, wrapper)


# ----------------------------------------------------------------------
# blocking-path decomposition
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def union(spans: Iterable[Span]) -> float:
    """Seconds covered by at least one of ``spans``."""
    total = 0.0
    end = None
    for t0, t1 in sorted((span.t0, span.t1) for span in spans):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def build_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Wall seconds spent constructing each index kind (parallel shard
    builds overlap, so this is the union of the constructor spans)."""
    spans = list(spans)
    return {f"{kind}_s": union(s for s in spans if s.name == kind)
            for kind in ("setup.ranking_cube", "setup.signature_cube")}


def critical_chain(children: List[Span], start: float, end: float
                   ) -> List[Span]:
    """The children that block the parent: walk back from its end, always
    taking the child that finishes last among those not yet passed."""
    chain: List[Span] = []
    pending = sorted((c for c in children if c.t1 <= end + 1e-9
                      and c.t0 >= start - 1e-9), key=lambda c: c.t1)
    horizon = end
    while pending:
        candidate = pending.pop()
        if candidate.t1 <= horizon + 1e-9:
            chain.append(candidate)
            horizon = candidate.t0
    return chain


def path_layers(root: Span, spans: Iterable[Span],
                index: Optional[Dict[int, List[Span]]] = None
                ) -> Dict[str, float]:
    """Seconds per layer along ``root``'s blocking path (sums to its span).

    A span's self time is its duration minus its critical-chain children;
    scoring folded into a span counts as ``functions``; a process leg's
    worker-side breakdown replaces the matching part of its round trip.
    """
    if index is None:
        index = children_index(spans)
    out: Dict[str, float] = {}

    def visit(span: Span) -> None:
        chain = critical_chain(index.get(span.sid, []), span.t0, span.t1)
        covered = sum(child.dur for child in chain)
        own = span.dur - covered - span.fn_s
        remote = span.attrs.get("remote") if span.attrs else None
        if remote is not None:
            own -= remote["total_s"]
            for layer, seconds in remote["layers"].items():
                out[layer] = out.get(layer, 0.0) + seconds
        layer = layer_of(span.name)
        out[layer] = out.get(layer, 0.0) + own
        if span.fn_s:
            out["functions"] = out.get("functions", 0.0) + span.fn_s
        for child in chain:
            visit(child)

    visit(root)
    return out
