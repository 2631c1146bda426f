"""serve-point: interactive websocket traffic through the full served stack.

The server (``server.py``) runs in its own process over a 20k-row relation
on the default ``Executor.for_relation`` stack behind ``QueryService`` and
``QueryServer``: default configs, except that the batcher linger is held
at 2 ms and the collector is frozen over the built index — a tuned
configuration, see ``DESIGN.md``.  This process is the load: an open loop
of Poisson arrivals at :data:`RATE` queries per second over two websocket
sessions, each request timed from when it was due.  Every query is
distinct and selective (1–2 equality predicates copied from a real tuple,
k in {1, 5, 10}, one of a pool of 4 linear functions — the pool is
redrawn every :data:`POOL_EPOCH` queries, which keeps queries distinct
while concurrent requests still share functions), 80% interactive and 20%
background, spread over 4 client ids.  Before the timed loop, a short
untimed one (:data:`ADAPTIVE_S`) goes to the server's second service,
which keeps the default adaptive linger, so that path is checked too.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

import numpy as np

import common
import ledger
import probes
from common import median, pct
from probes import Span, clock
from server import ROWS

#: Offered load: about half the knee.  On a 2-core host with this client
#: on the same machine and the linger held at 2 ms, 900 qps still keeps
#: up (p99 48 ms), 1000 qps barely (982 completed/s, p99 0.75 s) and
#: 1100 qps no longer (989 completed/s, p99 4.3 s): the knee is ~950 qps.
RATE = 450.0
SESSIONS = 2
CLIENTS = 4
POOL_SIZE = 4
POOL_EPOCH = 1000
K_CHOICES = (1, 5, 10)
BACKGROUND_SHARE = 0.2
WARMUP_S = 1.5
#: Untimed open loop, after warm-up, against the server's second service,
#: which keeps ``ServiceConfig``'s adaptive linger: its answers are
#: checked, its p50 is reported but not gated (the linger is bistable).
ADAPTIVE_S = 2.0
#: A run is invalid when the generator sent its p99 request this late.
LATENESS_LIMIT_MS = 25.0
REPLY_TIMEOUT_S = 30.0


class PointQueries:
    """Distinct selective top-k queries; seen keys are never reissued."""

    def __init__(self, relation, rng: np.random.Generator) -> None:
        from repro.functions.linear import LinearFunction

        self._linear = LinearFunction
        self.relation = relation
        self.rng = rng
        self.selection = relation.selection_matrix()
        self.dims = list(relation.selection_dims)
        self.seen = set()
        self.issued = 0
        self.pool: List = []

    def _function(self):
        if self.issued % POOL_EPOCH == 0 or not self.pool:
            ranking = list(self.relation.ranking_dims)
            self.pool = [self._linear(ranking, [float(w) for w in
                                                self.rng.uniform(0.5, 3.0, 2)])
                         for _ in range(POOL_SIZE)]
        return self.pool[int(self.rng.integers(POOL_SIZE))]

    def next(self):
        from repro.engine import query_cache_key
        from repro.query import Predicate, TopKQuery

        while True:
            function = self._function()
            row = self.selection[int(self.rng.integers(len(self.selection)))]
            picked = self.rng.choice(len(self.dims),
                                     size=int(self.rng.integers(1, 3)),
                                     replace=False)
            predicate = Predicate.of({self.dims[i]: int(row[i]) for i in picked})
            k = int(K_CHOICES[int(self.rng.integers(len(K_CHOICES)))])
            query = TopKQuery(predicate, function, k)
            key = query_cache_key(query)
            if key in self.seen:
                continue
            self.seen.add(key)
            self.issued += 1
            priority = ("background" if self.rng.random() < BACKGROUND_SHARE
                        else "interactive")
            client = int(self.rng.integers(CLIENTS))
            return query, priority, client


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, seed: int, trace: bool, index: int) -> None:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        self.stats_path = os.path.join(common.OUT_DIR,
                                       f"serve-point-{os.getpid()}-{index}.json")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, os.path.join(common.HERE, "server.py"),
                   "--seed", str(seed), "--stats", self.stats_path]
        if trace:
            command.append("--trace")
        self.started = clock()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env,
                                     text=True)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            # The load generator takes the first core (see ``run``); the
            # server gets the rest, so neither slows the other.
            os.sched_setaffinity(self.proc.pid, set(cpus[1:]))
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening")
            self.info = json.loads(line)
            self.port = int(self.info["port"])
            self.adaptive_port = int(self.info["adaptive_port"])
        except BaseException:
            self.kill()
            raise

    def start_tracing(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()

    def kill(self) -> None:
        """End the server at once and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stop(self) -> Dict:
        """Shut the server down cleanly; returns its statistics."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        with open(self.stats_path) as handle:
            stats = json.load(handle)
        os.remove(self.stats_path)
        return stats


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------
class Sent:
    __slots__ = ("rid", "query", "priority", "due", "sent", "done", "frame")

    def __init__(self, rid, query, priority, due):
        self.rid = rid
        self.query = query
        self.priority = priority
        self.due = due
        self.sent = 0.0
        self.done: Optional[float] = None
        self.frame = None


async def open_sessions(port: int):
    from repro.net import AsyncQueryClient

    sessions = []
    for index in range(SESSIONS):
        client = AsyncQueryClient("127.0.0.1", port,
                                  client_id=f"session-{index}")
        sessions.append(await client.websocket().__aenter__())
    return sessions


async def open_loop(sessions, gen: PointQueries, rng: np.random.Generator,
                    seconds: float, next_rid: int) -> List[Sent]:
    """Send Poisson arrivals for ``seconds``; wait for every reply.

    The client's own garbage collector is held off while it sends, so
    its pauses do not read as server latency.
    """
    from repro.net import WebSocketSession
    from repro.net.protocol import encode_query

    plan = []
    offset = 0.0
    while True:
        offset += float(rng.exponential(1.0 / RATE))
        if offset >= seconds:
            break
        query, priority, client = gen.next()
        envelope = {"id": next_rid + len(plan), "query": encode_query(query),
                    "priority": priority, "client_id": f"client-{client}"}
        frame = WebSocketSession._frame(0x1, json.dumps(envelope).encode())
        plan.append((offset, frame, client % SESSIONS,
                     Sent(envelope["id"], query, priority, 0.0)))
    pending: Dict[int, Sent] = {}
    finished = asyncio.Event()
    sending = [True]

    async def receive(session) -> None:
        while True:
            message = await session._recv()
            if message is None:
                return
            now = clock()
            sent = pending.pop(message.get("id"), None)
            if sent is None:
                continue
            sent.done = now
            sent.frame = message
            if not pending and not sending[0]:
                finished.set()

    receivers = [asyncio.ensure_future(receive(s)) for s in sessions]
    gc.collect()
    gc.disable()
    start = clock() + 0.01
    out = []
    for offset, frame, session_index, sent in plan:
        sent.due = start + offset
        delay = sent.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        pending[sent.rid] = sent
        writer = sessions[session_index]._writer
        sent.sent = clock()
        writer.write(frame)
        await writer.drain()
        out.append(sent)
    sending[0] = False
    if pending:
        try:
            await asyncio.wait_for(finished.wait(), REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
    gc.enable()
    for task in receivers:
        task.cancel()
    await asyncio.gather(*receivers, return_exceptions=True)
    return out


async def first_answer(port: int, gen: PointQueries) -> float:
    """One round trip; returns when the answer arrived."""
    from repro.net import AsyncQueryClient

    query, _, _ = gen.next()
    async with AsyncQueryClient("127.0.0.1", port).websocket() as session:
        await session.query(query)
    return clock()


def to_reads(sent: List[Sent]):
    from repro.net.protocol import decode_result

    reads = []
    for item in sent:
        read = ledger.Read(item.rid, item.query,
                           (item.done - item.due) if item.done else 0.0,
                           priority=item.priority)
        if item.frame is None:
            read.error = "no reply"
        elif item.frame.get("frame") == "error":
            read.error = str(item.frame.get("error"))
        else:
            read.result = decode_result(item.frame["result"])
        reads.append(read)
    return reads


def run(seed: int, seconds: float, trace: bool) -> dict:
    relation = common.make_relation(ROWS, 2, seed)
    rng = np.random.default_rng(seed)
    gen = PointQueries(relation, rng)
    setups = []
    builds = []
    cpus = os.sched_getaffinity(0)
    server = None
    try:
        for index in range(common.SETUP_REPEATS):
            if server is not None:
                stats, server = server.stop(), None
                builds.append(setup_build_s(stats))
            server = Server(seed, trace, index)
            done = asyncio.run(first_answer(server.port, gen))
            setups.append((done - server.started, server.info))

        async def drive():
            sessions = await open_sessions(server.port)
            # The load generator keeps to the first core; the server was
            # started on the others.
            if len(cpus) > 1:
                os.sched_setaffinity(0, {min(cpus)})
            try:
                await open_loop(sessions, gen, rng, WARMUP_S, 1)
                adaptive_sessions = await open_sessions(server.adaptive_port)
                try:
                    adaptive = await open_loop(adaptive_sessions, gen, rng,
                                               ADAPTIVE_S, 90_000_000)
                finally:
                    for session in adaptive_sessions:
                        await session.close()
                phases = []
                halves = [seconds / 2, seconds / 2] if trace else [seconds]
                for number, length in enumerate(halves):
                    if number == 1:
                        server.start_tracing()
                        await asyncio.sleep(0.2)
                    phases.append(await open_loop(sessions, gen, rng, length,
                                                  10_000_000 * (number + 1)))
                return phases, adaptive
            finally:
                for session in sessions:
                    await session.close()

        phases, adaptive = asyncio.run(drive())
        final, server = server.stop(), None
    finally:
        os.sched_setaffinity(0, cpus)
        # On any way out, no server outlives the run.
        if server is not None:
            server.kill()
    builds.append(setup_build_s(final))
    return summarise(relation, setups, builds, final, phases, adaptive,
                     trace)


def setup_build_s(stats: Dict) -> Dict[str, float]:
    """Index construction seconds of one server (traced servers only)."""
    return probes.build_seconds(Span.from_json(obj)
                                for obj in stats.get("spans", ()))


def summarise(relation, setups, builds, final, phases, adaptive,
              trace) -> dict:
    all_reads = [to_reads(sent) for sent in phases]
    flat = [read for reads in all_reads + [to_reads(adaptive)]
            for read in reads]
    answered = [read for read in flat if read.error is None]
    good = common.verify(relation, [(r.query, r.result, None)
                                    for r in answered])
    attempted = len(flat)
    failed = attempted - sum(good)
    measured = phases[0]
    latencies = [s.done - s.due for s in measured if s.done]
    late = [(s.sent - s.due) * 1000.0 for s in measured]
    done_times = [s.done for s in measured if s.done]
    span = (max(done_times) - measured[0].due) if done_times else 0.0
    cache_hits = final["after"].get("cache.result_hits", 0.0)
    valid = pct(late, 99) <= LATENESS_LIMIT_MS
    adaptive_p50 = pct([s.done - s.due for s in adaptive if s.done],
                       50) * 1000.0
    notes = {
        "offered_qps": RATE,
        "sent": len(measured),
        "lateness_p99_ms": round(pct(late, 99), 3),
        "lateness_limit_ms": LATENESS_LIMIT_MS,
        "valid_open_loop": valid,
        "result_cache_hits": cache_hits,
        "setup_s_each": [round(s, 3) for s, _ in setups],
        "read_ms_p90_p95_p98_p99": [round(pct(latencies, q) * 1000.0, 2)
                                    for q in (90, 95, 98, 99)],
        "adaptive_linger_read_p50_ms": round(adaptive_p50, 3),
        "adaptive_linger_final_ms": round(final["adaptive_linger_ms"], 3),
    }
    end_to_end = {
        "setup_s": (median([s for s, _ in setups]), "s"),
        "read_p50_ms": (pct(latencies, 50) * 1000.0, "ms"),
        "read_p99_ms": (pct(latencies, 99) * 1000.0, "ms"),
        "read_qps": (len(done_times) / span if span > 0 else 0.0, "1/s"),
        "failed_share": (failed / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (final["peak_rss_mb"], "MB"),
        "index_bytes_per_row": (float(setups[-1][1][
            "index_bytes_per_row"]), "B/row"),
    }
    layer: Dict[str, float] = {}
    if trace:
        spans = [Span.from_json(obj) for obj in final["spans"]]
        traced_reads = all_reads[1]
        phase = ledger.Phase(
            reads=[r for r in traced_reads if r.error is None],
            spans=[s for s in spans if not s.name.startswith("setup.")],
            before=final["before_trace"], after=final["after"],
            chain=("net.message", "net.admission", "serve.submit"),
            engine_roots=("engine.execute_many",))
        layer = ledger.phase_metrics(phase)
        layer.update(net_metrics(phase))
        traced_p50 = pct([r.latency for r in traced_reads], 50)
        untraced_p50 = pct(latencies, 50)
        layer["obs.trace_overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            if untraced_p50 else 0.0)
        layer["client.read_p99_ms"] = end_to_end["read_p99_ms"][0]
        layer["client.lateness_p99_ms"] = pct(late, 99)
        layer["client.offered_qps"] = RATE
        layer["serve.adaptive_read_p50_ms"] = adaptive_p50
        layer["serve.adaptive_linger_ms"] = final["adaptive_linger_ms"]
        for name in builds[0]:
            layer[name] = median([build[name] for build in builds])
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and valid and cache_hits == 0,
            "end_to_end": end_to_end, "per_layer": layer, "notes": notes}


def net_metrics(phase: ledger.Phase) -> Dict[str, float]:
    """The websocket tier's own timings, matched to reads by request id."""
    admission = {}
    submit = {}
    codec: Dict[int, float] = {}
    for span in phase.spans:
        for rid in span.rids:
            if span.name == "net.admission":
                admission[rid] = span.dur
            elif span.name == "serve.submit":
                submit[rid] = span.dur
            elif span.name == "net.codec":
                codec[rid] = codec.get(rid, 0.0) + span.dur
    reads = [r for r in phase.reads if r.rid in admission and r.rid in submit]
    by_class = {}
    for read in phase.reads:
        by_class.setdefault(read.priority, []).append(read.latency * 1000.0)
    return {
        "net.self_ms_p50": pct([(r.latency - admission[r.rid]) * 1000.0
                                for r in reads], 50),
        "net.codec_ms_p50": pct([v * 1000.0 for v in codec.values()], 50),
        "net.admission_wait_ms_p99": pct(
            [(admission[r.rid] - submit[r.rid]) * 1000.0 for r in reads], 99),
        "net.interactive_p99_ms": pct(by_class.get("interactive", []), 99),
        "net.background_p99_ms": pct(by_class.get("background", []), 99),
    }
