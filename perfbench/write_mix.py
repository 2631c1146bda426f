"""write-mix: reads beside writes through ``QueryService`` over shards.

A thread-scatter engine, range-sharded on ``A1`` into :data:`SHARDS`
shards, behind a ``QueryService`` constructed with ``manager=``.  Two
closed-loop async callers each issue reads — drawn with Zipf skew from a
hot set of :data:`HOT` distinct selective top-k queries, which fits the
4096-entry ``ResultCache`` — and, with probability :data:`WRITE_SHARE`,
seeded inserts through ``QueryService.insert``.

The only workload with result-cache hits, predicate-aware invalidation,
the write drain, and the shard-stack rebuild ``ShardManager.insert``
forces (it drops the owning shard's whole index stack).

Why the sharded write path: with ``QueryService(Executor, relation=...)``
an insert is appended to the relation but the ranking cube keeps
answering from its pre-insert blocks (a known defect of the unsharded
path: on 2k rows the answer after one insert was ``(1632, 1972, 1048)``
against the oracle's ``(2000, 1632, 1972)``).  The manager-backed path
rebuilds the owning shard and is exact, so writes go there.

Sizes: shard stacks hold only the grid ranking cube (no signature cube
or R-tree), and the relation is small enough that one rebuild costs tens
of milliseconds — so a 10 s run holds over 100 writes while reads stay in
the cache-hit mode at the median and in the rebuild-stall mode at p99.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, List

import numpy as np

import common
import ledger
import probes
from common import median, pct
from probes import clock

ROWS = 5_000
SHARDS = 8
HOT = 500
ZIPF_S = 1.0
POOL_SIZE = 4
K_CHOICES = (1, 5, 10)
WRITE_SHARE = 0.06
CALLERS = 2


class HotSet:
    """:data:`HOT` distinct selective top-k queries and a Zipf sampler."""

    def __init__(self, relation, rng: np.random.Generator) -> None:
        from repro.engine import query_cache_key
        from repro.functions.linear import LinearFunction
        from repro.query import Predicate, TopKQuery

        ranking = list(relation.ranking_dims)
        dims = list(relation.selection_dims)
        pool = [LinearFunction(ranking, [float(w) for w in
                                         rng.uniform(0.5, 3.0, len(ranking))])
                for _ in range(POOL_SIZE)]
        selection = relation.selection_matrix()
        self.queries: List = []
        seen = set()
        while len(self.queries) < HOT:
            row = selection[int(rng.integers(len(selection)))]
            picked = rng.choice(len(dims), size=int(rng.integers(1, 3)),
                                replace=False)
            query = TopKQuery(
                Predicate.of({dims[i]: int(row[i]) for i in picked}),
                pool[int(rng.integers(POOL_SIZE))],
                int(K_CHOICES[int(rng.integers(len(K_CHOICES)))]))
            key = query_cache_key(query)
            if key not in seen:
                seen.add(key)
                self.queries.append(query)
        weights = 1.0 / np.arange(1, HOT + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng = rng

    def draw(self):
        """A fresh query object (so request ids stay per request)."""
        from repro.query import TopKQuery

        rank = int(np.searchsorted(self.cdf, self.rng.random()))
        query = self.queries[min(rank, HOT - 1)]
        return TopKQuery(query.predicate, query.function, query.k)


def new_row(relation, rng: np.random.Generator) -> Dict[str, object]:
    row: Dict[str, object] = {dim: int(rng.integers(8))
                              for dim in relation.selection_dims}
    row.update({dim: float(rng.random()) for dim in relation.ranking_dims})
    return row


class Book:
    """What the callers did, in order: reads with the insert counts that
    bound the relation state they could have seen, and write latencies."""

    def __init__(self, rows_before: int) -> None:
        self.rows_before = rows_before
        self.reads: List[ledger.Read] = []
        self.bounds: List[tuple] = []
        self.writes: List[float] = []
        self.issued = 0
        self.applied = 0


async def caller(service, hot: HotSet, relation, rng, book: Book,
                 deadline: float, rid_base: int, tag: bool) -> None:
    rid = rid_base
    while clock() < deadline:
        if rng.random() < WRITE_SHARE:
            row = new_row(relation, rng)
            book.issued += 1
            began = clock()
            await service.insert(row)
            book.writes.append(clock() - began)
            book.applied += 1
            continue
        query = hot.draw()
        if tag:
            probes.tag(query, rid)
        low = book.applied
        began = clock()
        try:
            result, error = await service.submit(query), None
        except Exception as exc:  # noqa: BLE001 — counted as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        book.reads.append(ledger.Read(rid, query, clock() - began,
                                      result, error))
        book.bounds.append((low, book.issued))
        rid += 1


async def drive(service, hot, relation, rng, seconds: float, rid_base: int,
                tag: bool, rows_before: int) -> Book:
    book = Book(rows_before)
    deadline = clock() + seconds
    await asyncio.gather(*(caller(service, hot, relation, rng, book,
                                  deadline, rid_base + n * 10_000_000, tag)
                           for n in range(CALLERS)))
    return book


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.serve import QueryService
    from repro.workloads.sharded import make_sharded_engine

    rng = np.random.default_rng(seed)
    if trace:
        probes.install_setup_probes()

    async def main():
        setups, builds = [], []
        for repeat in range(common.SETUP_REPEATS):
            mark = len(probes.RECORDER.spans)
            started = clock()
            relation = common.make_relation(ROWS, 2, seed)
            manager, engine = make_sharded_engine(
                relation, SHARDS, range_dim="A1", parallel=True,
                with_signature=False, with_skyline=False)
            hot = HotSet(relation, np.random.default_rng([seed, 1]))
            service = QueryService(engine, common.service_config(),
                                   manager=manager)
            await service.start()
            await service.submit_many(hot.queries)
            setups.append(clock() - started)
            builds.append(probes.build_seconds(
                probes.RECORDER.spans[mark:])["setup.ranking_cube_s"])
            index_bytes = common.index_bytes(
                manager.built_executors().values()) / relation.num_tuples
            if repeat < common.SETUP_REPEATS - 1:
                await service.close()
                engine.close()
        try:
            if trace:
                probes.uninstall()
                untraced = await drive(service, hot, relation, rng,
                                       seconds / 2, 1, False,
                                       relation.num_tuples)
                before = ledger.counters(engine)
                stacks = list(manager.built_executors().values())
                start = stack_misestimates(stacks)
                probes.install_engine_probes()
                probes.install_shard_probes()
                probes.install_serve_probes()
                traced = await drive(service, hot, relation, rng,
                                     seconds / 2, 100_000_000, True,
                                     relation.num_tuples)
                probes.uninstall()
                books = [untraced, traced]
                counts = (before, ledger.counters(engine))
                # Inserts drop shard stacks with their counters: count
                # misestimates over every stack that served the phase.
                missed = stack_misestimates({
                    id(e): e for e in stacks + probes.REBUILT}.values()) \
                    - start
            else:
                books = [await drive(service, hot, relation, rng, seconds, 1,
                                     False, relation.num_tuples)]
                counts = missed = None
            rss = common.peak_rss_mb([os.getpid()])
        finally:
            await service.close()
            engine.close()
        return (relation, setups, builds, books, counts, missed, rss,
                index_bytes)

    relation, setups, builds, books, counts, missed, rss, index_bytes = \
        asyncio.run(main())
    return summarise(relation, setups, builds, books, counts, missed, rss,
                     index_bytes, seconds, trace)


def stack_misestimates(executors) -> float:
    return sum(ledger.misestimates(executor.metrics.snapshot())
               for executor in executors)


def summarise(relation, setups, builds, books, counts, missed, rss,
              index_bytes, seconds, trace) -> dict:
    items = []
    attempted = failed = 0
    for book in books:
        attempted += len(book.reads) + len(book.writes)
        for read, (low, high) in zip(book.reads, book.bounds):
            if read.error is not None:
                failed += 1
            else:
                items.append((read.query, read.result,
                              (book.rows_before + low,
                               book.rows_before + high)))
    failed += len(items) - sum(common.verify(relation, items))
    measured = books[0]
    latencies = [r.latency for r in measured.reads if r.error is None]
    hits = sum(1 for r in measured.reads if r.result is not None
               and r.result.extra.get("result_cache") == "hit")
    length = seconds / 2 if trace else seconds
    notes = {
        "reads": len(measured.reads),
        "writes": len(measured.writes),
        "closed_loop_callers": CALLERS,
        "front_door_hit_share": round(hits / max(1, len(measured.reads)), 4),
        "read_ms_p90_p95_p98_p99_p995": [
            round(pct(latencies, q) * 1000.0, 2)
            for q in (90, 95, 98, 99, 99.5)],
        "setup_s_each": [round(s, 3) for s in setups],
    }
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "read_p50_ms": (pct(latencies, 50) * 1000.0, "ms"),
        "read_p99_ms": (pct(latencies, 99) * 1000.0, "ms"),
        "read_qps": (len(measured.reads) / length, "1/s"),
        "write_p50_ms": (pct(measured.writes, 50) * 1000.0, "ms"),
        "write_p90_ms": (pct(measured.writes, 90) * 1000.0, "ms"),
        "failed_share": (failed / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "index_bytes_per_row": (index_bytes, "B/row"),
    }
    layer: Dict[str, float] = {}
    if trace:
        traced = books[1]
        phase = ledger.Phase(
            reads=[r for r in traced.reads if r.error is None],
            spans=probes.RECORDER.spans, before=counts[0], after=counts[1],
            chain=("serve.submit",), engine_roots=("shard.execute_many",))
        layer = ledger.phase_metrics(phase)
        layer["engine.misestimates"] = missed
        layer["serve.write_p50_ms"] = end_to_end["write_p50_ms"][0]
        layer["serve.write_p90_ms"] = end_to_end["write_p90_ms"][0]
        layer["client.read_p99_ms"] = end_to_end["read_p99_ms"][0]
        layer["setup.ranking_cube_s"] = median(builds)
        traced_p50 = pct([r.latency for r in traced.reads], 50)
        untraced_p50 = pct(latencies, 50)
        layer["obs.trace_overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            if untraced_p50 else 0.0)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0,
            "end_to_end": end_to_end, "per_layer": layer, "notes": notes}
