"""analyst-heavy: heavy analytic queries through the library, in process.

One caller runs a closed loop against
``make_sharded_engine(rel, 2, scatter="processes", parallel=True)`` (hash
sharding) over a 30k-row relation with 3 ranking dimensions.  The mix:

* ~45% heavy top-k — k from 100 to 500, linear or squared-distance
  functions, 0–1 predicates;
* ~30% broad top-k — 0–1 predicates, k ≤ 10 (the cost planner sends
  these to the signature cube);
* ~25% skylines — half static, half dynamic (with targets), 0–1
  predicates.

No network and no service: cube sweeps, scoring, R-tree and skyline
search, scatter/gather and the process legs carry the time.  This is the
only workload where the cost model sends legs to worker processes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from typing import Dict, List

import numpy as np

import common
import ledger
import probes
from common import median, pct
from probes import clock

ROWS = 30_000
RANKING_DIMS = 3
SHARDS = 2
#: Warm-up continues past this many queries until every shard has a live
#: worker process and an in-process stack.
MIN_WARMUP = 8


#: One block of the mix, shuffled per block so every run sees the same
#: composition: (kind, with a predicate) slots — 45% heavy top-k (half
#: linear, half squared distance), 30% broad top-k, 25% skylines (half
#: static, half dynamic), each half with one equality predicate.
BLOCK = ([(kind, pred) for kind in ("heavy-linear", "heavy-distance")
          for pred in (False, True) for _ in range(9)]
         + [("broad", pred) for pred in (False, True) for _ in range(12)]
         + [(kind, pred) for kind in ("static-skyline", "dynamic-skyline")
            for pred in (False, True) for _ in range(5)])


class AnalystQueries:
    """The analytic mix; every query is distinct from every earlier one.

    Static skylines come from a finite set (25 predicates × 4 preference
    sets); once it is used up, the slot is drawn as a dynamic skyline.
    """

    def __init__(self, relation, rng: np.random.Generator) -> None:
        self.relation = relation
        self.rng = rng
        self.selection = relation.selection_matrix()
        self.sel_dims = list(relation.selection_dims)
        self.rank_dims = list(relation.ranking_dims)
        self.seen = set()
        self.slots: List[tuple] = []

    def _predicate(self, with_predicate: bool):
        from repro.query import Predicate

        if not with_predicate:
            return Predicate.of()
        row = self.selection[int(self.rng.integers(len(self.selection)))]
        dim = int(self.rng.integers(len(self.sel_dims)))
        return Predicate.of({self.sel_dims[dim]: int(row[dim])})

    def _weights(self) -> List[float]:
        return [float(w) for w in
                self.rng.uniform(0.5, 3.0, len(self.rank_dims))]

    def _point(self) -> List[float]:
        return [float(t) for t in self.rng.uniform(0, 1, len(self.rank_dims))]

    def _draw(self, kind: str, with_predicate: bool):
        from repro.functions.distance import SquaredDistanceFunction
        from repro.functions.linear import LinearFunction
        from repro.query import SkylineQuery, TopKQuery

        predicate = self._predicate(with_predicate)
        if kind == "heavy-linear":
            return TopKQuery(predicate, LinearFunction(
                self.rank_dims, self._weights()),
                int(self.rng.integers(100, 501)))
        if kind == "heavy-distance":
            return TopKQuery(predicate, SquaredDistanceFunction(
                self.rank_dims, self._point()),
                int(self.rng.integers(100, 501)))
        if kind == "broad":
            return TopKQuery(predicate, LinearFunction(
                self.rank_dims, self._weights()),
                int(self.rng.integers(1, 11)))
        if kind == "static-skyline":
            for _ in range(20):
                size = int(self.rng.integers(2, len(self.rank_dims) + 1))
                dims = tuple(sorted(self.rng.choice(self.rank_dims, size,
                                                    replace=False)))
                query = SkylineQuery(predicate, dims)
                if self._fresh(query):
                    return query
                predicate = self._predicate(with_predicate)
        return SkylineQuery(predicate, tuple(self.rank_dims),
                            tuple(self._point()))

    def _fresh(self, query) -> bool:
        from repro.engine import query_cache_key

        return query_cache_key(query) not in self.seen

    def next(self):
        from repro.engine import query_cache_key

        while True:
            if not self.slots:
                self.slots = [BLOCK[i] for i in
                              self.rng.permutation(len(BLOCK))]
            query = self._draw(*self.slots.pop())
            key = query_cache_key(query)
            if key not in self.seen:
                self.seen.add(key)
                return query


def stand_up(seed: int, gen_seed_rng):
    """Relation → sharded engine → warm-up; returns the live stack."""
    from repro.workloads.sharded import make_sharded_engine

    mark = len(probes.RECORDER.spans)
    started = clock()
    relation = common.make_relation(ROWS, RANKING_DIMS, seed)
    manager, engine = make_sharded_engine(relation, SHARDS,
                                          scatter="processes", parallel=True)
    gen = AnalystQueries(relation, gen_seed_rng)
    spawn_s = 0.0
    warmed = 0
    while True:
        query = gen.next()
        began = clock()
        mode = engine.execute(query).extra.get("scatter_mode")
        if mode == "processes" and not spawn_s:
            spawn_s = clock() - began
        warmed += 1
        stats = engine.cache_stats()
        if (warmed >= MIN_WARMUP and spawn_s
                and stats.get("shard_workers") == SHARDS
                and stats.get("shards_built") == SHARDS):
            break
    setup_s = clock() - started
    builds = probes.build_seconds(probes.RECORDER.spans[mark:])
    del probes.RECORDER.spans[mark:]
    builds["setup.worker_spawn_s"] = spawn_s
    return relation, manager, engine, gen, setup_s, builds


def closed_loop(engine, gen, seconds: float, next_rid: int,
                tag: bool) -> List[ledger.Read]:
    reads = []
    deadline = clock() + seconds
    rid = next_rid
    while clock() < deadline:
        query = gen.next()
        if tag:
            probes.tag(query, rid)
        began = clock()
        try:
            result = engine.execute(query)
            error = None
        except Exception as exc:  # noqa: BLE001 — counted as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        reads.append(ledger.Read(rid, query, clock() - began, result, error))
        rid += 1
    return reads


def run(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    if trace:
        probes.install_setup_probes()
    setups = []
    builds = []
    engine = None
    for _ in range(common.SETUP_REPEATS):
        if engine is not None:
            engine.close()
            del engine, manager, relation, gen
            gc.collect()
        relation, manager, engine, gen, setup_s, build = stand_up(seed, rng)
        setups.append(setup_s)
        builds.append(build)
    try:
        if trace:
            probes.uninstall()
            untraced = closed_loop(engine, gen, seconds / 2, 1, False)
            before = ledger.counters(engine)
            probes.install_engine_probes()
            probes.install_shard_probes()
            traced = closed_loop(engine, gen, seconds / 2, 1_000_000, True)
            probes.uninstall()
            after = ledger.counters(engine)
            phases = [untraced, traced]
        else:
            phases = [closed_loop(engine, gen, seconds, 1, False)]
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        rss = common.peak_rss_mb(pids)
        stats = engine.cache_stats()
        index_bytes = common.index_bytes(
            manager.built_executors().values()) / relation.num_tuples
    finally:
        engine.close()

    flat = [read for reads in phases for read in reads]
    answered = [read for read in flat if read.error is None]
    good = common.verify(relation, [(r.query, r.result, None)
                                    for r in answered])
    attempted = len(flat)
    failed = attempted - sum(good)
    hits = stats.get("result_hits", 0.0) + stats.get("shard_result_hits", 0.0)
    measured = phases[0]
    latencies = [r.latency for r in measured if r.error is None]
    notes = {
        "reads": len(measured),
        "closed_loop_callers": 1,
        "result_cache_hits": hits,
        "setup_s_each": [round(s, 3) for s in setups],
        "shard_workers": stats.get("shard_workers"),
    }
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "read_p50_ms": (pct(latencies, 50) * 1000.0, "ms"),
        "read_p99_ms": (pct(latencies, 99) * 1000.0, "ms"),
        "read_qps": (len(measured) / (seconds / 2 if trace else seconds),
                     "1/s"),
        "failed_share": (failed / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "index_bytes_per_row": (index_bytes, "B/row"),
    }
    layer: Dict[str, float] = {}
    if trace:
        phase = ledger.Phase(reads=[r for r in traced if r.error is None],
                             spans=probes.RECORDER.spans,
                             before=before, after=after,
                             engine_roots=("shard.execute",))
        layer = ledger.phase_metrics(phase)
        for name in builds[0]:
            layer[name] = median([build[name] for build in builds])
        traced_p50 = pct([r.latency for r in traced], 50)
        untraced_p50 = pct(latencies, 50)
        layer["client.read_p99_ms"] = end_to_end["read_p99_ms"][0]
        layer["obs.trace_overhead_pct"] = (
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            if untraced_p50 else 0.0)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and hits == 0,
            "end_to_end": end_to_end, "per_layer": layer, "notes": notes}
