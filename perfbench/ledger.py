"""Per-layer metrics of one traced phase: spans, results, and counters.

Every workload hands over the same material — its reads (latency,
decoded result, request id), the spans of the traced phase, and metric
counters before and after — and gets back the per-layer metrics its
stack reaches.  Layers the workload never reaches are left out; the
caller reports them as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from common import mean, pct
from probes import Span, children_index, layer_of, path_layers, union

#: Backends whose share of legs is reported as ``engine.route_share.*``.
BACKENDS = ("ranking-cube", "signature-cube", "table-scan", "skyline",
            "skyline-scan")
#: Layer of each backend's per-query counters.
BACKEND_LAYER = {"ranking-cube": "cube", "signature-cube": "signature",
                 "skyline": "skyline"}
LEDGER_LAYERS = ("client", "net", "serve", "shard", "engine", "cube",
                 "signature", "skyline", "baselines", "functions")


@dataclass
class Read:
    rid: int
    query: object
    latency: float
    result: object = None
    error: Optional[str] = None
    priority: str = "interactive"


@dataclass
class Phase:
    """One traced phase of a workload."""

    reads: List[Read]
    spans: List[Span]
    before: Mapping[str, float] = field(default_factory=dict)
    after: Mapping[str, float] = field(default_factory=dict)
    #: Names of the request-path spans between the caller and the engine
    #: call, outermost first (matched to reads by request id).
    chain: Sequence[str] = ()
    #: Span names that are the engine call a request is served by.
    engine_roots: Sequence[str] = ()


def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1000.0 for v in values]


def _delta(phase: Phase, name: str) -> float:
    return float(phase.after.get(name, 0.0)) - float(phase.before.get(name, 0.0))


def leg_backends(result) -> List[str]:
    extra = result.extra
    shard_backends = str(extra.get("shard_backends", "") or "")
    if extra.get("backend") == "scatter-gather":
        if shard_backends in ("", "-"):
            return []
        return [part.split(":", 1)[1] for part in shard_backends.split(",")]
    return [str(extra.get("backend", "?"))]


def result_metrics(reads: Sequence[Read]) -> Dict[str, float]:
    """Counts read off the returned results (cache hits excluded)."""
    out: Dict[str, float] = {}
    executed = [r for r in reads if r.result is not None
                and r.result.extra.get("result_cache") != "hit"]
    legs: Dict[str, int] = {}
    total_legs = 0
    by_backend: Dict[str, list] = {}
    for read in executed:
        backends = leg_backends(read.result)
        total_legs += len(backends)
        for name in backends:
            legs[name] = legs.get(name, 0) + 1
        if backends and len(set(backends)) == 1:
            by_backend.setdefault(backends[0], []).append(read.result)
    for name in BACKENDS:
        out[f"engine.route_share.{name}"] = (legs.get(name, 0) / total_legs
                                             if total_legs else 0.0)
    for backend, layer in BACKEND_LAYER.items():
        results = by_backend.get(backend, [])
        if not results:
            continue
        out[f"{layer}.disk_accesses_per_query"] = mean(
            [r.disk_accesses for r in results])
        if layer == "skyline":
            out["skyline.nodes_expanded_per_query"] = mean(
                [r.nodes_expanded for r in results])
            continue
        tuples = [float(r.extra.get("tuples_evaluated", r.tuples_evaluated))
                  for r in results]
        out[f"{layer}.tuples_per_query"] = mean(tuples)
        returned = sum(len(r.tids) for r in results)
        out[f"{layer}.useful_ratio"] = returned / sum(tuples) if sum(tuples) else 0.0
    scattered = [r.result for r in executed
                 if r.result.extra.get("backend") == "scatter-gather"]
    if scattered:
        out["shard.legs_per_query"] = mean(
            [len(leg_backends(r)) for r in scattered])
        out["shard.pruned_per_query"] = mean(
            [_count(r.extra.get("shards_pruned")) for r in scattered])
        out["shard.skipped_per_query"] = mean(
            [_count(r.extra.get("shards_skipped")) for r in scattered])
    served = [r.result for r in reads if r.result is not None
              and "queue_wait" in r.result.extra]
    if served:
        waits = _ms([float(r.extra["queue_wait"]) for r in served])
        out["serve.queue_wait_ms_p50"] = pct(waits, 50)
        out["serve.queue_wait_ms_p99"] = pct(waits, 99)
        out["serve.batch_size_mean"] = mean(
            [float(r.extra.get("batch_size", 1.0)) for r in served])
        out["serve.fused_share"] = mean(
            [1.0 if float(r.extra.get("fused_group_size", 1.0)) > 1 else 0.0
             for r in served])
    return out


def _count(value) -> int:
    text = str(value or "-")
    return 0 if text == "-" else len(text.split("|"))


def span_metrics(phase: Phase) -> Dict[str, float]:
    """Timings read off the spans (and worker-shipped breakdowns)."""
    out: Dict[str, float] = {}
    spans = phase.spans
    by_sid = {span.sid: span for span in spans}
    index = children_index(spans)
    runs: Dict[str, List[float]] = {}
    plans: List[float] = []
    engine_calls: List[float] = []
    tuples = 0
    for span in spans:
        tuples += span.fn_tuples
        if span.name.endswith(".run"):
            runs.setdefault(layer_of(span.name), []).append(span.dur)
        elif span.name == "engine.plan":
            plans.append(span.dur)
        elif span.name.startswith("engine.execute"):
            engine_calls.append(span.dur)
        remote = span.attrs.get("remote") if span.attrs else None
        if remote is not None:
            tuples += remote["tuples"]
            plans.extend(remote["plans"])
            engine_calls.append(remote["total_s"])
            for name, seconds in remote["runs"]:
                runs.setdefault(layer_of(name), []).append(seconds)
    for layer in ("cube", "signature", "skyline"):
        if runs.get(layer):
            out[f"{layer}.run_ms_p50"] = pct(_ms(runs[layer]), 50)
    if plans:
        out["engine.plan_ms_p50"] = pct(_ms(plans), 50)
        out["engine.plan_share"] = (sum(plans) / sum(engine_calls)
                                    if engine_calls else 0.0)
    if phase.reads:
        out["functions.tuples_scored"] = tuples / len(phase.reads)

    scatters = [s for s in spans if s.name in ("shard.execute",
                                               "shard.execute_many")]
    if scatters:
        out["shard.scatter_self_ms_p50"] = pct(_ms([
            s.dur - union(index.get(s.sid, []))
            for s in scatters]), 50)
    process_legs = [s.dur for s in spans if s.name == "shard.process_leg"
                    and s.attrs.get("op") in ("execute", "execute_many")]
    thread_legs = [s.dur for s in spans
                   if s.name.startswith("engine.execute")
                   and s.parent is not None and s.parent in by_sid
                   and by_sid[s.parent].name.startswith("shard.")]
    if scatters:
        legs = len(process_legs) + len(thread_legs)
        out["shard.process_leg_share"] = len(process_legs) / legs if legs else 0.0
        out["shard.process_leg_ms_p50"] = pct(_ms(process_legs), 50)
        out["shard.thread_leg_ms_p50"] = pct(_ms(thread_legs), 50)
        rebuilds = [s.dur for s in spans if s.name == "shard.rebuild"]
        out["shard.rebuilds"] = float(len(rebuilds))
        out["shard.rebuild_ms_p50"] = pct(_ms(rebuilds), 50)
    roots = [s for s in spans if s.parent is None
             and s.name in phase.engine_roots]
    if roots and phase.chain:
        out["serve.engine_call_ms_p50"] = pct(_ms([s.dur for s in roots]), 50)
    inserts = [s for s in spans if s.name == "serve.insert"]
    applied = [s for s in spans if s.name == "shard.insert"]
    if inserts:
        drains = []
        for outer in inserts:
            inner = [s.dur for s in applied
                     if s.t0 >= outer.t0 and s.t1 <= outer.t1]
            drains.append(outer.dur - sum(inner))
        out["serve.write_drain_ms_p50"] = pct(_ms(drains), 50)
    return out


def blocking_path(phase: Phase) -> Dict[int, Dict[str, float]]:
    """Seconds per layer along each read's blocking path (sums to its
    latency): the request-path spans matched by request id, then the
    engine call's own span tree."""
    by_rid: Dict[str, Dict[int, Span]] = {name: {} for name in phase.chain}
    engine_of: Dict[int, Span] = {}
    for span in phase.spans:
        if span.name in by_rid:
            for rid in span.rids:
                by_rid[span.name][rid] = span
        elif span.parent is None and span.name in phase.engine_roots:
            for rid in span.rids:
                engine_of[rid] = span
    index = children_index(phase.spans)
    paths: Dict[int, Dict[str, float]] = {}
    for read in phase.reads:
        engine = engine_of.get(read.rid)
        chain = [by_rid[name].get(read.rid) for name in phase.chain]
        if engine is None or any(span is None for span in chain):
            continue
        layers: Dict[str, float] = {}
        outer_layer, outer_dur = "client", read.latency
        for span in chain + [engine]:
            layers[outer_layer] = layers.get(outer_layer, 0.0) \
                + outer_dur - span.dur
            outer_layer, outer_dur = layer_of(span.name), span.dur
        for layer, seconds in path_layers(engine, phase.spans, index).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        paths[read.rid] = layers
    return paths


def ledger_metrics(phase: Phase) -> Dict[str, float]:
    """Mean blocking-path layer times of the reads around the median."""
    out: Dict[str, float] = {}
    paths = blocking_path(phase)
    reads = [r for r in phase.reads if r.rid in paths]
    if not reads:
        return out
    latencies = [r.latency for r in reads]
    low, high = pct(latencies, 45), pct(latencies, 55)
    band = [paths[r.rid] for r in reads if low <= r.latency <= high]
    total = 0.0
    for layer in LEDGER_LAYERS:
        value = mean([p.get(layer, 0.0) for p in band]) * 1000.0
        out[f"ledger.{layer}_ms"] = value
        total += value
    out["ledger.sum_ms"] = total
    out["ledger.read_p50_ms"] = pct(latencies, 50) * 1000.0
    fn = sum(p.get("functions", 0.0) for p in paths.values())
    out["functions.score_share"] = fn / sum(latencies) if latencies else 0.0
    return out


def counter_metrics(phase: Phase) -> Dict[str, float]:
    out: Dict[str, float] = {}
    hits = _delta(phase, "cache.result_hits")
    misses = _delta(phase, "cache.result_misses")
    out["engine.result_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["engine.misestimates"] = misestimates(phase.after) \
        - misestimates(phase.before)
    out["fault.retries"] = _delta(phase, "fault.retries")
    out["fault.breaker_opens"] = _delta(phase, "breaker.opened")
    return out


def phase_metrics(phase: Phase) -> Dict[str, float]:
    out = result_metrics(phase.reads)
    out.update(span_metrics(phase))
    out.update(ledger_metrics(phase))
    out.update(counter_metrics(phase))
    return out


def misestimates(snapshot: Mapping[str, float]) -> float:
    """``planner.misestimates.*`` summed over backends."""
    return sum(value for name, value in snapshot.items()
               if name.startswith("planner.misestimates."))


def counters(engine) -> Dict[str, float]:
    """Metric counters and front-door cache statistics of an engine."""
    snap = {name: float(value) for name, value in
            engine.metrics_snapshot().items()
            if isinstance(value, (int, float))}
    snap.update({f"cache.{name}": float(value)
                 for name, value in engine.cache_stats().items()})
    return snap
