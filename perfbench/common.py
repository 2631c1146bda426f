"""Shared pieces of the benchmark: data, statistics, oracles, output."""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run output (server statistics), git-ignored.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: How many times each run stands the workload's stack up; ``setup_s`` is
#: the median.
SETUP_REPEATS = 3

#: The service's micro-batch linger, held at its default 2 ms ceiling.
#: The adaptive linger (halve on single-request flushes, double on
#: partial ones) is bistable under these loads: runs settle in a fast or
#: a slow mode (serve-point read p50 3.4–4.4 ms vs 7.5–8.1 ms), which no
#: regression bound can gate.
LINGER_S = 0.002


def service_config():
    """``ServiceConfig`` defaults, except for the linger held fixed."""
    from repro.serve import ServiceConfig

    return ServiceConfig(min_linger=LINGER_S, max_linger=LINGER_S)


def use_source_tree() -> None:
    """Import the library from the checkout's ``src/`` (no install step)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_relation(rows: int, ranking_dims: int, seed: int):
    """The benchmark relation: 3 selection dims of cardinality 8."""
    from repro.workloads import SyntheticSpec, generate_relation

    return generate_relation(SyntheticSpec(
        num_tuples=rows, num_selection_dims=3,
        num_ranking_dims=ranking_dims, cardinality=8, seed=seed))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def index_bytes(executors: Iterable) -> int:
    """``size_in_bytes()`` of the ranking and signature cubes built."""
    total = 0
    for executor in executors:
        for name in ("ranking-cube", "signature-cube"):
            try:
                backend = executor.registry.get(name)
            except Exception:
                continue
            total += int(backend.cube.size_in_bytes())
    return total


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def topk_order(relation, query) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Every matching tuple in ``(score, tid)`` order, by
    :class:`TableScanTopK` (a full scan scoring tuple by tuple)."""
    from repro.baselines import TableScanTopK
    from repro.query import TopKQuery

    full = TableScanTopK(relation).query(TopKQuery(
        query.predicate, query.function, max(1, relation.num_tuples)))
    return full.tids, full.scores


def topk_prefix(order, k: int, rows: int):
    """The top ``k`` over the first ``rows`` rows (rows are only ever
    appended, so that relation state is a tid prefix)."""
    pairs = [(t, s) for t, s in zip(*order) if t < rows][:k]
    return tuple(t for t, _ in pairs), tuple(s for _, s in pairs)


def skyline_matches(relation, query, tids: Sequence[int]) -> bool:
    """Exact brute-force check of a (dynamic) skyline answer.

    Over every tuple satisfying the predicate: no tuple dominates an
    answer point, and every other tuple is dominated by an answer point —
    together, the answer is exactly the skyline.
    """
    candidates = np.nonzero(relation.mask_equal(query.predicate.as_dict))[0]
    answer = np.asarray(sorted(tids), dtype=np.int64)
    if len(np.intersect1d(answer, candidates)) != len(answer) \
            or len(set(answer.tolist())) != len(answer):
        return False
    if not len(candidates):
        return not len(answer)
    values = np.asarray(relation.ranking_values_bulk(
        candidates, query.preference_dims), dtype=np.float64)
    if query.targets is not None:
        values = np.abs(values - np.asarray(query.targets, dtype=np.float64))
    position = {int(t): i for i, t in enumerate(candidates)}
    members = np.asarray([position[int(t)] for t in answer], dtype=np.int64)
    covered = np.zeros(len(candidates), dtype=bool)
    covered[members] = True
    for point in values[members]:
        if np.any(np.all(values <= point, axis=1)
                  & np.any(values < point, axis=1)):
            return False
        covered |= (np.all(point <= values, axis=1)
                    & np.any(point < values, axis=1))
    return bool(covered.all())


#: (relation, items) of the verification in progress, set in each checker
#: process by :func:`_adopt`.
_VERIFY: tuple = ()

#: Checker processes that run the oracles.
CHECKERS = 2


def _adopt(relation, items) -> None:
    global _VERIFY
    use_source_tree()
    _VERIFY = (relation, items)


def _check_group(indexes: List[int]) -> List[Tuple[int, bool]]:
    from repro.query import TopKQuery

    relation, items = _VERIFY
    out = []
    order = None
    for i in indexes:
        query, result, rows = items[i]
        if not isinstance(query, TopKQuery):
            out.append((i, skyline_matches(relation, query, result.tids)))
            continue
        if order is None:
            order = topk_order(relation, query)
        answer = (tuple(result.tids), tuple(result.scores))
        low, high = rows if rows is not None else (relation.num_tuples,) * 2
        out.append((i, any(topk_prefix(order, query.k, n) == answer
                           for n in range(low, high + 1))))
    return out


def verify(relation, items: Sequence[tuple]) -> List[bool]:
    """Check ``(query, result, rows)`` items against brute force.

    ``rows`` is ``None`` (the whole relation) or an inclusive
    ``(low, high)`` range of relation prefixes the read may have seen.
    Top-k items sharing a predicate and function share one scan; the
    groups are spread over :data:`CHECKERS` checker processes.
    """
    import multiprocessing

    from repro.engine import query_cache_key
    from repro.query import TopKQuery

    groups: Dict[tuple, List[int]] = {}
    for i, (query, _, _) in enumerate(items):
        key = (query_cache_key(query)[1:3] if isinstance(query, TopKQuery)
               else ("skyline", i))
        groups.setdefault(key, []).append(i)
    work = list(groups.values())
    pool = multiprocessing.get_context("spawn").Pool(
        CHECKERS, initializer=_adopt, initargs=(relation, list(items)))
    try:
        chunks = pool.map(_check_group, work,
                          chunksize=max(1, len(work) // (8 * CHECKERS)))
    finally:
        pool.close()
        pool.join()
    ok = [False] * len(items)
    for chunk in chunks:
        for i, good in chunk:
            ok[i] = good
    return ok


def stop_children() -> None:
    """End every process this run started and wait until each has exited.

    Shard workers and checker processes are normally joined already.  The
    one that is not is ``multiprocessing``'s resource tracker, started by
    the first shared-memory block or spawn-context lock: left alone it
    outlives the benchmark by a moment, so it is stopped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(correct: bool, attempted: int, failed: int,
         metrics: Mapping[str, Tuple[float, str]],
         notes: Mapping[str, object],
         shown: Mapping[str, Tuple[float, str]]) -> None:
    """Human-readable lines, then the one-line JSON result (last line).

    ``metrics`` go into the JSON; ``shown`` are user-visible figures the
    benchmark prints but does not gate (see DESIGN.md).
    """
    for name, value in notes.items():
        print(f"# {name}: {value}")
    for name, (value, unit) in shown.items():
        print(f"# {name} = {value:.6g} {unit} (printed, not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
