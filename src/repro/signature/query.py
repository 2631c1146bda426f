"""Branch-and-bound query processing with boolean pruning (Algorithm 3).

The executor walks the R-tree best-first on the ranking function's lower
bounds and consults the (lazily loaded) signatures to skip any node or leaf
entry whose subtree contains no tuple satisfying the boolean predicate.
Because leaf-entry signature bits are exact, results need no further
boolean verification.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Tuple

from repro.cube.query import TopKAccumulator
from repro.query import Predicate, QueryResult, TopKQuery
from repro.signature.cube import SignatureRankingCube


class _FusedSignatureState:
    """Book-keeping of one query inside a fused branch-and-bound traversal."""

    __slots__ = ("reader", "topk", "live", "nodes", "charged", "peak")

    def __init__(self, reader, k: int) -> None:
        self.reader = reader
        self.topk = TopKAccumulator(k)
        self.live = True
        #: Nodes expanded while this query was live and the node reachable
        #: for it — its logical share of the traversal.
        self.nodes = 0
        #: Nodes attributed to this query (each expanded node is charged to
        #: exactly one consumer, so the group's charges sum to the work).
        self.charged = 0
        self.peak = 0


class SignatureTopKExecutor:
    """Runs top-k queries against a :class:`SignatureRankingCube`."""

    def __init__(self, cube: SignatureRankingCube) -> None:
        self.cube = cube
        self.relation = cube.relation
        self.rtree = cube.rtree

    def query(self, query: TopKQuery) -> QueryResult:
        """Execute Algorithm 3: ranking pruning + signature boolean pruning.

        A traversal of one (see :meth:`query_batch`).
        """
        return self.query_batch([query])[0]

    def query_batch(self, queries) -> List[QueryResult]:
        """Algorithm 3 for a same-function query group; a query is a group of one.

        Every query must rank by the same function (by value); predicates
        and ``k`` differ freely.  A single best-first heap over the R-tree,
        ordered by the function's lower bounds, drives the traversal; each
        heap entry carries the set of queries for which the node is
        *reachable* (every ancestor passed that query's signature test and
        could still beat its k-th score).  A node is expanded once for the
        whole group, its child bounds and leaf-entry scores are computed
        once, and each query consumes only the entries its own signatures
        admit.  A query retires once the heap minimum strictly exceeds its
        k-th score (a node whose bound ties it may hold a tied tuple with a
        smaller tid, which the canonical ``(score, tid)`` order must admit).

        Bit-identical to traversing per query: leaf-entry signature bits
        are exact, so every entry fed to a query is a true match, and the
        per-query pruning rules (signature test, strict k-th-score bound)
        only ever drop nodes whose subtree provably cannot contribute — a
        query's fed set is therefore a superset of its own traversal's
        that still contains only matches, which yields the same canonical
        ``(score, tid)`` top-k.

        Accounting mirrors the grid sweep: ``tuples_evaluated`` (= nodes
        expanded) is the attributed share of the shared traversal, the
        query's own count lands in ``extra["tuples_evaluated"]``, and the
        traversal's disk accesses are attributed to the first result.  A
        query whose signatures rule out the root gets an empty answer with
        zero counters.
        """
        queries = list(queries)
        if not queries:
            return []
        start = time.perf_counter()
        rtree_io_before = self.rtree.pager.stats.physical_reads
        sig_io_before = self.cube.store.pager.stats.physical_reads

        function = queries[0].function
        dims = self.rtree.dims
        dim_positions = [dims.index(d) for d in function.dims]

        states: List[_FusedSignatureState] = []
        for query in queries:
            query.validate(self.relation)
            states.append(_FusedSignatureState(
                self.cube.signature_reader(query.predicate), query.k))

        root = self.rtree.root()
        initial = []
        live = 0
        for index, state in enumerate(states):
            if state.reader is not None and not state.reader.test(()):
                state.live = False  # provably no match anywhere
            else:
                initial.append(index)
                live += 1

        if not initial:
            elapsed = time.perf_counter() - start
            return [QueryResult(tids=(), scores=(), elapsed_seconds=elapsed)
                    for _ in states]
        counter = 0
        peak_heap = 0
        heap: List[Tuple[float, int, object, Tuple[int, ...]]] = [
            (function.lower_bound(root.box), counter, root, tuple(initial))]
        while heap:
            peak_heap = max(peak_heap, len(heap))
            bound = heap[0][0]
            for state in states:
                # Strict per-query halt: every node still reachable for the
                # query bounds at least the heap minimum, so once that
                # minimum exceeds its k-th score the query is finished.
                if (state.live and state.topk.is_full()
                        and state.topk.kth_score < bound):
                    state.live = False
                    state.peak = peak_heap
                    live -= 1
            if not live:
                break
            bound, _, node, active = heapq.heappop(heap)
            consumers = [index for index in active if states[index].live]
            if not consumers:
                continue
            states[consumers[0]].charged += 1
            for index in consumers:
                states[index].nodes += 1
            if node.is_leaf:
                for entry in self.rtree.leaf_entries(node):
                    entry_path = node.path + (entry.position,)
                    score: Optional[float] = None
                    for index in consumers:
                        state = states[index]
                        if (state.reader is not None
                                and not state.reader.test(entry_path)):
                            continue
                        if score is None:
                            score = function.evaluate(
                                [entry.values[i] for i in dim_positions])
                        state.topk.offer(entry.tid, score)
            else:
                for child in self.rtree.children(node):
                    child_bound: Optional[float] = None
                    child_active: List[int] = []
                    for index in consumers:
                        state = states[index]
                        if (state.reader is not None
                                and not state.reader.test(child.path)):
                            continue
                        if child_bound is None:
                            child_bound = function.lower_bound(child.box)
                        if (state.topk.is_full()
                                and child_bound > state.topk.kth_score):
                            continue
                        child_active.append(index)
                    if child_active:
                        counter += 1
                        heapq.heappush(heap, (child_bound, counter, child,
                                              tuple(child_active)))

        rtree_io = self.rtree.pager.stats.physical_reads - rtree_io_before
        sig_io = self.cube.store.pager.stats.physical_reads - sig_io_before
        elapsed = time.perf_counter() - start
        results: List[QueryResult] = []
        for position, state in enumerate(states):
            if state.live:
                state.peak = peak_heap
            ranked = state.topk.ranked()
            first = position == 0
            results.append(QueryResult(
                tids=tuple(tid for tid, _ in ranked),
                scores=tuple(score for _, score in ranked),
                disk_accesses=(rtree_io + sig_io) if first else 0,
                states_generated=state.nodes,
                peak_heap_size=state.peak,
                tuples_evaluated=state.charged,
                elapsed_seconds=elapsed,
                extra={"tuples_evaluated": float(state.nodes),
                       "rtree_accesses": float(rtree_io) if first else 0.0,
                       "signature_accesses": float(sig_io) if first else 0.0},
            ))
        return results

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))
