"""Dependency-free kernel backend over the flat CSR arrays.

Same semantics as the NumPy backend, selected automatically when NumPy is
unavailable or explicitly via ``REPRO_BACKEND=python``.  The kernels walk one
adjacency per snapshot -- a list of ``(neighbor, weight)`` tuples per node,
built once from ``indptr``/``indices``/``weights`` and memoized in
``csr.memo`` -- so no loop slices or indexes the flat arrays per visit.
All-pairs runs one small-heap Dijkstra per source; on the 500-node instance
of ``benchmarks/test_bench_kernels.py`` that measured 1.4x the seed
dict-of-dicts Dijkstra (2-CPU x86-64 machine, CPython 3.11).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

from repro.kernels.backend import KernelBackend, register_backend
from repro.kernels.csr import CSRGraph

__all__ = ["PythonBackend"]

_INF = math.inf
_ADJACENCY_KEY = "python:adjacency"

Adjacency = List[List[Tuple[int, int]]]


def _adjacency(csr: CSRGraph) -> Adjacency:
    """Per-node ``(neighbor, weight)`` lists, memoized on the snapshot."""
    adjacency = csr.memo.get(_ADJACENCY_KEY)
    if adjacency is None:
        indptr = csr.indptr
        pairs = list(zip(csr.indices, csr.weights))
        adjacency = [pairs[indptr[i] : indptr[i + 1]] for i in range(csr.num_nodes)]
        csr.memo[_ADJACENCY_KEY] = adjacency
    return adjacency


def _dijkstra(adjacency: Adjacency, source: int) -> List[float]:
    heappush, heappop = heapq.heappush, heapq.heappop
    dist: List[float] = [_INF] * len(adjacency)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale heap entry
        for v, w in adjacency[u]:
            candidate = d + w
            if candidate < dist[v]:
                dist[v] = candidate
                heappush(heap, (candidate, v))
    return dist


class PythonBackend(KernelBackend):
    """Heap Dijkstra and frontier Bellman-Ford over a memoized adjacency."""

    name = "python"

    # ------------------------------------------------------------------ #
    def sssp(self, csr: CSRGraph, source: int) -> List[float]:
        return _dijkstra(_adjacency(csr), source)

    def multi_source_sssp(
        self, csr: CSRGraph, sources: Sequence[int]
    ) -> List[List[float]]:
        """One independent Dijkstra per source over the shared adjacency."""
        adjacency = _adjacency(csr)
        return [_dijkstra(adjacency, source) for source in sources]

    # ------------------------------------------------------------------ #
    def bounded_hop(
        self, csr: CSRGraph, sources: Sequence[int], max_hops: int
    ) -> List[List[float]]:
        """Synchronous hop-bounded relaxation (the Section 3.1 DP).

        Round ``h`` computes ``d_h(v) = min(d_{h-1}(v), min_u d_{h-1}(u) +
        w(u, v))`` from a frontier of nodes improved in round ``h - 1``; after
        ``max_hops`` rounds each entry is the least length over paths with at
        most ``max_hops`` edges.
        """
        adjacency = _adjacency(csr)
        n = csr.num_nodes
        rows: List[List[float]] = []
        for source in sources:
            dist: List[float] = [_INF] * n
            dist[source] = 0
            frontier = [source]
            for _ in range(max_hops):
                if not frontier:
                    break
                updates = {}
                for u in frontier:
                    base = dist[u]
                    for v, w in adjacency[u]:
                        candidate = base + w
                        if candidate < updates.get(v, dist[v]):
                            updates[v] = candidate
                frontier = []
                for v, value in updates.items():
                    if value < dist[v]:
                        dist[v] = value
                        frontier.append(v)
            rows.append(dist)
        return rows


register_backend(PythonBackend())
