"""A fixed pure-Python probe that measures how fast the host runs right now.

The benchmark's host is a share of a busy machine: the same op on the same
input takes 20-50% longer in one minute than in the next, on every
workload alike.  A run therefore times this probe next to its ops and
reports op times scaled to the speed the host had when the probe's
``REFERENCE_SECONDS`` were measured (see ``README.md``).  The probe is
the benchmark's own code, not the library's, so no change to the library
moves it.

The probe's work is that of the library's hot loops: Dijkstra with
``heapq`` over a dict-of-dicts graph.  A sample is taken before the first
op and after every op, and an op's time is multiplied by :func:`factor`
of the samples on either side of it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Dict

#: Nodes and out-degree of the probe's fixed random graph.
PROBE_NODES = 600
PROBE_DEGREE = 4
#: Sources swept by one probe sample.
PROBE_SOURCES = 36
#: Seconds of one probe sample on the reference host in its fast state
#: (``ENVIRONMENT.json``); scaled times are in seconds of that host.
REFERENCE_SECONDS = 0.030


def _probe_graph() -> Dict[int, Dict[int, int]]:
    rng = random.Random(20240501)
    graph: Dict[int, Dict[int, int]] = {node: {} for node in range(PROBE_NODES)}
    for node in range(PROBE_NODES):
        graph[node][(node + 1) % PROBE_NODES] = rng.randint(1, 100)
        for _ in range(PROBE_DEGREE - 1):
            graph[node][rng.randrange(PROBE_NODES)] = rng.randint(1, 100)
    return graph


_GRAPH = _probe_graph()


def _sweep(source: int) -> float:
    distances = {source: 0}
    frontier = [(0, source)]
    settled = set()
    while frontier:
        distance, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbour, weight in _GRAPH[node].items():
            candidate = distance + weight
            if candidate < distances.get(neighbour, candidate + 1):
                distances[neighbour] = candidate
                heapq.heappush(frontier, (candidate, neighbour))
    return max(distances.values())


def probe() -> float:
    """Seconds one probe sample takes now.

    The cyclic collector is paused for the sample, so the probe never pays
    for scanning the heap the workload left behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for k in range(PROBE_SOURCES):
            _sweep(k * (PROBE_NODES // PROBE_SOURCES))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Reference speed over the host's speed around an op between two samples."""
    return REFERENCE_SECONDS / ((before + after) / 2)
