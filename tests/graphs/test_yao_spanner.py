"""The Yao_k stretch bound of :func:`yao_spanner_graph`.

For ``k > 6`` cones the Yao graph is a ``t``-spanner of the Euclidean
complete graph with ``t = 1 / (1 - 2 sin(pi / k))`` (Yao 1982; see Li and
Zhan, arXiv 1604.05814, for the tighter bounds known since).  The classical
argument: if ``q`` lies in a cone of ``p`` whose nearest point is ``r``, then
``|rq| <= |pq| - (1 - 2 sin(pi/k)) |pr|``, so greedily following nearest
cone neighbours reaches ``q`` along a simple path of Euclidean length at most
``t |pq|``.

The generator rounds each edge to ``max(1, round(scale * length))``, which
is within one unit of the scaled length, so a simple path of ``h`` hops
gains at most ``h <= n - 1`` units and loses at most ``h / 2``.  The test
regenerates the points from the seed exactly as the generator draws them
and checks every pair against both sides.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graphs import yao_spanner_graph
from repro.graphs.shortest_paths import all_pairs_distances

SCALE = 10**6


def _points(num_nodes, seed):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(num_nodes)]


@pytest.mark.parametrize("num_cones", [7, 8])
@pytest.mark.parametrize("num_nodes", [12, 40, 90])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_distance_within_yao_stretch(num_cones, num_nodes, seed):
    graph = yao_spanner_graph(
        num_nodes, num_cones=num_cones, weight_scale=SCALE, seed=seed
    )
    points = _points(num_nodes, seed)
    stretch = 1.0 / (1.0 - 2.0 * math.sin(math.pi / num_cones))
    slack = num_nodes - 1
    distances = all_pairs_distances(graph)
    for p in range(num_nodes):
        for q in range(p + 1, num_nodes):
            euclidean = SCALE * math.dist(points[p], points[q])
            distance = distances[p][q]
            assert distance <= stretch * euclidean + slack, (p, q)
            assert distance >= euclidean - slack / 2, (p, q)


def test_edge_weights_are_rounded_scaled_lengths():
    graph = yao_spanner_graph(40, num_cones=7, weight_scale=SCALE, seed=3)
    points = _points(40, 3)
    for u, v, weight in graph.edges():
        assert weight == max(1, round(SCALE * math.dist(points[u], points[v])))
