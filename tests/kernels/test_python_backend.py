"""The pure-Python backend's memoized adjacency and its per-source Dijkstra.

The backend derives one ``(neighbor, weight)`` adjacency per CSR snapshot and
memoizes it in ``csr.memo``.  These tests pin that the memo never leaks
across snapshots -- re-weighted clones and post-mutation snapshots get their
own -- and that the backend-level batch equals independent single-source runs
on the awkward inputs (duplicate sources, no sources, unreachable nodes).
"""

from __future__ import annotations

import math

import pytest

from repro.graphs import WeightedGraph, random_weighted_graph
from repro.graphs.rounding import rounded_weight, rounded_weights, rounding_levels
from repro.graphs.shortest_paths import (
    bounded_hop_distances_reference,
    dijkstra_reference,
)
from repro.kernels import (
    CSRGraph,
    available_backends,
    batched_bellman_ford,
    dijkstra_csr,
    get_backend,
    multi_source_dijkstra,
)

pytestmark = pytest.mark.kernels


def _index_row(csr: CSRGraph, distances) -> list:
    """A label-keyed reference table as an index-space row."""
    return [distances[node] for node in csr.nodes]


class TestReweightedClone:
    def test_clone_does_not_reuse_parent_adjacency(self, triangle_graph):
        csr = CSRGraph.from_graph(triangle_graph)
        python = get_backend("python")
        # Memoize the adjacency on the parent snapshot first.
        assert python.sssp(csr, csr.index[0]) == _index_row(csr, {0: 0, 1: 3, 2: 7})
        doubled = csr.with_weights([w * 2 for w in csr.weights])
        assert python.sssp(doubled, doubled.index[0]) == _index_row(
            csr, {0: 0, 1: 6, 2: 14}
        )
        # ...and the parent still answers under its own weights.
        assert python.sssp(csr, csr.index[0]) == _index_row(csr, {0: 0, 1: 3, 2: 7})

    def test_lemma_3_2_levels_follow_rounded_weights(self):
        graph = random_weighted_graph(20, average_degree=3.0, max_weight=50, seed=4)
        csr = CSRGraph.from_graph(graph)
        sources = list(graph.nodes)[:5]
        hop_bound, epsilon = 3, 0.5
        multi_source_dijkstra(csr, sources, backend="python")  # warm the parent
        for level in range(rounding_levels(graph, hop_bound, epsilon)):
            clone = csr.with_weights(
                [rounded_weight(w, hop_bound, epsilon, level) for w in csr.weights]
            )
            reweighted = rounded_weights(graph, hop_bound, epsilon, level)
            tables = multi_source_dijkstra(clone, sources, backend="python")
            for source in sources:
                assert tables[source] == dijkstra_reference(reweighted, source)


class TestMutation:
    def test_distances_follow_add_and_remove_edge(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 4)
        graph.add_edge(1, 2, 4)
        graph.add_node(3)
        assert dijkstra_csr(graph, 0, backend="python") == {
            0: 0, 1: 4, 2: 8, 3: math.inf
        }
        graph.add_edge(0, 2, 3)
        graph.add_edge(2, 3, 1)
        assert dijkstra_csr(graph, 0, backend="python") == {0: 0, 1: 4, 2: 3, 3: 4}
        assert batched_bellman_ford(graph, [0], 1, backend="python")[0] == {
            0: 0, 1: 4, 2: 3, 3: math.inf
        }
        graph.remove_edge(0, 2)
        assert dijkstra_csr(graph, 0, backend="python") == {0: 0, 1: 4, 2: 8, 3: 9}
        for hops in range(4):
            assert batched_bellman_ford(graph, [0], hops, backend="python")[0] == (
                bounded_hop_distances_reference(graph, 0, hops)
            )


class TestBackendMultiSource:
    @pytest.fixture
    def split_graph(self) -> WeightedGraph:
        """Two components: a weighted triangle and a separate edge."""
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2, 4)
        graph.add_edge(0, 2, 10)
        graph.add_edge(5, 6, 2)
        return graph

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_duplicates_and_unreachable_match_single_source(
        self, backend_name, split_graph
    ):
        csr = CSRGraph.from_graph(split_graph)
        backend = get_backend(backend_name)
        sources = [csr.index[label] for label in (0, 5, 0, 2, 5)]
        rows = backend.multi_source_sssp(csr, sources)
        assert len(rows) == len(sources)
        for source, row in zip(sources, rows):
            expected = _index_row(
                csr, dijkstra_reference(split_graph, csr.nodes[source])
            )
            assert [float(value) for value in row] == expected
            assert [float(value) for value in backend.sssp(csr, source)] == expected
        # Rows from the triangle cannot reach the far edge, and vice versa.
        far = [csr.index[5], csr.index[6]]
        assert [rows[0][i] for i in far] == [math.inf, math.inf]
        assert [rows[1][i] for i in range(3)] == [math.inf] * 3

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_source_list(self, backend_name, split_graph):
        csr = CSRGraph.from_graph(split_graph)
        assert list(get_backend(backend_name).multi_source_sssp(csr, [])) == []
