"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
import threading

import pytest

from repro.congest.engine.base import available_engines
from repro.service import GraphSpec, JobState, ResultCache, RunSpec, SimulationService
from repro.service.cache import cache_key, semantic_key

pytestmark = pytest.mark.service


def sssp_spec(**overrides) -> RunSpec:
    fields = dict(
        protocol="bellman-ford-sssp",
        graph=GraphSpec(generator="yao_spanner", params={"num_nodes": 24, "seed": 7}),
        params={"source": 0},
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestKeys:
    def test_exact_key_depends_on_engine(self):
        digest = "ab" * 32
        a = cache_key(sssp_spec(engine="sparse"), digest)
        b = cache_key(sssp_spec(engine="dense"), digest)
        assert a != b

    def test_semantic_key_ignores_execution_fields(self):
        digest = "ab" * 32
        a = semantic_key(sssp_spec(engine="sparse", backend="python"), digest)
        b = semantic_key(sssp_spec(engine="dense"), digest)
        assert a == b

    def test_semantic_key_still_sees_protocol_params(self):
        digest = "ab" * 32
        a = semantic_key(sssp_spec(params={"source": 0}), digest)
        b = semantic_key(sssp_spec(params={"source": 1}), digest)
        assert a != b

    def test_key_depends_on_graph_digest(self):
        spec = sssp_spec()
        assert cache_key(spec, "00" * 32) != cache_key(spec, "11" * 32)

    def test_key_depends_on_bandwidth_config(self):
        digest = "ab" * 32
        assert cache_key(sssp_spec(), digest) != cache_key(
            sssp_spec(bandwidth_words=4), digest
        )

    def test_graph_mutation_changes_the_key(self):
        # The full chain: mutate a graph -> content_digest changes -> the
        # cache key for an identical spec changes.
        graph = GraphSpec(edges=((0, 1, 2), (1, 2, 3))).build()
        spec = sssp_spec()
        before = cache_key(spec, graph.content_digest())
        graph.add_edge(0, 2, 9)
        assert cache_key(spec, graph.content_digest()) != before


class TestWarmHitsEqualFreshRuns:
    @pytest.mark.parametrize("engine", available_engines())
    def test_warm_hit_equals_fresh_run(self, engine):
        spec = sssp_spec(engine=engine)
        cold_service = SimulationService(max_workers=1)
        fresh = cold_service.run(spec)
        cold_service.close()

        warm_service = SimulationService(max_workers=1)
        first = warm_service.run(spec)
        second = warm_service.run(spec)
        assert first == fresh
        assert second == fresh
        assert warm_service.cache.stats.hits == 1
        assert warm_service.cache.stats.misses == 1
        warm_service.close()

    def test_cached_result_not_aliased(self):
        service = SimulationService(max_workers=1)
        spec = sssp_spec()
        first = service.run(spec)
        first.outputs[0]["poisoned"] = True
        second = service.run(spec)
        assert "poisoned" not in second.outputs[0]
        service.close()


class TestCrossEngine:
    def test_default_never_serves_cross_engine(self):
        service = SimulationService(max_workers=1)
        a = service.run(sssp_spec(engine="sparse"))
        b = service.run(sssp_spec(engine="legacy"))
        assert a == b  # engine invariance: equal results...
        assert service.cache.stats.hits == 0  # ...but both computed
        assert service.cache.stats.misses == 2
        service.close()

    def test_opt_in_serves_cross_engine(self):
        service = SimulationService(max_workers=1, allow_cross_engine=True)
        a = service.run(sssp_spec(engine="sparse"))
        b = service.run(sssp_spec(engine="legacy"))
        assert a == b
        assert service.cache.stats.hits == 1
        assert service.cache.stats.cross_engine_hits == 1
        service.close()

    def test_non_invariant_protocol_never_cross_served(self):
        # Same semantic request, different engine, but the protocol does
        # *not* declare engine invariance: the cache must miss even though
        # the caller opted in.
        cache = ResultCache()
        spec = sssp_spec(engine="sparse")
        digest = "cd" * 32
        from repro.congest.engine.types import RoundReport, SimulationResult

        cache.store(
            spec,
            digest,
            SimulationResult(
                outputs={}, report=RoundReport(1, 0, 0, 0, 0, "x"), contexts={}
            ),
        )
        other = spec.with_engine("legacy")
        assert (
            cache.lookup(other, digest, allow_cross_engine=True, engine_invariant=False)
            is None
        )
        assert (
            cache.lookup(other, digest, allow_cross_engine=True, engine_invariant=True)
            is not None
        )


class TestLruAndDiskTier:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        service = SimulationService(max_workers=1, cache=cache)
        specs = [
            sssp_spec(params={"source": s}) for s in (0, 1, 2)
        ]
        for spec in specs:
            service.run(spec)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) entry must re-run; the newest still hits.
        service.run(specs[2])
        assert cache.stats.hits == 1
        service.run(specs[0])
        assert cache.stats.misses == 4
        service.close()

    def test_disk_tier_survives_processes(self, tmp_path):
        spec = sssp_spec(engine="sparse")
        first = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        fresh = first.run(spec)
        first.close()

        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        document = json.loads(files[0].read_text())
        assert document["protocol"] == "bellman-ford-sssp"
        assert document["engine"] == "sparse"

        # A brand-new service (fresh LRU) with the same directory hits disk.
        second = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        warm = second.run(spec)
        assert warm == fresh
        assert second.cache.stats.disk_hits == 1
        assert second.cache.stats.hits == 1
        second.close()

    def test_disk_tier_cross_engine_scan(self, tmp_path):
        spec = sssp_spec(engine="sparse")
        first = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        fresh = first.run(spec)
        first.close()

        second = SimulationService(
            max_workers=1,
            cache=ResultCache(directory=tmp_path),
            allow_cross_engine=True,
        )
        warm = second.run(spec.with_engine("legacy"))
        assert warm == fresh
        assert second.cache.stats.cross_engine_hits == 1
        second.close()

    def test_results_schema_bump_misses_memory_and_disk(self, tmp_path, monkeypatch):
        import repro.service.cache as cache_module

        spec = sssp_spec(engine="sparse")
        digest, _ = spec.graph.digest_with_graph()
        result = SimulationService(max_workers=1).run(spec)
        cache = ResultCache(directory=tmp_path)
        cache.store(spec, digest, result)
        assert cache.lookup(spec, digest) == (result, False)

        monkeypatch.setattr(
            cache_module,
            "RESULTS_SCHEMA_VERSION",
            cache_module.RESULTS_SCHEMA_VERSION + 1,
        )
        # Memory tier: the live cache still holds the old entry, yet misses,
        # also for a cross-engine lookup through the semantic index.
        assert cache.lookup(spec, digest) is None
        assert cache.lookup(spec.with_engine("legacy"), digest, allow_cross_engine=True) is None
        # Disk tier: a fresh cache over the same directory misses too.
        fresh = ResultCache(directory=tmp_path)
        assert fresh.lookup(spec, digest) is None
        assert fresh.lookup(spec.with_engine("legacy"), digest, allow_cross_engine=True) is None
        assert fresh.stats.disk_hits == 0
        assert (cache.stats.misses, fresh.stats.misses) == (2, 2)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        spec = sssp_spec()
        service = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        service.run(spec)
        service.close()
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        again = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        again.run(spec)
        assert again.cache.stats.misses == 1
        assert again.cache.stats.hits == 0
        again.close()

    def test_clear_drops_memory_not_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        service = SimulationService(max_workers=1, cache=cache)
        spec = sssp_spec()
        service.run(spec)
        cache.clear()
        assert len(cache) == 0
        service.run(spec)
        assert cache.stats.disk_hits == 1
        service.close()

    def test_concurrent_stores_of_one_key(self, tmp_path):
        # Writers of one key must not share a temp file: one writer's replace
        # would move the file another is about to replace (FileNotFoundError).
        spec = sssp_spec()
        digest, _ = spec.graph.digest_with_graph()
        result = SimulationService(max_workers=1).run(spec)
        cache = ResultCache(directory=tmp_path)
        threads, stores = 4, 100
        barrier = threading.Barrier(threads)
        errors = []

        def writer():
            barrier.wait()
            for _ in range(stores):
                try:
                    cache.store(spec, digest, result)
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)

        workers = [threading.Thread(target=writer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == []
        assert cache.stats.stores == threads * stores
        assert cache.stats.store_failures == 0
        assert [path.name for path in tmp_path.iterdir()] == [
            f"{cache_key(spec, digest)}.json"
        ]
        fresh = ResultCache(directory=tmp_path).lookup(spec, digest)
        assert fresh == (result, False)

    def test_disk_write_failure_is_counted_not_fatal(self, tmp_path, monkeypatch):
        cache = ResultCache(directory=tmp_path)

        def failing_write(key, document):
            raise FileNotFoundError(key)

        monkeypatch.setattr(cache, "_write_disk", failing_write)
        service = SimulationService(max_workers=1, cache=cache)
        spec = sssp_spec()
        handle = service.submit(spec)
        fresh = handle.result()
        assert handle.poll().state is JobState.COMPLETED
        assert cache.stats.store_failures == 1
        assert service.run(spec) == fresh  # the memory tier still serves it
        assert cache.stats.hits == 1
        assert list(tmp_path.iterdir()) == []
        service.close()

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)
