"""Service-layer benchmark: cold vs warm content-addressed cache.

Regenerates a table timing the same ``theorem11-pipeline`` request (the
full Theorem 1.1 classical pipeline on the ``n = 1024`` Yao
spanner, symbolic engine) issued twice through
:class:`repro.service.SimulationService`: a *cold* request that has to run
the simulator, and a *warm* request answered from the content-addressed
result cache.

The acceptance check of the service subsystem lives here: the warm request
must return a result equal to the cold one and be at least **20x** faster
(it measures thousands of x -- the warm path is a digest-memo hit plus a
deserialization, with no graph build and no simulation).  A second row
covers the on-disk cache tier: a brand-new service with an empty in-memory
LRU pointed at the same cache directory must also clear the 20x floor by
promoting the entry from disk.

The machine-readable twin is ``BENCH_service_cache.json``.
"""

from __future__ import annotations

import time

from conftest import cpu_count

from repro.analysis import render_table
from repro.service import GraphSpec, ResultCache, RunSpec, SimulationService

SERVICE_N = 1024
#: The warm in-memory request must be at least this much faster than cold.
WARM_SPEEDUP_FLOOR = 20.0

HEADERS = ["request", "time [s]", "cache", "rounds", "speedup vs cold"]


def _pipeline_spec(n: int) -> RunSpec:
    return RunSpec(
        protocol="theorem11-pipeline",
        graph=GraphSpec(generator="yao_spanner", params={"num_nodes": n, "seed": 7}),
        params={
            "skeleton": sorted({0, n // 3, 2 * n // 3, n - 1}),
            "hop_bound": 48,
            "levels": 8,
        },
        engine="symbolic",
    )


def _timed(func):
    started = time.perf_counter()
    result = func()
    return time.perf_counter() - started, result


def test_bench_service_cache(record_artifact, record_json, tmp_path):
    spec = _pipeline_spec(SERVICE_N)
    cache_dir = tmp_path / "cache"

    service = SimulationService(max_workers=1, cache=ResultCache(directory=cache_dir))
    cold_time, cold = _timed(lambda: service.run(spec))
    warm_time, warm = _timed(lambda: service.run(spec))
    assert warm == cold, "warm cache hit must equal the fresh run"
    assert service.cache.stats.hits == 1 and service.cache.stats.misses == 1
    service.close()

    # A fresh service over the same directory: the LRU is empty, the digest
    # memo is warm (same process), so this isolates the disk tier.
    revived = SimulationService(max_workers=1, cache=ResultCache(directory=cache_dir))
    disk_time, disk = _timed(lambda: revived.run(spec))
    assert disk == cold, "disk-tier hit must equal the fresh run"
    assert revived.cache.stats.disk_hits == 1
    revived.close()

    warm_speedup = cold_time / warm_time
    disk_speedup = cold_time / disk_time

    rows = [
        ["cold (simulated)", f"{cold_time:.3f}", "miss", cold.report.rounds, "1.0x"],
        ["warm (memory)", f"{warm_time:.5f}", "hit", warm.report.rounds, f"{warm_speedup:.0f}x"],
        ["warm (disk tier)", f"{disk_time:.5f}", "disk hit", disk.report.rounds, f"{disk_speedup:.0f}x"],
    ]
    table = render_table(
        HEADERS,
        rows,
        title=(
            f"Service result cache: theorem11-pipeline, n={SERVICE_N}, "
            f"symbolic engine ({cpu_count()} CPUs)"
        ),
    )
    record_artifact("service_cache", table)
    record_json(
        "service_cache",
        {
            "workload": "theorem11-pipeline",
            "n": SERVICE_N,
            "engine": "symbolic",
            "cold_seconds": round(cold_time, 4),
            "warm_seconds": round(warm_time, 6),
            "disk_seconds": round(disk_time, 6),
            "warm_speedup": round(warm_speedup, 1),
            "disk_speedup": round(disk_speedup, 1),
            "speedup_floor": WARM_SPEEDUP_FLOOR,
            "rounds": cold.report.rounds,
        },
    )

    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm cache hit only {warm_speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x): cold={cold_time:.3f}s warm={warm_time:.5f}s"
    )
    assert disk_speedup >= WARM_SPEEDUP_FLOOR, (
        f"disk-tier hit only {disk_speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x): cold={cold_time:.3f}s disk={disk_time:.5f}s"
    )


def test_bench_service_batch_metrics(record_json):
    """Pin the metrics contract on a small batch: counters must reconcile."""
    from repro.service import parse_exposition

    service = SimulationService(max_workers=2)
    specs = [_pipeline_spec(128), _pipeline_spec(192), _pipeline_spec(128)]
    results = service.run_batch(specs)
    assert len(results) == 3
    samples = parse_exposition(service.render_prometheus())
    submitted = samples["repro_service_jobs_submitted_total"]
    completed = samples["repro_service_jobs_completed_total"]
    hits = samples["repro_service_cache_hits_total"]
    misses = samples["repro_service_cache_misses_total"]
    assert submitted == completed == 3
    assert hits + misses == 3
    service.close()
    record_json(
        "service_batch_metrics",
        {
            "workload": "theorem11-pipeline batch",
            "batch_size": 3,
            "submitted": submitted,
            "completed": completed,
            "cache_hits": hits,
            "cache_misses": misses,
        },
    )
