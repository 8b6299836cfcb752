"""One phase of one benchmark run, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --phase setup
    python3 perfbench/worker.py --workload NAME --seed N --phase measure \
        --seconds S --trace 0|1 --work-dir DIR

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  The ``setup`` phase times importing the layers and the workload's
set-up, samples the host's speed (``hostspeed.py``), then exits.  The
``measure`` phase does the same set-up and sampling, runs the timed loop
(with the span recorder installed when ``--trace 1``), reads the peak RSS,
removes the recorder, writes the spans, checks the outputs and prints one
JSON object as its last line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from hostspeed import REFERENCE_SECONDS, probe  # noqa: E402

#: Probe samples after set-up; their median scales the set-up time.
SETUP_PROBES = 3

#: Per-layer metrics reported as the named span's self seconds per op.
SELF_TIME_METRICS = {
    "congest.engine.resolve_s": "congest.engine.resolve",
    "congest.primitives.self_s": "congest.primitives",
    "nanongkai.multi_source.self_s": "nanongkai.multi_source",
    "nanongkai.overlay.self_s": "nanongkai.overlay",
    "nanongkai.skeleton_init.self_s": "nanongkai.skeleton_init",
    "nanongkai.skeleton_setup.self_s": "nanongkai.skeleton_setup",
    "core.pipeline.self_s": "core.pipeline",
    "core.baselines.self_s": "core.baselines",
    "quantum_congest.search.self_s": "quantum_congest.search",
    "quantum.statevector_s": "quantum.statevector",
    "graphs.build_s": "graphs.build",
    "kernels.csr_freeze_s": "kernels.csr_freeze",
    "kernels.oracle_s": "kernels.oracle",
    "service.validate_s": "service.validate",
    "service.digest_s": "service.digest",
    "service.cache.lookup_s": "service.cache.lookup",
    "service.cache.store_s": "service.cache.store",
    "service.codec_s": "service.codec",
    "service.run_s": "service.run",
}


def layer_metrics(recorder, outcome) -> dict:
    """Per-layer figures of a traced loop, per op unless named otherwise."""
    self_s, counts, engine_s = recorder.self_times()
    counters = recorder.counters
    ops = max(1, len(outcome.latencies))
    metrics = {}
    for engine in ("sparse", "dense", "symbolic"):
        metrics[f"congest.engine.{engine}.runs"] = counts[f"congest.engine.{engine}"] / ops
        metrics[f"congest.engine.{engine}.self_s"] = self_s[f"congest.engine.{engine}"] / ops
    metrics["congest.engine.fallbacks"] = counters["congest.engine.fallbacks"] / ops
    for key in ("rounds", "messages", "bits"):
        metrics[f"congest.sim.{key}"] = counters[f"congest.sim.{key}"] / ops
    metrics["congest.messages_per_s"] = (
        counters["congest.sim.messages"] / engine_s if engine_s else 0.0
    )
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = self_s[span] / ops
    metrics["quantum_congest.evaluations"] = counters["quantum_congest.evaluations"] / ops
    metrics["kernels.oracle_calls"] = counts["kernels.oracle"] / ops
    extra = outcome.extra
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    metrics["service.cache.hit_ratio"] = extra.get("cache_hits", 0) / lookups if lookups else 0.0
    metrics["service.queue_wait_s"] = extra.get("queue_wait_s", 0.0)
    metrics["service.jobs_failed"] = extra.get("jobs_failed", 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--phase", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    probe()  # the first sample of a process runs cold
    probes = [probe() for _ in range(SETUP_PROBES)]
    setup_scaled_s = setup_s * REFERENCE_SECONDS / statistics.median(probes)
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_scaled_s": setup_scaled_s}))
        return 0

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder(requested_engine=workload.engine)
        recorder.install()
    try:
        outcome = workload.measure(args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from repro.congest import close_worker_pools

    close_worker_pools()
    payload = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies": outcome.latencies,
        "elapsed": outcome.elapsed,
        "scaled": outcome.scaled,
        "scaled_elapsed": outcome.scaled_elapsed,
        "attempted": outcome.attempted,
    }
    if recorder is not None:
        trace_path = args.work_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(recorder.to_json()))
        payload["layers"] = layer_metrics(recorder, outcome)
        payload["executed"] = dict(recorder.executed)
        payload["trace_file"] = str(trace_path)

    workload.check(outcome)
    payload["failures"] = outcome.failures
    payload["guarantee_misses"] = outcome.guarantee_misses
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
