"""The benchmark's workloads: inputs from the seed, the timed loop, the checks.

Every workload drives the library only through public entry points and
applies execution knobs only through :func:`repro.runtime.configure`.  Each
one runs in a fresh process (see ``worker.py``), so no memo, pool or
imported state carries over from another run.

* ``theorem11`` -- the paper's algorithm as a user gets it:
  ``quantum_weighted_diameter`` and ``quantum_weighted_radius`` equally
  often, with every default, each op on a freshly built Yao spanner
  (n=96).  The cost of one op grows with the size of the skeleton set the
  search picks, which varies nine-fold between instances, so a run's inputs
  are a fixed catalogue of seven ops taken at quantiles of the op-time
  distribution, replayed in whole passes in a seed-shuffled order;
  a run's median then compares equal work.
* ``classical-python`` -- the Theta~(n) classical comparator (distributed
  weighted APSP) on the sparse engine with the pure-Python kernels, Yao
  n=128, one fresh seed-derived graph per op.
* ``oracle-python`` -- the kernels' eccentricity sweep (exact diameter and
  radius) with the pure-Python backend on a fresh seed-derived Yao n=512
  per op; the sweep is memoized on the graph, so no op reuses a graph.
* ``service`` -- a Zipf-skewed request stream over a fixed catalogue of
  RunSpecs, one closed-loop client thread, one ``SimulationService`` with
  a memory and a disk tier per round of requests.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import factor, probe

THEOREM11_N = 96
#: The theorem11 catalogue: ``(instance seed, problem)`` at the 1/12, 3/12,
#: ..., 11/12 quantiles of op time over the 80 ops of seeds 0-39, with
#: skeleton sets of 2, 4, 4, 6, 6 and 8 nodes (the 80 ops: 1 to 10,
#: quartiles 3, 4 and 6), plus seed 35's radius (skeleton set 5) at their
#: median.  With seven ops the median of a run is the time of that one op,
#: not the midpoint of two ops 30% apart, which moved with every op's noise.
#: Seed 35's diameter op is one of the algorithm's four guarantee misses on
#: those seeds (ratio 0.906), so the catalogue exercises the miss path as
#: well as the common one.
THEOREM11_CATALOGUE = (
    (5, "radius"),
    (20, "diameter"),
    (1, "radius"),
    (35, "radius"),
    (20, "radius"),
    (37, "diameter"),
    (35, "diameter"),
)
CLASSICAL_N = 128
ORACLE_N = 512
SERVICE_N = 64
SERVICE_GRAPH_SEEDS = (1, 2, 3)
SERVICE_WORKERS = 2
#: Requests between two probe samples (``hostspeed.py``).
SERVICE_CHUNK_REQUESTS = 100
#: Requests per round, split between the specs by the Zipf law below
#: (rounded, at least one each: 649 requests, 72 of them misses, so 89%
#: are warm hits).  Every round therefore does the same work; the seed
#: only orders it.  At 650 the 1% tail of a 7-round run ends inside the
#: requests of one spec, not on the edge between two, so ``op_p99_s``
#: does not flip between the two specs' costs.
SERVICE_ROUND_REQUESTS = 650
ZIPF_EXPONENT = 1.0
#: The bundled protocols from most to least popular.  The hot keys are the
#: ones with small results (a scalar, a leader, nothing), the cold ones
#: return per-node tables; weighted-apsp's 64x64 table takes about 3 ms to
#: decode on a hit, ten times a scalar.  With a shuffled ranking the median
#: request sat on the boundary between those classes and jumped from 0.4 ms
#: to 2.8 ms with host load.  The workload seed draws the request stream.
SERVICE_PROTOCOLS = (
    "theorem11-pipeline",
    "classical-diameter",
    "classical-radius",
    "leader-election",
    "bfs-tree",
    "bellman-ford-sssp",
    "multi-source-sssp",
    "weighted-apsp",
)

#: Yao instance seeds of the seed-derived workloads: ``seed * STRIDE + k``.
SEED_STRIDE = 100_000


@dataclass
class Outcome:
    """What one timed loop produced."""

    #: Wall seconds of each completed op, and the total the ops took.
    latencies: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    #: The same, scaled to the reference host's speed (``hostspeed.py``).
    scaled: List[float] = field(default_factory=list)
    scaled_elapsed: float = 0.0
    attempted: int = 0
    #: Ops that raised and output checks that failed; any makes the run
    #: incorrect.
    failures: List[str] = field(default_factory=list)
    guarantee_misses: int = 0
    records: List[Any] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def add_latency(self, seconds: float, factor: float) -> None:
        self.latencies.append(seconds)
        self.scaled.append(seconds * factor)


def _eccentricities_reference(graph) -> Dict[int, float]:
    from repro.graphs.shortest_paths import all_pairs_distances_reference

    return {
        node: max(row.values())
        for node, row in all_pairs_distances_reference(graph).items()
    }


def pass_count(seconds: float, pass_seconds: float) -> int:
    """Whole passes that fill ``seconds`` on the reference host, at least one.

    The count depends on ``--seconds`` only, not on how fast the host runs
    that day, so every run of a workload does the same work.
    """
    return max(1, round(seconds / pass_seconds))


class Workload:
    """Base of the single-client closed-loop workloads."""

    name = ""
    #: Knobs applied through ``configure`` around every timed op.
    engine: Optional[str] = None
    backend: Optional[str] = None
    #: A run is a whole number of passes of this many ops.
    pass_size = 1
    #: Wall seconds of one pass on the reference host (``ENVIRONMENT.json``).
    pass_seconds = 1.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def configure(self):
        from repro.runtime import configure

        return configure(engine=self.engine, backend=self.backend)

    def setup(self) -> None:
        """Import the layers and pay lazy first-call costs once."""
        raise NotImplementedError

    def ops(self) -> Iterator[Tuple[Any, Callable[[], Any]]]:
        """Yield ``(key, op)`` pairs; ``op()`` returns the op's record."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        """Untimed output checks; failures go to ``outcome.fail``."""
        raise NotImplementedError

    def measure(self, seconds: float, recorder=None) -> Outcome:
        """Time the run's ops one after another, with a probe between each two.

        An op's time is scaled by the probe samples just before and after
        it; the probes themselves are outside every op's time.
        """
        outcome = Outcome()
        total = pass_count(seconds, self.pass_seconds) * self.pass_size
        with self.configure():
            before = probe()
            for index, (key, op) in zip(range(total), self.ops()):
                if recorder is not None:
                    recorder.set_op(index)
                outcome.attempted += 1
                op_started = time.perf_counter()
                try:
                    record = op()
                except Exception as exc:  # noqa: BLE001 - an op that raises fails the run
                    outcome.fail(f"op {index} {key!r} raised {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - op_started
                after = probe()
                outcome.add_latency(latency, factor(before, after))
                outcome.records.append((key, record))
                before = after
        outcome.elapsed = sum(outcome.latencies)
        outcome.scaled_elapsed = sum(outcome.scaled)
        return outcome


class Theorem11(Workload):
    name = "theorem11"
    pass_size = len(THEOREM11_CATALOGUE)
    pass_seconds = 12.9

    def setup(self) -> None:
        from repro.congest import Network
        from repro.core import quantum_weighted_diameter, quantum_weighted_radius
        from repro.graphs.generators import yao_spanner_graph

        network = Network(yao_spanner_graph(24, seed=0))
        with self.configure():
            quantum_weighted_diameter(network, seed=0)
            quantum_weighted_radius(network, seed=0)

    @staticmethod
    def run_instance(instance: int, problem: str):
        import repro.core as core
        from repro.congest import Network
        from repro.graphs import generators

        network = Network(generators.yao_spanner_graph(THEOREM11_N, seed=instance))
        return getattr(core, f"quantum_weighted_{problem}")(network, seed=instance)

    @staticmethod
    def summary(result) -> Tuple:
        return (
            result.value, result.exact_value, result.within_guarantee,
            result.chosen_set_index, tuple(result.chosen_skeleton),
            result.chosen_source, result.total_rounds,
        )

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            order = list(THEOREM11_CATALOGUE)
            rng.shuffle(order)
            for key in order:
                yield key, lambda key=key: self.summary(self.run_instance(*key))

    def check(self, outcome: Outcome) -> None:
        from repro.graphs.generators import yao_spanner_graph

        by_key: Dict[Tuple, Tuple] = {}
        references: Dict[int, Dict[int, float]] = {}
        for key, summary in outcome.records:
            instance, problem = key
            if instance not in references:
                references[instance] = _eccentricities_reference(
                    yao_spanner_graph(THEOREM11_N, seed=instance)
                )
            eccentricities = references[instance].values()
            exact = max(eccentricities) if problem == "diameter" else min(eccentricities)
            if summary[1] != exact:
                outcome.fail(f"{key}: exact_value {summary[1]} != reference {exact}")
            if by_key.setdefault(key, summary) != summary:
                outcome.fail(f"{key}: repeated instance gave {summary}, first {by_key[key]}")
            if not summary[2]:
                outcome.guarantee_misses += 1
        if not outcome.records:
            return
        from repro.runtime import configure

        key, summary = random.Random(self.seed).choice(outcome.records)
        with configure(engine="symbolic"):
            rerun = self.summary(self.run_instance(*key))
        if rerun != summary:
            outcome.fail(f"{key}: symbolic re-run gave {rerun}, auto gave {summary}")


class ClassicalPython(Workload):
    name = "classical-python"
    engine = "sparse"
    backend = "python"
    #: The diameter and the radius of one graph.
    pass_size = 2
    pass_seconds = 2.4

    def setup(self) -> None:
        from repro.congest import Network
        from repro.core import classical_exact_diameter, classical_exact_radius
        from repro.graphs.generators import yao_spanner_graph

        network = Network(yao_spanner_graph(16, seed=0))
        with self.configure():
            classical_exact_diameter(network)
            classical_exact_radius(network)

    @staticmethod
    def run_instance(instance: int, problem: str):
        import repro.core as core
        from repro.congest import Network
        from repro.graphs import generators

        network = Network(generators.yao_spanner_graph(CLASSICAL_N, seed=instance))
        result = getattr(core, f"classical_exact_{problem}")(network)
        return result.value, result.report.to_json()

    def ops(self):
        pair = 0
        while True:
            instance = self.seed * SEED_STRIDE + pair
            for problem in ("diameter", "radius"):
                yield (instance, problem), lambda i=instance, p=problem: self.run_instance(i, p)
            pair += 1

    def check(self, outcome: Outcome) -> None:
        from repro.graphs.generators import yao_spanner_graph
        from repro.runtime import configure

        references: Dict[int, Dict[int, float]] = {}
        for (instance, problem), (value, _report) in outcome.records:
            if instance not in references:
                references[instance] = _eccentricities_reference(
                    yao_spanner_graph(CLASSICAL_N, seed=instance)
                )
            eccentricities = references[instance].values()
            exact = max(eccentricities) if problem == "diameter" else min(eccentricities)
            if value != exact:
                outcome.fail(f"{(instance, problem)}: value {value} != reference {exact}")
        if not outcome.records:
            return
        key, record = random.Random(self.seed).choice(outcome.records)
        with configure(engine="dense"):
            rerun = self.run_instance(*key)
        if rerun != record:
            outcome.fail(f"{key}: dense re-run gave {rerun}, sparse gave {record}")


class OraclePython(Workload):
    name = "oracle-python"
    backend = "python"
    pass_seconds = 1.45

    def setup(self) -> None:
        from repro.graphs.generators import yao_spanner_graph
        from repro.kernels import diameter_csr, radius_csr

        graph = yao_spanner_graph(16, seed=0)
        with self.configure():
            diameter_csr(graph)
            radius_csr(graph)

    @staticmethod
    def run_instance(instance: int) -> Tuple[float, float]:
        import repro.kernels as kernels
        from repro.graphs import generators

        graph = generators.yao_spanner_graph(ORACLE_N, seed=instance)
        return kernels.diameter_csr(graph), kernels.radius_csr(graph)

    def ops(self):
        k = 0
        while True:
            instance = self.seed * SEED_STRIDE + k
            yield instance, lambda i=instance: self.run_instance(i)
            k += 1

    def check(self, outcome: Outcome) -> None:
        from repro.graphs.generators import yao_spanner_graph
        from repro.runtime import configure

        for instance, (diameter, radius) in outcome.records:
            eccentricities = _eccentricities_reference(
                yao_spanner_graph(ORACLE_N, seed=instance)
            ).values()
            expected = (max(eccentricities), min(eccentricities))
            if (diameter, radius) != expected:
                outcome.fail(f"{instance}: {(diameter, radius)} != reference {expected}")
        if not outcome.records:
            return
        instance, record = random.Random(self.seed).choice(outcome.records)
        with configure(backend="scipy"):
            rerun = self.run_instance(instance)
        if rerun != record:
            outcome.fail(f"{instance}: scipy re-run gave {rerun}, python gave {record}")


def _service_catalogue() -> List[Any]:
    """The bundled protocols x three topologies x three graph seeds, by rank."""
    from repro.service import GraphSpec, RunSpec

    last = SERVICE_N - 1
    params = {
        "bellman-ford-sssp": {"source": 0},
        "multi-source-sssp": {"sources": [0, SERVICE_N // 3, 2 * SERVICE_N // 3, last]},
        "bfs-tree": {"root": 0},
    }
    side = int(SERVICE_N ** 0.5)
    graphs = []
    for seed in SERVICE_GRAPH_SEEDS:
        graphs += [
            GraphSpec(generator="yao_spanner", params={"num_nodes": SERVICE_N, "seed": seed}),
            GraphSpec(generator="erdos_renyi", params={
                "num_nodes": SERVICE_N, "edge_probability": 0.08, "max_weight": 100, "seed": seed}),
            GraphSpec(generator="grid", params={
                "rows": side, "cols": side, "max_weight": 100, "seed": seed}),
        ]
    return [
        RunSpec(protocol=protocol, graph=graph, params=params.get(protocol, {}))
        for protocol in SERVICE_PROTOCOLS
        for graph in graphs
    ]


def _result_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.to_json(), sort_keys=True).encode()
    ).hexdigest()


class Service(Workload):
    """Rounds of a Zipf stream through one fresh service each.

    One closed-loop client sends the requests from the measuring thread.
    With two client threads, a warm hit that overlapped the other client's
    miss waited for the interpreter lock, and the median request moved by
    14% from run to run; and two clients that missed one spec at once could
    lose a request to the library's disk-cache write race (every store of a
    key goes through one ``<key>.tmp`` file; ``ROADMAP.md``, "Disk-cache
    write race").  One client waits for each store before its next request.

    A round is the same Zipf-weighted requests in a seed-shuffled order; it
    starts with an empty memory tier, an empty disk directory
    and an empty graph-digest memo, so every round does the same cold work.
    A run is a whole number of rounds, like the passes of the other
    workloads.
    """

    name = "service"
    #: One round of ``SERVICE_ROUND_REQUESTS`` requests.
    pass_seconds = 3.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.catalogue: List[Any] = []

    def setup(self) -> None:
        from repro.service import GraphSpec, ResultCache, RunSpec, SimulationService

        self.catalogue = _service_catalogue()
        for spec in self.catalogue:
            spec.validate()
        warm_dir = self.work_dir / "warm-up"
        probe = RunSpec(protocol="bfs-tree", graph=GraphSpec(generator="path", params={"num_nodes": 4}),
                        params={"root": 0})
        with SimulationService(max_workers=SERVICE_WORKERS, cache=ResultCache(directory=warm_dir)) as service:
            service.run(probe)
            service.run(probe)
        shutil.rmtree(warm_dir, ignore_errors=True)

    def measure(self, seconds: float, recorder=None) -> Outcome:
        import repro.service.spec as spec_module
        from repro.service import JobState, ResultCache, SimulationService

        outcome = Outcome()
        rng = random.Random(self.seed)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.catalogue))]
        requests = [
            index
            for index, weight in enumerate(weights)
            for _ in range(max(1, round(SERVICE_ROUND_REQUESTS * weight / sum(weights))))
        ]
        digests: List[Tuple[int, str]] = []
        hits = misses = jobs_failed = 0
        queue_waits: List[float] = []
        before = probe()
        for round_index in range(pass_count(seconds, self.pass_seconds)):
            stream = list(requests)
            rng.shuffle(stream)
            with spec_module._DIGEST_MEMO_LOCK:
                spec_module._DIGEST_MEMO.clear()
            cache_dir = self.work_dir / f"round-{round_index}"
            service = SimulationService(
                max_workers=SERVICE_WORKERS, cache=ResultCache(directory=cache_dir)
            )
            results: List[Tuple[int, Any]] = []
            base = outcome.attempted

            for chunk_start in range(0, len(stream), SERVICE_CHUNK_REQUESTS):
                chunk = range(chunk_start, min(len(stream), chunk_start + SERVICE_CHUNK_REQUESTS))
                latencies: List[float] = []
                chunk_started = time.perf_counter()
                for position in chunk:
                    index = stream[position]
                    if recorder is not None:
                        recorder.set_op(base + position)
                    started = time.perf_counter()
                    try:
                        handle = service.submit(self.catalogue[index])
                        result = handle.result()
                    except Exception as exc:  # noqa: BLE001 - a failed request fails the run
                        outcome.fail(f"request {base + position} spec {index} raised "
                                     f"{type(exc).__name__}: {exc}")
                        continue
                    latencies.append(time.perf_counter() - started)
                    results.append((index, result))
                    if recorder is not None:
                        queue_waits.append(handle.poll().queue_seconds)
                wall = time.perf_counter() - chunk_started
                after = probe()
                scale = factor(before, after)
                for latency in latencies:
                    outcome.add_latency(latency, scale)
                outcome.elapsed += wall
                outcome.scaled_elapsed += wall * scale
                before = after
            service.close()
            outcome.attempted += len(stream)
            hits += service.cache.stats.hits
            misses += service.cache.stats.misses
            jobs_failed += sum(1 for job in service.jobs() if job.state is JobState.FAILED)
            digests += [(index, _result_digest(result)) for index, result in results]
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcome.records = digests
        outcome.extra = {
            "cache_hits": hits,
            "cache_misses": misses,
            "jobs_failed": jobs_failed,
            "queue_wait_s": sum(queue_waits) / len(queue_waits) if queue_waits else 0.0,
        }
        return outcome

    def check(self, outcome: Outcome) -> None:
        from repro.service.protocols import get_protocol

        expected: Dict[int, str] = {}
        for index, digest in outcome.records:
            if index not in expected:
                spec = self.catalogue[index]
                with spec.run_config().apply():
                    direct = get_protocol(spec.protocol).run(
                        spec.build_network(), spec.params, spec.run_options()
                    )
                expected[index] = _result_digest(direct)
            if digest != expected[index]:
                outcome.fail(f"spec {index}: served result differs from a direct run")


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Theorem11, ClassicalPython, OraclePython, Service)
}

