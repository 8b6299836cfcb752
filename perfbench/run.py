"""The repository benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload theorem11 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each phase runs in a fresh process
(``worker.py``) against the checkout's ``src``:

* ``--trace 0`` sets up twice in throwaway processes and once more in the
  measuring process, then runs the workload with tracing off for the whole
  passes that fill ``--seconds`` on the reference host.  It prints the
  end-to-end metrics of ``BENCHMARK.json``: the op latency median and
  tail, throughput, the median set-up time and the measuring process's
  peak RSS.  The times are wall times scaled to the reference host's speed
  by a probe timed between ops (``hostspeed.py``); the unscaled figures
  are printed on a ``#`` line.
* ``--trace 1`` runs half the time untraced and half traced, each in its
  own process, and prints the per-layer metrics of ``BENCHMARK.json`` from
  the traced half plus ``trace.overhead_ratio``, the traced median op
  latency over the untraced one.  The spans are written to
  ``.perfbench_out/``.

Outputs are checked after every timed loop, outside the timing.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  ``failed`` counts ops that raised and output checks that
failed.  Any of them makes ``correct`` false and the exit code 1.
The benchmark refuses to run (exit 2, no result) when a ``REPRO_*``
variable is set, since that would change the configuration a workload
pins, or when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("theorem11", "classical-python", "oracle-python", "service")
#: Set-up is timed this many times per untraced run; the median is reported.
SETUP_SAMPLES = 3
#: A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
#: Wall-clock limit of one whole run, in seconds; workers are killed at it.
RUN_LIMIT = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(samples: int) -> float:
    """The highest quantile, up to p99, with ``TAIL_SAMPLES`` samples beyond.

    Never below the median: a run with fewer than ``2 * TAIL_SAMPLES`` ops
    reports its median as the tail.
    """
    return min(0.99, max(0.5, 1.0 - TAIL_SAMPLES / max(1, samples)))


def run_worker(args: argparse.Namespace, phase: str, work_dir: Path,
               seconds: float = 0.0, trace: int = 0) -> Dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--phase", phase,
        "--seconds", repr(seconds), "--trace", str(trace), "--work-dir", str(work_dir),
    ]
    # A fixed hash seed makes string-keyed sets iterate alike in every run;
    # one BLAS thread keeps NumPy from running more threads than the cores.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    timeout = max(1.0, args.deadline - time.monotonic())
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{phase} worker passed the {RUN_LIMIT}s run limit") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{phase} worker exited with {completed.returncode}")
    result = json.loads(lines[-1])
    if phase == "measure" and not result["latencies"]:
        raise BenchmarkError(f"no op completed: {result['failures'][:3]}")
    return result


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(executed: Dict[str, int]) -> Dict:
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "executed": executed,
    }


def end_to_end(args: argparse.Namespace, work_dir: Path) -> Dict:
    setups = [run_worker(args, "setup", work_dir) for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(args, "measure", work_dir, seconds=args.seconds)
    setups.append(result)
    latencies = result["scaled"]
    q = tail_quantile(len(latencies))
    wall = result["latencies"]
    print(f"# wall seconds, unscaled: op_p50_s {percentile(wall, 0.5)!r}, "
          f"ops_per_s {len(wall) / result['elapsed']!r}, "
          f"setup_s {statistics.median(setup['setup_s'] for setup in setups)!r}")
    samples = {
        "op_p50_s": len(latencies),
        "op_p99_s": len(latencies),
        "ops_per_s": len(latencies),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    values = {
        "op_p50_s": percentile(latencies, 0.5),
        "op_p99_s": percentile(latencies, q),
        "ops_per_s": len(latencies) / result["scaled_elapsed"],
        "setup_s": statistics.median(setup["setup_scaled_s"] for setup in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"# op_p99_s is the p{100 * q:g} latency "
          f"({round(len(latencies) * (1 - q))} of {len(latencies)} ops beyond it)")
    return {"results": [result], "values": values, "samples": samples}


def per_layer(args: argparse.Namespace, work_dir: Path) -> Dict:
    half = args.seconds / 2
    untraced = run_worker(args, "measure", work_dir, seconds=half, trace=0)
    traced = run_worker(args, "measure", work_dir, seconds=half, trace=1)
    values = dict(traced["layers"])
    base, probe = untraced["scaled"], traced["scaled"]
    values["trace.overhead_ratio"] = percentile(probe, 0.5) / percentile(base, 0.5)
    samples = {name: len(probe) for name in values}
    print(f"# env {json.dumps(environment(traced['executed']), sort_keys=True)}")
    print(f"# spans written to {traced['trace_file']}")
    return {"results": [untraced, traced], "values": values, "samples": samples}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.deadline = time.monotonic() + RUN_LIMIT

    pinned = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if pinned:
        print(f"refusing to run: {', '.join(pinned)} would change the configuration "
              f"the workloads pin; unset it", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2

    spec = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}

    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        measured = (per_layer if args.trace else end_to_end)(args, work_dir)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in work_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
        if not any(work_dir.iterdir()):
            work_dir.rmdir()

    results = measured["results"]
    attempted = sum(result["attempted"] for result in results)
    failures = [message for result in results for message in result["failures"]]
    failed = min(attempted, len(failures))
    for message in failures:
        print(f"# check failed: {message}")
    misses = sum(result["guarantee_misses"] for result in results)
    print(f"# failed_ratio {failed / max(1, attempted)} ratio (n={attempted})")
    if args.workload == "theorem11":
        ops = sum(len(result["latencies"]) for result in results)
        print(f"# guarantee_miss_ratio {misses / max(1, ops)} ratio (n={ops})")

    values, samples = measured["values"], measured["samples"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} {values[name]!r} {unit} (n={samples[name]})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
