"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public callables of the library from the outside -- the
library itself is never edited -- and records one span per call: its name,
start, end, parent span and the op it belongs to.  Spans stay in memory
until the run ends.  :meth:`Recorder.install` puts the wrappers in place and
:meth:`Recorder.uninstall` restores every original.

A function imported with ``from x import f`` is bound in every module that
imported it, so a function patch replaces the original object wherever a
``repro`` module holds it (for example ``multi_source_bounded_hop_protocol``
is looked up in ``repro.nanongkai.skeleton``).  Methods are patched on their
class, which every caller goes through.

Nothing wraps per-message calls (``NodeContext.send``, ``Message.sized``):
message work is counted from the ``RoundReport`` each ``Simulator.run``
returns, so the recorder's own overhead stays out of the engines' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span record: (span id, name, start, end, parent span id, op id).
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]

#: Module functions wrapped as spans: (module, function names, span name).
#: ``None`` for the function names means every function in ``__all__``.
FUNCTION_SPANS: List[Tuple[str, Optional[Tuple[str, ...]], str]] = [
    ("repro.graphs.generators", None, "graphs.build"),
    ("repro.kernels.api", None, "kernels.oracle"),
    ("repro.congest.engine.base", ("resolve_engine",), "congest.engine.resolve"),
    ("repro.congest.primitives", None, "congest.primitives"),
    ("repro.nanongkai.multi_source", ("multi_source_bounded_hop_protocol",), "nanongkai.multi_source"),
    ("repro.nanongkai.overlay", ("embed_overlay_network", "overlay_sssp_protocol"), "nanongkai.overlay"),
    ("repro.quantum.grover", ("grover_search", "grover_search_unknown"), "quantum.statevector"),
    ("repro.quantum.minmax", ("quantum_maximum", "quantum_minimum"), "quantum.statevector"),
    ("repro.core.diameter_radius", ("quantum_weighted_diameter", "quantum_weighted_radius"), "core.pipeline"),
    ("repro.core.baselines", ("classical_exact_diameter", "classical_exact_radius"), "core.baselines"),
]

#: Class methods wrapped as spans: (module, class, method names, span name).
METHOD_SPANS: List[Tuple[str, str, Tuple[str, ...], str]] = [
    ("repro.kernels.csr", "CSRGraph", ("from_graph",), "kernels.csr_freeze"),
    ("repro.congest.simulator", "Simulator", ("run",), "congest.sim"),
    ("repro.nanongkai.skeleton", "SkeletonApproximator", ("__init__",), "nanongkai.skeleton_init"),
    ("repro.nanongkai.skeleton", "SkeletonApproximator", ("setup",), "nanongkai.skeleton_setup"),
    ("repro.quantum_congest.optimizer", "DistributedQuantumOptimizer",
     ("maximize", "minimize", "search_with_promise"), "quantum_congest.search"),
    ("repro.service.spec", "RunSpec", ("validate",), "service.validate"),
    ("repro.service.spec", "GraphSpec", ("digest_with_graph",), "service.digest"),
    ("repro.service.cache", "ResultCache", ("lookup",), "service.cache.lookup"),
    ("repro.service.cache", "ResultCache", ("store",), "service.cache.store"),
    ("repro.congest.engine.types", "SimulationResult", ("to_json", "from_json"), "service.codec"),
    ("repro.service.protocols", "ProtocolSpec", ("run",), "service.run"),
]

#: Backend registries whose resolutions are recorded (which tier executed).
BACKEND_REGISTRIES = [("repro.kernels.backend", "kernels"), ("repro.quantum.backend", "quantum")]


def _is_engine_run(span_name: str) -> bool:
    return span_name.startswith("congest.engine.") and span_name != "congest.engine.resolve"


class Recorder:
    """Collects spans and counters; installs and removes the wrappers.

    ``requested_engine`` is the engine the workload pinned through
    ``configure`` (``None`` for the ``auto`` planner); a run whose executed
    engine differs from it -- or from ``dense``, auto's preference -- counts
    as a fallback, as does an engine run nested inside another engine's.
    """

    def __init__(self, requested_engine: Optional[str] = None) -> None:
        self.requested_engine = requested_engine
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.executed: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def set_op(self, op_id: Optional[int]) -> None:
        """Attribute the calling thread's following spans to ``op_id``."""
        self._local.op = op_id

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _bump(self, counter: Counter, key: str, amount: float = 1) -> None:
        with self._lock:
            counter[key] += amount

    def _wrap(
        self,
        original: Callable,
        name: Any,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper; ``name`` may be a callable of the args."""
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if before is not None:
                args, kwargs = before(span_name, args, kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append((span_id, span_name))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, span_name, start, end,
                     parent[0] if parent else None, getattr(recorder._local, "op", None))
                )
            if after is not None:
                after(span_name, parent, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = original
        return wrapper

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _after_sim(self, name, parent, args, kwargs, result) -> None:
        report = result.report
        with self._lock:
            self.counters["congest.sim.rounds"] += report.rounds
            self.counters["congest.sim.messages"] += report.total_messages
            self.counters["congest.sim.bits"] += report.total_bits

    def _after_resolve(self, name, parent, args, kwargs, result) -> None:
        explicit = args[0] if args else kwargs.get("name")
        requested = explicit or self.requested_engine or "dense"
        if result.name != requested:
            self._bump(self.counters, "congest.engine.fallbacks")

    def _after_engine(self, name, parent, args, kwargs, result) -> None:
        self._bump(self.executed, "engine:" + name.rsplit(".", 1)[1])
        if parent is not None and _is_engine_run(parent[1]):
            self._bump(self.counters, "congest.engine.fallbacks")

    def _count_evaluations(self, method: Callable) -> Callable:
        """A ``before`` hook that counts every call of the search's evaluator."""
        signature = inspect.signature(method)

        def before(name, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            evaluate = bound.arguments["evaluate"]

            def counted(element):
                self._bump(self.counters, "quantum_congest.evaluations")
                return evaluate(element)

            bound.arguments["evaluate"] = counted
            return bound.args, bound.kwargs

        return before

    def _backend_recorder(self, original: Callable, registry: str) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            backend = original(*args, **kwargs)
            if self._stack():  # inside a traced call, not a configure() check
                self._bump(self.executed, f"{registry}:{backend.name}")
            return backend

        wrapper.__perfbench_original__ = original
        return wrapper

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def _patch_function(self, module_name: str, attr: str, wrapper_for: Callable) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrapper_for(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._patches.append((module, key, original, True))

    def _patch_method(self, cls: type, attr: str, name: Any, **hooks) -> None:
        had_own = attr in cls.__dict__
        raw = cls.__dict__[attr] if had_own else getattr(cls, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, name, **hooks))
        else:
            wrapped = self._wrap(raw, name, **hooks)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw, had_own))

    def install(self) -> None:
        """Put every wrapper in place (imports the wrapped modules)."""
        from repro.congest.engine.base import available_engines, get_engine

        for module_name, names, span in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            hooks = {"after": self._after_resolve} if span == "congest.engine.resolve" else {}
            for attr in names or tuple(module.__all__):
                if callable(getattr(module, attr)) and not isinstance(getattr(module, attr), type):
                    self._patch_function(
                        module_name, attr,
                        lambda original, span=span, hooks=hooks: self._wrap(original, span, **hooks),
                    )
        for module_name, class_name, attrs, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for attr in attrs:
                hooks: Dict[str, Callable] = {}
                if span == "congest.sim":
                    hooks["after"] = self._after_sim
                elif span == "quantum_congest.search":
                    hooks["before"] = self._count_evaluations(getattr(cls, attr))
                self._patch_method(cls, attr, span, **hooks)
        for engine_name in available_engines():
            self._patch_method(
                type(get_engine(engine_name)), "run",
                lambda args: f"congest.engine.{args[0].name}", after=self._after_engine,
            )
        for module_name, registry in BACKEND_REGISTRIES:
            self._patch_function(
                module_name, "get_backend",
                lambda original, registry=registry: self._backend_recorder(original, registry),
            )

    def uninstall(self) -> None:
        """Restore every original, including copies bound after install."""
        for owner, attr, original, had_own in reversed(self._patches):
            if isinstance(owner, type):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while the wrappers were installed bound the
        # wrapper itself; put the original back there as well.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(module, key, original)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Per-name self seconds and span counts, and engine seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Engine seconds sum the outermost engine spans (an engine
        nested in another engine is already inside its parent's interval).
        """
        child_time: Dict[int, float] = defaultdict(float)
        names: Dict[int, str] = {}
        for span_id, name, start, end, parent, _op in self.spans:
            names[span_id] = name
            if parent is not None:
                child_time[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        engine_s = 0.0
        for span_id, name, start, end, parent, _op in self.spans:
            self_s[name] += (end - start) - child_time[span_id]
            counts[name] += 1
            if _is_engine_run(name) and not _is_engine_run(names.get(parent, "")):
                engine_s += end - start
        return self_s, counts, engine_s

    def to_json(self) -> Dict[str, Any]:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "executed": dict(self.executed),
        }
