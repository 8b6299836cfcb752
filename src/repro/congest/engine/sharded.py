"""Sharded round execution: per-shard deliver/compute with boundary buffers.

CONGEST is itself a message-passing model, so a shard-partitioned simulator
is a faithful scale-up of the model the paper's protocols run in: the node
set is partitioned into ``REPRO_SHARDS`` contiguous, CSR-aware shards
(:meth:`Network.shard_view` balances ``1 + degree`` per node and builds the
cross-shard edge index once per topology), and each round's deliver/compute
phase runs per shard.

Three execution modes share the same per-shard round body (`_ShardState`):

* **shard-serial** (default): every shard runs in-process, one after the
  other in shard order.  This is the mode the invariance guarantee is
  cheapest to see in -- it is the sparse engine's loop re-grouped by shard.
* **worker-retained** (``REPRO_SHARD_WORKERS > 1``): shards are assigned to
  forked worker processes in contiguous blocks.  Messages between two shards
  of the *same* worker block never leave the worker -- they are retained in
  local per-shard delivery lists -- and only true block-boundary messages
  (pre-pickled by the sending worker, forwarded by the coordinator as opaque
  bytes) plus per-shard :class:`ShardRoundCharges` partials cross the pipe.
  The coordinator ships boundary bundles in, partials + boundary bundles
  out; it never materializes the round's message lists.
* **worker-materialized**: when an ``observer`` is attached the coordinator
  must see every delivered message to reproduce the observer stream
  byte-for-byte, so worker mode falls back to the full-materialization
  protocol: the coordinator routes complete per-shard delivery lists and the
  workers return complete out-message lists.

Determinism is structural, not incidental.  Shards are contiguous slices of
the node order and worker blocks are contiguous runs of shards, so for every
target shard the delivery list ``pre + retained + post`` (senders below the
block, in the block, above the block) reproduces the sparse engine's global
in-flight order; per-shard :class:`ShardRoundCharges` partials (each
directed edge has a unique sender, so per-edge bit sums never straddle
shards) merge in shard order through
:meth:`ShardRoundCharges.merge_into` into the exact accounting the sparse
engine computes in one pass.  Outputs and :class:`RoundReport` numbers are
therefore bit-identical to every other engine --
``tests/congest/test_engine_differential.py`` enforces it across the full
engine cross-product and ``REPRO_SHARDS`` in {1, 2, 4}.

Worker forking is amortized by a **persistent pool**: a
:class:`ShardWorkerPool` forks bare workers once per (network identity,
graph mutation counter, shard/worker config) and later runs re-seed them by
pickling only ``(algorithm, {node: (memory, halted)})`` snapshots over the
pipe -- Algorithm 1's level loop stops paying a fork per ``Simulator.run``.
Pools live in a small LRU registry keyed by the network; graph mutation
invalidates them transparently (the key includes ``graph._version``), and
:func:`shard_worker_pool` offers a context-manager handle with deterministic
teardown.  When a run's algorithm or node memory cannot be pickled the run
silently falls back to fresh forked workers, which inherit everything.

Worker failures are first-class: a node-program exception crosses the pipe
with its formatted traceback and failing round and is re-raised in the
parent with a :class:`ShardWorkerError` chained as the cause; a worker that
dies without replying (OOM kill, segfault) raises a :class:`ShardWorkerError`
naming the worker, its shards and the stage instead of a bare ``EOFError``,
after stopping the survivors.

The engine needs no NumPy: it must stay available on dependency-free
installs (the CI no-numpy job asserts it registers).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime import shard_count_setting, shard_worker_setting

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.base import ExecutionEngine, register_engine
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    ShardRoundCharges,
    SimulationResult,
)
from repro.congest.message import Message, make_message_sizer
from repro.congest.network import Network

__all__ = [
    "ShardedEngine",
    "ShardWorkerError",
    "ShardWorkerPool",
    "shard_worker_pool",
    "close_worker_pools",
    "SHARDS_ENV_VAR",
    "WORKERS_ENV_VAR",
    "resolve_shard_count",
    "resolve_worker_count",
]

#: Environment variable fixing the shard count (positive integer or "auto").
SHARDS_ENV_VAR = "REPRO_SHARDS"

#: Environment variable enabling multiprocessing workers (> 1 activates them).
WORKERS_ENV_VAR = "REPRO_SHARD_WORKERS"

#: "auto" shard count: enough shards to matter, few enough that the
#: per-round routing pass stays negligible on small networks.
_AUTO_MAX_SHARDS = 4


class ShardWorkerError(RuntimeError):
    """A sharded-engine worker process failed or died mid-run.

    Raised directly when a worker exits without reporting a result (it names
    the worker, its shard ids, and the stage of the run), and chained as the
    ``__cause__`` of a node-program exception re-raised from a worker (it
    then carries the worker-side traceback and the failing round).
    """


def resolve_shard_count(num_nodes: int, raw: Optional[str] = None) -> int:
    """Parse ``REPRO_SHARDS`` (or ``raw``) into a shard count for ``n`` nodes.

    Unset/empty/``auto`` picks ``min(4, n)``; an explicit positive integer is
    clamped to ``n`` (a shard must own at least one node); anything else --
    zero, negatives, non-integers -- raises a clear :class:`ValueError`.
    """
    if raw is None:
        # The environment read lives in repro.runtime (the REP103 contract:
        # REPRO_* knobs are read only by the runtime/registry modules).
        raw = shard_count_setting()
    text = raw.strip().lower()
    if text in ("", "auto"):
        return min(_AUTO_MAX_SHARDS, num_nodes)
    try:
        count = int(text)
    except ValueError:
        raise ValueError(
            f"invalid {SHARDS_ENV_VAR} value {raw!r}: expected a positive "
            f"integer or 'auto'"
        ) from None
    if count < 1:
        raise ValueError(
            f"invalid {SHARDS_ENV_VAR} value {raw!r}: the shard count must "
            f"be at least 1"
        )
    return min(count, num_nodes)


def resolve_worker_count(num_shards: int, raw: Optional[str] = None) -> int:
    """Parse ``REPRO_SHARD_WORKERS`` (or ``raw``) into a worker count.

    Unset/empty/``auto``/``1`` keeps execution shard-serial in-process; an
    explicit integer above 1 enables multiprocessing workers (clamped to the
    shard count -- a worker without a shard would be idle); anything else
    raises a clear :class:`ValueError`.
    """
    if raw is None:
        raw = shard_worker_setting()
    text = raw.strip().lower()
    if text in ("", "auto"):
        return 1
    try:
        count = int(text)
    except ValueError:
        raise ValueError(
            f"invalid {WORKERS_ENV_VAR} value {raw!r}: expected a positive "
            f"integer or 'auto'"
        ) from None
    if count < 1:
        raise ValueError(
            f"invalid {WORKERS_ENV_VAR} value {raw!r}: the worker count "
            f"must be at least 1"
        )
    return min(count, num_shards)


class _ShardState:
    """One shard's live execution state: contexts, active list, inboxes.

    The round body is the sparse engine's, re-scoped to the shard's node
    slice: deliver into pooled inboxes, run ``receive`` for the active
    contexts in node order, drain outboxes (sizing at enqueue through a
    shard-local broadcast cache), then filter the active list.
    """

    __slots__ = ("shard", "contexts", "active", "inboxes", "_sized")

    def __init__(
        self, shard: int, contexts: Dict[int, NodeContext], word_bits: int
    ) -> None:
        self.shard = shard
        self.contexts = contexts
        self.active: List[NodeContext] = [
            ctx for ctx in contexts.values() if not ctx.halted
        ]
        self.inboxes: Dict[int, List[Message]] = {node: [] for node in contexts}
        # Shard-local instance of the same enqueue-time sizer sparse uses
        # (shared with sparse so the cache-admission rule cannot drift).
        self._sized = make_message_sizer(word_bits)

    def drain_initial(self) -> List[Message]:
        """Collect (and size) the messages queued during ``initialize``."""
        out: List[Message] = []
        for ctx in self.contexts.values():
            self._sized(ctx._drain_outbox(), out)
        return out

    def execute_round(
        self,
        algorithm: NodeAlgorithm,
        round_number: int,
        delivery: Sequence[Message],
    ) -> List[Message]:
        """Deliver ``delivery`` into this shard, run its compute phase."""
        inboxes = self.inboxes
        touched: List[List[Message]] = []
        for message in delivery:
            box = inboxes[message.receiver]
            if not box:
                touched.append(box)
            box.append(message)

        active = self.active
        for ctx in active:
            algorithm.receive(ctx, round_number, inboxes[ctx.node])
        out: List[Message] = []
        for ctx in active:
            if ctx._outbox:
                self._sized(ctx._drain_outbox(), out)
        for box in touched:
            box.clear()
        self.active = [ctx for ctx in active if not ctx.halted]
        return out

    def halt_all(self) -> None:
        for ctx in self.contexts.values():
            ctx.halt()
        self.active = []


class _SerialCoordinator:
    """Shard-serial execution: every shard runs in-process, in shard order."""

    def __init__(self, states: List[_ShardState], algorithm: NodeAlgorithm) -> None:
        self._states = states
        self._algorithm = algorithm

    def execute_round(
        self, round_number: int, deliveries: List[List[Message]]
    ) -> Tuple[List[List[Message]], List[int]]:
        outs: List[List[Message]] = []
        actives: List[int] = []
        for state, delivery in zip(self._states, deliveries):
            outs.append(state.execute_round(self._algorithm, round_number, delivery))
            actives.append(len(state.active))
        return outs, actives

    def halt_all(self) -> None:
        for state in self._states:
            state.halt_all()

    def finish(self) -> Dict[int, NodeContext]:
        return {
            node: ctx
            for state in self._states
            for node, ctx in state.contexts.items()
        }

    def release(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# Worker side.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _WorkerConfig:
    """A worker's identity: its index, shard block, and the global layout.

    Passed through ``fork`` (never pickled), so a worker can derive its
    routing tables -- shard view, worker-of-shard map, local shard indices --
    from the inherited network without any per-run payload.
    """

    index: int
    shard_ids: Tuple[int, ...]
    num_shards: int
    blocks: Tuple[Tuple[int, ...], ...]


def _safe_error_reply(conn, exc: BaseException, round_number: int) -> None:
    """Report a node-program exception to the coordinator, never dying trying.

    Ships ``("error", exc, traceback_text, round)``.  If the exception does
    not pickle, falls back to a :class:`RuntimeError` wrapping ``repr(exc)``;
    if even ``repr(exc)`` raises, falls back to a constant description -- the
    worker always reports *something*, so the coordinator never hangs on a
    silent worker exit (it would otherwise see a bare ``EOFError``).
    """
    try:
        tb_text = traceback.format_exc()
    except Exception:  # pragma: no cover - formatting is near-infallible
        tb_text = "<worker traceback unavailable>"
    try:
        conn.send(("error", exc, tb_text, round_number))
        return
    except Exception:
        pass
    try:
        described = repr(exc)
    except Exception:
        described = f"<exception of type {type(exc).__name__} whose repr() raised>"
    try:
        conn.send(
            (
                "error",
                RuntimeError(f"unpicklable node-program exception: {described}"),
                tb_text,
                round_number,
            )
        )
        return
    except Exception:
        pass
    try:
        # repr() itself may have produced an unpicklable-free string above but
        # the send can still fail on an exotic traceback string; this constant
        # payload always pickles.  Only a broken pipe can stop it.
        conn.send(
            (
                "error",
                RuntimeError(
                    "node program raised an exception that could not be "
                    "pickled or described"
                ),
                "<worker traceback unavailable>",
                round_number,
            )
        )
    except Exception:  # pragma: no cover - pipe to the parent is gone
        pass


def _serve_run(
    conn,
    network: Network,
    config: _WorkerConfig,
    states: List[_ShardState],
    algorithm: NodeAlgorithm,
) -> str:
    """Serve one simulation run's round loop inside a worker process.

    Protocol (parent -> worker / worker -> parent):

    * ``("round", r, [(sender_worker, blob), ...])`` -- retained mode.  Each
      blob is a pickled ``{target_shard: [sized message, ...]}`` bundle from
      one sender worker (``-1`` = the coordinator's round-1 initialize
      routing).  Delivery per local shard is ``pre + retained + post`` in
      sender order; the reply is
      ``("out", [(charges|None, active), ...], {target_worker: blob})`` --
      charges partials and pre-pickled boundary bundles only, intra-block
      messages never cross the pipe.
    * ``("round_full", r, [delivery, ...])`` -- materialized mode (observer
      runs): full delivery lists in, ``("out_full", [(out, active), ...])``
      full out lists back.
    * ``("halt_all",)`` -> ``("ok",)`` (quiescence halting).
    * ``("finish",)`` -> ``("done", {node: (memory, halted)})``.
    * ``("reset",)`` / ``("stop",)`` -- abandon the run.

    A node-program exception replies via :func:`_safe_error_reply` and ends
    the run.  Returns the terminal status (``"finish"``, ``"reset"``,
    ``"stop"`` or ``"error"``) so the pool loop can decide whether to serve
    another run.
    """
    view = network.shard_view(config.num_shards)
    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    shard_by_node = view.shard_by_node
    local_only = [not edges for edges in view.boundary_edges]
    worker_of_shard = {
        shard: worker for worker, ids in enumerate(config.blocks) for shard in ids
    }
    own = config.index
    local_index = {shard_id: i for i, shard_id in enumerate(config.shard_ids)}
    retained: List[List[Message]] = [[] for _ in states]

    while True:
        request = conn.recv()
        kind = request[0]
        if kind == "round":
            _, round_number, bundles = request
            pre: List[List[Message]] = [[] for _ in states]
            post: List[List[Message]] = [[] for _ in states]
            for sender, blob in bundles:
                side = pre if sender < own else post
                for shard_id, items in pickle.loads(blob).items():
                    side[local_index[shard_id]].extend(items)
            incoming, retained = retained, [[] for _ in states]
            try:
                results: List[Tuple[Optional[ShardRoundCharges], int]] = []
                cross: Dict[int, Dict[int, List[Message]]] = {}
                for i, state in enumerate(states):
                    if pre[i] or post[i]:
                        delivery = pre[i]
                        delivery.extend(incoming[i])
                        delivery.extend(post[i])
                    else:
                        delivery = incoming[i]
                    out = state.execute_round(algorithm, round_number, delivery)
                    results.append(
                        (
                            ShardRoundCharges.from_messages(out, bandwidth, strict)
                            if out
                            else None,
                            len(state.active),
                        )
                    )
                    if local_only[state.shard]:
                        # No boundary edges: the whole out-buffer is a
                        # self-delivery, bulk-retained in order.
                        retained[i].extend(out)
                        continue
                    for message in out:
                        target = shard_by_node[message.receiver]
                        target_worker = worker_of_shard[target]
                        if target_worker == own:
                            retained[local_index[target]].append(message)
                        else:
                            cross.setdefault(target_worker, {}).setdefault(
                                target, []
                            ).append(message)
            except Exception as exc:
                _safe_error_reply(conn, exc, round_number)
                return "error"
            conn.send(
                (
                    "out",
                    results,
                    {
                        target_worker: pickle.dumps(bundle)
                        for target_worker, bundle in cross.items()
                    },
                )
            )
        elif kind == "round_full":
            _, round_number, deliveries = request
            try:
                payload = []
                for state, delivery in zip(states, deliveries):
                    out = state.execute_round(algorithm, round_number, delivery)
                    payload.append((out, len(state.active)))
            except Exception as exc:
                _safe_error_reply(conn, exc, round_number)
                return "error"
            conn.send(("out_full", payload))
        elif kind == "halt_all":
            for state in states:
                state.halt_all()
            conn.send(("ok",))
        elif kind == "finish":
            snapshot = {
                node: (ctx.memory, ctx.halted)
                for state in states
                for node, ctx in state.contexts.items()
            }
            conn.send(("done", snapshot))
            return "finish"
        elif kind == "reset":
            return "reset"
        else:  # "stop"
            return "stop"


def _worker_main(
    conn,
    network: Network,
    config: _WorkerConfig,
    states: Optional[List[_ShardState]],
    algorithm: Optional[NodeAlgorithm],
) -> None:
    """Entry point of a forked worker process.

    With ``states`` given (fresh-fork mode) the worker inherited the run's
    live contexts through ``fork`` and serves exactly one run.  Otherwise
    (pool mode) it loops on ``("setup", algorithm, snapshots)`` requests,
    rebuilding per-shard contexts from ``{node: (memory, halted)}`` snapshots
    against the inherited network before each run -- the only per-run pickling
    worker setup ever pays.
    """
    try:
        if states is not None:
            _serve_run(conn, network, config, states, algorithm)
            return
        view = network.shard_view(config.num_shards)
        word_bits = network.word_bits
        while True:
            request = conn.recv()
            kind = request[0]
            if kind == "stop":
                return
            if kind != "setup":
                continue  # a stale "reset" from an abandoned run
            _, run_algorithm, snapshots = request
            run_states: List[_ShardState] = []
            for shard_id, snapshot in zip(config.shard_ids, snapshots):
                contexts: Dict[int, NodeContext] = {}
                for node in view.shards[shard_id]:
                    memory, halted = snapshot[node]
                    ctx = NodeContext(node=node, network=network, memory=memory)
                    ctx._halted = halted
                    contexts[node] = ctx
                run_states.append(_ShardState(shard_id, contexts, word_bits))
            status = _serve_run(conn, network, config, run_states, run_algorithm)
            if status == "stop":
                return
    except (EOFError, KeyboardInterrupt, BrokenPipeError, OSError):
        # pragma: no cover - the parent died; exit quietly.
        pass
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Persistent worker pool + registry.
# --------------------------------------------------------------------------- #
def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` where unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platform
        return None


class ShardWorkerPool:
    """Persistent forked workers for one (network, shards, workers) config.

    Workers are forked *bare* -- they inherit only the network and their
    :class:`_WorkerConfig` -- and each ``Simulator.run`` re-seeds them with
    ``("setup", algorithm, snapshots)``, so the fork cost is paid once per
    pool instead of once per run.  :meth:`matches` gates reuse on network
    identity, the graph's mutation counter, the shard/worker config and
    worker liveness; a mismatch means the pool is stale and must be dropped.
    """

    def __init__(
        self, network: Network, num_shards: int, num_workers: int
    ) -> None:
        mp_context = _fork_context()
        if mp_context is None:  # pragma: no cover - non-fork platform
            raise RuntimeError(
                "shard worker pools need the 'fork' multiprocessing start "
                "method, which this platform does not provide"
            )
        view = network.shard_view(num_shards)
        blocks = view.worker_blocks(num_workers)
        self._network_ref = weakref.ref(network)
        self._graph_version = getattr(network.graph, "_version", None)
        self.num_shards = num_shards
        self.num_workers = num_workers
        self.blocks = blocks
        self._closed = False
        self._broken = False
        self._workers: List[Tuple[List[int], Any, Any]] = []
        try:
            for index, shard_ids in enumerate(blocks):
                parent_conn, child_conn = mp_context.Pipe()
                process = mp_context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        network,
                        _WorkerConfig(index, tuple(shard_ids), num_shards, blocks),
                        None,
                        None,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append((list(shard_ids), parent_conn, process))
        except Exception:  # pragma: no cover - fork failure mid-way
            self.close()
            raise

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        return self._broken

    def worker_pids(self) -> List[int]:
        """The pool workers' process ids (stable across reused runs)."""
        return [process.pid for _ids, _conn, process in self._workers]

    def matches(self, network: Network, num_shards: int, num_workers: int) -> bool:
        """Whether this pool can serve a run with the given configuration."""
        if self._closed or self._broken:
            return False
        if self._network_ref() is not network:
            return False
        if (num_shards, num_workers) != (self.num_shards, self.num_workers):
            return False
        if getattr(network.graph, "_version", None) != self._graph_version:
            return False
        return all(process.is_alive() for _ids, _conn, process in self._workers)

    def begin_run(
        self, algorithm: NodeAlgorithm, states: List[_ShardState]
    ) -> bool:
        """Seed every worker with this run's algorithm and context snapshots.

        Returns ``False`` -- after rolling back workers already seeded --
        when the algorithm or some node memory cannot travel the pipe, so
        the caller can fall back to fresh forked workers (which inherit
        everything and need no pickling).
        """
        prepared = 0
        try:
            for shard_ids, conn, _process in self._workers:
                snapshots = [
                    {
                        node: (ctx.memory, ctx.halted)
                        for node, ctx in states[shard].contexts.items()
                    }
                    for shard in shard_ids
                ]
                conn.send(("setup", algorithm, snapshots))
                prepared += 1
        except Exception:
            for _shard_ids, conn, _process in self._workers[:prepared]:
                try:
                    conn.send(("reset",))
                except Exception:  # pragma: no cover - worker died mid-rollback
                    self._broken = True
            return False
        return True

    def close(self) -> None:
        """Stop every worker; idempotent, wedged workers are terminated."""
        if self._closed:
            return
        self._closed = True
        for _ids, conn, process in self._workers:
            try:
                if process.is_alive():
                    conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for _ids, _conn, process in self._workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5)


#: LRU registry of live pools, keyed by (network id, shards, workers).
_POOLS: "OrderedDict[Tuple[int, int, int], ShardWorkerPool]" = OrderedDict()

#: Registry capacity: enough for a pipeline alternating a few networks,
#: small enough that abandoned pools do not accumulate worker processes.
_MAX_POOLS = 4


def _drop_pool(pool: ShardWorkerPool) -> None:
    """Close ``pool`` and remove it from the registry (if present)."""
    for key, candidate in list(_POOLS.items()):
        if candidate is pool:
            del _POOLS[key]
            break
    pool.close()


def _retire_pool(key: Tuple[int, int, int], pool_ref) -> None:
    """``weakref.finalize`` hook: close a pool when its network is collected."""
    pool = pool_ref()
    if _POOLS.get(key) is pool and pool is not None:
        del _POOLS[key]
    if pool is not None:
        pool.close()


def close_worker_pools() -> None:
    """Tear down every pooled worker (test/interpreter-exit hygiene)."""
    while _POOLS:
        _key, pool = _POOLS.popitem(last=False)
        pool.close()


def _pool_for(
    network: Network, num_shards: int, num_workers: int
) -> Optional[ShardWorkerPool]:
    """A matching pool from the registry, creating (and LRU-evicting) as needed.

    Returns ``None`` when pooling is impossible: no ``fork`` start method, or
    a graph that does not track mutations (no ``_version`` counter means no
    safe invalidation).  A registered pool that no longer matches -- mutated
    graph, dead worker -- is closed and replaced.
    """
    if getattr(network.graph, "_version", None) is None:
        return None
    if _fork_context() is None:  # pragma: no cover - non-fork platform
        return None
    key = (id(network), num_shards, num_workers)
    pool = _POOLS.get(key)
    if pool is not None:
        if pool.matches(network, num_shards, num_workers):
            _POOLS.move_to_end(key)
            return pool
        _drop_pool(pool)
    try:
        pool = ShardWorkerPool(network, num_shards, num_workers)
    except Exception:  # pragma: no cover - fork failure
        return None
    _POOLS[key] = pool
    weakref.finalize(network, _retire_pool, key, weakref.ref(pool))
    while len(_POOLS) > _MAX_POOLS:
        _evicted_key, evicted = _POOLS.popitem(last=False)
        evicted.close()
    return pool


@contextlib.contextmanager
def shard_worker_pool(
    network: Network,
    num_shards: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> Iterator[ShardWorkerPool]:
    """Context manager pinning a persistent worker pool for ``network``.

    Pre-forks the pool so every ``Simulator.run`` inside the block (with the
    same resolved shard/worker counts, e.g. via ``REPRO_SHARDS`` /
    ``REPRO_SHARD_WORKERS``) reuses it, and deterministically tears the
    workers down on exit.  Counts default to the environment resolution the
    engine itself uses.  Raises :class:`ValueError` for a sub-2 worker count
    (there is nothing to pool) and :class:`RuntimeError` where pooling is
    impossible (no ``fork``, or a graph without a mutation counter).
    """
    resolved_shards = resolve_shard_count(
        network.num_nodes, None if num_shards is None else str(num_shards)
    )
    resolved_workers = resolve_worker_count(
        resolved_shards, None if num_workers is None else str(num_workers)
    )
    if resolved_workers < 2:
        raise ValueError(
            f"shard_worker_pool needs at least 2 workers; pass num_workers "
            f"or set {WORKERS_ENV_VAR}"
        )
    pool = _pool_for(network, resolved_shards, resolved_workers)
    if pool is None:
        raise RuntimeError(
            "shard worker pools are unavailable here: either this platform "
            "lacks the 'fork' start method or the graph does not track "
            "mutations"
        )
    try:
        yield pool
    finally:
        _drop_pool(pool)


# --------------------------------------------------------------------------- #
# Coordinator side.
# --------------------------------------------------------------------------- #
class _WorkerCoordinator:
    """Parent-side driver of forked workers (pooled or fresh per run).

    Speaks both worker protocols -- retained rounds (partials + opaque
    boundary bundles) and materialized rounds (full message lists, for
    observer runs) -- and turns every worker failure into a useful error:
    node-program exceptions are re-raised with the worker traceback chained,
    and a worker that dies without replying raises :class:`ShardWorkerError`
    instead of a bare ``EOFError``, after stopping the survivors.
    """

    def __init__(
        self,
        network: Network,
        view,
        workers: List[Tuple[List[int], Any, Any]],
        blocks: Tuple[Tuple[int, ...], ...],
        pool: Optional[ShardWorkerPool] = None,
    ) -> None:
        self._network = network
        self._workers = workers
        self._blocks = blocks
        self._pool = pool
        self._num_shards = view.num_shards
        self._shard_by_node = view.shard_by_node
        self._local_only = [not edges for edges in view.boundary_edges]
        self._worker_of_shard = {
            shard: worker for worker, ids in enumerate(blocks) for shard in ids
        }
        self._broken = False
        self._finished = False
        self._reset = False

    # -- pipe primitives with death detection --------------------------- #
    def _send(self, index: int, payload: Tuple, stage: str) -> None:
        _shard_ids, conn, _process = self._workers[index]
        try:
            conn.send(payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._worker_died(index, stage) from exc

    def _recv(self, index: int, stage: str):
        _shard_ids, conn, _process = self._workers[index]
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise self._worker_died(index, stage) from exc

    def _worker_died(self, index: int, stage: str) -> ShardWorkerError:
        """Build the death report and stop the surviving workers."""
        self._broken = True
        if self._pool is not None:
            self._pool._broken = True
        shard_ids, _conn, process = self._workers[index]
        process.join(timeout=1)
        exitcode = process.exitcode
        for _other_ids, _other_conn, other in self._workers:
            if other is not process and other.is_alive():
                other.terminate()
        if exitcode is None:
            how = "is unresponsive"
        elif exitcode < 0:
            how = f"was killed by signal {-exitcode}"
        else:
            how = f"exited with code {exitcode}"
        return ShardWorkerError(
            f"shard worker {index} (shards {list(shard_ids)}) died without "
            f"reporting a result for {stage}: the worker process {how}; the "
            f"surviving workers have been stopped and the run aborted"
        )

    def _fail_run(self, index: int, reply: Tuple) -> None:
        """Re-raise a worker-reported node-program exception with context."""
        _kind, exc, tb_text, failed_round = reply
        shard_ids = self._workers[index][0]
        self._reset_workers()
        cause = ShardWorkerError(
            f"node program raised in round {failed_round} on shard worker "
            f"{index} (shards {list(shard_ids)}); worker traceback:\n{tb_text}"
        )
        raise exc from cause

    def _reset_workers(self) -> None:
        self._reset = True
        for _ids, conn, _process in self._workers:
            try:
                conn.send(("reset",))
            except (BrokenPipeError, OSError):
                self._broken = True
                if self._pool is not None:
                    self._pool._broken = True

    # -- retained protocol ---------------------------------------------- #
    def route_initial(
        self, pending: List[List[Message]]
    ) -> List[List[Tuple[int, bytes]]]:
        """Bundle the initialize-round messages for the retained protocol.

        All round-1 messages are routed by the coordinator under sender
        index ``-1`` (before every worker block), with empty retained lists
        in the workers, so round 1 reproduces the global sender-shard order
        exactly like every later round.
        """
        buckets: List[Dict[int, List[Message]]] = [{} for _ in self._workers]
        for shard, out in enumerate(pending):
            if not out:
                continue
            if self._local_only[shard]:
                buckets[self._worker_of_shard[shard]].setdefault(
                    shard, []
                ).extend(out)
                continue
            for message in out:
                target = self._shard_by_node[message.receiver]
                buckets[self._worker_of_shard[target]].setdefault(
                    target, []
                ).append(message)
        return [
            [(-1, pickle.dumps(bucket))] if bucket else []
            for bucket in buckets
        ]

    def execute_round_retained(
        self, round_number: int, bundles: List[List[Tuple[int, bytes]]]
    ) -> Tuple[
        List[Optional[ShardRoundCharges]],
        List[int],
        List[List[Tuple[int, bytes]]],
        int,
    ]:
        """Run one retained round: bundles in, partials + bundles + counts out.

        The boundary bundles come back pre-pickled by the sending worker and
        are forwarded verbatim (pickling a ``bytes`` object is a memcpy), so
        the single-threaded coordinator never re-serializes message content.
        """
        stage = f"round {round_number}"
        for index in range(len(self._workers)):
            self._send(index, ("round", round_number, bundles[index]), stage)
        partials: List[Optional[ShardRoundCharges]] = [None] * self._num_shards
        actives: List[int] = [0] * self._num_shards
        outgoing: List[List[Tuple[int, bytes]]] = [[] for _ in self._workers]
        total_out = 0
        failure: Optional[Tuple[int, Tuple]] = None
        for index, (shard_ids, _conn, _process) in enumerate(self._workers):
            reply = self._recv(index, stage)
            if reply[0] == "error":
                # Keep draining the other workers so their replies do not
                # wedge the pipes; the first failure in worker order is the
                # first failing node in node order (blocks are contiguous).
                if failure is None:
                    failure = (index, reply)
                continue
            _kind, results, cross = reply
            for shard, (charges, active) in zip(shard_ids, results):
                partials[shard] = charges
                actives[shard] = active
                if charges is not None:
                    total_out += charges.messages
            for target_worker, blob in cross.items():
                outgoing[target_worker].append((index, blob))
        if failure is not None:
            self._fail_run(*failure)
        return partials, actives, outgoing, total_out

    # -- materialized protocol (observer runs) -------------------------- #
    def execute_round(
        self, round_number: int, deliveries: List[List[Message]]
    ) -> Tuple[List[List[Message]], List[int]]:
        stage = f"round {round_number}"
        for index, (shard_ids, _conn, _process) in enumerate(self._workers):
            self._send(
                index,
                ("round_full", round_number, [deliveries[s] for s in shard_ids]),
                stage,
            )
        outs: List[List[Message]] = [[] for _ in deliveries]
        actives: List[int] = [0] * len(deliveries)
        failure: Optional[Tuple[int, Tuple]] = None
        for index, (shard_ids, _conn, _process) in enumerate(self._workers):
            reply = self._recv(index, stage)
            if reply[0] == "error":
                if failure is None:
                    failure = (index, reply)
                continue
            for shard, (out, active) in zip(shard_ids, reply[1]):
                outs[shard] = out
                actives[shard] = active
        if failure is not None:
            self._fail_run(*failure)
        return outs, actives

    # -- run lifecycle --------------------------------------------------- #
    def halt_all(self) -> None:
        stage = "the quiescence halt"
        for index in range(len(self._workers)):
            self._send(index, ("halt_all",), stage)
        for index in range(len(self._workers)):
            self._recv(index, stage)

    def finish(self) -> Dict[int, NodeContext]:
        stage = "final-context collection"
        contexts: Dict[int, NodeContext] = {}
        for index in range(len(self._workers)):
            self._send(index, ("finish",), stage)
        for index in range(len(self._workers)):
            reply = self._recv(index, stage)
            for node, (memory, halted) in reply[1].items():
                ctx = NodeContext(node=node, network=self._network, memory=memory)
                ctx._halted = halted
                contexts[node] = ctx
        self._finished = True
        return contexts

    def release(self) -> None:
        """Return pooled workers to the pool, or tear down per-run workers.

        Pooled workers survive node-program errors, round-limit and
        strict-bandwidth aborts (a ``reset`` returns them to the setup
        loop); only a worker death burns the pool.
        """
        if self._pool is not None:
            if self._broken or self._pool.broken:
                _drop_pool(self._pool)
            elif not self._finished and not self._reset:
                self._reset_workers()
            return
        for _ids, conn, process in self._workers:
            try:
                if process.is_alive():
                    conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for _ids, _conn, process in self._workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5)


def _create_worker_coordinator(
    network: Network,
    view,
    states: List[_ShardState],
    algorithm: NodeAlgorithm,
    num_workers: int,
) -> Optional[_WorkerCoordinator]:
    """Workers for one run: pooled when possible, fresh forks otherwise.

    The pool path pickles ``(algorithm, snapshots)`` per run; when that fails
    (closures, exotic memory) the run silently falls back to fresh forked
    workers, which inherit the live states through ``fork``.  Returns
    ``None`` only where ``fork`` itself is unavailable (caller drops to
    shard-serial execution).
    """
    blocks = view.worker_blocks(num_workers)
    pool = _pool_for(network, view.num_shards, num_workers)
    if pool is not None and pool.begin_run(algorithm, states):
        return _WorkerCoordinator(network, view, pool._workers, blocks, pool=pool)
    mp_context = _fork_context()
    if mp_context is None:  # pragma: no cover - non-fork platform
        return None
    workers: List[Tuple[List[int], Any, Any]] = []
    try:
        for index, shard_ids in enumerate(blocks):
            parent_conn, child_conn = mp_context.Pipe()
            process = mp_context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    network,
                    _WorkerConfig(index, tuple(shard_ids), view.num_shards, blocks),
                    [states[s] for s in shard_ids],
                    algorithm,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((list(shard_ids), parent_conn, process))
    except Exception:  # pragma: no cover - fork failure mid-way
        for _ids, conn, process in workers:
            conn.close()
            process.terminate()
        raise
    return _WorkerCoordinator(network, view, workers, blocks, pool=None)


# --------------------------------------------------------------------------- #
# Round loops.
# --------------------------------------------------------------------------- #
def _retained_loop(
    network: Network,
    algorithm: NodeAlgorithm,
    max_rounds: int,
    halt_on_quiescence: bool,
    report: RoundReport,
    pending: List[List[Message]],
    total_active: int,
    coordinator: _WorkerCoordinator,
) -> Dict[int, NodeContext]:
    """Worker-retained round loop: only partials and boundary bundles move.

    Round 1's charges come from the coordinator (it drained the initialize
    outboxes); every later round's arrive as per-shard partials computed
    in-worker, merged in shard order at the top of the next round -- the
    exact accounting schedule of the serial loop.
    """
    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    partials: List[Optional[ShardRoundCharges]] = [
        ShardRoundCharges.from_messages(out, bandwidth, strict) if out else None
        for out in pending
    ]
    bundles = coordinator.route_initial(pending)
    round_number = 0
    while total_active:
        round_number += 1
        if round_number > max_rounds:
            raise RoundLimitExceeded(
                f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
            )
        max_edge_charge = ShardRoundCharges.merge_into(
            report, partials, algorithm.name, bandwidth
        )
        report.rounds += 1
        report.congested_rounds += max_edge_charge
        partials, actives, bundles, total_out = (
            coordinator.execute_round_retained(round_number, bundles)
        )
        total_active = sum(actives)
        if halt_on_quiescence and total_out == 0:
            coordinator.halt_all()
            break
    return coordinator.finish()


def _materialized_loop(
    network: Network,
    view,
    algorithm: NodeAlgorithm,
    max_rounds: int,
    halt_on_quiescence: bool,
    observer: Optional[Any],
    report: RoundReport,
    pending: List[List[Message]],
    total_active: int,
    coordinator,
) -> Dict[int, NodeContext]:
    """Fully-materialized round loop (shard-serial, or workers + observer).

    The coordinator holds every round's complete message lists, so it can
    feed the observer the exact per-round delivery stream and route per-shard
    delivery buffers itself -- the original PR 4 execution shape.
    """
    bandwidth = network.bandwidth_bits
    strict = network.config.strict_bandwidth
    shard_by_node = view.shard_by_node
    num_shards = view.num_shards
    # Messages travel only along edges, so a shard with no outgoing boundary
    # edges sends exclusively to itself: its whole out-buffer can be routed
    # in one append-preserving bulk move instead of a per-message shard
    # lookup (with REPRO_SHARDS=1 routing degenerates to a single list
    # extend per round).
    local_only = [not edges for edges in view.boundary_edges]

    round_number = 0
    while total_active:
        round_number += 1
        if round_number > max_rounds:
            raise RoundLimitExceeded(
                f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
            )

        # --- Merge per-shard charges, in stable shard order --------------- #
        max_edge_charge = ShardRoundCharges.merge_into(
            report,
            (
                ShardRoundCharges.from_messages(out, bandwidth, strict)
                if out
                else None
                for out in pending
            ),
            algorithm.name,
            bandwidth,
        )
        report.rounds += 1
        report.congested_rounds += max_edge_charge

        if observer is not None:
            observer(
                round_number,
                [message for out in pending for message in out],
            )

        # --- Route into per-shard boundary buffers ------------------------ #
        # Shard order (= contiguous sender order) so each delivery buffer
        # keeps the sparse engine's global inbox order.
        deliveries: List[List[Message]] = [[] for _ in range(num_shards)]
        for shard, out in enumerate(pending):
            if local_only[shard]:
                deliveries[shard].extend(out)
                continue
            for message in out:
                deliveries[shard_by_node[message.receiver]].append(message)

        # --- Per-shard deliver/compute phase ------------------------------ #
        pending, active_counts = coordinator.execute_round(
            round_number, deliveries
        )
        total_active = sum(active_counts)

        if halt_on_quiescence and not any(pending):
            coordinator.halt_all()
            break

    return coordinator.finish()


class ShardedEngine(ExecutionEngine):
    """Shard-partitioned executor for arbitrary node programs."""

    name = "sharded"

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        num_shards = resolve_shard_count(network.num_nodes)
        num_workers = resolve_worker_count(num_shards)
        view = network.shard_view(num_shards)
        word_bits = network.word_bits

        contexts: Dict[int, NodeContext] = {
            node: NodeContext(node=node, network=network) for node in network.nodes
        }
        if initial_memory:
            for node, memory in initial_memory.items():
                contexts[node].memory.update(memory)

        report = RoundReport(protocol=algorithm.name)

        for node in network.nodes:
            algorithm.initialize(contexts[node])

        states = [
            _ShardState(
                shard,
                {node: contexts[node] for node in view.shards[shard]},
                word_bits,
            )
            for shard in range(num_shards)
        ]
        # Messages queued during initialization, per sender shard (delivered
        # in round 1).  Drained before any fork/setup, so workers start with
        # empty outboxes and the parent keeps the round-1 buffers.
        pending: List[List[Message]] = [state.drain_initial() for state in states]
        total_active = sum(len(state.active) for state in states)

        coordinator = None
        if num_workers > 1 and total_active:
            coordinator = _create_worker_coordinator(
                network, view, states, algorithm, num_workers
            )
        # Retention needs nothing materialized in the parent; an observer
        # needs everything, so observer runs use the materialized protocol
        # (identical observer stream and error text to sparse).
        retained = coordinator is not None and observer is None
        if coordinator is None:
            coordinator = _SerialCoordinator(states, algorithm)

        try:
            if retained:
                final_contexts = _retained_loop(
                    network,
                    algorithm,
                    max_rounds,
                    halt_on_quiescence,
                    report,
                    pending,
                    total_active,
                    coordinator,
                )
            else:
                final_contexts = _materialized_loop(
                    network,
                    view,
                    algorithm,
                    max_rounds,
                    halt_on_quiescence,
                    observer,
                    report,
                    pending,
                    total_active,
                    coordinator,
                )
        finally:
            coordinator.release()

        outputs = {
            node: algorithm.output(final_contexts[node]) for node in network.nodes
        }
        return SimulationResult(outputs=outputs, report=report, contexts=final_contexts)


register_engine(ShardedEngine())
