"""The default event-driven engine: seed semantics, optimized hot path.

Semantics are identical to the legacy loop (the differential tests enforce
bit-identical :class:`RoundReport` numbers); the wins are purely mechanical:

* an *active list* of non-halted contexts replaces the full halted scan at
  the top of every round and restricts the receive loop to live nodes;
* per-node inbox lists are pooled and reused across rounds instead of
  rebuilding an ``n``-entry dict every round (only inboxes actually touched
  in a round are cleared) -- node programs must therefore not retain the
  inbox list they are handed beyond the ``receive`` call, which no protocol
  in the library does;
* message bit sizes are computed once, at enqueue time, by the shared
  sizer (:func:`~repro.congest.message.make_message_sizer`) and stamped on
  the message, so accounting never re-walks a payload and a round allocates
  no per-message ``(message, bits)`` pairs.  The fan-out sizing rule: the
  messages of one ``broadcast`` (one :meth:`Message.fan_out` call, one
  payload object) are charged with one payload walk; separate sends are
  never charged by payload identity, only through the sizer's value cache
  of flat int/str tuples, whose admission rule keeps equal-but-differently
  charged values (``1 == True == 1.0``) apart;
* the per-round accounting -- totals, per-edge bit sums and the max edge
  charge -- and the delivery into the inboxes run in a single pass over the
  in-flight messages.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.engine.base import ExecutionEngine, register_engine
from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.message import Message, make_message_sizer
from repro.congest.network import Network

__all__ = ["SparseEngine"]


class SparseEngine(ExecutionEngine):
    """Optimized synchronous executor for arbitrary node programs."""

    name = "sparse"

    def run(
        self,
        network: Network,
        algorithm: NodeAlgorithm,
        max_rounds: int,
        initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
        halt_on_quiescence: bool = False,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        bandwidth = network.bandwidth_bits
        word_bits = network.word_bits
        strict = network.config.strict_bandwidth

        contexts: Dict[int, NodeContext] = {
            node: NodeContext(node=node, network=network) for node in network.nodes
        }
        if initial_memory:
            for node, memory in initial_memory.items():
                contexts[node].memory.update(memory)

        report = RoundReport(protocol=algorithm.name)

        # Enqueue-time sizing: stamps each message's charged size, one payload
        # walk per fan-out (see make_message_sizer for the sharing rules).
        sized = make_message_sizer(word_bits)

        for node in network.nodes:
            algorithm.initialize(contexts[node])

        # Messages queued during initialization (delivered in round 1),
        # sized once at enqueue.
        in_flight: List[Message] = []
        for node in network.nodes:
            sized(contexts[node]._drain_outbox(), in_flight)

        active: List[NodeContext] = [
            contexts[node] for node in network.nodes if not contexts[node].halted
        ]
        inboxes: Dict[int, List[Message]] = {node: [] for node in network.nodes}

        round_number = 0
        while active:
            round_number += 1
            if round_number > max_rounds:
                raise RoundLimitExceeded(
                    f"protocol '{algorithm.name}' exceeded {max_rounds} rounds"
                )

            # --- Accounting and delivery: one pass over the messages ------- #
            # Delivery only fills engine-private inboxes, so doing it in the
            # accounting pass is unobservable: a strict-bandwidth error still
            # fires before any ``receive`` and the observer still sees the
            # round's messages first.
            max_edge_charge = 1
            touched: List[List[Message]] = []
            if in_flight:
                total_bits = report.total_bits
                max_message_bits = report.max_message_bits
                edge_bits: Dict[Tuple[int, int], int] = {}
                for message in in_flight:
                    bits = message._charged_bits
                    total_bits += bits
                    if bits > max_message_bits:
                        max_message_bits = bits
                    receiver = message.receiver
                    key = (message.sender, receiver)
                    edge_bits[key] = edge_bits.get(key, 0) + bits
                    box = inboxes[receiver]
                    if not box:
                        touched.append(box)
                    box.append(message)
                report.total_messages += len(in_flight)
                report.total_bits = total_bits
                report.max_message_bits = max_message_bits
                for bits in edge_bits.values():
                    if bits > bandwidth:
                        if strict:
                            raise ValueError(
                                f"protocol '{algorithm.name}' exceeded the "
                                f"bandwidth: {bits} bits on one edge in one "
                                f"round (B={bandwidth})"
                            )
                        charge = math.ceil(bits / bandwidth)
                        if charge > max_edge_charge:
                            max_edge_charge = charge
            report.rounds += 1
            report.congested_rounds += max_edge_charge

            if observer is not None:
                observer(round_number, list(in_flight))
            in_flight = []

            for ctx in active:
                algorithm.receive(ctx, round_number, inboxes[ctx.node])
            for ctx in active:
                if ctx._outbox:
                    sized(ctx._drain_outbox(), in_flight)
            for box in touched:
                box.clear()

            if halt_on_quiescence and not in_flight:
                for ctx in contexts.values():
                    ctx.halt()
                break
            active = [ctx for ctx in active if not ctx.halted]

        outputs = {node: algorithm.output(contexts[node]) for node in network.nodes}
        return SimulationResult(outputs=outputs, report=report, contexts=contexts)


register_engine(SparseEngine())
