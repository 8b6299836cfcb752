"""The per-node program interface for the CONGEST simulator.

A distributed algorithm is written as a :class:`NodeAlgorithm` subclass.  The
simulator instantiates *one shared algorithm object* and calls it once per
node per round with that node's :class:`NodeContext`; all per-node state must
live in ``ctx.memory`` (a plain dict), never on the algorithm object.  This
mirrors how CONGEST algorithms are described in the literature -- a single
program text executed by every processor on its local state -- and keeps the
simulator honest: a node can only act on information that has reached it
through messages.

``NodeContext.send`` and ``NodeContext.broadcast`` are the only ways to queue
a message.  ``send`` checks its receiver against the network's memoized
neighbor set; ``broadcast`` is one *fan-out*: one neighbor lookup and one
message per neighbor, all sharing the payload object, which the ``sparse``
engine charges with a single payload walk (see
:func:`repro.congest.message.make_message_sizer`).  Sizes are shared inside
one fan-out only: two separate sends of the same payload object are sized
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.message import Message
from repro.congest.network import Network

__all__ = ["NodeContext", "NodeAlgorithm"]


@dataclass
class NodeContext:
    """Per-node execution context handed to the node program every round.

    Attributes
    ----------
    node:
        This node's identifier.
    network:
        The network (used only for *local* information: neighbors, incident
        edge weights, the global parameters ``n``, ``B`` and ``W`` which the
        model assumes are common knowledge).
    memory:
        The node's local memory; arbitrary per-node state.
    """

    node: int
    network: Network
    memory: Dict[str, Any] = field(default_factory=dict)
    _outbox: List[Message] = field(default_factory=list)
    _halted: bool = False

    # ------------------------------------------------------------------ #
    # Local knowledge
    # ------------------------------------------------------------------ #
    @property
    def neighbors(self) -> Tuple[int, ...]:
        """Identifiers of this node's neighbors."""
        return self.network.neighbors(self.node)

    @property
    def num_nodes(self) -> int:
        """The globally known network size ``n``."""
        return self.network.num_nodes

    def edge_weight(self, neighbor: int) -> int:
        """Weight of the edge to ``neighbor`` (locally known)."""
        return self.network.edge_weight(self.node, neighbor)

    @property
    def incident_weights(self) -> Dict[int, int]:
        """Mapping neighbor -> incident edge weight."""
        return self.network.incident_weights(self.node)

    # ------------------------------------------------------------------ #
    # Communication
    # ------------------------------------------------------------------ #
    def send(self, neighbor: int, payload: Any, tag: str = "") -> None:
        """Queue a message to ``neighbor`` for delivery next round."""
        if neighbor not in self.network.neighbor_set(self.node):
            raise ValueError(
                f"node {self.node} tried to send to non-neighbor {neighbor}"
            )
        self._outbox.append(Message(self.node, neighbor, payload, tag))

    def broadcast(self, payload: Any, tag: str = "") -> None:
        """Queue the same message to every neighbor.

        One fan-out: one neighbor lookup, no per-receiver membership check
        (every receiver is a neighbor by construction) and messages that
        share one payload object, so the engine sizer walks the payload once
        for all of them (:meth:`Message.fan_out`).
        """
        node = self.node
        self._outbox.extend(
            Message.fan_out(node, self.network.neighbors(node), payload, tag)
        )

    def halt(self) -> None:
        """Mark this node as finished; it will not be scheduled again."""
        self._halted = True

    @property
    def halted(self) -> bool:
        """Whether this node has halted."""
        return self._halted

    # Internal: the simulator drains the outbox each round.
    def _drain_outbox(self) -> List[Message]:
        outbox, self._outbox = self._outbox, []
        return outbox


class NodeAlgorithm:
    """Base class for CONGEST node programs.

    Subclasses override :meth:`initialize`, :meth:`receive` and
    :meth:`output`.  The simulator drives them as follows::

        for every node v:   initialize(ctx_v)            # before round 1
        for round r = 1, 2, ...:
            deliver messages queued in round r-1
            for every non-halted node v:  receive(ctx_v, r, inbox_v)
        until all nodes halted (or the round limit is hit)
        for every node v:   outputs[v] = output(ctx_v)
    """

    #: Human-readable protocol name used in round reports.
    name: str = "node-algorithm"

    def message_schema(self) -> Optional[Any]:
        """Declare a structured numeric message schema, if the protocol has one.

        Returning a :class:`repro.congest.engine.schema.MinPlusSchema`
        makes the protocol eligible for the vectorized ``dense`` execution
        engine, which runs whole rounds as scatter/reduce over the network's
        CSR adjacency instead of interpreting ``receive`` per node.  The
        schema must describe the protocol *exactly* -- the engines are
        required to produce bit-identical round reports -- so only declare
        one when every message the protocol sends fits the schema's shape.
        The default ``None`` keeps the protocol on the general engines.
        """
        return None

    def initialize(self, ctx: NodeContext) -> None:
        """Set up local state; may queue messages for round 1."""

    def receive(
        self, ctx: NodeContext, round_number: int, messages: List[Message]
    ) -> None:
        """Process the messages delivered this round; may queue messages and halt.

        ``messages`` is only valid for the duration of the call: the engines
        may pool and reuse the inbox list across rounds, so a node program
        that wants to keep messages around must copy them
        (``list(messages)``), never store the list itself.
        """
        raise NotImplementedError

    def output(self, ctx: NodeContext) -> Optional[Any]:
        """Return this node's final output (``None`` by default)."""
        return None
