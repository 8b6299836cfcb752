"""The send/broadcast fan-out contract of the stepping engines.

``NodeContext.broadcast`` builds one fan-out (:meth:`Message.fan_out`) whose
messages share one payload walk; ``NodeContext.send`` checks its receiver
against the memoized neighbor set.  These tests pin what must not change
with those shortcuts: a non-neighbor send still raises on every engine that
interprets node programs, a protocol that mixes sends and broadcasts of
tuple and list payloads is observed and charged identically on ``legacy``
and ``sparse`` (strict-bandwidth aborts included), sizes are
shared inside one fan-out only, and the neighbor memo follows graph
mutations.
"""

from __future__ import annotations

import pickle

import pytest

from repro.congest import CongestConfig, Network, NodeAlgorithm, Simulator
from repro.congest.algorithm import NodeContext
from repro.congest.message import Message, make_message_sizer, message_size_bits
from repro.graphs import WeightedGraph, cycle_graph, random_weighted_graph

pytestmark = pytest.mark.engines

#: The engines that interpret node programs round by round.
STEPPING = ["legacy", "sparse"]


def _run(network, algorithm, engine, **kwargs):
    return Simulator(network).run(algorithm, engine=engine, **kwargs)


class _SendToStranger(NodeAlgorithm):
    """Node ``sender`` sends to ``target`` in round ``at_round`` (0 = init)."""

    name = "send-to-stranger"

    def __init__(self, sender, target, at_round):
        self.sender = sender
        self.target = target
        self.at_round = at_round

    def initialize(self, ctx):
        if self.at_round == 0 and ctx.node == self.sender:
            ctx.send(self.target, ("x",))

    def receive(self, ctx, round_number, messages):
        if round_number == self.at_round and ctx.node == self.sender:
            ctx.send(self.target, ("x",))
        if round_number >= max(1, self.at_round):
            ctx.halt()


@pytest.mark.parametrize("engine", STEPPING)
@pytest.mark.parametrize("target", [2, 0, 99], ids=["non-adjacent", "self", "unknown"])
@pytest.mark.parametrize("at_round", [0, 1], ids=["initialize", "receive"])
def test_send_to_non_neighbor_raises(engine, target, at_round):
    network = Network(cycle_graph(5))  # node 0's neighbors are 1 and 4
    algorithm = _SendToStranger(0, target, at_round)
    with pytest.raises(ValueError, match=f"non-neighbor {target}"):
        _run(network, algorithm, engine)


class _FanOutMix(NodeAlgorithm):
    """A schema-less protocol mixing every send shape the sizer handles.

    Each node, every round until ``rounds``:

    * broadcasts a flat int/str tuple (admitted to the value cache);
    * broadcasts its ``log`` list (unhashable: fan-out reuse only), then
      sends the same list object again to its first neighbor as a separate
      send; the list grows every round (a new object: a sent payload is
      never mutated, which the model forbids);
    * sends a nested tuple and a list with a node-dependent string to its
      first neighbor, so per-edge bit sums differ from edge to edge.

    Outputs record every received message in inbox order.
    """

    name = "fan-out-mix"

    def __init__(self, rounds):
        self.rounds = rounds

    def initialize(self, ctx):
        ctx.memory["log"] = [ctx.node]
        ctx.memory["got"] = []
        self._speak(ctx, 0)

    def receive(self, ctx, round_number, messages):
        ctx.memory["got"].extend(
            (m.sender, m.tag, repr(m.payload)) for m in messages
        )
        if round_number >= self.rounds:
            ctx.halt()
            return
        self._speak(ctx, round_number)

    def _speak(self, ctx, round_number):
        node = ctx.node
        log = ctx.memory["log"] = ctx.memory["log"] + [round_number * 37 + node]
        ctx.broadcast(("t", node, round_number), tag="tu")
        ctx.broadcast(log, tag="li")
        first = ctx.neighbors[0]
        ctx.send(first, log, tag="li")
        ctx.send(first, (node, (round_number, 2.5)))
        ctx.send(first, [round_number, "x" * (node % 4)], tag="s")

    def output(self, ctx):
        return list(ctx.memory["got"])


def _mix_network(strict=False, bandwidth_words=2):
    graph = random_weighted_graph(9, average_degree=3.0, max_weight=5, seed=3)
    config = CongestConfig(bandwidth_words=bandwidth_words, strict_bandwidth=strict)
    return Network(graph, config)


def _observed(network, engine, rounds=5):
    """Run the mix under an observer; return (stream, result or ValueError)."""
    stream = []
    word_bits = network.word_bits

    def observer(round_number, delivered):
        # Snapshot payloads as delivered.
        stream.append(
            (
                round_number,
                [
                    (m.sender, m.receiver, repr(m.payload), m.tag, m.size_bits(word_bits))
                    for m in delivered
                ],
            )
        )

    try:
        result = _run(network, _FanOutMix(rounds), engine, observer=observer)
    except ValueError as exc:
        return stream, exc
    return stream, result


def _edge_sums(delivered):
    sums = {}
    for sender, receiver, _payload, _tag, bits in delivered:
        sums[(sender, receiver)] = sums.get((sender, receiver), 0) + bits
    return sums


def test_mixed_fan_out_protocol_identical_on_stepping_engines():
    network = _mix_network()
    runs = {engine: _observed(network, engine) for engine in STEPPING}
    reference_stream, reference = runs.pop("legacy")
    assert reference.report.total_messages > 0
    assert reference.report.congested_rounds > reference.report.rounds
    for name, (stream, result) in runs.items():
        assert stream == reference_stream, f"{name} observer stream diverged"
        assert result.report == reference.report, f"{name} report diverged"
        assert result.outputs == reference.outputs, f"{name} outputs diverged"


def test_mixed_fan_out_reports_identical_without_observer():
    network = _mix_network()
    reports = {
        engine: _run(network, _FanOutMix(5), engine).report for engine in STEPPING
    }
    reference = reports.pop("legacy")
    for name, report in reports.items():
        assert report == reference, f"{name} report diverged"


def test_strict_bandwidth_raises_on_the_same_edge_everywhere():
    # From the non-strict reference stream: the budget that round 1 just
    # fits, then the first edge over it.  The strict run must abort in that
    # round, naming that edge's bit sum, on every engine.
    loose_stream, _ = _observed(_mix_network(), "legacy")
    word_bits = _mix_network().word_bits
    words = -(-max(_edge_sums(loose_stream[0][1]).values()) // word_bits)
    budget = words * word_bits
    first_round, edge, edge_sum = next(
        (number, key, bits)
        for number, delivered in loose_stream
        for key, bits in _edge_sums(delivered).items()
        if bits > budget
    )
    assert first_round > 1
    # The reported bit sum pins the edge: no other edge of that round has it.
    sums = _edge_sums(loose_stream[first_round - 1][1])
    assert [key for key, bits in sums.items() if bits == edge_sum] == [edge]

    for engine in STEPPING:
        stream, outcome = _observed(
            _mix_network(strict=True, bandwidth_words=words), engine
        )
        assert isinstance(outcome, ValueError), f"{engine} did not raise"
        assert f": {edge_sum} bits on one edge" in str(outcome), engine
        assert stream == loose_stream[: first_round - 1], engine


# --------------------------------------------------------------------------- #
# Sizer and message-level contract.
# --------------------------------------------------------------------------- #
def test_fan_out_members_share_one_walk(monkeypatch):
    import repro.congest.message as message_module

    walks = []
    original = message_module.message_size_bits

    def counting(payload, tag="", word_bits=32):
        walks.append(payload)
        return original(payload, tag, word_bits)

    monkeypatch.setattr(message_module, "message_size_bits", counting)
    sized = make_message_sizer(16)
    payload = [1, [2, 3], "ab"]  # unhashable: no value cache
    out = []
    sized(Message.fan_out(0, [1, 2, 3, 4], payload, "t"), out)
    assert len(walks) == 1
    assert [m.receiver for m in out] == [1, 2, 3, 4]
    assert {m._charged_bits for m in out} == {original(payload, "t", 16)}


def test_sizes_never_shared_across_separate_sends():
    sized = make_message_sizer(16)
    payload = [1]
    out = []
    sized([Message(0, 1, payload)], out)
    payload.extend([2 ** 40, "long string"])  # mutated after the first drain
    sized([Message(0, 1, payload)], out)
    sized(Message.fan_out(0, [1, 2], payload), out)
    assert out[0]._charged_bits == message_size_bits([1], "", 16)
    fresh = message_size_bits(payload, "", 16)
    assert [m._charged_bits for m in out[1:]] == [fresh, fresh, fresh]


def test_two_broadcasts_of_one_object_are_separate_fan_outs():
    # Engines size each outbox as they drain it, before the next round's
    # node programs run: a payload mutated after that is a new charge.
    ctx = NodeContext(node=0, network=Network(cycle_graph(4)))
    sized = make_message_sizer(8)
    out = []
    payload = [7]
    ctx.broadcast(payload)
    sized(ctx._drain_outbox(), out)
    payload.append(2 ** 30)
    ctx.broadcast(payload)
    sized(ctx._drain_outbox(), out)
    assert [m._charged_bits for m in out] == (
        [message_size_bits([7], "", 8)] * 2 + [message_size_bits(payload, "", 8)] * 2
    )


def test_fan_out_messages_are_ordinary_messages():
    fan = Message.fan_out(3, (1, 2), ("d", 3, 9), "bf")
    plain = [Message(3, 1, ("d", 3, 9), "bf"), Message(3, 2, ("d", 3, 9), "bf")]
    assert fan == plain
    assert [hash(m) for m in fan] == [hash(m) for m in plain]
    assert [repr(m) for m in fan] == [repr(m) for m in plain]
    assert fan[0].size_bits(8) == plain[0].size_bits(8)


def test_pickled_message_keeps_fields():
    out = []
    make_message_sizer(8)(Message.fan_out(0, [1], ("a", 5), "t"), out)
    clone = pickle.loads(pickle.dumps(out[0]))
    assert clone == out[0]
    assert clone.size_bits(8) == out[0]._charged_bits
    unsized = pickle.loads(pickle.dumps(Message(0, 1, [2])))
    assert unsized.size_bits(8) == message_size_bits([2], "", 8)


# --------------------------------------------------------------------------- #
# Neighbor memo.
# --------------------------------------------------------------------------- #
def test_neighbor_memo_follows_graph_mutation():
    graph = WeightedGraph(edges=[(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    network = Network(graph)
    assert network.neighbors(1) == (0, 2)
    assert network.neighbors(1) is network.neighbors(1)  # memoized
    assert network.neighbor_set(1) == frozenset({0, 2})

    graph.add_edge(1, 3, 4)
    assert network.neighbors(1) == (0, 2, 3)
    assert network.neighbor_set(1) == frozenset({0, 2, 3})
    ctx = NodeContext(node=1, network=network)
    ctx.send(3, ("ok",))

    graph.remove_edge(0, 1)
    assert network.neighbors(1) == (2, 3)
    assert 0 not in network.neighbor_set(1)
    with pytest.raises(ValueError, match="non-neighbor 0"):
        ctx.send(0, ("gone",))
    ctx.broadcast(("all",))
    assert [m.receiver for m in ctx._drain_outbox()] == [3, 2, 3]


def test_neighbor_memo_tolerates_networks_built_without_init():
    graph = WeightedGraph(edges=[(0, 1, 1), (0, 2, 1)])
    network = Network.__new__(Network)
    network._graph = graph
    assert network.neighbors(0) == (1, 2)
    assert network.neighbor_set(0) == frozenset({1, 2})
