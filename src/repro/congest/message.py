"""Messages and bandwidth accounting for the CONGEST simulator.

The CONGEST model restricts each per-edge, per-round message to
``B = O(log n)`` bits.  The simulator therefore needs a notion of *message
size in bits*.  We charge sizes as a real CONGEST algorithm designer would:

* a node identifier costs ``ceil(log2 n)`` bits,
* an integer value ``x`` costs ``bit_length(x)`` bits (at least 1),
* a float/infinity marker costs one word (``word_bits``),
* a tuple costs the sum of its parts,

and each message additionally carries a small constant tag overhead.  The
accounting is intentionally simple and explicit -- the benchmarks compare
*rounds*, and the bandwidth accounting exists to (a) verify that protocols
respect ``O(log n)``-bit messages up to the declared word count and (b) let
the simulator split oversized payloads into multiple rounds when a protocol
legitimately pipelines larger payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = [
    "Message",
    "message_size_bits",
    "encode_value",
    "id_bits",
    "make_message_sizer",
]


def id_bits(num_nodes: int) -> int:
    """Number of bits needed for a node identifier in an ``n``-node network."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    return max(1, math.ceil(math.log2(max(2, num_nodes))))


def encode_value(value: Any, word_bits: int = 32) -> int:
    """Return the size in bits used to charge ``value`` against the bandwidth.

    Parameters
    ----------
    value:
        The payload.  Supported: ``None``, bool, int, float (including
        ``inf``), str, and (nested) tuples/lists of the above.
    word_bits:
        The size charged for one machine word (floats, infinity markers).
    """
    # Containers first: payloads are mostly tuples, and no value is both a
    # container and a scalar, so the order of the checks is free.
    if isinstance(value, (tuple, list)):
        total = 2
        for item in value:
            # Exact ints and strs, the common flat-payload items, are charged
            # inline (the scalar rules below) instead of by a recursive call.
            kind = type(item)
            if kind is int:
                total += max(1, item.bit_length() + 1)
            elif kind is str:
                total += 8 * len(item)
            else:
                total += encode_value(item, word_bits)
        return total
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length() + 1)  # +1 sign bit
    if isinstance(value, float):
        return word_bits
    if isinstance(value, str):
        return 8 * len(value)
    raise TypeError(f"cannot charge bandwidth for value of type {type(value).__name__}")


class _MessageSlots:
    """Non-field slots of :class:`Message` (bookkeeping, not message content).

    ``_size_memo`` backs :meth:`Message.size_bits`; ``_fan_out`` is the token
    shared by the messages of one :meth:`Message.fan_out`; ``_charged_bits``
    is the size an engine sizer charged at enqueue time (unset until then).
    """

    __slots__ = ("_size_memo", "_fan_out", "_charged_bits")


@dataclass(frozen=True, init=False, slots=True)
class Message(_MessageSlots):
    """A single CONGEST message travelling over one edge in one round.

    Attributes
    ----------
    sender:
        Node identifier of the sending endpoint.
    receiver:
        Node identifier of the receiving endpoint.
    payload:
        The content.  Must be encodable by :func:`encode_value`.
    tag:
        A short protocol tag (e.g. ``"bfs"``, ``"sssp"``) used when several
        sub-protocols share the network; charged at 8 bits.

    Messages are slotted and built through the slot descriptors rather than
    the generated frozen ``__init__`` (one ``object.__setattr__`` per field):
    about 1.7x faster to create, and no per-instance dict.  Eq, hash and
    repr are still generated from the four fields, and assignment still
    raises ``FrozenInstanceError``.
    """

    sender: int
    receiver: int
    payload: Any
    tag: str = ""

    def __init__(self, sender: int, receiver: int, payload: Any, tag: str = "") -> None:
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_payload(self, payload)
        _set_tag(self, tag)
        _set_size_memo(self, None)
        _set_fan_out(self, None)

    @classmethod
    def fan_out(
        cls, sender: int, receivers: Iterable[int], payload: Any, tag: str = ""
    ) -> List["Message"]:
        """One message per receiver, all carrying the same ``payload`` object.

        The messages share one fan-out token, so an engine sizer walks the
        payload once for all of them (see :func:`make_message_sizer`).  The
        token is created per call: bits are shared inside one fan-out only,
        never between separate sends of the same (possibly mutated) payload
        object.  :meth:`size_bits` ignores the token, so the ``legacy``
        reference loop still sizes every message on its own.
        """
        token = object()
        messages = []
        for receiver in receivers:
            message = cls(sender, receiver, payload, tag)
            _set_fan_out(message, token)
            messages.append(message)
        return messages

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild through __init__: the generated frozen-slots pickle state
        # would leave the bookkeeping slots unset.
        return (Message, (self.sender, self.receiver, self.payload, self.tag))

    def size_bits(self, word_bits: int = 32) -> int:
        """Total charged size of the message in bits (memoized).

        The first call per ``word_bits`` walks the payload through
        :func:`encode_value` (the single source of truth for bandwidth
        charging); the result is cached on the instance so repeated
        accounting -- engine charging, observers, the Server-model replay --
        never re-walks a nested payload.  Payloads are treated as immutable
        once a message is enqueued, which the CONGEST model requires anyway
        (a sent message cannot be edited in flight).
        """
        memo = self._size_memo
        if memo is None:
            memo = {}
            _set_size_memo(self, memo)
        bits = memo.get(word_bits)
        if bits is None:
            bits = message_size_bits(self.payload, tag=self.tag, word_bits=word_bits)
            memo[word_bits] = bits
        return bits


_set_sender = Message.__dict__["sender"].__set__
_set_receiver = Message.__dict__["receiver"].__set__
_set_payload = Message.__dict__["payload"].__set__
_set_tag = Message.__dict__["tag"].__set__
_set_size_memo = _MessageSlots.__dict__["_size_memo"].__set__
_set_fan_out = _MessageSlots.__dict__["_fan_out"].__set__
_set_charged_bits = _MessageSlots.__dict__["_charged_bits"].__set__


def message_size_bits(payload: Any, tag: str = "", word_bits: int = 32) -> int:
    """Charged size in bits of a payload plus its protocol tag."""
    tag_bits = 8 if tag else 0
    return encode_value(payload, word_bits) + tag_bits


def make_message_sizer(
    word_bits: int,
) -> Callable[[Iterable[Message], List[Message]], None]:
    """Return a sizer that charges messages at enqueue time.

    ``sized(messages, out)`` sizes a drained outbox in one pass: it stamps
    each message's charged size on the message (``message._charged_bits``,
    which the engines' accounting reads) and appends it to ``out``.  Carrying
    the size on the message, rather than in a ``(message, bits)`` pair per
    message, halves the objects a round allocates for the garbage collector
    to track.  Two caches keep a payload from being walked once per receiver:

    * *fan-out reuse*: consecutive messages built by one
      :meth:`Message.fan_out` call (one ``broadcast``) carry one token and
      one payload object, so the first member's size serves the rest.  The
      token is per call, so separate sends never share a size;
    * *value cache*, shared across calls (recurring flood values across
      rounds): keyed by value, so it only admits flat tuples of exact
      ints/strs.  For those, equality implies an identical charged size,
      whereas mixed-type equal values (``1 == True == 1.0``) charge
      differently and must not share an entry.

    Every walk goes through :func:`message_size_bits`, the function
    :meth:`Message.size_bits` memoizes, so there is one source of truth.

    The sparse engine sizes through this helper and the legacy loop through
    :meth:`Message.size_bits`; both end in :func:`message_size_bits`, so the
    accounting stays bit-identical between them.
    """
    cache: Dict[Tuple[str, Any], int] = {}

    def sized(messages: Iterable[Message], out: List[Message]) -> None:
        fan = None
        bits = 0
        for message in messages:
            token = message._fan_out
            if token is None or token is not fan:
                bits = None
                payload = message.payload
                if type(payload) is tuple:
                    for item in payload:
                        kind = type(item)
                        if kind is not int and kind is not str:
                            break
                    else:
                        tag = message.tag
                        key = (tag, payload)
                        bits = cache.get(key)
                        if bits is None:
                            bits = cache[key] = message_size_bits(
                                payload, tag, word_bits
                            )
                if bits is None:
                    bits = message.size_bits(word_bits=word_bits)
                fan = token
            _set_charged_bits(message, bits)
            out.append(message)

    return sized
