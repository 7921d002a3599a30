"""Synchronous round-based execution of node protocols over labeled graphs.

A schedule is an ordered list of round kinds:

* ``L`` — every node may send one message of unbounded size to each neighbor;
* ``C`` — one message per neighbor, each capped at ``bandwidth(n)`` bits;
* ``B`` — one broadcast of at most ``bandwidth(n)`` bits, delivered to every
  node in the graph (the sender included), so all nodes see the identical
  multiset of broadcasts.

Timing contract: messages sent in round r are delivered at the *end* of round
r, so the inbox passed to ``Protocol.round`` for round r+1 holds round r's
deliveries (round 1 sees an empty inbox), and the final round's deliveries are
handed to ``Protocol.decide``. Inbox entries are (sender id, payload) pairs
sorted by sender; sender identity rides free and is not metered. A node that
sends nothing to some neighbor simply does not appear in that inbox — an
explicit empty-string message does.

Payload rule, the same for every round kind: a payload is a bit string, given
either as a ``str`` over {0,1} or as ``bytes``, counted as 8 bits per byte
(how the pickled records of unbounded rounds travel, see ``_codec``). The
receiver gets the payload object as sent; a transcript renders bytes as their
bit string. B and C rounds apply the cap to the counted bits.

The engine draws no randomness: a node's view carries the run seed, and a
protocol that wants random bits seeds its own per-node generator from
(view.seed, view.node).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, NamedTuple, Sized

from ._bits import bytes_to_bits
from .graphs import Label, LabeledGraph

Inbox = tuple[tuple[int, str | bytes], ...]


class RoundKind(Enum):
    LOCAL = "L"
    BCC = "B"
    CONGEST = "C"

    def __init__(self, char: str):
        # a plain attribute: hot loops read it far faster than Enum.value
        self.char = char

    @staticmethod
    def from_char(c: str) -> "RoundKind":
        try:
            return _KIND_BY_CHAR[c]
        except KeyError:
            raise ValueError(f"unknown round kind {c!r}") from None


_KIND_BY_CHAR = {k.char: k for k in RoundKind}


def default_bandwidth(n: int) -> int:
    """4 * ceil(log2(max(n, 2))) bits — enough for a handful of id-width fields."""
    return 4 * (max(n, 2) - 1).bit_length()


@dataclass(frozen=True)
class Schedule:
    """Ordered round kinds plus the bit budget for capped rounds."""

    kinds: tuple[RoundKind, ...]
    bandwidth: Callable[[int], int] = field(default=default_bandwidth, compare=False)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[RoundKind]:
        return iter(self.kinds)

    def count(self, kind: RoundKind) -> int:
        return sum(1 for k in self.kinds if k is kind)

    @property
    def text(self) -> str:
        """Canonical text form, run-length encoded: 'L,B', 'B^3'."""
        if not self.kinds:
            return ""
        parts = []
        run_kind, run_len = self.kinds[0], 1
        for k in self.kinds[1:]:
            if k is run_kind:
                run_len += 1
            else:
                parts.append(run_kind.char if run_len == 1 else f"{run_kind.char}^{run_len}")
                run_kind, run_len = k, 1
        parts.append(run_kind.char if run_len == 1 else f"{run_kind.char}^{run_len}")
        return ",".join(parts)

    @staticmethod
    def parse(text: str, bandwidth: Callable[[int], int] = default_bandwidth) -> "Schedule":
        """Parse 'L,B', 'B^3', 'C,C,B^2' style schedule text."""
        kinds: list[RoundKind] = []
        stripped = text.strip()
        if stripped:
            for token in stripped.split(","):
                token = token.strip()
                base, _, exp = token.partition("^")
                reps = 1
                if exp:
                    if not exp.isdigit() or int(exp) < 1:
                        raise ValueError(f"bad repetition in schedule token {token!r}")
                    reps = int(exp)
                kinds.extend([RoundKind.from_char(base)] * reps)
        return Schedule(tuple(kinds), bandwidth)


def schedule_cost(schedule: Schedule, a: float, b: float, c: float) -> float:
    """Weighted round count: a per L round, b per B round, c per C round."""
    return (
        a * schedule.count(RoundKind.LOCAL)
        + b * schedule.count(RoundKind.BCC)
        + c * schedule.count(RoundKind.CONGEST)
    )


class EngineError(Exception):
    pass


class BandwidthViolationError(EngineError):
    def __init__(self, round_index: int, sender: int, size: int, limit: int):
        self.round_index = round_index
        self.sender = sender
        self.size = size
        self.limit = limit
        super().__init__(
            f"round {round_index}: node {sender} sent {size} bits (limit {limit})"
        )


class ProtocolContractError(EngineError):
    pass


class NodeView(NamedTuple):
    """What a node knows at wake-up: its id, the graph size n, the id-space
    bound N, its sorted neighbor ids, its label, and the run seed."""

    node: int
    n: int
    big_n: int
    neighbors: tuple[int, ...]
    label: Label
    seed: int


class Protocol:
    """Node-protocol interface; see the module docstring for inbox timing."""

    def init(self, view: NodeView):
        raise NotImplementedError

    def round(self, state, index: int, kind: RoundKind, inbox: Inbox):
        """Return (new state, outbox). Outbox: for B a single payload; for
        L/C a dict neighbor-id -> payload (missing neighbors stay silent). A
        payload is a str over {0,1} or bytes (module docstring)."""
        raise NotImplementedError

    def decide(self, state, inbox: Inbox) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class TranscriptEvent:
    round_index: int
    kind: str
    sender: int
    receiver: int | None  # None = broadcast to all
    bits: int
    payload: str | bytes


class Transcript:
    """Byte-exact record of everything sent: events plus per-kind bit totals.

    Broadcast messages appear once per sender. With record=False only the
    totals are kept (events list stays empty) — the cheap mode for sweeps.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.events: list[TranscriptEvent] = []
        self.totals: dict[str, int] = {"L": 0, "B": 0, "C": 0}
        self.max_bits: dict[str, int] = {"L": 0, "B": 0, "C": 0}

    @property
    def total_bits(self) -> int:
        return sum(self.totals.values())

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "totals": self.totals,
                "events": [
                    {
                        "round": e.round_index,
                        "kind": e.kind,
                        "sender": e.sender,
                        "receiver": e.receiver,
                        "bits": e.bits,
                        "payload": e.payload
                        if isinstance(e.payload, str)
                        else bytes_to_bits(e.payload),
                    }
                    for e in self.events
                ],
            },
            indent=indent,
        )

    def to_csv(self) -> str:
        lines = ["round,kind,sender,receiver,bits"]
        for e in self.events:
            recv = "" if e.receiver is None else str(e.receiver)
            lines.append(f"{e.round_index},{e.kind},{e.sender},{recv},{e.bits}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    per_node: Mapping[int, bool]

    @property
    def accept(self) -> bool:
        """Global acceptance: every single node accepted."""
        return all(self.per_node.values())

    @property
    def rejectors(self) -> tuple[int, ...]:
        return tuple(v for v, ok in sorted(self.per_node.items()) if not ok)


@dataclass
class RunResult:
    verdict: Verdict
    transcript: Transcript

    def __iter__(self):
        # allow `verdict, transcript = run(...)`
        return iter((self.verdict, self.transcript))


def make_views(graph: LabeledGraph, seed: int) -> dict[int, NodeView]:
    n, big_n, adj, labels = graph.n, graph.big_n, graph.adjacency, graph.labels
    return {v: NodeView(v, n, big_n, adj[v], labels[v], seed) for v in graph.nodes}


def _non_bit(payload, round_index: int, sender: int) -> ProtocolContractError:
    shown = repr(payload)
    if len(shown) > 100:  # a type, a length and a prefix name it well enough
        size = f" of length {len(payload)}" if isinstance(payload, Sized) else ""
        shown = f"<{type(payload).__name__}{size}> {shown[:40]}..."
    return ProtocolContractError(
        f"round {round_index}: node {sender} produced a non-bit payload {shown}"
    )


def run(
    protocol: Protocol,
    graph: LabeledGraph,
    schedule: Schedule,
    seed: int = 0,
    record: bool = True,
) -> RunResult:
    """Execute the protocol once; deterministic given (protocol, graph,
    schedule, seed). Returns a RunResult that unpacks to (verdict, transcript).
    """
    init, round_, decide = protocol.init, protocol.round, protocol.decide
    nodes = graph.nodes
    # states and inboxes by node position
    states = [init(view) for view in make_views(graph, seed).values()]
    inboxes: list[Inbox] = [()] * len(nodes)
    transcript = Transcript(record)
    events, totals, max_bits = transcript.events, transcript.totals, transcript.max_bits
    bw = schedule.bandwidth(graph.n)
    kinds = schedule.kinds
    nbr_sets = graph.neighbor_sets

    for round_index, kind in enumerate(kinds, start=1):
        outs = []
        for i, v in enumerate(nodes):
            result = round_(states[i], round_index, kind, inboxes[i])
            if not isinstance(result, tuple) or len(result) != 2:
                raise ProtocolContractError(
                    f"round {round_index}: node {v} round() must return (state, outbox)"
                )
            states[i] = result[0]
            outs.append(result[1])

        kind_char = kind.char
        broadcast = kind is RoundKind.BCC
        limit = None if kind is RoundKind.LOCAL else bw
        buckets: dict[int, list[tuple[int, str | bytes]]] = {v: [] for v in nodes}
        bits = top = 0
        for v, outbox, nbrs in zip(nodes, outs, nbr_sets):
            if broadcast:
                sent = ((None, outbox),)  # one message, to every node
            elif isinstance(outbox, dict):
                sent = outbox.items()
            else:
                raise ProtocolContractError(
                    f"round {round_index}: node {v} must return a neighbor->bits dict"
                )
            for u, payload in sent:
                if u not in nbrs and not broadcast:
                    raise ProtocolContractError(
                        f"round {round_index}: node {v} addressed non-neighbor {u}"
                    )
                # the payload rule (module docstring), for every round kind
                if isinstance(payload, str) and not payload.strip("01"):
                    size = len(payload)
                elif isinstance(payload, bytes):
                    size = len(payload) << 3
                else:
                    raise _non_bit(payload, round_index, v)
                if limit is not None and size > limit:
                    raise BandwidthViolationError(round_index, v, size, limit)
                bits += size
                if size > top:
                    top = size
                if record:
                    events.append(TranscriptEvent(round_index, kind_char, v, u, size, payload))
                if not broadcast:
                    buckets[u].append((v, payload))
        if broadcast:
            shared: Inbox = tuple(zip(nodes, outs))
            inboxes = [shared] * len(nodes)
        else:
            # senders ran in id order and name each receiver once: already sorted
            inboxes = [tuple(bucket) for bucket in buckets.values()]
        totals[kind_char] += bits
        if top > max_bits[kind_char]:
            max_bits[kind_char] = top

    per_node = {v: bool(decide(state, inbox)) for v, state, inbox in zip(nodes, states, inboxes)}
    return RunResult(Verdict(per_node), transcript)
