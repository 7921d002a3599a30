import inspect
import json
import pickle

import pytest

from artifact._rng import Tape
from artifact.engine import (
    BandwidthViolationError,
    NodeView,
    Protocol,
    ProtocolContractError,
    RoundKind,
    Schedule,
    default_bandwidth,
    make_views,
    run,
    schedule_cost,
)
from artifact.graphs import Label, clique_graph, enumerate_small_instances, path_graph
from artifact.protocols import proto_registry, protocol_ids


class Echo(Protocol):
    """Sends a fixed payload everywhere; accepts iff it heard from everyone."""

    def __init__(self, payload="1", accept_all=True):
        self.payload = payload
        self.accept_all = accept_all

    def init(self, view):
        return {"view": view, "heard": 0}

    def round(self, state, index, kind, inbox):
        state = dict(state, heard=state["heard"] + len(inbox))
        if kind is RoundKind.BCC:
            return state, self.payload
        return state, {u: self.payload for u in state["view"].neighbors}

    def decide(self, state, inbox):
        if not self.accept_all:
            return state["view"].node != 1
        return True


class Recording(Protocol):
    """Wraps a protocol and keeps the inbox each node hands to decide."""

    def __init__(self, inner):
        self.inner = inner
        self.inboxes = {}

    def init(self, view):
        return view.node, self.inner.init(view)

    def round(self, state, index, kind, inbox):
        node, inner = state
        inner, outbox = self.inner.round(inner, index, kind, inbox)
        return (node, inner), outbox

    def decide(self, state, inbox):
        node, inner = state
        self.inboxes[node] = inbox
        return self.inner.decide(inner, inbox)


def test_default_bandwidth():
    assert default_bandwidth(1) == 4
    assert default_bandwidth(2) == 4
    assert default_bandwidth(16) == 16
    assert default_bandwidth(17) == 20
    assert default_bandwidth(1000) == 40


def test_round_kind_chars():
    for kind in RoundKind:
        assert RoundKind.from_char(kind.char) is kind
        assert kind.char == kind.value and RoundKind(kind.char) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
    with pytest.raises(ValueError):
        RoundKind.from_char("X")


@pytest.mark.parametrize("text", ["L,B", "B^3", "C,C,B^2", "L", ""])
def test_schedule_text_round_trip(text):
    sched = Schedule.parse(text)
    assert Schedule.parse(sched.text).kinds == sched.kinds


def test_schedule_parse_forms():
    sched = Schedule.parse("B^2,L")
    assert [k.char for k in sched] == ["B", "B", "L"]
    assert len(sched) == 3
    assert sched.count(RoundKind.BCC) == 2
    with pytest.raises(ValueError):
        Schedule.parse("B^0")
    with pytest.raises(ValueError):
        Schedule.parse("Q")


def test_schedule_cost():
    sched = Schedule.parse("L,B")
    assert schedule_cost(sched, 1, 1, 1) == 2
    assert schedule_cost(sched, 5, 3, 100) == 8
    assert schedule_cost(Schedule.parse("C^4"), 0, 0, 2.5) == 10.0


def test_run_unpacks_to_pair():
    verdict, transcript = run(Echo(), path_graph(3), Schedule.parse("B"))
    assert verdict.accept
    assert transcript.total_bits == 3


def test_broadcast_recorded_once_per_sender():
    echo = Recording(Echo("10"))
    result = run(echo, clique_graph(4), Schedule.parse("B"))
    events = result.transcript.events
    assert len(events) == 4
    assert all(e.receiver is None for e in events)
    assert all(e.bits == 2 for e in events)
    # every node, sender included, gets the full broadcast multiset
    assert sorted(echo.inboxes) == [1, 2, 3, 4]
    for inbox in echo.inboxes.values():
        assert sorted(s for s, _ in inbox) == [1, 2, 3, 4]


def test_congest_records_directed_messages():
    result = run(Echo("1"), path_graph(3), Schedule.parse("C"))
    pairs = {(e.sender, e.receiver) for e in result.transcript.events}
    assert pairs == {(1, 2), (2, 1), (2, 3), (3, 2)}


@pytest.mark.parametrize("text", ["L", "C"])
def test_point_to_point_inboxes_list_senders_in_order(text):
    # senders are visited in id order and each names a receiver at most once,
    # so every L and C inbox lists strictly ascending senders
    echo = Recording(Echo())
    run(echo, clique_graph(4), Schedule.parse(text))
    assert sorted(echo.inboxes) == [1, 2, 3, 4]
    for v, inbox in echo.inboxes.items():
        senders = [s for s, _ in inbox]
        assert senders == [u for u in range(1, 5) if u != v]


def test_rejectors_are_sorted_node_ids():
    verdict = run(Echo(accept_all=False), path_graph(3), Schedule.parse("B")).verdict
    assert not verdict.accept
    assert verdict.rejectors == (1,)


def test_seed_determinism():
    g = path_graph(5)
    named = proto_registry("one-marked-edge")
    first = run(named.protocol, g, named.schedule, seed=7)
    second = run(named.protocol, g, named.schedule, seed=7)
    assert first.verdict.accept == second.verdict.accept
    assert [e.payload for e in first.transcript.events] == [
        e.payload for e in second.transcript.events
    ]


def test_record_false_keeps_totals_only():
    g = clique_graph(3)
    full = run(Echo("101"), g, Schedule.parse("B,C"))
    lean = run(Echo("101"), g, Schedule.parse("B,C"), record=False)
    assert lean.transcript.events == []
    assert lean.transcript.totals == full.transcript.totals
    assert lean.verdict.accept == full.verdict.accept


def test_empty_schedule_goes_straight_to_decide():
    result = run(Echo(), path_graph(2), Schedule.parse(""))
    assert result.verdict.accept
    assert result.transcript.total_bits == 0


def test_bandwidth_violation_in_congest_round():
    sched = Schedule.parse("C", bandwidth=lambda n: 2)
    with pytest.raises(BandwidthViolationError) as err:
        run(Echo("111"), path_graph(3), sched)
    assert err.value.limit == 2
    assert err.value.size == 3


def test_bandwidth_violation_in_broadcast_round():
    sched = Schedule.parse("B", bandwidth=lambda n: 1)
    with pytest.raises(BandwidthViolationError):
        run(Echo("01"), path_graph(2), sched)


def test_local_round_is_unbounded():
    sched = Schedule.parse("L", bandwidth=lambda n: 1)
    run(Echo("1" * 5000), path_graph(2), sched)  # must not raise


def test_non_bit_payload_rejected():
    with pytest.raises(ProtocolContractError):
        run(Echo("102"), path_graph(2), Schedule.parse("B"))


class Misaddressed(Echo):
    def round(self, state, index, kind, inbox):
        return state, {99: "1"}


def test_addressing_non_neighbor_rejected():
    with pytest.raises(ProtocolContractError):
        run(Misaddressed(), path_graph(2), Schedule.parse("L"))


class BadReturn(Echo):
    def round(self, state, index, kind, inbox):
        return state


def test_round_must_return_pair():
    with pytest.raises(ProtocolContractError):
        run(BadReturn(), path_graph(2), Schedule.parse("L"))


class Faulty(Echo):
    """Echo, except that node 3 returns `fault(state, outbox)` in round 2."""

    def __init__(self, fault):
        super().__init__()
        self.fault = fault

    def round(self, state, index, kind, inbox):
        state, out = super().round(state, index, kind, inbox)
        if index == 2 and state["view"].node == 3:
            return self.fault(state, out)
        return state, out


def _each(payload):
    """Replace every payload of an outbox, broadcast or point-to-point."""
    return lambda state, out: (
        state, {u: payload for u in out} if isinstance(out, dict) else payload
    )


# fault -> (kinds it applies to, its fault, the error, the message after "node 3 ")
CONTRACT_FAULTS = {
    "non-bit payload": ("BLC", _each("102"), ProtocolContractError, "produced a non-bit payload '102'"),
    "non-str payload": ("BLC", _each(7), ProtocolContractError, "produced a non-bit payload 7"),
    "non-neighbour": ("LC", lambda state, out: (state, {99: "1"}), ProtocolContractError,
                      "addressed non-neighbor 99"),
    "non-dict outbox": ("LC", lambda state, out: (state, "1"), ProtocolContractError,
                        "must return a neighbor->bits dict"),
    "bad round() return": ("BLC", lambda state, out: state, ProtocolContractError,
                           "round() must return (state, outbox)"),
    "bandwidth": ("BC", _each("11111"), BandwidthViolationError, "sent 5 bits (limit 4)"),
    "bytes over the cap": ("BC", _each(b"\x00"), BandwidthViolationError, "sent 8 bits (limit 4)"),
}


@pytest.mark.parametrize(
    "fault,kind",
    [(fault, kind) for fault, (kinds, *_) in CONTRACT_FAULTS.items() for kind in kinds],
)
def test_contract_errors_name_the_round_and_the_node(fault, kind):
    _, make, error, message = CONTRACT_FAULTS[fault]
    sched = Schedule.parse(f"{kind},{kind}", bandwidth=lambda n: 4)
    with pytest.raises(error) as err:
        run(Faulty(make), clique_graph(4), sched)
    assert type(err.value) is error
    assert str(err.value) == f"round 2: node 3 {message}"


@pytest.mark.parametrize("row", protocol_ids())
def test_recording_modes_agree(row):
    named = proto_registry(row)
    for g in enumerate_small_instances(named.family, 2):
        full_rec, lean_rec = Recording(named.protocol), Recording(named.protocol)
        full = run(full_rec, g, named.schedule)
        lean = run(lean_rec, g, named.schedule, record=False)
        assert full.verdict == lean.verdict
        assert full.verdict.rejectors == lean.verdict.rejectors
        assert full.transcript.totals == lean.transcript.totals
        assert full.transcript.max_bits == lean.transcript.max_bits
        assert full_rec.inboxes == lean_rec.inboxes
        assert lean.transcript.events == []
        sums, tops = {"L": 0, "B": 0, "C": 0}, {"L": 0, "B": 0, "C": 0}
        rendered = json.loads(full.transcript.to_json())["events"]
        for e, shown in zip(full.transcript.events, rendered, strict=True):
            assert e.bits == len(shown["payload"])
            sums[e.kind] += e.bits
            tops[e.kind] = max(tops[e.kind], e.bits)
        assert sums == full.transcript.totals
        assert tops == full.transcript.max_bits


class Coin(Protocol):
    """Broadcasts 8 bits from its node's tape each round; accepts iff its
    next bit is 1."""

    def init(self, view):
        return Tape(view.seed, view.node)

    def round(self, tape, index, kind, inbox):
        return tape, tape.bits(8)

    def decide(self, tape, inbox):
        return tape.bit() == 1


def test_make_views_exposes_local_information_only():
    g = path_graph(3)
    views = make_views(g, seed=5)
    assert views[2].neighbors == (1, 3)
    assert views[2].n == 3 and views[2].big_n == 3
    assert views[2].seed == 5

    def outcome(seed):
        verdict, transcript = run(Coin(), g, Schedule.parse("B^2"), seed=seed)
        return tuple(verdict.per_node.items()), transcript.to_json()

    assert outcome(5) == outcome(5)
    assert len({outcome(seed) for seed in range(4)}) > 1
    # nodes of one run draw from different tapes
    _, transcript = run(Coin(), g, Schedule.parse("B"), seed=5)
    assert len({e.payload for e in transcript.events}) == 3


def test_node_view_is_an_immutable_value():
    view = make_views(path_graph(3), seed=5)[2]
    assert list(inspect.signature(NodeView).parameters) == [
        "node", "n", "big_n", "neighbors", "label", "seed",
    ]
    assert view == NodeView(2, 3, 3, (1, 3), Label.blank(), 5)
    with pytest.raises(AttributeError):
        view.node = 1
    assert pickle.loads(pickle.dumps(view)) == view


# payloads every round kind refuses, short and longer than 32 characters
NON_BITS = ["0_1", " 01", "01\n", "\uff10\uff11", "0\u0661"]
NON_BITS += ["01" * 20 + bad for bad in NON_BITS] + ["01" * 20 + "2" + "01" * 20]
NON_STR = [None, 7, bytearray(b"01"), ["0", "1"]]


@pytest.mark.parametrize("kind", "BLC")
@pytest.mark.parametrize("payload", NON_BITS + NON_STR)
def test_non_bit_payloads_rejected_at_every_length(payload, kind):
    sched = Schedule.parse(f"{kind},{kind}", bandwidth=lambda n: 100)
    with pytest.raises(ProtocolContractError) as err:
        run(Faulty(_each(payload)), clique_graph(4), sched)
    assert str(err.value) == f"round 2: node 3 produced a non-bit payload {payload!r}"


def test_transcript_serialization():
    result = run(Echo("1"), path_graph(2), Schedule.parse("C,B"))
    csv = result.transcript.to_csv()
    assert csv.splitlines()[0] == "round,kind,sender,receiver,bits"
    assert "2,B,1,,1" in csv
    json_text = result.transcript.to_json()
    assert '"totals"' in json_text


@pytest.mark.parametrize("kind", "BLC")
def test_bytes_payload_counts_eight_bits_per_byte(kind):
    payload = b"\x00\xa5"
    echo = Recording(Echo(payload))
    result = run(echo, path_graph(2), Schedule.parse(kind, bandwidth=lambda n: 16))
    transcript = result.transcript
    assert transcript.totals[kind] == 2 * 16 and transcript.max_bits[kind] == 16
    assert all(e.bits == 16 and e.payload is payload for e in transcript.events)
    # the receiver gets the bytes object; the transcript shows its bit string
    assert sorted(echo.inboxes) == [1, 2]
    assert all(msg is payload for inbox in echo.inboxes.values() for _, msg in inbox)
    shown = {e["payload"] for e in json.loads(transcript.to_json())["events"]}
    assert shown == {"0000000010100101"}
