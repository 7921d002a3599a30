import itertools
from collections import Counter
from types import MappingProxyType

import pytest

from artifact import transforms
from artifact._codec import bytes_to_obj, obj_to_bytes
from artifact.engine import Protocol, RoundKind, Schedule, run
from artifact.graphs import LabeledGraph, all_graphs, cycle_graph, random_labeled_graph
from artifact.languages import membership
from artifact.protocols import FullStateStressProtocol, proto_registry
from artifact.transforms import (
    UnsupportedScheduleError,
    composed_bandwidth,
    normalize_lb,
    swap_bl_to_lb,
    tomdf_bcc_decider,
    tomdf_bcc_schedule,
    triangle_freeness_via_tomdf,
)


def verdicts_match(proto_a, sched_a, proto_b, sched_b, graph, seed=0):
    a = run(proto_a, graph, sched_a, seed=seed, record=False).verdict
    b = run(proto_b, graph, sched_b, seed=seed, record=False).verdict
    return a.accept == b.accept and a.rejectors == b.rejectors


class Recorder(Protocol):
    """Passes every call to `inner`, counts its rounds by (index, kind) and
    logs what each node's `decide` gets, as (node, bytes of (inner state,
    inbox)). Only the node itself decides; a swap's replays never do."""

    def __init__(self, inner: Protocol):
        self.inner = inner
        self.calls = Counter()
        self.log = []

    def init(self, view):
        return view.node, self.inner.init(view)

    def round(self, state, index, kind, inbox):
        self.calls[index, kind] += 1
        me, inner_state = state
        inner_state, out = self.inner.round(inner_state, index, kind, inbox)
        return (me, inner_state), out

    def decide(self, state, inbox):
        me, inner_state = state
        self.log.append((me, obj_to_bytes((inner_state, inbox))))
        return self.inner.decide(inner_state, inbox)


def normalized_run_matches(inner, sched, graph, seed=0):
    """Whether `inner` on `sched` and on its normalization reach the same
    verdict with the same input to every node's `decide`. The stress state's
    trail holds every inbox, so for it this pins byte-identical inner inboxes
    in every round."""
    original, swapped = Recorder(inner), Recorder(inner)
    norm, nsched = normalize_lb(swapped, sched)
    assert "BL" not in "".join(k.char for k in nsched)
    same = verdicts_match(original, sched, norm, nsched, graph, seed=seed)
    return same and sorted(original.log) == sorted(swapped.log)


# ---------------------------------------------------------------------------
# broadcast/unbounded round exchange


def test_swap_produces_lb_schedule():
    named = proto_registry("tomdf")
    swapped, sched = swap_bl_to_lb(named.protocol, named.schedule, 1)
    assert [k.char for k in sched] == ["L", "B"]


def test_swap_preserves_tomdf_verdicts_small():
    named = proto_registry("tomdf")
    swapped, sched = swap_bl_to_lb(named.protocol, named.schedule, 1)
    for n in range(1, 5):
        for g in all_graphs(n):
            assert verdicts_match(named.protocol, named.schedule, swapped, sched, g)


def test_swap_rejects_wrong_positions():
    named = proto_registry("tomdf")
    with pytest.raises(UnsupportedScheduleError):
        swap_bl_to_lb(named.protocol, named.schedule, 2)
    with pytest.raises(UnsupportedScheduleError):
        swap_bl_to_lb(named.protocol, Schedule.parse("L,B"), 1)


def test_normalize_moves_all_broadcasts_last():
    proto = FullStateStressProtocol()
    norm, sched = normalize_lb(proto, Schedule.parse("B,L,B,L"))
    assert sched.text == "L^2,B^2"


def test_normalize_is_identity_on_sorted_schedules():
    proto = FullStateStressProtocol()
    norm, sched = normalize_lb(proto, Schedule.parse("L,B"))
    assert norm is proto
    assert sched.text == "L,B"


def test_normalize_rejects_capped_rounds():
    with pytest.raises(UnsupportedScheduleError):
        normalize_lb(FullStateStressProtocol(), Schedule.parse("B,C,L"))


@pytest.mark.parametrize("text", ["B,L", "B,L,B,L"])
def test_normalize_preserves_stress_verdicts(text):
    sched = Schedule.parse(text)
    proto = FullStateStressProtocol()
    norm, nsched = normalize_lb(proto, sched)
    for seed in range(10):
        g = random_labeled_graph(2 + seed % 5, seed)
        assert verdicts_match(proto, sched, norm, nsched, g, seed=seed)


SMALL_BL_SCHEDULES = [
    ",".join(kinds)
    for length in range(2, 6)
    for kinds in itertools.product("BL", repeat=length)
    if kinds.count("L") <= (2 if length < 5 else 3)
]


@pytest.mark.parametrize("text", SMALL_BL_SCHEDULES)
def test_normalize_preserves_stress_verdicts_on_every_small_schedule(text):
    # every {B,L} schedule of length 2-4 with at most two unbounded rounds,
    # and of length 5 with at most three; full-state payloads make any
    # identity-dependent encoding show up here
    sched = Schedule.parse(text)
    for seed in range(10):
        g = random_labeled_graph(2 + seed % 5, seed)
        assert normalized_run_matches(FullStateStressProtocol(), sched, g, seed=seed), seed


def test_normalize_preserves_tomdf_on_its_native_schedule():
    named = proto_registry("tomdf")
    assert normalize_lb(named.protocol, named.schedule)[1].text == "L,B"
    for g in itertools.chain(*(all_graphs(n) for n in range(1, 5))):
        assert normalized_run_matches(named.protocol, named.schedule, g), g


@pytest.mark.parametrize("text", ["B,L", "B,L,B"])
def test_swap_runs_each_broadcast_round_once_per_node(text, monkeypatch):
    # every node runs the displaced B round and its own L round itself; each
    # shipped state is decoded and its L round replayed once, however many
    # neighbours receive it
    g = random_labeled_graph(5, 3)
    n = g.n
    assert all(g.degree(v) > 0 for v in g.nodes)  # every node ships its state
    decoded = []

    def counting_bytes_to_obj(data):
        decoded.append(data)
        return bytes_to_obj(data)

    monkeypatch.setattr(transforms, "bytes_to_obj", counting_bytes_to_obj)
    recorder = Recorder(FullStateStressProtocol())
    norm, nsched = normalize_lb(recorder, Schedule.parse(text))
    run(norm, g, nsched, record=False)
    assert recorder.calls[1, RoundKind.BCC] == n
    assert recorder.calls[2, RoundKind.LOCAL] == 2 * n
    assert len(decoded) == n


# L bits of the normalized stress protocol over random_labeled_graph(4 + s % 3,
# s), s < 15: one swap, and two swaps, where the outer swap ships a state of
# the inner one (with the neighbour states it holds decoded)
STRESS_L_BITS = {"B,L": 91_320, "B,L,L": 406_032, "B,L,B,L": 461_352}


@pytest.mark.parametrize("text", sorted(STRESS_L_BITS))
def test_normalized_stress_l_bits_are_pinned(text):
    norm, nsched = normalize_lb(FullStateStressProtocol(), Schedule.parse(text))
    bits = sum(
        run(norm, random_labeled_graph(4 + s % 3, s), nsched, record=False).transcript.totals["L"]
        for s in range(15)
    )
    assert bits == STRESS_L_BITS[text]


def _same_degree_groups(max_n):
    """all_graphs(n <= max_n) grouped by each id's degree, in groups of two
    or more: their round-1 broadcasts (tomdf's degrees, the stress protocol's
    digest of id and label) are equal by value, and their shipped states are
    not."""
    groups = {}
    for g in itertools.chain(*(all_graphs(n) for n in range(1, max_n + 1))):
        groups.setdefault(tuple(g.degree(v) for v in g.nodes), []).append(g)
    return [group for group in groups.values() if len(group) > 1]


def test_replay_memo_is_keyed_on_the_shipped_state():
    # one normalized protocol per row, shared by every run and interleaved
    # with the other rows, against a fresh one per run: a replay memo keyed
    # on anything less than (broadcast inbox, shipped bytes) hands the second
    # graph of a group the first one's outboxes
    tomdf = proto_registry("tomdf")
    rows = [(tomdf.protocol, tomdf.schedule)]
    rows += [(FullStateStressProtocol(), Schedule.parse(text)) for text in ("B,L", "B,L,B")]
    shared = []
    for inner, sched in rows:
        recorder = Recorder(inner)
        shared.append((inner, sched, recorder, *normalize_lb(recorder, sched)))
    groups = _same_degree_groups(4)
    assert len(groups) > 1
    for group in groups:
        for g in group:
            for inner, sched, recorder, norm, nsched in shared:
                fresh = Recorder(inner)
                fresh_norm, _ = normalize_lb(fresh, sched)
                recorder.log.clear()
                a = run(norm, g, nsched, record=False).verdict
                b = run(fresh_norm, g, nsched, record=False).verdict
                assert (a.accept, a.rejectors) == (b.accept, b.rejectors), g
                assert recorder.log == fresh.log, g


# ---------------------------------------------------------------------------
# broadcast-only decider and the degree-padding reduction


def test_tomdf_bcc_schedule_is_broadcast_only():
    for n in (1, 4, 9, 30):
        sched = tomdf_bcc_schedule(n)
        assert all(k is RoundKind.BCC for k in sched)
        assert len(sched) >= 2


# rows of at most 4 nodes fit one broadcast; these 24-node rows travel in
# chunks over several rounds (the chord closes a triangle at max degree)
CHUNKED = (cycle_graph(24), LabeledGraph(range(1, 25), [*cycle_graph(24).edges, (1, 3)]))


def test_tomdf_bcc_decider_matches_oracle():
    for g in itertools.chain(*(all_graphs(n) for n in range(1, 5)), CHUNKED):
        named = tomdf_bcc_decider(g.n)
        got = run(named.protocol, g, named.schedule, record=False).verdict.accept
        assert got == membership("tomdf", g), g


def test_composed_bandwidth_is_twice_default():
    from artifact.engine import default_bandwidth

    for n in (2, 5, 16, 33):
        assert composed_bandwidth(n) == 2 * default_bandwidth(n)


def test_shared_plan_and_padded_graph_are_read_only():
    # the path 1-2-3: degrees 1, 2, 1 in 2-bit fields; the ends get pendants 4, 5
    plan = transforms._row_plan(((1, "01"), (2, "10"), (3, "01")), (2, True))
    assert plan == ({1: (4,), 2: (), 3: (5,)}, (1, 2, 3, 4, 5))
    assert isinstance(plan[0], MappingProxyType)
    rows = ((1, "01010"), (2, "10100"), (3, "01001"))
    adj, delta = transforms._padded_graph((rows,), plan)
    assert delta == 2 and isinstance(adj, MappingProxyType)
    assert adj == {1: {2, 4}, 2: {1, 3}, 3: {2, 5}, 4: {1}, 5: {3}}
    assert all(isinstance(nbrs, frozenset) for nbrs in adj.values())
    # a row one bit short spells no padded graph
    assert transforms._padded_graph(((rows[0], rows[1], (3, "0100")),), plan) is None


# a triangle away from the node of maximum degree: in tomdf, not triangle-free
TRIANGLE_BELOW_MAX = LabeledGraph(range(1, 8), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7)])


def test_interleaved_deciders_keep_their_own_plans():
    # on one graph all three hear the same degree inbox, and the two
    # broadcast-row deciders differ only in whether they pad; the triangle
    # reduction runs both before and after tomdf-bcc
    tomdf = proto_registry("tomdf")
    normalized = normalize_lb(tomdf.protocol, tomdf.schedule)
    g7 = TRIANGLE_BELOW_MAX
    assert membership("tomdf", g7) and not membership("triangle-freeness", g7)
    for g in itertools.chain(*(all_graphs(n) for n in range(1, 5)), [g7]):
        triangle, bcc = triangle_freeness_via_tomdf(g.n), tomdf_bcc_decider(g.n)
        for protocol, schedule, language in (
            (triangle.protocol, triangle.schedule, triangle.language),
            (bcc.protocol, bcc.schedule, bcc.language),
            (*normalized, "tomdf"),
            (triangle.protocol, triangle.schedule, triangle.language),
        ):
            got = run(protocol, g, schedule, record=False).verdict.accept
            assert got == membership(language, g), (language, g)


def test_triangle_freeness_via_tomdf_matches_oracle():
    for g in itertools.chain(*(all_graphs(n) for n in range(1, 5)), CHUNKED):
        named = triangle_freeness_via_tomdf(g.n)
        assert all(k is RoundKind.BCC for k in named.schedule)
        got = run(named.protocol, g, named.schedule, record=False).verdict.accept
        assert got == membership("triangle-freeness", g), g
