import hashlib
import random
from itertools import combinations, islice, product
from types import MappingProxyType

import pytest

from artifact import protocols, transforms
from artifact._bits import id_width
from artifact.engine import BandwidthViolationError, EngineError, Protocol, Schedule, run
from artifact.graphs import (
    Label,
    LabeledGraph,
    all_graphs,
    build_disj_4partite,
    build_disj_edge_star,
    build_disj_on_clique,
    build_disj_on_edge,
    build_disj_on_path,
    build_kpclp_path,
    build_special_disjointness,
    build_xor_index_path,
    clique_graph,
    count_instances,
    encode_pointer_map,
    enumerate_small_instances,
    marked_path,
    path_graph,
    random_labeled_graph,
)
from artifact.languages import membership, path_order
from artifact.protocols import (
    FullStateStressProtocol,
    NamedProtocol,
    XorIndexPathProtocol,
    decode_counts,
    proto_registry,
    protocol_ids,
    sweep,
)
from artifact.transforms import normalize_lb, tomdf_bcc_decider, triangle_freeness_via_tomdf
from test_engine import Recording


def outcome(name, graph, seed=0):
    named = proto_registry(name)
    result = run(named.protocol, graph, named.schedule, seed=seed)
    return result.verdict


# ---------------------------------------------------------------------------
# registry


def test_protocol_ids_cover_the_suite():
    ids = protocol_ids()
    assert "one-marked-edge" in ids
    assert "k-pclp:k=1" in ids and "k-pclp:k=3" in ids
    assert len(ids) == len(set(ids)) == 12


def test_proto_registry_parses_parameters():
    named = proto_registry("k-pclp:k=2")
    assert named.schedule.text == "B^2"
    assert named.language == "k-pclp:k=2"
    with pytest.raises(ValueError):
        proto_registry("half-marked-edge")


# the suite at the commit that turned the hand-written factories into a table
REGISTRY_ROWS = [
    ("one-marked-edge", "OneMarkedEdgeProtocol", "C,B", "one-marked-edge"),
    ("xor-index-path", "XorIndexPathProtocol", "B,C", "xor-index-path"),
    ("tomdf", "TomdfProtocol", "B,L", "tomdf"),
    ("disj-on-clique", "DisjOnCliqueProtocol", "C", "disj-on-clique"),
    ("special-disjointness", "SpecialDisjointnessProtocol", "L,C", "special-disjointness"),
    ("disj-on-edge", "DisjOnEdgeProtocol", "L", "disj-on-edge"),
    ("disj-on-path", "DisjOnPathProtocol", "L^2", "disj-on-path"),
    ("disj-edge-star", "DisjEdgeStarProtocol", "C,L", "disj-edge-star"),
    ("disj-4partite", "Disj4PartiteProtocol", "C^2", "disj-4partite"),
    ("k-pclp:k=1", "KPclpProtocol", "B", "k-pclp"),
    ("k-pclp:k=2", "KPclpProtocol", "B^2", "k-pclp"),
    ("k-pclp:k=3", "KPclpProtocol", "B^3", "k-pclp"),
]


def test_registry_rows_are_pinned():
    assert protocol_ids() == tuple(row[0] for row in REGISTRY_ROWS)
    for name, cls, schedule, family in REGISTRY_ROWS:
        named = proto_registry(name)
        assert (named.name, named.language, named.family) == (name, name, family)
        assert type(named.protocol).__name__ == cls
        assert named.schedule.text == schedule


def test_named_protocol_shape():
    named = proto_registry("tomdf")
    assert isinstance(named, NamedProtocol)
    assert named.schedule.text == "B,L"
    assert named.family == "tomdf"


# ---------------------------------------------------------------------------
# hand-traced verdicts


def test_one_marked_edge_accepts_single_edge():
    assert outcome("one-marked-edge", marked_path("110")).accept
    verdict = outcome("one-marked-edge", marked_path("111"))
    assert not verdict.accept
    # the decision semantics only ever require one rejecting node
    assert len(verdict.rejectors) >= 1


def test_tomdf_verdicts():
    assert not outcome("tomdf", clique_graph(3)).accept
    star = LabeledGraph([1, 2, 3, 4, 5], [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert outcome("tomdf", star).accept
    # triangle + pendant: the max-degree node is the one in the triangle
    g = LabeledGraph([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3), (1, 4)])
    verdict = outcome("tomdf", g)
    assert verdict.rejectors == (1,)


def test_disj_on_clique_verdicts():
    assert outcome("disj-on-clique", build_disj_on_clique(["110", "011", "101"])).accept
    assert not outcome(
        "disj-on-clique", build_disj_on_clique(["111", "111", "101"])
    ).accept
    assert not outcome("disj-on-clique", path_graph(3)).accept


def test_xor_index_path_verdicts():
    assert not outcome("xor-index-path", build_xor_index_path(2, "10", "01", 1, 2)).accept
    assert not outcome("xor-index-path", build_xor_index_path(2, "10", "01", 2, 1)).accept
    assert outcome("xor-index-path", build_xor_index_path(2, "10", "00", 1, 1)).accept


def test_special_disjointness_rejector_is_the_relay_target():
    g = build_special_disjointness(4, "1010", "0101", "1")
    assert outcome("special-disjointness", g).accept
    bad = build_special_disjointness(4, "1010", "0101", "0")
    verdict = outcome("special-disjointness", bad)
    assert verdict.rejectors == (2,)


def test_k_pclp_verdicts():
    f_a = {0: 2, 1: 3}
    assert outcome("k-pclp:k=2", build_kpclp_path(f_a, {2: 1, 3: 0}, 4)).accept
    assert not outcome("k-pclp:k=2", build_kpclp_path(f_a, {2: 0, 3: 1}, 4)).accept


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_pclp_rejects_an_undeclared_domain(k):
    # labels declare n = 4 but the domains {0} and {1} cover only 2: the
    # endpoint holding 0 sees the two sizes miss 4 and rejects, as the oracle does
    ends = {1: {0: 1}, 8: {1: 0}}
    g = path_graph(8, {v: Label.of_bits(encode_pointer_map(f, 4)) for v, f in ends.items()})
    verdict = outcome(f"k-pclp:k={k}", g)
    assert not verdict.accept and not membership(f"k-pclp:k={k}", g)
    assert 1 in verdict.rejectors


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_pclp_needs_twice_the_domain_size_of_nodes(k):
    # well-formed maps over {0..n-1} on a path whose length is not 2n: n = 6
    # on 4 nodes (too wide to frame in the 2-bit ids) and n = 2 on 8 nodes
    cases = [
        (4, {1: {0: 1, 2: 3, 4: 5}, 4: {1: 2, 3: 4, 5: 0}}, 6),
        (8, {1: {0: 1}, 8: {1: 0}}, 2),
    ]
    for size, ends, n in cases:
        labels = {v: Label.of_bits(encode_pointer_map(f, n)) for v, f in ends.items()}
        g = path_graph(size, labels)
        assert not membership(f"k-pclp:k={k}", g)
        assert outcome(f"k-pclp:k={k}", g).rejectors == g.nodes


def test_disj_edge_star_rejects_duplicate_indices():
    good = build_disj_edge_star("10", "01")
    assert outcome("disj-edge-star", good).accept
    dup = build_disj_edge_star("10", "01", indices_a=(1, 1))
    assert not outcome("disj-edge-star", dup).accept


def test_disj_4partite_verdicts():
    assert outcome("disj-4partite", build_disj_4partite(["10", "01"], ["01", "10"])).accept
    assert not outcome(
        "disj-4partite", build_disj_4partite(["11", "01"], ["10", "10"])
    ).accept


class _Disj4Fault(Protocol):
    """disj-4partite's protocol, except that in round `index` node `sender`
    sends `payload` to node `to` (None: sends it nothing)."""

    def __init__(self, index, sender, to, payload):
        self.inner = proto_registry("disj-4partite").protocol
        self.fault = index, sender, to, payload

    def init(self, view):
        return view.node, self.inner.init(view)

    def round(self, state, index, kind, inbox):
        me, inner = state
        inner, out = self.inner.round(inner, index, kind, inbox)
        at, sender, to, payload = self.fault
        if (index, me) == (at, sender):
            out = {u: bits for u, bits in out.items() if u != to}
            if payload is not None:
                out[to] = payload
        return (me, inner), out

    def decide(self, state, inbox):
        return self.inner.decide(state[1], inbox)


# fault -> (round, sender, receiver, payload, schedule) and the verdict and
# rejectors pinned on the protocol that read its inbox through dict(inbox);
# on rows X = (10, 01), Y = (01, 10) with blocks {1,2}, {3,4}, {5,6}, {7,8}
DISJ4_FAULTS = {
    "round-1 sender missing": ((1, 1, 3, None, "C,C"), (False, (3, 5, 6))),
    "round-2 sender missing": ((2, 3, 5, None, "C,C"), (False, (5,))),
    "empty payload": ((1, 8, 6, "", "C,C"), (False, (3, 4, 6))),
    "two-bit payload": ((2, 6, 4, "11", "C,C"), (False, (4,))),
    "round-1 extra sender": ((1, 7, 3, "1", "C,C"), (True, ())),
    "round-2 extra sender": ((2, 1, 5, "1", "C,C"), (True, ())),
    "no round-2 column": ((0, 0, 0, None, "C"), (False, (3, 4, 5, 6))),
}


@pytest.mark.parametrize("fault", list(DISJ4_FAULTS))
def test_disj_4partite_malformed_inboxes(fault):
    (index, sender, to, payload, schedule), want = DISJ4_FAULTS[fault]
    g = build_disj_4partite(["10", "01"], ["01", "10"])
    protocol = _Disj4Fault(index, sender, to, payload)
    verdict = run(protocol, g, Schedule.parse(schedule)).verdict
    assert (verdict.accept, verdict.rejectors) == want


def test_disj_on_edge_verdicts():
    assert outcome("disj-on-edge", build_disj_on_edge(3, "101", "010")).accept
    assert not outcome("disj-on-edge", build_disj_on_edge(3, "110", "011")).accept


# ---------------------------------------------------------------------------
# oracle agreement on small slices (the exhaustive sweep lives in acceptance)


@pytest.mark.parametrize(
    "name,max_size",
    [("xor-index-path", 2), ("one-marked-edge", 4), ("disj-on-edge", 3)],
)
def test_small_sweep_matches_oracle(name, max_size):
    result = sweep(name, max_size)
    assert result.counterexample is None, result.counterexample.to_json()
    assert result.agree == result.total > 0


@pytest.mark.parametrize(
    "named",
    [proto_registry(name) for name in protocol_ids()] + [triangle_freeness_via_tomdf(3)],
    ids=lambda named: named.name,
)
def test_every_suite_family_enumerates(named):
    instances = list(enumerate_small_instances(named.family, 2))
    assert len(instances) == count_instances(named.family, 2) > 0


def _sparse_ids(g, rng):
    """g with its ids moved to a seeded sample of [1, n^3], the widest id
    range LabeledGraph admits."""
    ids = dict(zip(g.nodes, rng.sample(range(1, g.n**3 + 1), g.n)))
    return LabeledGraph(
        ids.values(),
        [(ids[u], ids[v]) for u, v in g.edges],
        {ids[v]: lab for v, lab in g.labels.items()},
    )


# the families whose round-1 broadcasts frame two ids of the id width plus a
# tag, which outgrows 4 * ceil(log2 n) bits once ids spread over [1, n^3]
_ID_WIDTH_BOUND_FAMILIES = ("xor-index-path", "k-pclp")


@pytest.mark.parametrize("row", protocol_ids())
def test_sparse_ids_agree_or_fail_loudly_in_round_one(row):
    # every family instance up to size 3 (2 for disj-4partite) under a seeded
    # relabeling into [1, n^3]: the path rows raise in round 1 on every one
    named, rng = proto_registry(row), random.Random(row)
    size = 2 if named.family == "disj-4partite" else 3
    for g in enumerate_small_instances(named.family, size):
        g = _sparse_ids(g, rng)
        if named.family not in _ID_WIDTH_BOUND_FAMILIES:
            assert run(named.protocol, g, named.schedule).verdict.accept == membership(row, g)
            continue
        with pytest.raises(BandwidthViolationError) as caught:
            run(named.protocol, g, named.schedule)
        assert caught.value.round_index == 1


def test_mark_mutation_flips_with_the_oracle():
    named = proto_registry("one-marked-edge")
    g = marked_path("110")
    mutated = marked_path("100")
    for inst in (g, mutated):
        got = run(named.protocol, inst, named.schedule).verdict.accept
        assert got == membership("one-marked-edge", inst)


# ---------------------------------------------------------------------------
# stress protocol


def test_stress_protocol_is_seed_deterministic():
    proto = FullStateStressProtocol()
    g = clique_graph(4)
    sched = Schedule.parse("B,L,B,L")
    a = run(proto, g, sched, seed=5)
    b = run(proto, g, sched, seed=5)
    assert a.verdict.accept == b.verdict.accept
    assert a.verdict.rejectors == b.verdict.rejectors
    assert a.transcript.totals == b.transcript.totals


def test_stress_protocol_varies_across_instances():
    proto = FullStateStressProtocol()
    sched = Schedule.parse("B,L")
    verdicts = {
        run(proto, path_graph(n), sched, seed=s).verdict.rejectors
        for n in (2, 3, 4, 5)
        for s in range(4)
    }
    assert len(verdicts) > 1  # the digest actually depends on what it saw


# ---------------------------------------------------------------------------
# path reconstruction from (possibly asymmetric) claimed neighbor lists


def test_reconstruct_path_orders_from_the_smaller_end():
    forward = {1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}
    backward = {4: (3,), 3: (4, 2), 2: (3, 1), 1: (2,)}
    assert path_order(forward) == [1, 2, 3, 4]
    assert path_order(backward) == [1, 2, 3, 4]
    # labels need not follow the path: it starts at the smaller end
    assert path_order({7: (2,), 2: (7, 9), 9: (2, 5), 5: (9,)}) == [5, 9, 2, 7]


def test_reconstruct_path_rejects_cycles_and_repeats():
    assert path_order({1: (2, 3), 2: (1, 3), 3: (1, 2)}) is None
    # two ends, but the walk from 1 runs into the triangle 2-3-4 and comes
    # back to 2 before it has visited every node
    repeat = {1: (2,), 2: (1, 3), 3: (2, 4), 4: (3, 2), 5: (4,)}
    assert path_order(repeat) is None
    # inconsistent lists whose walk 1, 2, 3, 1, 2 has as many steps as there
    # are nodes and stops at the larger end: only the revisit check rejects it
    loop = {1: (2,), 2: (3,), 3: (1, 2), 4: (1, 2), 5: (1, 2)}
    assert path_order(loop) is None
    # a path plus a detached cycle: the walk ends before covering the nodes
    detached = {1: (2,), 2: (1,), 3: (4, 5), 4: (3, 5), 5: (3, 4)}
    assert path_order(detached) is None
    # an asymmetric claim that names a node outside the mapping
    assert path_order({1: (2,), 2: (1, 7), 3: (4,), 4: (3, 2)}) is None


def test_reconstruct_path_single_node():
    assert path_order({3: ()}) == [3]
    assert path_order({3: (4,)}) is None


# ---------------------------------------------------------------------------
# wire behaviour: verdicts, rejectors and bit totals over whole families

# (row, max size) -> sha256 over every instance's run outcome, pinned on the
# suite before its wire idioms were merged; the k-pclp rows were re-pinned
# when the mute endpoint began to broadcast its domain size (one more id-width
# field of B bits per run, no verdict or rejector changed); the normalized-tomdf
# row, whose L rounds ship tomdf's pickled state, was re-pinned when node
# views stopped carrying a random tape, when they became named tuples, when
# the swap began to ship the state after the displaced broadcast round and
# when tomdf's state dropped its node view (mean L bits over all_graphs(n <=
# 4): 11,870, 8,481, 6,601, 6,513, then 2,227), each time with the verdicts
# and rejectors unchanged (VERDICT_DIGESTS)
RUN_DIGESTS = {
    ("one-marked-edge", 4): "c9e6fa5fe24df5f261fa3c1e86850bf832836f56a4ded72c79ce8a4ba2b2bc6f",
    ("xor-index-path", 3): "b91040fb6906eaa4496bfc429367b087754507dbe988625ffcd9460cfae48901",
    ("tomdf", 5): "cd69bab3291f9b4a14a24e8a3da39e7a0238569270d4affc6fb92415fcbfedd1",
    ("disj-on-clique", 3): "f6a89ece0c5528991b4bbb4a44b5a336b7a9a917457cebd0c44865197e377c64",
    ("special-disjointness", 3): "b1a44e9213350fbf7e18884bd4f71a3f64410017417b469a14bb11f548f02cf1",
    ("disj-on-edge", 4): "c458c17cfcaf08b59f187ffa2970cf1cd9792d8a888bb3b2643102d37837d525",
    ("disj-on-path", 4): "9d1d0a4940f0f66214703d8f2b2cca3d30eb75226ec279bdcda8e6b7c1c9dfbf",
    ("disj-edge-star", 4): "4ddb878fe787f93d3a8e70e3e024d24b36b821c4271ce86e2512c9ec50cbed08",
    ("disj-4partite", 2): "3049683f5b864091803ad8d6f4297cdc0c691224c15d6736f4b3d5b71592750e",
    ("k-pclp:k=1", 4): "5bf476233a9033ed0e91a75fed29e13bf438b6807a06785d5298c6468e6ea94b",
    ("k-pclp:k=2", 4): "38f05c4b96d8db7f623f09e681dc622f355c65b0b282e0e82254f43374367607",
    ("k-pclp:k=3", 4): "8cfe6b6cbac6846a96bf71342286287c90aff812135632345d1cb12b2a451031",
    ("tomdf-bcc", 4): "6311962969e8746c4d13db182565f01e2602c515c3d404694e72a3a0c82e5b83",
    ("triangle-freeness-via-tomdf", 4): "194c7cc2584b31d339bec316b060f9ae01dc5916019749ddd095fb74a13d765b",
    ("normalized-tomdf", 4): "c1098b6c29bfa399759ba9b04eaa32b64f50e94ba70059b028dcfb70b99a7e7d",
}

# the same rows' verdicts and rejectors alone, with no bit count: a change of
# wire format that keeps every verdict leaves these unchanged
VERDICT_DIGESTS = {
    ("one-marked-edge", 4): "3f7d880b4b3a560db2b026105ea7f33fc4db89d17ea0cbfb90ea6b352e7f03c6",
    ("xor-index-path", 3): "f0ad27c7c848a2b9b6f69a0bb67e9a807008a6e72de1e21db09a51a3858d5e7b",
    ("tomdf", 5): "ac284b8eae86a52424cf941902dc59751bb68a22a6c53c77149e8d43e09b1a42",
    ("disj-on-clique", 3): "c634829be785f1b1a031764a84f4454fe76a4812b58c57551c3de4ec18273b17",
    ("special-disjointness", 3): "22caeaeb756e2ef459c78f8148c20f925dfdd57a444551b44c56f29b61e998ca",
    ("disj-on-edge", 4): "d6d34fcf3ade0ed823bb12487bc4e6a73c1bf417e79a5a43e4f9f4bba336e869",
    ("disj-on-path", 4): "d6d34fcf3ade0ed823bb12487bc4e6a73c1bf417e79a5a43e4f9f4bba336e869",
    ("disj-edge-star", 4): "fadd4b6bdb731f39cfed5076902902855781d0c4a866f9f64c14f09b98ff5aa9",
    ("disj-4partite", 2): "6550d656f21d76229498696a0cf8baf1785b90acd47d41f395afb4212c450bc0",
    ("k-pclp:k=1", 4): "bf99be40ff53c98dc380534fee87da0d1b154f009d60df9194186ff3400c7e32",
    ("k-pclp:k=2", 4): "37a66467b6862158e459a87a1664e429320f4a2288e6dc89f951cc383e1aa19e",
    ("k-pclp:k=3", 4): "68698884899e0e779d143c7e08e8c2faf2233f7454bd11d243fe7a55ea584920",
    ("tomdf-bcc", 4): "ab2bfbe6327577191b5ac943da73e9330097d6a180ddee4ef822a6f3a254d164",
    ("triangle-freeness-via-tomdf", 4): "d460afb320ec3e2cd5a499ceaed99da76fff79f580bfe2a7ff37f39f480228b9",
    ("normalized-tomdf", 4): "ab2bfbe6327577191b5ac943da73e9330097d6a180ddee4ef822a6f3a254d164",
}


def _normalized_tomdf(n: int) -> NamedProtocol:
    tomdf = proto_registry("tomdf")
    protocol, schedule = normalize_lb(tomdf.protocol, tomdf.schedule)
    return NamedProtocol("normalized-tomdf", protocol, schedule, "tomdf", "tomdf")


# rows run over all_graphs(n), n <= size, with a protocol built per n
_ALL_GRAPHS_ROWS = {
    "tomdf-bcc": tomdf_bcc_decider,
    "triangle-freeness-via-tomdf": triangle_freeness_via_tomdf,
    "normalized-tomdf": _normalized_tomdf,
}


def _digests(runs) -> tuple[str, str]:
    """Two sha256s over the (protocol, graph) runs: one over each run's
    verdict, rejectors and bits, one over its verdict and rejectors alone."""
    full, verdicts = hashlib.sha256(), hashlib.sha256()
    for named, g in runs:
        verdict, t = run(named.protocol, g, named.schedule, record=False)
        outcome = (verdict.accept, verdict.rejectors)
        verdicts.update(repr(outcome).encode())
        full.update(repr((*outcome, t.totals, max(t.max_bits.values()))).encode())
    return full.hexdigest(), verdicts.hexdigest()


def _run_digests(row: str, size: int) -> tuple[str, str]:
    if row in _ALL_GRAPHS_ROWS:
        build = _ALL_GRAPHS_ROWS[row]
        return _digests((build(n), g) for n in range(1, size + 1) for g in all_graphs(n))
    named = proto_registry(row)
    return _digests((named, g) for g in enumerate_small_instances(named.family, size))


@pytest.mark.parametrize("row,size", list(RUN_DIGESTS))
def test_run_digests_are_pinned(row, size):
    assert _run_digests(row, size) == (RUN_DIGESTS[row, size], VERDICT_DIGESTS[row, size])


# what every node sends in the all-graphs rows: sha256 over each run's
# `Transcript.to_json()`, every payload included, over all_graphs(n), n <= 4;
# RUN_DIGESTS would miss a payload that changed but kept its size
TRANSCRIPT_DIGESTS = {
    ("tomdf-bcc", 4): "d47eb43fb1b473874af0f772436f05ae81cd63d748ef9f917ac5f7f979927644",
    ("triangle-freeness-via-tomdf", 4): "e5c80eca7d80344213a7a8ec8d5e34b29ca30cd4b06ab51489013de0becc93d8",
    ("normalized-tomdf", 4): "695f2a82c00fa7f0f1bb5f20694de5fbc1c4a83c45c4d13a2cfad0052c968324",
}


@pytest.mark.parametrize("row,size", list(TRANSCRIPT_DIGESTS))
def test_transcripts_are_pinned(row, size):
    build = _ALL_GRAPHS_ROWS[row]
    h = hashlib.sha256()
    for n in range(1, size + 1):
        named = build(n)
        for g in all_graphs(n):
            h.update(run(named.protocol, g, named.schedule).transcript.to_json().encode())
    assert h.hexdigest() == TRANSCRIPT_DIGESTS[row, size]


# large instances, where one node's work grows with the path: seeded
# well-formed instances and one of each kind of malformation per size


def _path_with(ids, labels, drop=None):
    """Path visiting `ids` in order, labelled by path position, without the
    edge from position `drop` to the next."""
    edges = [(u, v) for p, (u, v) in enumerate(zip(ids, ids[1:])) if p != drop]
    return LabeledGraph(ids, edges, {ids[p]: lab for p, lab in labels.items()})


def _both_verdicts(language, draw, least=3):
    """Well-formed instances from `draw()` until at least `least` are drawn
    and both verdicts of `language` occur among them."""
    drawn, seen = [], set()
    while len(drawn) < least or len(seen) < 2:
        drawn.append(draw())
        seen.add(membership(language, drawn[-1]))
    return drawn


def _large_xip_instances(n, language):
    rng = random.Random(n)
    total = 2 * n + 1
    plain = list(range(1, total + 1))
    shuffled = rng.sample(range(1, 2 * total), total)  # one bit wider ids too

    def bits(k):
        return format(rng.getrandbits(k), f"0{k}b")

    def labels():
        i, j = rng.randint(1, n), rng.randint(1, n)
        x, y = bits(n), bits(n)
        return {
            0: Label.of_index(i),
            n - 1: Label.of_bits(x),
            n + 1: Label.of_bits(y),
            2 * n: Label.of_index(j),
        }

    for ids in (plain, shuffled):
        yield from _both_verdicts(language, lambda: _path_with(ids, labels()))
    yield _path_with(plain, labels(), drop=rng.randrange(1, 2 * n - 1))
    moved = labels()
    yield _path_with(plain, {**moved, 0: Label.blank(), 1: moved[0]})
    yield _path_with(shuffled, {**labels(), 2 * n: Label.of_index(n + 1)})
    arm = labels()
    yield _path_with(plain, {**arm, n + 1: Label.of_bits(arm[n + 1].bits[1:])})


def _large_kpclp_instances(n, language):
    rng = random.Random(1000 + n)
    ids = rng.sample(range(1, 2 * n + 1), 2 * n)

    def halves():
        rest = rng.sample(range(1, n), n - 1)
        cut = rng.randint(0, n - 2)
        dom_a, dom_b = [0] + rest[:cut], rest[cut:]
        return {t: rng.choice(dom_b) for t in dom_a}, {t: rng.choice(dom_a) for t in dom_b}

    def ends(f_a, f_b):
        return {
            0: Label.of_bits(encode_pointer_map(f_a, n)),
            2 * n - 1: Label.of_bits(encode_pointer_map(f_b, n)),
        }

    yield from _both_verdicts(language, lambda: build_kpclp_path(*halves(), n))
    yield from _both_verdicts(language, lambda: _path_with(ids, ends(*halves())))
    yield _path_with(ids, ends({0: 1}, {1: 0}))  # undeclared domain
    f_a, f_b = halves()
    yield _path_with(ids, ends({**f_a, 0: 0}, f_b))  # a value in its own half
    yield _path_with(ids, ends(*halves()), drop=rng.randrange(1, 2 * n - 2))
    yield _path_with(ids + [max(ids) + 1, max(ids) + 2], ends(*halves()))  # 2n + 2 nodes


def _large_disj4_instances(n, language):
    """2,000 seeded distinct instances of disj-4partite at size n."""
    rng = random.Random(4000 + n)
    width = 2 * n * n
    for code in rng.sample(range(1 << width), 2000):
        bits = format(code, f"0{width}b")
        rows = [bits[t : t + n] for t in range(0, width, n)]
        yield build_disj_4partite(rows[:n], rows[n:])


_LARGE_INSTANCES = {
    "xor-index-path": _large_xip_instances,
    "k-pclp": _large_kpclp_instances,
    "disj-4partite": _large_disj4_instances,
}

# (row, n) -> sha256 over the run outcomes of that row's large instances,
# pinned while every node still decoded the whole broadcast inbox itself; the
# disj-4partite row while every instance still built its own topology
LARGE_RUN_DIGESTS = {
    ("xor-index-path", 8): "c52bdaa68911908a4f69d18fe133b13c8a60fdb36d5a17fd1ce021fe9346a9b9",
    ("xor-index-path", 16): "463a9b61cb9daee28197882fe3b69e24df83ac6d829eafd37a80d2e74fcbfc9c",
    ("xor-index-path", 32): "01a09a91df9964813ccdf478a94c6252f278f84fcce34840afc5ebec7bbc0c04",
    ("xor-index-path", 64): "631b47f830d44701343b21dae1c2d2bd49aac1c68f5c84647974c71a6057ff04",
    ("k-pclp:k=1", 8): "1d701de6f7ade0961345ca3582084bae1498d378b6caaa7303ebb8b1d70f9616",
    ("k-pclp:k=1", 32): "ccce177619067ec9669cd416a9e18d0cc8cfa7af7ba4ad642d3ac7e334b8f040",
    ("k-pclp:k=2", 8): "6b3f2785caac2b4bdc34af97518f2a05a69184d9d9d2741a66c0e6a0483052af",
    ("k-pclp:k=2", 32): "a59ec8175077f3d2c207f964c6063b78a7956a035c93e69c7476f3581f0cd1e4",
    ("k-pclp:k=3", 8): "eeafa0b43a4dfe98d0da9a203b2b6279d66b66c0a72fd24e76a4f75d0720460b",
    ("k-pclp:k=3", 32): "b996046709354034e0c97cc3282af163df83c30f5f377bd444de1a0b88916466",
    ("disj-4partite", 3): "57b28e71e2339c4b6480c8a6359d225f4e3b7cbab02662559b81e4fe911e1485",
}


@pytest.mark.parametrize("row,n", list(LARGE_RUN_DIGESTS))
def test_large_run_digests_are_pinned(row, n):
    named = proto_registry(row)
    instances = _LARGE_INSTANCES[named.family](n, named.language)
    assert _digests((named, g) for g in instances)[0] == LARGE_RUN_DIGESTS[row, n]


# forged k-pclp paths: 2n nodes whose endpoints carry arbitrary halves, so
# that each of KPclpProtocol's vetting rules fires somewhere


def _forged_ends(rng, n):
    """Two endpoint labels: the halves of a partition of {0..n-1} (0 on either
    side, values mostly in the other half, sometimes in their own), each half
    replaced now and then by random bits or by a random map over a declared
    size near n (which may hold 0, miss it or overlap the other half)."""
    tags = rng.sample(range(n), n)
    cut = rng.randint(1, n - 1)
    doms = (tags[:cut], tags[cut:])
    ends = []
    for mine, other in (doms, doms[::-1]):
        draw = rng.random()
        if draw < 0.15:
            ends.append(Label.of_bits(format(rng.getrandbits(24), "024b")[: rng.randrange(25)]))
            continue
        if draw < 0.35:
            size = rng.choice((n - 1, n, n + 1))
            f = {t: rng.randrange(size) for t in range(size) if rng.random() < 0.5}
        else:
            size = n
            f = {t: rng.choice(other if rng.random() < 0.8 else tags) for t in mine}
        ends.append(Label.of_bits(encode_pointer_map(f, size)))
    return ends


def _forged_kpclp_paths(count, seed):
    """`count` seeded forged paths of 2n nodes, n = 2..4, with ids from the
    widest range that keeps the id width of 1..2n; one in ten also labels an
    inner node."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        ids = rng.sample(range(1, (1 << (2 * n - 1).bit_length()) + 1), 2 * n)
        head, tail = _forged_ends(rng, n)
        labels = {0: head, 2 * n - 1: tail}
        if rng.random() < 0.1:
            labels[rng.randrange(1, 2 * n - 1)] = Label.of_index(1)
        yield _path_with(ids, labels)


# sha256 over k-pclp:k=1..3 on the same 200 forged paths, pinned before the
# vetting rules moved to where each fact is first seen
FORGED_KPCLP_DIGEST = "e73aa3a20975a867a21768b6894ad136a9430558640090d87b6b938721adc3ac"


def test_forged_kpclp_digest_is_pinned():
    paths = list(_forged_kpclp_paths(200, 2024))
    runs = ((proto_registry(f"k-pclp:k={k}"), g) for k in (1, 2, 3) for g in paths)
    assert _digests(runs)[0] == FORGED_KPCLP_DIGEST


def _kpclp_ends(head, tail, n=4, inner=None):
    """A 2n-node path 1..2n with the pointer-map halves `head` = (map, declared
    size) at node 1 and `tail` at node 2n (a bit string stands for itself),
    and `inner` = (node, label) placed on an inner node."""

    def label(end):
        return Label.of_bits(end if isinstance(end, str) else encode_pointer_map(*end))

    labels = {1: label(head), 2 * n: label(tail)}
    if inner is not None:
        labels[inner[0]] = inner[1]
    return path_graph(2 * n, labels)


# one case per vetting rule on the path 1..8 with n = 4, as (graph, {k:
# rejectors}), k = 1..3, no entry meaning no rejector. The well-formed halves
# chase 0 -> 1 -> 2 -> 1, odd popcount each time. An endpoint at fault rejects
# at once and stops the chase for everyone at its first send (round 2 for
# node 8, round 3 for node 1)
_HEAD, _TAIL = ({0: 1, 2: 1}, 4), ({1: 2, 3: 0}, 4)
_ALL8 = tuple(range(1, 9))
_MUTE_AT_FAULT = {1: (8,), 2: _ALL8, 3: _ALL8}
_NO_PATH = {1: _ALL8, 2: _ALL8, 3: _ALL8}
KPCLP_VETTING_CASES = {
    "well formed": (_kpclp_ends(_HEAD, _TAIL), {}),
    # init: an inner node needs a blank label, an endpoint a pointer map with
    # no value in its own domain; a mute endpoint without a map broadcasts
    # size 0, so node 1's sizes miss too
    "inner node labelled": (
        _kpclp_ends(_HEAD, _TAIL, inner=(3, Label.of_index(1))),
        {1: (3,), 2: (3,), 3: (3,)},
    ),
    "mute label not bits": (
        _kpclp_ends(_HEAD, _TAIL, inner=(8, Label.of_index(1))),
        {1: (1, 8), 2: _ALL8, 3: _ALL8},
    ),
    "mute label does not decode": (_kpclp_ends(_HEAD, "0000010"), {1: (1, 8), 2: _ALL8, 3: _ALL8}),
    "0-holder lands in its own half": (
        _kpclp_ends(({0: 2, 2: 1}, 4), _TAIL),
        {1: (1,), 2: _ALL8, 3: _ALL8},
    ),
    "mute endpoint lands in its own half": (_kpclp_ends(_HEAD, ({1: 2, 3: 1}, 4)), _MUTE_AT_FAULT),
    # the path itself: one 0-holder, one mute endpoint, a framed declared size
    "0 on both sides": (_kpclp_ends(_HEAD, ({0: 2, 1: 2, 3: 0}, 4)), _NO_PATH),
    "0 on neither side": (_kpclp_ends(({2: 1}, 4), _TAIL), _NO_PATH),
    "declared size does not frame": (_kpclp_ends(({0: 1, 2: 1}, 9), _TAIL), _NO_PATH),
    # after round 1: one declared size, split between the two halves
    "declared sizes differ": (_kpclp_ends(_HEAD, ({1: 2, 3: 0}, 5)), _MUTE_AT_FAULT),
    "sizes miss the declared size": (_kpclp_ends(_HEAD, ({1: 2}, 4)), {1: (1,), 2: (1,), 3: _ALL8}),
    # at each send: the chase value must be in the sender's domain; with
    # k = 1 nobody sends, so overlapping halves go unseen (the locality note)
    "chase leaves the next domain": (_kpclp_ends(_HEAD, ({2: 0, 3: 0}, 4)), {2: _ALL8, 3: _ALL8}),
}


@pytest.mark.parametrize("case", list(KPCLP_VETTING_CASES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_pclp_vetting_rules(case, k):
    g, want = KPCLP_VETTING_CASES[case]
    assert outcome(f"k-pclp:k={k}", g).rejectors == want.get(k, ())


def test_k_pclp_rejects_a_schedule_longer_than_k():
    # under B^4 the round-4 chase value reaches k = 2's last digest as a
    # fourth value with odd popcount (0 -> 1 -> 2 -> 1 -> 2): only the count
    # of values rejects it
    g = _kpclp_ends(_HEAD, _TAIL)
    verdict = run(protocols.KPclpProtocol(2), g, Schedule.parse("B^4"), record=False).verdict
    assert verdict.rejectors == _ALL8


# malformed inputs to the three record-exchange protocols, whose structure
# checks compare each node's neighbourhood with the well-formed gadget

# replacement labels, one of each shape the three protocols tell apart
_OTHER_LABELS = (
    Label.blank(),
    Label.of_bits("01"),
    Label.of_index(1),
    Label.of_pair(None, 1),
    Label.of_pair(None, 2),
    Label.of_pair(None, 3),
    Label.of_pair("1", 4),
    Label.of_pair("01", None),
    Label.of_pair(None, None),
)
_MUTATIONS = ("drop", "add", "relabel", "swap")


def _mutant(g, rng, how):
    """g with one seeded malformation: an edge dropped, an edge added, one
    label replaced by another shape, or two different labels swapped."""
    edges, labels = set(g.edges), dict(g.labels)
    if how == "drop":
        edges.discard(rng.choice(sorted(edges)))
    elif how == "add":
        missing = [e for e in combinations(g.nodes, 2) if e not in g.edges]
        edges.add(rng.choice(missing))
    elif how == "relabel":
        v = rng.choice(g.nodes)
        labels[v] = rng.choice([lab for lab in _OTHER_LABELS if lab != labels[v]])
    else:
        u = rng.choice(g.nodes)
        v = rng.choice([w for w in g.nodes if labels[w] != labels[u]])
        labels[u], labels[v] = labels[v], labels[u]
    return LabeledGraph(g.nodes, edges, labels)


_RECORD_EXCHANGE_ROWS = ("special-disjointness", "disj-on-edge", "disj-on-path")


def _malformed_runs():
    """(protocol, graph) runs: 120 seeded instances of each row's family, up
    to size 3, 4 and 4, each under every mutation, then seeded random labeled
    graphs under every row."""
    for row, size in zip(_RECORD_EXCHANGE_ROWS, (3, 4, 4)):
        named, rng = proto_registry(row), random.Random(row)
        for g in rng.sample(list(enumerate_small_instances(named.family, size)), 120):
            for how in _MUTATIONS:
                yield named, _mutant(g, rng, how)
    for n in range(1, 14):
        for s in range(10):
            g = random_labeled_graph(n, s)
            for row in _RECORD_EXCHANGE_ROWS:
                yield proto_registry(row), g


# pinned while each structure check was a hand-written copy of its gadget
MALFORMED_DIGEST = "d150409085d17573d0f726ac0c44c8c75e8027629b13656e9a3542cef23c81df"


def test_malformed_record_exchange_digest_is_pinned():
    assert _digests(_malformed_runs())[0] == MALFORMED_DIGEST


def _malformed_star_runs():
    """disj-edge-star runs: 120 seeded instances of its family up to size 4,
    each under every mutation; one input pair under every first-side index
    sequence for n = 2 and 3; then seeded random labeled graphs."""
    named, rng = proto_registry("disj-edge-star"), random.Random("disj-edge-star")
    for g in rng.sample(list(enumerate_small_instances(named.family, 4)), 120):
        for how in _MUTATIONS:
            yield named, _mutant(g, rng, how)
    for x, y in (("10", "01"), ("101", "010")):
        for indices in product(range(1, len(x) + 1), repeat=len(x)):
            yield named, build_disj_edge_star(x, y, indices)
    for n in range(1, 14):
        for s in range(10):
            yield named, random_labeled_graph(n, s)


# pinned before the hub's round-2 loop lost its range and fill re-checks
MALFORMED_STAR_DIGEST = "70a5f691522f29c63b21004ca09ef63b432625ae13ecb8b790e100b9ab161941"


def test_malformed_disj_edge_star_digest_is_pinned():
    assert _digests(_malformed_star_runs())[0] == MALFORMED_STAR_DIGEST


def test_special_disjointness_rejects_without_its_capped_round():
    # a schedule override that drops round 2 leaves every node without
    # records: each rejects instead of raising
    named = proto_registry("special-disjointness")
    g = build_special_disjointness(1, "0", "0", "0")
    verdict = run(named.protocol, g, Schedule.parse("L"), record=False).verdict
    assert not verdict.accept and tuple(verdict.rejectors) == g.nodes


def test_disj_on_path_longer_schedules_repeat_the_relay():
    # rounds after the second resend the relay: the verdict of its own L^2
    named = proto_registry("disj-on-path")
    for x, y, accept in (("100", "010", True), ("110", "010", False)):
        g = build_disj_on_path(3, x, y)
        for text in ("L^2", "L^3", "L^4"):
            verdict = run(named.protocol, g, Schedule.parse(text), record=False).verdict
            assert verdict.accept is accept, (x, y, text)


# every {L,C,B} schedule of one to three rounds
SHORT_SCHEDULES = [",".join(kinds) for m in (1, 2, 3) for kinds in product("LCB", repeat=m)]


@pytest.mark.parametrize("text", SHORT_SCHEDULES)
@pytest.mark.parametrize("row", protocol_ids())
def test_three_round_overrides_return_or_raise_engine_errors(row, text):
    # about 30 instances spread over the family's enumeration, up to size 3
    # where that has at most 1,000 (size 2 for disj-4partite's 262,404)
    named = proto_registry(row)
    schedule = Schedule.parse(text, bandwidth=named.schedule.bandwidth)
    size = 3 if count_instances(named.family, 3) <= 1000 else 2
    step = max(1, count_instances(named.family, size) // 30)
    for g in islice(enumerate_small_instances(named.family, size), 0, None, step):
        try:
            run(named.protocol, g, schedule, record=False)
        except EngineError:
            pass


# ---------------------------------------------------------------------------
# the shared broadcast inbox is decoded once per round, memoised by value


def test_xor_index_path_parses_each_broadcast_once(monkeypatch):
    n = 64
    calls = []
    parse = XorIndexPathProtocol._parse

    def counting(msg, w):
        calls.append(msg)
        return parse(msg, w)

    g = build_xor_index_path(n, "01" * (n // 2), "0" * n, 3, n)
    outcome("xor-index-path", path_graph(5))  # some other round-1 inbox first
    monkeypatch.setattr(XorIndexPathProtocol, "_parse", staticmethod(counting))
    assert outcome("xor-index-path", g).accept
    assert len(calls) == 2 * n + 1  # one parse per broadcast


def test_k_pclp_rebuilds_the_path_once(monkeypatch):
    n = 32
    f_a = {t: n // 2 + t for t in range(n // 2)}
    f_b = {n // 2 + t: (t + 1) % (n // 2) for t in range(n // 2)}
    g = build_kpclp_path(f_a, f_b, n)
    outcome("k-pclp:k=3", path_graph(4))  # some other round-1 inbox first
    calls = []

    def counting(adj):
        calls.append(adj)
        return path_order(adj)

    monkeypatch.setattr(protocols, "path_order", counting)
    assert outcome("k-pclp:k=3", g).accept == membership("k-pclp:k=3", g)
    assert len(calls) == 1


# a triangle at the node of maximum degree: out of tomdf and not triangle-free
_TRIANGLE_AT_MAX = LabeledGraph([1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5)])


@pytest.mark.parametrize(
    "row,g,other",
    [
        ("one-marked-edge", marked_path("01100"), marked_path("00000")),
        ("tomdf", _TRIANGLE_AT_MAX, path_graph(5)),
        ("normalized-tomdf", _TRIANGLE_AT_MAX, path_graph(5)),
        ("tomdf-bcc", _TRIANGLE_AT_MAX, path_graph(5)),
        ("triangle-freeness-via-tomdf", _TRIANGLE_AT_MAX, path_graph(5)),
    ],
)
def test_count_readers_decode_each_broadcast_once(row, g, other, monkeypatch):
    named = _ALL_GRAPHS_ROWS[row](g.n) if row in _ALL_GRAPHS_ROWS else proto_registry(row)
    run(named.protocol, other, named.schedule)  # some other count inbox first
    calls = []

    def counting(inbox, width):
        calls.append(inbox)
        return decode_counts(inbox, width)

    monkeypatch.setattr(protocols, "decode_counts", counting)
    monkeypatch.setattr(transforms, "decode_counts", counting)
    verdict = run(named.protocol, g, named.schedule, record=False).verdict
    assert verdict.accept == membership(named.language, g)
    assert len(calls) == 1  # one count inbox per run, decoded once, not once per node


def test_last_inbox_memo_never_returns_a_stale_result():
    calls = []

    @protocols._last_inbox_memo
    def decode(inbox, w):
        calls.append((inbox, w))
        return inbox, w

    a, b = ((1, "01"), (2, "10")), ((1, "01"), (2, "11"))
    a_copy = tuple(list(a))
    assert a_copy is not a and a_copy == a
    sequence = [(a, 1), (b, 1), (a, 1), (a, 2), (a, 1), (a_copy, 1), (b, 2), (b, 1), (b, 1)]
    for inbox, w in sequence:
        assert decode(inbox, w) == (inbox, w)
    # decoded anew exactly when the inbox's value or w changed
    assert len(calls) == 1 + sum(x != y for x, y in zip(sequence, sequence[1:]))


def _round1_inbox(name, g):
    """The round-1 broadcasts of protocol `name` on g, as every node sees them."""
    recording = Recording(proto_registry(name).protocol)
    run(recording, g, Schedule.parse("B"), record=False)
    return recording.inboxes[g.nodes[0]]


# two instances each whose round-1 inboxes and verdicts differ
_XIP_PAIR = (
    build_xor_index_path(4, "0110", "1010", 2, 3),
    build_xor_index_path(4, "0110", "1010", 3, 2),
)
_KPCLP_PAIR = (
    build_kpclp_path({0: 2, 1: 3}, {2: 1, 3: 0}, 4),
    build_kpclp_path({0: 3, 1: 2}, {2: 0, 3: 1}, 4),
)


@pytest.mark.parametrize(
    "name,decoder,pair",
    [
        ("xor-index-path", "xor_path_structure", _XIP_PAIR),
        ("k-pclp:k=1", "kpclp_round1_structure", _KPCLP_PAIR),
    ],
)
def test_structure_memo_is_keyed_by_value(name, decoder, pair):
    structure = getattr(protocols, decoder)
    g = pair[0]
    w = id_width(g.big_n)
    inbox = _round1_inbox(name, g)
    copy = tuple((sender, msg[:1] + msg[1:]) for sender, msg in inbox)
    assert copy is not inbox and copy == inbox
    first = structure(inbox, w)
    assert first is not None
    assert structure(copy, w) == first
    structure(_round1_inbox(name, pair[1]), w)
    assert structure(copy, w) == first
    # the same bits under another width frame nothing, in either order
    assert structure(inbox, w + 1) is None
    assert structure(inbox, w) == first
    # nodes share the result, so no part of it is mutable
    assert all(isinstance(part, (int, tuple, MappingProxyType)) for part in first)


@pytest.mark.parametrize("name,pair", [("xor-index-path", _XIP_PAIR), ("k-pclp:k=1", _KPCLP_PAIR)])
def test_alternating_instances_keep_their_own_outcome(name, pair):
    a, b = pair
    runs = [outcome(name, g) for g in (a, b, a, b)]
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert [v.accept for v in runs] == [membership(name, g) for g in (a, b, a, b)]
    assert runs[0].accept != runs[1].accept
