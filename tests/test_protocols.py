import hashlib
import random
from types import MappingProxyType

import pytest

from artifact import protocols
from artifact._bits import id_width
from artifact.engine import Schedule, run
from artifact.graphs import (
    Label,
    LabeledGraph,
    all_graphs,
    build_disj_4partite,
    build_disj_edge_star,
    build_disj_on_clique,
    build_disj_on_edge,
    build_kpclp_path,
    build_special_disjointness,
    build_xor_index_path,
    clique_graph,
    count_instances,
    encode_pointer_map,
    enumerate_small_instances,
    marked_path,
    path_graph,
)
from artifact.languages import membership, path_order
from artifact.protocols import (
    FullStateStressProtocol,
    NamedProtocol,
    XorIndexPathProtocol,
    proto_registry,
    protocol_ids,
    sweep,
)
from artifact.transforms import normalize_lb, tomdf_bcc_decider, triangle_freeness_via_tomdf


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
# row was pinned when node views stopped carrying a random tape, with the
# verdicts and rejectors of the tree before that change
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
    ("normalized-tomdf", 4): "b74678b811cfb8ee31312033feb4e75050104ef4cdb9997ab9a7a45590ba5ffa",
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


def _digest(runs) -> str:
    """sha256 over each (protocol, graph) run's verdict, rejectors and bits."""
    h = hashlib.sha256()
    for named, g in runs:
        verdict, t = run(named.protocol, g, named.schedule, record=False)
        outcome = (verdict.accept, verdict.rejectors, t.totals, max(t.max_bits.values()))
        h.update(repr(outcome).encode())
    return h.hexdigest()


def _run_digest(row: str, size: int) -> str:
    if row in _ALL_GRAPHS_ROWS:
        build = _ALL_GRAPHS_ROWS[row]
        return _digest((build(n), g) for n in range(1, size + 1) for g in all_graphs(n))
    named = proto_registry(row)
    return _digest((named, g) for g in enumerate_small_instances(named.family, size))


@pytest.mark.parametrize("row,size", list(RUN_DIGESTS))
def test_run_digests_are_pinned(row, size):
    assert _run_digest(row, size) == RUN_DIGESTS[row, size]


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


_LARGE_INSTANCES = {"xor-index-path": _large_xip_instances, "k-pclp": _large_kpclp_instances}

# (row, n) -> sha256 over the run outcomes of that row's large instances,
# pinned while every node still decoded the whole broadcast inbox itself
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
}


@pytest.mark.parametrize("row,n", list(LARGE_RUN_DIGESTS))
def test_large_run_digests_are_pinned(row, n):
    named = proto_registry(row)
    instances = _LARGE_INSTANCES[named.family](n, named.language)
    assert _digest((named, g) for g in instances) == LARGE_RUN_DIGESTS[row, n]


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


def _round1_inbox(name, g):
    """The round-1 broadcasts of protocol `name` on g, as every node sees them."""
    named = proto_registry(name)
    result = run(named.protocol, g, Schedule.parse("B"), record=False)
    return result.final_inboxes[g.nodes[0]]


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
