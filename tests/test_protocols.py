import hashlib

import pytest

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


def _run_digest(row: str, size: int) -> str:
    h = hashlib.sha256()
    if row in _ALL_GRAPHS_ROWS:
        build = _ALL_GRAPHS_ROWS[row]
        runs = ((build(n), g) for n in range(1, size + 1) for g in all_graphs(n))
    else:
        named = proto_registry(row)
        runs = ((named, g) for g in enumerate_small_instances(named.family, size))
    for named, g in runs:
        verdict, t = run(named.protocol, g, named.schedule, record=False)
        outcome = (verdict.accept, verdict.rejectors, t.totals, max(t.max_bits.values()))
        h.update(repr(outcome).encode())
    return h.hexdigest()


@pytest.mark.parametrize("row,size", list(RUN_DIGESTS))
def test_run_digests_are_pinned(row, size):
    assert _run_digest(row, size) == RUN_DIGESTS[row, size]
