import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.graphs import (
    _FAMILIES,
    EnumerationTooLargeError,
    InvalidInstanceError,
    Label,
    LabeledGraph,
    all_graphs,
    build_clique_bridge,
    build_disj_4partite,
    build_disj_edge_star,
    build_disj_on_clique,
    build_disj_on_edge,
    build_disj_on_path,
    build_gadget,
    build_kpclp_path,
    build_special_disjointness,
    build_xor_index_path,
    clique_edge_order,
    clique_graph,
    count_instances,
    cycle_graph,
    decode_pointer_map,
    encode_pointer_map,
    enumerate_small_instances,
    marked_path,
    path_graph,
    random_labeled_graph,
)


# ---------------------------------------------------------------------------
# labels and the graph container


def test_label_kinds():
    assert Label.blank().is_blank
    assert Label.of_bits("101").bits == "101"
    assert Label.of_index(3).index == 3
    pair = Label.of_pair("1", 2)
    assert (pair.bits, pair.index) == ("1", 2)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Label("bits", bits="10x"),
        lambda: Label("index", index=0),
        lambda: Label("blank", bits="1"),
        lambda: Label("nope"),
    ],
)
def test_label_rejects_garbage(bad):
    with pytest.raises(InvalidInstanceError):
        bad()


def test_graph_validation():
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([])
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([0, 1])
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([1, 1, 2])
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([1, 2], [(1, 1)])
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([1, 2], [(1, 3)])
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([1, 2], labels={5: Label.blank()})
    # ids live in [1, n^3]
    with pytest.raises(InvalidInstanceError):
        LabeledGraph([1, 9])


def test_graph_accessors():
    g = path_graph(4)
    assert g.n == 4
    assert g.neighbors(2) == (1, 3)
    assert g.degree(1) == 1
    assert g.max_degree() == 2
    assert g.has_edge(2, 3) and not g.has_edge(1, 3)
    assert g.label(1).is_blank


def test_graph_immutable():
    g = path_graph(2)
    with pytest.raises(AttributeError):
        g.nodes = (1,)


def test_shape_builders():
    assert len(cycle_graph(5).edges) == 5
    assert len(clique_graph(5).edges) == 10
    g = marked_path("0110")
    assert [g.label(v).bits for v in g.nodes] == ["0", "1", "1", "0"]


def test_json_round_trip():
    g = build_xor_index_path(2, "10", "01", 1, 2)
    assert LabeledGraph.from_json(g.to_json()) == g


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers(0, 1000))
def test_json_round_trip_random(n, seed):
    g = random_labeled_graph(n, seed)
    back = LabeledGraph.from_json(g.to_json())
    assert back == g
    assert hash(back) == hash(g)


def test_random_graph_is_seed_deterministic():
    assert random_labeled_graph(6, 9) == random_labeled_graph(6, 9)
    assert random_labeled_graph(6, 9) != random_labeled_graph(6, 10)


# ---------------------------------------------------------------------------
# gadget builders


def test_xor_index_path_shape():
    n = 3
    g = build_xor_index_path(n, "101", "011", 2, 3)
    assert g.nodes == tuple(range(1, 2 * n + 2))
    # a path: two endpoints, everything else degree 2
    assert sorted(g.degree(v) for v in g.nodes) == [1, 1] + [2] * (2 * n - 1)
    assert g.label(1).index == 2  # endpoint holds an index into y
    assert g.label(2 * n + 1).index == 3  # other endpoint indexes x
    assert g.label(n).bits == "101"
    assert g.label(n + 2).bits == "011"


def test_xor_index_path_validation():
    with pytest.raises(InvalidInstanceError):
        build_xor_index_path(2, "1", "01", 1, 1)
    with pytest.raises(InvalidInstanceError):
        build_xor_index_path(2, "10", "01", 0, 1)
    with pytest.raises(InvalidInstanceError):
        build_xor_index_path(2, "10", "01", 1, 3)


def test_clique_bridge_shape():
    n, k = 4, 1  # per-clique inputs have one bit per vertex pair
    g = build_clique_bridge(n, "101010", "011001", 1, 2, k=k)
    assert g.n == 2 * n + 4 * k
    first_clique = list(range(1, n + 1))
    second_clique = list(range(n + 1, 2 * n + 1))
    # selectable clique edges follow the input bits, pair by pair
    a_pairs = clique_edge_order(first_clique)
    assert [g.has_edge(u, v) for u, v in a_pairs] == [
        bit == "1" for bit in "101010"
    ]
    bridge = list(range(2 * n + 1, 2 * n + 4 * k + 1))
    # bridge head touches every node of one clique, tail the other
    assert all(g.has_edge(bridge[0], v) for v in first_clique)
    assert all(g.has_edge(bridge[-1], v) for v in second_clique)
    for a, b in zip(bridge, bridge[1:]):
        assert g.has_edge(a, b)
    # marks: exactly the endpoints of the two selected pairs carry a 1
    marked = {v for v in g.nodes if g.label(v).bits == "1"}
    assert marked == set(a_pairs[0]) | set(clique_edge_order(second_clique)[1])


def test_disj_edge_star_shape():
    g = build_disj_edge_star("110", "011")
    hub_candidates = [v for v in g.nodes if g.degree(v) == g.max_degree()]
    assert hub_candidates  # star has a centre
    assert g.n >= 4


def test_special_disjointness_builder():
    g = build_special_disjointness(2, "10", "01", "1")
    assert g.n == 8
    assert g.label(5).bits == "10" and g.label(6).bits == "01"
    assert g.label(4).bits == "1" and g.label(4).index == 4
    with pytest.raises(InvalidInstanceError):
        build_special_disjointness(2, "10", "01", "11")
    with pytest.raises(InvalidInstanceError):
        build_special_disjointness(0, "10", "01", "0")


def test_build_gadget_dispatch():
    g = build_gadget("disj-on-edge", n=2, x="10", y="01")
    assert g == build_disj_on_edge(2, "10", "01")
    with pytest.raises(InvalidInstanceError):
        build_gadget("no-such-family")


def test_disj_on_path_shape():
    g = build_disj_on_path(2, "10", "11")
    assert sorted(g.degree(v) for v in g.nodes) == [1, 1, 2, 2]


def test_disj_4partite_shape():
    g = build_disj_4partite(["10", "01"], ["11", "00"])
    assert g.n == 8


def test_disj_on_clique_builder():
    g = build_disj_on_clique(["101", "011", "110"])
    assert g.n == 3
    assert len(g.edges) == 3
    assert g.label(2).bits == "011"


def test_kpclp_path_builder():
    f_a = {0: 1, 2: 3}
    f_b = {1: 2, 3: 0}
    g = build_kpclp_path(f_a, f_b, 4)
    assert g.n == 8  # a path on 2n nodes
    assert decode_pointer_map(g.label(1).bits) == (f_a, 4)
    assert decode_pointer_map(g.label(8).bits) == (f_b, 4)
    with pytest.raises(InvalidInstanceError):
        build_kpclp_path({0: 0, 1: 0}, {1: 1}, 2)  # overlapping domains


def test_pointer_map_codec_round_trip():
    for n in (1, 2, 5, 8):
        f = {i: (i * 3 + 1) % n for i in range(0, n, 2)}
        assert decode_pointer_map(encode_pointer_map(f, n)) == (f, n)


# ---------------------------------------------------------------------------
# enumeration


def test_all_graphs_count():
    # graphs on a fixed 3-node id set: one bit per potential edge
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(1)) == 1


# sha256 over the JSON of every instance, in order, one line each; pinned
# from the if/elif enumeration that the family table replaced
ENUMERATION_DIGESTS = {
    ("one-marked-edge", 4): "45892741a3f64268be3d42e1d27421c7ae765bf97191dd02a88f063fd41dac4d",
    ("xor-index-path", 2): "f70ad78abc4d2969fa15917aa21bfe4c4a1f86a691d1191d2170e03c67026e66",
    ("disj-on-clique", 2): "7ee3ba02c993ea20885bcf274e5edb03e32b581e73db47cd8c5a666fe37cf6af",
    ("disj-on-edge", 3): "2d4a1af90bdf046583877efb0a14373ca9a1f4b319b92ec9718adb7a0aecdc3b",
    ("disj-on-path", 2): "fa8a4aa424a215d2116038efebf14599e3028a1f7e13a795a560ee9448021053",
    ("tomdf", 4): "9dcb79ed2414be527c45ae32b78ca6f37b3ca2372a54cc96bf99efafd6633627",
    ("triangle-freeness", 4): "9dcb79ed2414be527c45ae32b78ca6f37b3ca2372a54cc96bf99efafd6633627",
    ("k-pclp", 3): "5e968c9a4f1123548d6f27783e914dd85b6caac5d1ee4f6987852edfcf061d44",
    ("k-pclp", 4): "5ad517adebbc610a2770fb4488a8dfe610079f85d5e158039cf5ce6f4c9dab38",
    ("special-disjointness", 2): "9c68b26dae238f76c78e9edcd9ecfb2a29c414fd38c75f83edc755279608b80d",
    ("disj-edge-star", 2): "be7ca7e52dc1c346d81fb1a269b1050a8b426e9a5d2dde0c48e7843913d9938e",
    ("disj-4partite", 2): "85b741583bc8651ccde79cde4136de3c82da05c1e977a8cfc5f8b76107ee0269",
}


def test_digests_cover_every_family():
    assert {family for family, _ in ENUMERATION_DIGESTS} == set(_FAMILIES)


@pytest.mark.parametrize("family,max_size", list(ENUMERATION_DIGESTS))
def test_count_matches_enumeration(family, max_size):
    got = sum(1 for _ in enumerate_small_instances(family, max_size))
    assert got == count_instances(family, max_size)
    assert got > 0


@pytest.mark.parametrize("family,max_size", list(ENUMERATION_DIGESTS))
def test_enumeration_order_is_pinned(family, max_size):
    h = hashlib.sha256()
    for g in enumerate_small_instances(family, max_size):
        h.update(g.to_json().encode() + b"\n")
    assert h.hexdigest() == ENUMERATION_DIGESTS[family, max_size]


def test_enumeration_instances_are_distinct():
    seen = list(enumerate_small_instances("xor-index-path", 2))
    assert len(set(seen)) == len(seen)


def test_enumeration_budget_guard():
    with pytest.raises(EnumerationTooLargeError):
        list(enumerate_small_instances("xor-index-path", 14))


def test_unknown_family():
    with pytest.raises(InvalidInstanceError):
        count_instances("mystery", 3)
