import copy
import hashlib
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact._bits import bit_strings
from artifact.graphs import (
    _FAMILIES,
    _GADGETS,
    _alternating_maps,
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
    gadget_cut,
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


@pytest.mark.parametrize(
    "round_trip",
    [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize(
    "g",
    [path_graph(3), build_disj_4partite(["10", "01"], ["11", "00"])],
    ids=["path", "disj-4partite"],
)
def test_graph_survives_pickle_and_copy(round_trip, g):
    back = round_trip(g)
    assert back == g
    assert hash(back) == hash(g)
    assert back.adjacency == g.adjacency and back.neighbor_sets == g.neighbor_sets


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
    # parameters that do not fit the builder fail as a bad instance
    for bad in (dict(n=2, x="10"), dict(n=2, x="10", y="01", z="1")):
        with pytest.raises(InvalidInstanceError, match="disj-on-edge"):
            build_gadget("disj-on-edge", **bad)
        with pytest.raises(InvalidInstanceError, match="disj-on-edge"):
            gadget_cut("disj-on-edge", **bad)
    with pytest.raises(InvalidInstanceError):
        gadget_cut("no-such-family")


def test_gadget_cut_gives_the_criterion_05_splits():
    for n in (8, 16, 32):
        params = dict(n=n, x=("10" * n)[:n], y=("01" * n)[:n], i=1, j=n)
        assert gadget_cut("xor-index-path", **params) == frozenset(range(1, n + 2))
    for n in (4, 6, 8):
        m = n * (n - 1) // 2
        params = dict(n=n, x="1" + "0" * (m - 1), y="0" * (m - 1) + "1", i=1, j=m, k=1)
        alice = frozenset(list(range(1, n + 1)) + [2 * n + 1, 2 * n + 2])
        assert gadget_cut("clique-bridge", **params) == alice


# family -> (one instance, Alice's side of its cut).  The nodes that carry no
# input (path, hubs, middle blocks) could sit on either side; these pin the
# side each family puts them on.
_CUT_SETS = {
    "xor-index-path": (dict(n=3, x="101", y="011", i=1, j=3), {1, 2, 3, 4}),
    "clique-bridge": (dict(n=3, x="101", y="011", i=1, j=3, k=2), {1, 2, 3, 7, 8, 9, 10}),
    "disj-on-edge": (dict(n=3, x="101", y="011"), {1, 2, 3}),
    "disj-on-path": (dict(n=3, x="101", y="011"), {1, 2, 3}),
    "k-pclp": (dict(f_a={0: 2, 1: 3}, f_b={2: 1, 3: 0}, n=4), {1, 2, 3, 4}),
    "disj-edge-star": (dict(x="10", y="01", indices_b=(2, 1)), {1, 3, 4}),
    "disj-4partite": (dict(x_rows=("10", "01"), y_rows=("11", "00")), {1, 2, 3, 4}),
}


@pytest.mark.parametrize("family", sorted(_CUT_SETS))
def test_gadget_cut_sets(family):
    params, alice = _CUT_SETS[family]
    assert gadget_cut(family, **params) == alice


# family -> (the parameters of every small instance, the inputs Alice owns,
# the inputs Bob owns); n and k shape the gadget and belong to neither side
_CUT_CASES = {
    "xor-index-path": (
        [dict(n=n, x=x, y=y, i=i, j=j)
         for n in (2, 3) for x, y in product(bit_strings(n), repeat=2)
         for i, j in product(range(1, n + 1), repeat=2)],
        ("x", "i"), ("y", "j"),
    ),
    "clique-bridge": (
        [dict(n=n, x=x, y=y, i=i, j=j, k=k)
         for n in (2, 3) for k in (1, 2) for m in [n * (n - 1) // 2]
         for x, y in product(bit_strings(m), repeat=2)
         for i, j in product(range(1, m + 1), repeat=2)],
        ("x", "i"), ("y", "j"),
    ),
    "disj-on-edge": (
        [dict(n=n, x=x, y=y) for n in (2, 3) for x, y in product(bit_strings(n), repeat=2)],
        ("x",), ("y",),
    ),
    "disj-on-path": (
        [dict(n=n, x=x, y=y) for n in (2, 3) for x, y in product(bit_strings(n), repeat=2)],
        ("x",), ("y",),
    ),
    "k-pclp": (
        [dict(f_a=f_a, f_b=f_b, n=n) for n in (2, 3, 4) for f_a, f_b in _alternating_maps(n)],
        ("f_a",), ("f_b",),
    ),
    "disj-edge-star": (
        [dict(x=x, y=y, indices_a=ia, indices_b=ib)
         for n in (1, 2) for x, y in product(bit_strings(n), repeat=2)
         for ia, ib in product(product(range(1, n + 1), repeat=n), repeat=2)],
        ("x", "indices_a"), ("y", "indices_b"),
    ),
    "disj-4partite": (
        [dict(x_rows=xr, y_rows=yr)
         for n in (1, 2) for xr, yr in product(product(bit_strings(n), repeat=n), repeat=2)],
        ("x_rows",), ("y_rows",),
    ),
}

# gadgets without a two-party layout, each with one valid instance
_NO_CUT = {
    "special-disjointness": dict(n=2, x="10", y="01", b="1"),
    "disj-on-clique": dict(rows=("10", "01")),
}


def test_every_gadget_family_is_covered_by_a_cut_test():
    assert set(_CUT_CASES) == set(_CUT_SETS)
    assert set(_CUT_CASES) | set(_NO_CUT) == set(_GADGETS)
    assert not set(_CUT_CASES) & set(_NO_CUT)


def _touched(g: LabeledGraph, h: LabeledGraph) -> set[int]:
    """Nodes whose label differs between g and h, plus both ends of every
    edge that only one of them has."""
    assert g.nodes == h.nodes
    changed = {v for v in g.nodes if g.label(v) != h.label(v)}
    return changed.union(*(g.edges ^ h.edges))


@pytest.mark.parametrize("family", sorted(_CUT_CASES))
def test_gadget_cut_keeps_each_input_on_its_owners_side(family):
    # changing one input changes only labels of, and edges among, nodes on
    # the side of the party that owns that input
    instances, alice_inputs, bob_inputs = _CUT_CASES[family]
    seen = set()  # the inputs whose change showed in the graph
    for key in alice_inputs + bob_inputs:
        groups: dict[str, list[dict]] = {}
        for params in instances:
            rest = repr(sorted((k, v) for k, v in params.items() if k != key))
            groups.setdefault(rest, []).append(params)
        for base, *others in groups.values():
            g = build_gadget(family, **base)
            alice = gadget_cut(family, **base)
            assert alice and alice < set(g.nodes)
            owner = alice if key in alice_inputs else set(g.nodes) - alice
            for params in others:
                assert gadget_cut(family, **params) == alice
                touched = _touched(g, build_gadget(family, **params))
                assert touched <= owner, (key, base, params)
                if touched:
                    seen.add(key)
    assert seen == {*alice_inputs, *bob_inputs}


@pytest.mark.parametrize("family", sorted(_NO_CUT))
def test_gadget_cut_refuses_gadgets_without_a_two_party_layout(family):
    build_gadget(family, **_NO_CUT[family])
    with pytest.raises(InvalidInstanceError, match=family):
        gadget_cut(family, **_NO_CUT[family])


def test_disj_on_path_shape():
    g = build_disj_on_path(2, "10", "11")
    assert sorted(g.degree(v) for v in g.nodes) == [1, 1, 2, 2]


def test_disj_4partite_shape():
    g = build_disj_4partite(["10", "01"], ["11", "00"])
    assert g.n == 8


def _public_disj_4partite(x_rows, y_rows):
    """build_disj_4partite's graph, made by the public constructor."""
    n = len(x_rows)
    ids = range(1, 4 * n + 1)
    edges = [(u, v) for u in ids for v in ids if u < v and (u - 1) // n != (v - 1) // n]
    rows = {t + 1: r for t, r in enumerate(x_rows)}
    rows.update({3 * n + t + 1: r for t, r in enumerate(y_rows)})
    return LabeledGraph(ids, edges, {v: Label.of_bits(r) for v, r in rows.items()})


def _disj_4partite_rows():
    """Every row pair with n <= 2, then 200 seeded ones with n = 3."""
    for n in (1, 2):
        rows = [format(v, f"0{n}b") for v in range(1 << n)]
        for x_rows in product(rows, repeat=n):
            for y_rows in product(rows, repeat=n):
                yield list(x_rows), list(y_rows)
    for code in random.Random(3).sample(range(1 << 18), 200):
        bits = format(code, "018b")
        yield [bits[t : t + 3] for t in range(0, 9, 3)], [bits[t : t + 3] for t in range(9, 18, 3)]


def test_disj_4partite_equals_the_public_constructor():
    built = []
    for x_rows, y_rows in _disj_4partite_rows():
        g, ref = build_disj_4partite(x_rows, y_rows), _public_disj_4partite(x_rows, y_rows)
        assert g == ref and hash(g) == hash(ref)
        assert g.to_json() == ref.to_json()
        assert dict(g.adjacency) == dict(ref.adjacency)
        assert list(g.labels) == list(ref.labels)
        built.append(g)
    # instances share their topology but never a labels dict
    assert len({id(g.labels) for g in built}) == len(built)
    again = build_disj_4partite(["10", "01"], ["11", "00"])
    first = build_disj_4partite(["10", "01"], ["11", "00"])
    assert again == first and again.labels is not first.labels
    assert again.edges is first.edges


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
