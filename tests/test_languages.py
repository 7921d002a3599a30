import ast
import inspect
import itertools
import random

import pytest

from artifact.graphs import (
    InvalidInstanceError,
    Label,
    build_disj_4partite,
    build_disj_edge_star,
    build_disj_on_clique,
    build_disj_on_edge,
    build_disj_on_path,
    build_kpclp_path,
    build_special_disjointness,
    build_xor_index_path,
    clique_graph,
    cycle_graph,
    encode_pointer_map,
    marked_clique,
    marked_path,
    partitions_domain,
    path_graph,
)
from artifact.languages import (
    LANGUAGE_IDS,
    disj_4partite,
    disj_edge_star,
    disj_on_clique,
    disj_on_edge,
    disj_on_path,
    disjoint,
    k_pclp,
    membership,
    one_marked_edge,
    parse_language_id,
    path_order,
    pointer_chase,
    special_disjointness,
    tomdf,
    triangle_freeness,
    xor_index_path,
)
from artifact import languages
from artifact.protocols import proto_registry


def test_disjoint():
    assert disjoint("10", "01")
    assert not disjoint("11", "01")
    assert disjoint("", "")


def test_oracles_import_no_builder_and_no_protocol():
    # three protocols read their structure checks off the gadget builders;
    # an oracle that used a builder or a protocol too would agree with them
    # on a builder defect, and the sweep would no longer show it
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(languages))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    bad = [n for n in names if n.startswith("build_") or "protocols" in n.split(".")]
    assert not bad


def test_path_order():
    assert path_order(path_graph(4).adjacency) == [1, 2, 3, 4]
    assert path_order(cycle_graph(4).adjacency) is None
    assert path_order(path_graph(1).adjacency) == [1]


def _reference_path_edges(adj):
    """The edge set of the simple path a node -> neighbours mapping claims, or
    None. Written apart from `path_order`: every claim must be returned by its
    target, and the graph must be connected with n-1 edges and degree <= 2."""
    edges = set()
    for u, ns in adj.items():
        if len(ns) > 2 or len(set(ns)) != len(ns):
            return None
        for v in ns:
            if v == u or v not in adj or u not in adj[v]:
                return None
            edges.add(frozenset((u, v)))
    if len(edges) != len(adj) - 1:
        return None
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return edges if len(seen) == len(adj) else None


def _check_path_order(adj):
    got = path_order(adj)
    want = _reference_path_edges(adj)
    if want is None:
        assert got is None, adj
        return
    assert got is not None, adj
    assert sorted(got) == sorted(adj), adj
    assert got[0] <= got[-1], adj  # starts at the smaller end
    assert {frozenset(p) for p in zip(got, got[1:])} == want, adj


def test_path_order_on_every_small_graph():
    # every graph on <= 6 nodes, under its identity ids and two seeded
    # relabelings; adjacency is built straight from the edge mask
    rng = random.Random(6)
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        relabelings = [list(range(1, n + 1))] + [rng.sample(range(1, 64), n) for _ in range(2)]
        for mask in range(1 << len(pairs)):
            edges = [p for t, p in enumerate(pairs) if mask >> t & 1]
            for ids in relabelings:
                adj = {v: [] for v in ids}
                for a, b in edges:
                    adj[ids[a]].append(ids[b])
                    adj[ids[b]].append(ids[a])
                _check_path_order(adj)


def test_path_order_on_asymmetric_claims():
    # claimed lists need not agree: one-sided claims, self-claims, repeats
    # and ids outside the mapping must all come back None
    ids = (2, 3, 1)
    lists = [()] + [(a,) for a in (*ids, 9)] + list(itertools.product((*ids, 9), repeat=2))
    for claims in itertools.product(lists, repeat=3):
        _check_path_order(dict(zip(ids, claims)))
    ids = (4, 2, 1, 3)
    for claims in itertools.product(*(
        [(a,) for a in ids if a != v] + list(itertools.permutations([a for a in ids if a != v], 2))
        for v in ids
    )):
        _check_path_order(dict(zip(ids, claims)))


def test_one_marked_edge():
    # member iff the marked nodes induce exactly one edge
    assert one_marked_edge(marked_path("110"))
    assert one_marked_edge(marked_path("011"))
    assert not one_marked_edge(marked_path("111"))
    assert not one_marked_edge(marked_path("000"))
    assert not one_marked_edge(marked_path("1010"))  # two marks, no edge between
    assert one_marked_edge(marked_path("0110"))
    assert not one_marked_edge(marked_clique("111"))


def test_xor_index_path():
    # member iff the selected bits differ: x_j XOR y_i = 1
    assert xor_index_path(build_xor_index_path(2, "11", "00", 1, 1))
    assert not xor_index_path(build_xor_index_path(2, "10", "01", 1, 2))
    assert not xor_index_path(build_xor_index_path(2, "00", "00", 1, 1))
    # flipping the selected x bit flips membership, an untouched bit does not
    assert xor_index_path(build_xor_index_path(2, "01", "00", 1, 2))
    assert not xor_index_path(build_xor_index_path(2, "10", "00", 1, 2))
    assert not xor_index_path(path_graph(5))  # blank path, wrong labels


def test_tomdf():
    assert not tomdf(clique_graph(3))  # every max-degree node sits in the triangle
    assert tomdf(path_graph(3))
    assert tomdf(cycle_graph(5))
    # triangle plus a higher-degree apex elsewhere still counts the apex only
    assert triangle_freeness(path_graph(4))
    assert not triangle_freeness(clique_graph(4))


def test_disj_on_clique():
    # member iff no bit position is set in every row
    assert disj_on_clique(build_disj_on_clique(["101", "011", "110"]))
    assert disj_on_clique(build_disj_on_clique(["100", "010", "001"]))
    assert not disj_on_clique(build_disj_on_clique(["11", "01"]))
    assert not disj_on_clique(path_graph(3))  # not a clique


def test_disj_on_edge_and_path():
    assert disj_on_edge(build_disj_on_edge(3, "101", "010"))
    assert not disj_on_edge(build_disj_on_edge(3, "110", "011"))
    assert disj_on_path(build_disj_on_path(3, "101", "010"))
    assert not disj_on_path(build_disj_on_path(3, "110", "010"))
    # widths of at most 2 are excluded from both languages
    assert not disj_on_edge(build_disj_on_edge(2, "10", "01"))
    assert not disj_on_path(build_disj_on_path(2, "10", "01"))
    assert not disj_on_edge(path_graph(6))
    assert not disj_on_path(clique_graph(4))


def test_disj_edge_star():
    assert disj_edge_star(build_disj_edge_star("100", "011"))
    assert not disj_edge_star(build_disj_edge_star("110", "011"))
    assert not disj_edge_star(path_graph(4))


def test_special_disjointness():
    # member iff inputs are disjoint AND the spine bit says so
    assert special_disjointness(build_special_disjointness(2, "10", "01", "1"))
    assert not special_disjointness(build_special_disjointness(2, "10", "01", "0"))
    assert not special_disjointness(build_special_disjointness(2, "11", "10", "1"))
    assert not special_disjointness(clique_graph(5))


def test_disj_4partite():
    assert disj_4partite(build_disj_4partite(["10", "01"], ["01", "10"]))
    assert not disj_4partite(build_disj_4partite(["11", "01"], ["10", "10"]))


def test_k_pclp_and_pointer_chase():
    f_a = {0: 1, 2: 3}
    f_b = {1: 2, 3: 0}
    # chase from 0: f_a[0]=1, then f_b[1]=2 — odd parity each prefix here
    assert pointer_chase(f_a, f_b, 1) == 1
    assert pointer_chase(f_a, f_b, 2) == 2
    g = build_kpclp_path(f_a, f_b, 4)
    assert k_pclp(g, 1)
    assert k_pclp(g, 2)
    f_b2 = {1: 0, 3: 0}  # f_a[0]=1, f_b2[1]=0: popcount(0) is even
    assert pointer_chase(f_a, f_b2, 2) == 0
    assert not k_pclp(build_kpclp_path(f_a, f_b2, 4), 2)


def test_k_pclp_rejects_malformed_maps():
    # each chase below ends on a pointer of odd popcount: only the domain
    # checks reject
    # f_b maps 1 into its own domain
    assert not k_pclp(build_kpclp_path({0: 1, 2: 3}, {1: 1, 3: 0}, 4), 2)
    # domains {0} and {2} leave 1 uncovered
    ends = {1: {0: 2}, 8: {2: 0}}
    labels = {v: Label.of_bits(encode_pointer_map(f, 4)) for v, f in ends.items()}
    assert not k_pclp(path_graph(8, labels), 1)
    # both domains hold 0
    ends = {1: {0: 1, 2: 3}, 8: {0: 1, 1: 2, 3: 0}}
    labels = {v: Label.of_bits(encode_pointer_map(f, 4)) for v, f in ends.items()}
    assert not k_pclp(path_graph(8, labels), 1)
    # domains {0} and {1} cover {0..|dom_a|+|dom_b|-1} but not the declared
    # {0..3}; the chase ends on 1 at k = 1 and 3, on 0 at k = 2
    ends = {1: {0: 1}, 8: {1: 0}}
    labels = {v: Label.of_bits(encode_pointer_map(f, 4)) for v, f in ends.items()}
    g = path_graph(8, labels)
    for k in (1, 2, 3):
        assert not k_pclp(g, k)
    assert not partitions_domain({0: 1}, {1: 0}, 4)
    with pytest.raises(InvalidInstanceError):
        build_kpclp_path({0: 1}, {1: 0}, 4)
    # one node is both endpoints: a path of 1 node is never 2n long
    lone = path_graph(1, {1: Label.of_bits(encode_pointer_map({0: 0}, 1))})
    assert not k_pclp(lone, 1)


def test_language_registry():
    assert "tomdf" in LANGUAGE_IDS
    assert "triangle-freeness" in LANGUAGE_IDS
    assert len(LANGUAGE_IDS) == 11
    assert parse_language_id("k-pclp:k=2") == ("k-pclp", 2)
    assert parse_language_id("tomdf") == ("tomdf", None)
    # the one parser behind both membership and proto_registry
    for bad in ("k-pclp:rounds=2", "k-pclp:k=0", "k-pclp", "tomdf:k=2", "tomdf:"):
        with pytest.raises(ValueError):
            parse_language_id(bad)
        with pytest.raises(ValueError):
            membership(bad, path_graph(2))
        with pytest.raises(ValueError):
            proto_registry(bad)
    with pytest.raises(ValueError):
        membership("no-such-language", path_graph(2))


def test_membership_dispatch():
    assert membership("tomdf", path_graph(3))
    with pytest.raises(ValueError, match="unknown language"):
        membership("c4-freeness", cycle_graph(4))  # no oracle, no protocol
    f_a, f_b = {0: 1, 2: 3}, {1: 2, 3: 0}
    g = build_kpclp_path(f_a, f_b, 4)
    assert membership("k-pclp:k=2", g)
    assert not membership("k-pclp:k=3", g)
    with pytest.raises(ValueError):
        membership("k-pclp", g)  # k must come from the id
