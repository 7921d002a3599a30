"""Labeled-graph data model and instance generators.

A labeled graph carries positive integer node ids (injective into [1, N] with
N at most n^3), an undirected simple edge set, and one label per node. Labels
come in four shapes: blank, a bit string, a 1-based index, or a (bit string,
index) pair whose halves may individually be absent — a pair with both halves
absent is still distinct from the blank label.

Generators build every gadget family used by the protocol suite, with
deterministic id assignment (consecutive 1..n in documented order) so repeated
calls are byte-identical under JSON serialization.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product, repeat, starmap
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._bits import bit_strings, count_width, decode_int, encode_int, is_bits
from ._rng import Tape


class InvalidInstanceError(ValueError):
    """Raised when generator parameters cannot produce a well-formed graph."""


class EnumerationTooLargeError(RuntimeError):
    """Raised when an exhaustive family enumeration would exceed the budget."""


ENUMERATION_BUDGET = 10**7

BLANK_KIND = "blank"
BITS_KIND = "bits"
INDEX_KIND = "index"
PAIR_KIND = "pair"


@dataclass(frozen=True)
class Label:
    """One node label: blank, bits, index, or a (bits|absent, index|absent) pair."""

    kind: str
    bits: str | None = None
    index: int | None = None

    def __post_init__(self):
        if self.kind == BLANK_KIND:
            if self.bits is not None or self.index is not None:
                raise InvalidInstanceError("blank label carries no payload")
        elif self.kind == BITS_KIND:
            if not is_bits(self.bits) or self.index is not None:
                raise InvalidInstanceError(f"bad bits label: {self.bits!r}")
        elif self.kind == INDEX_KIND:
            if self.bits is not None or not isinstance(self.index, int) or self.index < 1:
                raise InvalidInstanceError(f"bad index label: {self.index!r}")
        elif self.kind == PAIR_KIND:
            if self.bits is not None and not is_bits(self.bits):
                raise InvalidInstanceError(f"bad pair bits: {self.bits!r}")
            if self.index is not None and (not isinstance(self.index, int) or self.index < 1):
                raise InvalidInstanceError(f"bad pair index: {self.index!r}")
        else:
            raise InvalidInstanceError(f"unknown label kind {self.kind!r}")

    @staticmethod
    def blank() -> "Label":
        return _BLANK

    @staticmethod
    def of_bits(bits: str) -> "Label":
        return Label(BITS_KIND, bits=bits)

    @staticmethod
    def of_index(index: int) -> "Label":
        return Label(INDEX_KIND, index=index)

    @staticmethod
    def of_pair(bits: str | None, index: int | None) -> "Label":
        return Label(PAIR_KIND, bits=bits, index=index)

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK_KIND

    def to_dict(self) -> dict:
        if self.kind == BLANK_KIND:
            return {"kind": BLANK_KIND}
        if self.kind == BITS_KIND:
            return {"kind": BITS_KIND, "bits": self.bits}
        if self.kind == INDEX_KIND:
            return {"kind": INDEX_KIND, "index": self.index}
        return {"kind": PAIR_KIND, "bits": self.bits, "index": self.index}

    @staticmethod
    def from_dict(d: Mapping) -> "Label":
        kind = d.get("kind")
        if kind == BLANK_KIND:
            return _BLANK
        if kind == BITS_KIND:
            return Label(BITS_KIND, bits=d["bits"])
        if kind == INDEX_KIND:
            return Label(INDEX_KIND, index=d["index"])
        if kind == PAIR_KIND:
            return Label(PAIR_KIND, bits=d.get("bits"), index=d.get("index"))
        raise InvalidInstanceError(f"unknown label kind {kind!r}")


_BLANK = Label(BLANK_KIND)


class LabeledGraph:
    """Immutable simple graph with integer ids and per-node labels."""

    __slots__ = ("nodes", "edges", "labels", "_adj", "_nbr_sets")

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        labels: Mapping[int, Label] | None = None,
    ):
        node_list = list(nodes)
        node_tuple = tuple(sorted(set(node_list)))
        if not node_tuple:
            raise InvalidInstanceError("graph needs at least one node")
        if node_tuple[0] < 1:
            raise InvalidInstanceError("node ids must be positive")
        if len(node_tuple) != len(node_list):
            raise InvalidInstanceError("duplicate node ids")
        n = len(node_tuple)
        big_n = node_tuple[-1]
        if big_n > n**3:
            raise InvalidInstanceError(f"max id {big_n} exceeds n^3 = {n ** 3}")
        node_set = set(node_tuple)
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise InvalidInstanceError(f"self-loop at {u}")
            if u not in node_set or v not in node_set:
                raise InvalidInstanceError(f"edge ({u},{v}) references unknown node")
            edge_set.add((u, v) if u < v else (v, u))
        label_map: dict[int, Label] = {v: _BLANK for v in node_tuple}
        if labels:
            for v, lab in labels.items():
                if v not in node_set:
                    raise InvalidInstanceError(f"label on unknown node {v}")
                if not isinstance(lab, Label):
                    raise InvalidInstanceError(f"label of node {v} is not a Label")
                label_map[v] = lab
        adj: dict[int, list[int]] = {v: [] for v in node_tuple}
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "labels", label_map)
        object.__setattr__(self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()})
        object.__setattr__(self, "_nbr_sets", tuple(map(frozenset, adj.values())))

    def _relabeled(self, labels: dict[int, Label]) -> "LabeledGraph":
        """Trusted constructor: this graph's nodes, edges, adjacency and
        neighbour sets, shared, under `labels`, which must map every node in
        order to a Label and becomes the new graph's own dict."""
        g = object.__new__(LabeledGraph)
        object.__setattr__(g, "nodes", self.nodes)
        object.__setattr__(g, "edges", self.edges)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "_adj", self._adj)
        object.__setattr__(g, "_nbr_sets", self._nbr_sets)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, since
        # restoring slots one by one would go through __setattr__
        return LabeledGraph, (self.nodes, self.edges, self.labels)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def big_n(self) -> int:
        """N: the top of the id space (= the largest id in use)."""
        return self.nodes[-1]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only node -> sorted neighbour tuple mapping."""
        return MappingProxyType(self._adj)

    @property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Each node's neighbours as a frozenset, in the order of `nodes`."""
        return self._nbr_sets

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(len(ns) for ns in self._adj.values())

    def label(self, v: int) -> Label:
        return self.labels[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def _key(self):
        return (self.nodes, self.edges, tuple(sorted(self.labels.items(), key=lambda kv: kv[0])))

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, edges={len(self.edges)})"

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "edges": sorted([list(e) for e in self.edges]),
            "labels": {
                str(v): lab.to_dict() for v, lab in sorted(self.labels.items()) if not lab.is_blank
            },
        }
        if self.nodes != tuple(range(1, self.n + 1)):
            d["nodes"] = list(self.nodes)
        return d

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(d: Mapping) -> "LabeledGraph":
        nodes = d.get("nodes") or range(1, d["n"] + 1)
        labels = {int(v): Label.from_dict(lab) for v, lab in d.get("labels", {}).items()}
        return LabeledGraph(nodes, [tuple(e) for e in d.get("edges", [])], labels)

    @staticmethod
    def from_json(text: str) -> "LabeledGraph":
        return LabeledGraph.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# basic topologies


def path_graph(num_nodes: int, labels: Mapping[int, Label] | None = None) -> LabeledGraph:
    if num_nodes < 1:
        raise InvalidInstanceError("path needs >= 1 node")
    edges = [(v, v + 1) for v in range(1, num_nodes)]
    return LabeledGraph(range(1, num_nodes + 1), edges, labels)


def cycle_graph(num_nodes: int, labels: Mapping[int, Label] | None = None) -> LabeledGraph:
    if num_nodes < 3:
        raise InvalidInstanceError("cycle needs >= 3 nodes")
    edges = [(v, v + 1) for v in range(1, num_nodes)] + [(num_nodes, 1)]
    return LabeledGraph(range(1, num_nodes + 1), edges, labels)


def clique_graph(num_nodes: int, labels: Mapping[int, Label] | None = None) -> LabeledGraph:
    if num_nodes < 1:
        raise InvalidInstanceError("clique needs >= 1 node")
    edges = list(combinations(range(1, num_nodes + 1), 2))
    return LabeledGraph(range(1, num_nodes + 1), edges, labels)


def _mark_labels(marks: str) -> dict[int, Label]:
    if not is_bits(marks) or not marks:
        raise InvalidInstanceError(f"marks must be a nonempty bit string, got {marks!r}")
    return {v: Label.of_bits(marks[v - 1]) for v in range(1, len(marks) + 1)}


def marked_path(marks: str) -> LabeledGraph:
    """Path on len(marks) nodes, node v labeled with the single bit marks[v-1]."""
    return path_graph(len(marks), _mark_labels(marks))


def marked_cycle(marks: str) -> LabeledGraph:
    return cycle_graph(len(marks), _mark_labels(marks))


def marked_clique(marks: str) -> LabeledGraph:
    return clique_graph(len(marks), _mark_labels(marks))


def clique_edge_order(ids: Sequence[int]) -> list[tuple[int, int]]:
    """Canonical enumeration of all pairs: lexicographic by (min id, max id)."""
    return sorted((min(u, v), max(u, v)) for u, v in combinations(sorted(ids), 2))


# ---------------------------------------------------------------------------
# gadget generators


def _check_inputs(n: int, x: str, y: str) -> None:
    """The input check of the two-party gadgets with n-bit inputs x and y."""
    if n < 2:
        raise InvalidInstanceError("need n >= 2")
    if not (is_bits(x) and is_bits(y) and len(x) == n and len(y) == n):
        raise InvalidInstanceError("x and y must be n-bit strings")


def build_xor_index_path(n: int, x: str, y: str, i: int, j: int) -> LabeledGraph:
    """Odd path on 2n+1 nodes carrying (x, i) on one arm and (y, j) on the other.

    Ids run 1..2n+1 along the path. Node 1 holds index i, node n holds x,
    node n+2 holds y, node 2n+1 holds index j; everything else is blank.
    """
    _check_inputs(n, x, y)
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidInstanceError(f"indices must lie in [1, {n}]")
    labels = {
        1: Label.of_index(i),
        n: Label.of_bits(x),
        n + 2: Label.of_bits(y),
        2 * n + 1: Label.of_index(j),
    }
    return path_graph(2 * n + 1, labels)


def build_clique_bridge(n: int, x: str, y: str, i: int, j: int, k: int = 1) -> LabeledGraph:
    """Two n-cliques with selectable edges, joined by a 4k-node path.

    Clique A occupies ids [1, n], clique B ids [n+1, 2n], the path ids
    2n+1 .. 2n+4k consecutively starting on the A side; the first path node is
    adjacent to all of A and the last to all of B. Pair r of each clique (in
    (min id, max id) order) is an edge iff the r-th bit of x resp. y is 1.
    Every node carries a one-bit mark: 1 on the four endpoints of pair i of A
    and pair j of B, 0 elsewhere.
    """
    if n < 2:
        raise InvalidInstanceError("need n >= 2")
    m = n * (n - 1) // 2
    if not (is_bits(x) and is_bits(y) and len(x) == m and len(y) == m):
        raise InvalidInstanceError(f"x and y must have length {m}")
    if not (1 <= i <= m and 1 <= j <= m):
        raise InvalidInstanceError(f"pair indices must lie in [1, {m}]")
    if k < 1:
        raise InvalidInstanceError("need k >= 1")
    a_ids = list(range(1, n + 1))
    b_ids = list(range(n + 1, 2 * n + 1))
    p_ids = list(range(2 * n + 1, 2 * n + 4 * k + 1))
    a_pairs = clique_edge_order(a_ids)
    b_pairs = clique_edge_order(b_ids)
    edges: list[tuple[int, int]] = []
    edges += [a_pairs[r] for r in range(m) if x[r] == "1"]
    edges += [b_pairs[r] for r in range(m) if y[r] == "1"]
    edges += list(zip(p_ids, p_ids[1:]))
    edges += [(a, p_ids[0]) for a in a_ids]
    edges += [(b, p_ids[-1]) for b in b_ids]
    marked = set(a_pairs[i - 1]) | set(b_pairs[j - 1])
    labels = {
        v: Label.of_bits("1" if v in marked else "0")
        for v in a_ids + b_ids + p_ids
    }
    return LabeledGraph(a_ids + b_ids + p_ids, edges, labels)


def build_disj_on_clique(rows: Sequence[str]) -> LabeledGraph:
    """Complete graph on len(rows) nodes, node v labeled with rows[v-1] (n bits each)."""
    n = len(rows)
    if n < 1:
        raise InvalidInstanceError("need >= 1 row")
    for r in rows:
        if not is_bits(r) or len(r) != n:
            raise InvalidInstanceError(f"each row must be {n} bits, got {r!r}")
    return clique_graph(n, {v: Label.of_bits(rows[v - 1]) for v in range(1, n + 1)})


def build_disj_on_edge(n: int, x: str, y: str) -> LabeledGraph:
    """Path on 2n nodes with x on id n and y on id n+1 (the middle edge)."""
    _check_inputs(n, x, y)
    return path_graph(2 * n, {n: Label.of_bits(x), n + 1: Label.of_bits(y)})


def build_disj_on_path(n: int, x: str, y: str) -> LabeledGraph:
    """Path on 2n nodes with x on id n-1 and y on id n+2 (distance 3 apart)."""
    _check_inputs(n, x, y)
    return path_graph(2 * n, {n - 1: Label.of_bits(x), n + 2: Label.of_bits(y)})


# pointer-map label codec: 8-bit domain-size header, domain-membership mask,
# then one fixed-width value per domain element in increasing order.


def encode_pointer_map(g: Mapping[int, int], n: int) -> str:
    if not 1 <= n <= 255:
        raise InvalidInstanceError("pointer domain size must be in [1, 255]")
    dom = sorted(g)
    if any(not 0 <= t < n for t in dom) or any(not 0 <= v < n for v in g.values()):
        raise InvalidInstanceError("pointer map entries must lie in [0, n)")
    mask = "".join("1" if t in g else "0" for t in range(n))
    w = count_width(n)
    body = "".join(encode_int(g[t], w) for t in dom)
    return encode_int(n, 8) + mask + body


def decode_pointer_map(bits: str) -> tuple[dict[int, int], int]:
    """Inverse of encode_pointer_map; raises ValueError on malformed input."""
    if len(bits) < 8 or not is_bits(bits):
        raise ValueError("pointer label too short")
    n = decode_int(bits[:8])
    if n < 1:
        raise ValueError("bad domain size")
    mask = bits[8 : 8 + n]
    if len(mask) < n:
        raise ValueError("truncated domain mask")
    dom = [t for t in range(n) if mask[t] == "1"]
    w = count_width(n)
    body = bits[8 + n :]
    if len(body) != w * len(dom):
        raise ValueError("value section has wrong length")
    g = {}
    for pos, t in enumerate(dom):
        v = decode_int(body[pos * w : (pos + 1) * w])
        if v >= n:
            raise ValueError("mapped value out of range")
        g[t] = v
    return g, n


def partitions_domain(f_a: Mapping[int, int], f_b: Mapping[int, int], n: int) -> bool:
    """The two pointer-map halves have disjoint domains covering {0..n-1}."""
    dom_a, dom_b = set(f_a), set(f_b)
    return not dom_a & dom_b and dom_a | dom_b == set(range(n))


def build_kpclp_path(f_a: Mapping[int, int], f_b: Mapping[int, int], n: int) -> LabeledGraph:
    """Path on 2n nodes whose endpoints carry the two halves of a pointer map.

    f_a and f_b must have disjoint domains covering {0..n-1} with 0 in f_a's
    domain; endpoint 1 encodes f_a, endpoint 2n encodes f_b.
    """
    if not partitions_domain(f_a, f_b, n):
        raise InvalidInstanceError("domains must partition {0..n-1}")
    if 0 not in f_a or not f_b:
        raise InvalidInstanceError("0 must be on the first side and both sides nonempty")
    labels = {
        1: Label.of_bits(encode_pointer_map(f_a, n)),
        2 * n: Label.of_bits(encode_pointer_map(f_b, n)),
    }
    return path_graph(2 * n, labels)


def build_disj_edge_star(
    x: str,
    y: str,
    indices_a: Sequence[int] | None = None,
    indices_b: Sequence[int] | None = None,
) -> LabeledGraph:
    """Two adjacent hubs (ids 1, 2), each with n leaves carrying (bit, index) pairs.

    Leaf t on the first side (id 2+t) carries (x[p-1], p) with p = indices_a[t-1]
    (identity by default); the second side mirrors with y. Non-permutation
    index sequences are allowed — they produce non-members.
    """
    n = len(x)
    if n < 1 or len(y) != n or not is_bits(x) or not is_bits(y):
        raise InvalidInstanceError("x and y must be equal-length nonempty bit strings")
    ia = list(indices_a) if indices_a is not None else list(range(1, n + 1))
    ib = list(indices_b) if indices_b is not None else list(range(1, n + 1))
    if len(ia) != n or len(ib) != n or any(not 1 <= p <= n for p in ia + ib):
        raise InvalidInstanceError(f"index sequences must have {n} entries in [1, {n}]")
    a_leaves = list(range(3, n + 3))
    b_leaves = list(range(n + 3, 2 * n + 3))
    edges = [(1, 2)] + [(1, v) for v in a_leaves] + [(2, v) for v in b_leaves]
    labels: dict[int, Label] = {}
    for t, v in enumerate(a_leaves):
        labels[v] = Label.of_pair(x[ia[t] - 1], ia[t])
    for t, v in enumerate(b_leaves):
        labels[v] = Label.of_pair(y[ib[t] - 1], ib[t])
    return LabeledGraph([1, 2] + a_leaves + b_leaves, edges, labels)


def build_special_disjointness(n: int, x: str, y: str, b: str) -> LabeledGraph:
    """Four-node spine with two input pendants on one end and an n-clique on the other.

    Spine v_1..v_4 = ids 1..4; pendants ids 5 (holds x) and 6 (holds y) hang
    off v_1; the clique occupies ids 7..n+6 and touches v_4 at id 7 only.
    Spine nodes carry position indices 1..4, v_4 also carries the bit b.
    x and y may have different lengths (such instances are non-members).
    """
    if n < 1:
        raise InvalidInstanceError("need clique size >= 1")
    if not (is_bits(x) and is_bits(y) and is_bits(b) and len(b) == 1):
        raise InvalidInstanceError("x, y must be bit strings and b a single bit")
    clique_ids = list(range(7, n + 7))
    edges = [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6), (4, 7)]
    edges += clique_edge_order(clique_ids)
    labels = {
        1: Label.of_pair(None, 1),
        2: Label.of_pair(None, 2),
        3: Label.of_pair(None, 3),
        4: Label.of_pair(b, 4),
        5: Label.of_pair(x, None),
        6: Label.of_pair(y, None),
    }
    for v in clique_ids:
        labels[v] = Label.of_pair(None, None)
    return LabeledGraph(list(range(1, 7)) + clique_ids, edges, labels)


@lru_cache(maxsize=8)
def _disj_4partite_skeleton(n: int) -> LabeledGraph:
    """The blank complete 4-partite graph on id blocks of size n."""
    blocks = [range(q * n + 1, (q + 1) * n + 1) for q in range(4)]
    edges = [
        (u, v) for qa, qb in combinations(range(4), 2) for u in blocks[qa] for v in blocks[qb]
    ]
    return LabeledGraph(range(1, 4 * n + 1), edges)


# one Label per row string: labels are immutable values, so instances share them
_row_label = lru_cache(maxsize=1024)(Label.of_bits)


def build_disj_4partite(x_rows: Sequence[str], y_rows: Sequence[str]) -> LabeledGraph:
    """Complete 4-partite graph on id blocks of size n; first block holds the
    rows of X, last block the rows of Y, middle blocks are blank."""
    n = len(x_rows)
    if n < 1 or len(y_rows) != n:
        raise InvalidInstanceError("X and Y must have the same positive row count")
    for r in chain(x_rows, y_rows):
        if not is_bits(r) or len(r) != n:
            raise InvalidInstanceError(f"rows must be {n}-bit strings, got {r!r}")
    skeleton = _disj_4partite_skeleton(n)
    labels = chain(map(_row_label, x_rows), repeat(_BLANK, 2 * n), map(_row_label, y_rows))
    return skeleton._relabeled(dict(zip(skeleton.nodes, labels)))


# family -> (builder, Alice's side of its two-party cut, or None).  A cut
# reads the builder's parameters and returns Alice's nodes; Bob holds the
# rest.  Changing one of a party's inputs changes only labels of, and edges
# among, that party's nodes, so twoparty.cut_communication meters what a
# schedule carries between the parties.  special-disjointness and
# disj-on-clique have no two-party layout.
_GADGETS: dict[str, tuple[Callable[..., LabeledGraph], Callable[..., Iterable[int]] | None]] = {
    "xor-index-path": (build_xor_index_path, lambda n, **_: range(1, n + 2)),
    "clique-bridge": (
        build_clique_bridge,
        lambda n, k=1, **_: chain(range(1, n + 1), range(2 * n + 1, 2 * n + 2 * k + 1)),
    ),
    "disj-on-clique": (build_disj_on_clique, None),
    "disj-on-edge": (build_disj_on_edge, lambda n, **_: range(1, n + 1)),
    "disj-on-path": (build_disj_on_path, lambda n, **_: range(1, n + 1)),
    "k-pclp": (build_kpclp_path, lambda n, **_: range(1, n + 1)),
    "disj-edge-star": (build_disj_edge_star, lambda x, **_: chain((1,), range(3, len(x) + 3))),
    "special-disjointness": (build_special_disjointness, None),
    "disj-4partite": (build_disj_4partite, lambda x_rows, **_: range(1, 2 * len(x_rows) + 1)),
}


def _gadget(family: str, params: Mapping) -> tuple[Callable[..., LabeledGraph], Callable | None]:
    """The family's (builder, cut), once `params` fit the builder's signature."""
    try:
        builder, cut = _GADGETS[family]
    except KeyError:
        raise InvalidInstanceError(f"unknown gadget family {family!r}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidInstanceError(f"{family}: {exc}") from None
    return builder, cut


def build_gadget(family: str, **params) -> LabeledGraph:
    """Dispatch to a gadget generator by family name."""
    builder, _ = _gadget(family, params)
    return builder(**params)


def gadget_cut(family: str, **params) -> frozenset[int]:
    """Alice's nodes of the gadget that build_gadget(family, **params) builds;
    Bob gets the rest.  Raises InvalidInstanceError for a family without a
    two-party layout."""
    _, cut = _gadget(family, params)
    if cut is None:
        raise InvalidInstanceError(f"{family} has no Alice/Bob cut")
    return frozenset(cut(**params))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def all_graphs(num_nodes: int) -> Iterator[LabeledGraph]:
    """Every simple graph on ids 1..num_nodes (blank labels), by edge bitmask."""
    pairs = list(combinations(range(1, num_nodes + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[t] for t in range(len(pairs)) if (mask >> t) & 1]
        yield LabeledGraph(range(1, num_nodes + 1), edges)


def _pointer_partitions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    rest = list(range(1, n))
    for mask in range(1 << len(rest)):
        dom_a = [0] + [rest[t] for t in range(len(rest)) if (mask >> t) & 1]
        dom_b = [t for t in rest if t not in dom_a]
        if dom_b:
            yield tuple(dom_a), tuple(dom_b)


def _alternating_maps(n: int) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """All (f_a, f_b) with disjoint covering domains, 0 on the a-side, and
    values landing on the opposite side."""
    for dom_a, dom_b in _pointer_partitions(n):
        for vals_a in product(dom_b, repeat=len(dom_a)):
            f_a = dict(zip(dom_a, vals_a))
            for vals_b in product(dom_a, repeat=len(dom_b)):
                yield f_a, dict(zip(dom_b, vals_b))


def _count_alternating(n: int) -> int:
    return sum(
        len(dom_b) ** len(dom_a) * len(dom_a) ** len(dom_b)
        for dom_a, dom_b in _pointer_partitions(n)
    )


# Instances of one family part at size m.
_Instances = Callable[[int], Iterable[LabeledGraph]]


def _marked(shape: Callable[[str], LabeledGraph]) -> _Instances:
    return lambda m: map(shape, bit_strings(m))


def _xy(builder: Callable[[int, str, str], LabeledGraph]) -> _Instances:
    return lambda n: starmap(builder, product((n,), bit_strings(n), bit_strings(n)))


# family -> parts, each (first size, instance count at size m, instances at
# size m); a family enumerates its parts in order, each over sizes
# first..max_size.  one-marked-edge is the union of the three marked shapes:
# K_1 and K_2 coincide with the 1- and 2-node paths, so cliques start at 3.
_FAMILIES: dict[str, tuple[tuple[int, Callable[[int], int], _Instances], ...]] = {
    "xor-index-path": (
        (2, lambda n: 4**n * n * n, lambda n: starmap(
            build_xor_index_path,
            product((n,), bit_strings(n), bit_strings(n), range(1, n + 1), range(1, n + 1)),
        )),
    ),
    "one-marked-edge": (
        (1, lambda m: 2**m, _marked(marked_path)),
        (3, lambda m: 2**m, _marked(marked_cycle)),
        (3, lambda m: 2**m, _marked(marked_clique)),
    ),
    "disj-on-clique": (
        (1, lambda n: 2 ** (n * n),
         lambda n: map(build_disj_on_clique, product(bit_strings(n), repeat=n))),
    ),
    "disj-on-edge": ((2, lambda n: 4**n, _xy(build_disj_on_edge)),),
    "disj-on-path": ((2, lambda n: 4**n, _xy(build_disj_on_path)),),
    "k-pclp": (
        (2, _count_alternating,
         lambda n: (build_kpclp_path(f_a, f_b, n) for f_a, f_b in _alternating_maps(n))),
    ),
    "disj-edge-star": (
        (1, lambda n: 4**n,
         lambda n: starmap(build_disj_edge_star, product(bit_strings(n), repeat=2))),
    ),
    "special-disjointness": (
        (1, lambda n: 2 * 4**n, lambda n: starmap(
            build_special_disjointness, product((n,), bit_strings(n), bit_strings(n), "01"),
        )),
    ),
    "disj-4partite": (
        (1, lambda n: 4 ** (n * n), lambda n: starmap(
            build_disj_4partite,
            product(product(bit_strings(n), repeat=n), product(bit_strings(n), repeat=n)),
        )),
    ),
    "tomdf": ((1, lambda v: 2 ** (v * (v - 1) // 2), all_graphs),),
}
_FAMILIES["triangle-freeness"] = _FAMILIES["tomdf"]


def count_instances(family: str, max_size: int) -> int:
    """Exact instance count for enumerate_small_instances, without building them."""
    try:
        parts = _FAMILIES[family]
    except KeyError:
        raise InvalidInstanceError(f"unknown enumeration family {family!r}") from None
    return sum(count(m) for first, count, _ in parts for m in range(first, max_size + 1))


def enumerate_small_instances(family: str, max_size: int) -> Iterator[LabeledGraph]:
    """Deterministic exhaustive stream of every family instance up to max_size.

    The instance count is precomputed; streams larger than the 10^7 budget
    raise EnumerationTooLargeError before yielding anything.
    """
    total = count_instances(family, max_size)
    if total > ENUMERATION_BUDGET:
        raise EnumerationTooLargeError(
            f"{family} at max_size={max_size} has {total} instances (budget {ENUMERATION_BUDGET})"
        )
    return chain.from_iterable(
        build(m) for first, _, build in _FAMILIES[family] for m in range(first, max_size + 1)
    )


def random_labeled_graph(num_nodes: int, seed: int) -> LabeledGraph:
    """Seeded random graph with a mix of label shapes, for stress testing."""
    tape = Tape(seed, stream=0xBEEF)
    edges = [
        (u, v)
        for u, v in combinations(range(1, num_nodes + 1), 2)
        if tape.bit()
    ]
    labels: dict[int, Label] = {}
    for v in range(1, num_nodes + 1):
        shape = tape.randrange(4)
        if shape == 1:
            labels[v] = Label.of_bits(tape.bits(tape.randrange(4)))
        elif shape == 2:
            labels[v] = Label.of_index(1 + tape.randrange(4))
        elif shape == 3:
            bits = tape.bits(tape.randrange(3)) if tape.bit() else None
            index = 1 + tape.randrange(4) if tape.bit() else None
            labels[v] = Label.of_pair(bits, index)
    return LabeledGraph(range(1, num_nodes + 1), edges, labels)
