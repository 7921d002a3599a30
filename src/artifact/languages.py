"""Ground-truth membership oracles for the distributed decision languages.

Every oracle is a total pure function on arbitrary labeled graphs: structural
mismatch of any kind (wrong topology, wrong label shapes, stray labels) simply
means non-membership, never an error. These are the references the protocol
suite is exhaustively tested against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .graphs import (
    BITS_KIND,
    INDEX_KIND,
    PAIR_KIND,
    Label,
    LabeledGraph,
    decode_pointer_map,
    partitions_domain,
)


def disjoint(x: str, y: str) -> bool:
    """DISJ predicate: no position carries a 1 in both strings."""
    if len(x) != len(y):
        raise ValueError("disjointness needs equal-length strings")
    return not any(a == "1" and b == "1" for a, b in zip(x, y))


def path_order(adj: Mapping[int, Sequence[int]]) -> list[int] | None:
    """Node ids in path order, or None if the node -> neighbours mapping is
    not a simple path.

    The returned orientation starts at the smaller-id endpoint. A single node
    is the trivial path. The mapping may be claimed rather than a graph's
    (protocols rebuild it from broadcasts), so it need not be symmetric: the
    walk also checks that each next node is in the mapping and not yet seen,
    and that the far end claims the node it was reached from.
    """
    if len(adj) == 1:
        (v, ns), = adj.items()
        return [v] if not ns else None
    ends = [v for v, ns in adj.items() if len(ns) == 1]
    if len(ends) != 2 or any(len(ns) not in (1, 2) for ns in adj.values()):
        return None
    order = [min(ends)]
    seen = {order[0]}
    prev = None
    while len(order) < len(adj):
        candidates = [w for w in adj[order[-1]] if w != prev]
        if len(candidates) != 1 or candidates[0] not in adj or candidates[0] in seen:
            return None
        prev = order[-1]
        order.append(candidates[0])
        seen.add(candidates[0])
    return order if order[-1] == max(ends) and prev in adj[order[-1]] else None


def _triangles(g: LabeledGraph):
    for u in g.nodes:
        nbrs = [w for w in g.neighbors(u) if w > u]
        for v, w in combinations(nbrs, 2):
            if g.has_edge(v, w):
                yield (u, v, w)


def _bits_label(lab: Label, length: int | None = None) -> str | None:
    if lab.kind != BITS_KIND:
        return None
    if length is not None and len(lab.bits) != length:
        return None
    return lab.bits


# ---------------------------------------------------------------------------
# oracles


def one_marked_edge(g: LabeledGraph) -> bool:
    """Every node carries one bit and exactly one present edge is 1-1 marked."""
    marks = {}
    for v in g.nodes:
        b = _bits_label(g.label(v), 1)
        if b is None:
            return False
        marks[v] = b
    doubly = sum(1 for u, v in g.edges if marks[u] == "1" and marks[v] == "1")
    return doubly == 1


def xor_index_path(g: LabeledGraph) -> bool:
    """Odd path where the arm inputs differ at the far endpoint's index.

    The path has 2n+1 nodes (n >= 2): an index i at one end, the n-bit string
    x at the last node of that arm, a blank center, y at the first node of the
    other arm, and an index j at the far end. Membership requires the j-th bit
    of x to differ from the i-th bit of y.
    """
    order = path_order(g.adjacency)
    if order is None or len(order) < 5 or len(order) % 2 == 0:
        return False
    n = (len(order) - 1) // 2
    for orient in (order, order[::-1]):
        verdict = _xor_index_eval(g, orient, n)
        if verdict is not None:
            return verdict
    return False


def _xor_index_eval(g: LabeledGraph, order: list[int], n: int) -> bool | None:
    lab_i = g.label(order[0])
    lab_x = g.label(order[n - 1])
    lab_y = g.label(order[n + 1])
    lab_j = g.label(order[2 * n])
    if lab_i.kind != INDEX_KIND or lab_j.kind != INDEX_KIND:
        return None
    i, j = lab_i.index, lab_j.index
    x = _bits_label(lab_x, n)
    y = _bits_label(lab_y, n)
    if x is None or y is None or not (1 <= i <= n and 1 <= j <= n):
        return None
    blanks = set(range(2 * n + 1)) - {0, n - 1, n + 1, 2 * n}
    if any(not g.label(order[p]).is_blank for p in blanks):
        return None
    return x[j - 1] != y[i - 1]


def tomdf(g: LabeledGraph) -> bool:
    """No node of globally maximum degree lies in a triangle (labels ignored)."""
    delta = g.max_degree()
    for u, v, w in _triangles(g):
        if delta in (g.degree(u), g.degree(v), g.degree(w)):
            return False
    return True


def triangle_freeness(g: LabeledGraph) -> bool:
    return next(_triangles(g), None) is None


def disj_on_clique(g: LabeledGraph) -> bool:
    """Complete graph, n-bit labels, and every bit position has a 0 somewhere."""
    n = g.n
    if len(g.edges) != n * (n - 1) // 2 or any(g.degree(v) != n - 1 for v in g.nodes):
        return False
    rows = []
    for v in g.nodes:
        r = _bits_label(g.label(v), n)
        if r is None:
            return False
        rows.append(r)
    return all(any(r[i] == "0" for r in rows) for i in range(n))


def _middle_pair_path(g: LabeledGraph, offset: int) -> tuple[str, str, int] | None:
    """Common shape for the two disjointness-on-a-path languages.

    Expects a 2n-node path with n-bit inputs at symmetric positions
    (offset, 2n-1-offset counted from one end); every other label blank.
    Returns (x, y, n) or None.
    """
    order = path_order(g.adjacency)
    if order is None or len(order) % 2:
        return None
    n = len(order) // 2
    pos_a, pos_b = offset, 2 * n - 1 - offset
    if pos_a < 0 or pos_a >= pos_b:
        return None
    x = _bits_label(g.label(order[pos_a]), n)
    y = _bits_label(g.label(order[pos_b]), n)
    if x is None or y is None:
        return None
    if any(
        not g.label(order[p]).is_blank for p in range(2 * n) if p not in (pos_a, pos_b)
    ):
        return None
    return x, y, n


def disj_on_edge(g: LabeledGraph) -> bool:
    """2n-node path (n > 2) with disjoint n-bit inputs on the middle edge."""
    if g.n % 2:
        return False
    shape = _middle_pair_path(g, offset=g.n // 2 - 1)
    if shape is None:
        return False
    x, y, n = shape
    return n > 2 and disjoint(x, y)


def disj_on_path(g: LabeledGraph) -> bool:
    """2n-node path (n > 2) with disjoint n-bit inputs at distance 3, one
    node in from each input position of the middle-edge variant."""
    if g.n % 2:
        return False
    shape = _middle_pair_path(g, offset=g.n // 2 - 2)
    if shape is None:
        return False
    x, y, n = shape
    return n > 2 and disjoint(x, y)


def k_pclp(g: LabeledGraph, k: int) -> bool:
    """Path on 2n nodes whose endpoint labels encode the two halves of an
    alternating pointer map over {0..n-1}; member iff popcount of the k-th
    chase value is odd."""
    order = path_order(g.adjacency)
    if order is None:
        return False
    if any(not g.label(v).is_blank for v in order[1:-1]):
        return False
    lab_u = _bits_label(g.label(order[0]))
    lab_v = _bits_label(g.label(order[-1]))
    if lab_u is None or lab_v is None:
        return False
    try:
        g_u, n_u = decode_pointer_map(lab_u)
        g_v, n_v = decode_pointer_map(lab_v)
    except ValueError:
        return False
    if n_u != n_v or len(order) != 2 * n_u:
        return False
    if 0 in g_u:
        f_a, f_b = g_u, g_v
    elif 0 in g_v:
        f_a, f_b = g_v, g_u
    else:
        return False
    if not _alternates(f_a, f_b, n_u):
        return False
    return bin(pointer_chase(f_a, f_b, k)).count("1") % 2 == 1


def _alternates(f_a: dict[int, int], f_b: dict[int, int], n: int) -> bool:
    """The two domains partition the declared {0..n-1} with 0 on the a-side,
    and each half maps into the other's domain."""
    return (
        partitions_domain(f_a, f_b, n)
        and 0 in f_a
        and all(v in f_b for v in f_a.values())
        and all(v in f_a for v in f_b.values())
    )


def pointer_chase(
    f_a: Mapping[int, int] | Sequence[int], f_b: Mapping[int, int] | Sequence[int], k: int
) -> int:
    """Final pointer after k alternating hops from 0 (f_a moves first)."""
    p = 0
    for r in range(1, k + 1):
        p = f_a[p] if r % 2 else f_b[p]
    return p


def disj_edge_star(g: LabeledGraph) -> bool:
    """Two adjacent hubs with n one-bit-indexed leaves each; the leaf indices
    on each side must form a permutation of [n] and the two reconstructed
    vectors must be disjoint."""
    total = g.n
    if total < 4 or total % 2:
        return False
    m = (total - 2) // 2
    hubs = [v for v in g.nodes if g.degree(v) == m + 1]
    if m + 1 == 1:
        return False
    if len(hubs) != 2 or not g.has_edge(*hubs):
        return False
    if any(not g.label(h).is_blank for h in hubs):
        return False
    vectors = []
    for h, other in (hubs, hubs[::-1]):
        leaves = [v for v in g.neighbors(h) if v != other]
        if len(leaves) != m:
            return False
        vec = [None] * m
        for leaf in leaves:
            if g.degree(leaf) != 1:
                return False
            lab = g.label(leaf)
            if (
                lab.kind != PAIR_KIND
                or lab.bits is None
                or len(lab.bits) != 1
                or lab.index is None
                or not 1 <= lab.index <= m
            ):
                return False
            if vec[lab.index - 1] is not None:
                return False  # duplicate index
            vec[lab.index - 1] = lab.bits
        if None in vec:
            return False
        vectors.append("".join(vec))
    return disjoint(vectors[0], vectors[1])


def special_disjointness(g: LabeledGraph) -> bool:
    """Spine of four indexed nodes, two input pendants on the first, an
    n-clique hanging off the fourth; member iff the pendant vectors both have
    length n and their disjointness bit equals the spine's b bit."""
    total = g.n
    if total < 7:
        return False
    n = total - 6
    spine: dict[int, int] = {}
    b_bit: str | None = None
    pendants: list[int] = []
    clique: list[int] = []
    for v in g.nodes:
        lab = g.label(v)
        if lab.kind != PAIR_KIND:
            return False
        if lab.index is not None and lab.bits is None:
            if lab.index in spine or lab.index not in (1, 2, 3):
                return False
            spine[lab.index] = v
        elif lab.index is not None:
            if lab.index != 4 or 4 in spine or len(lab.bits) != 1:
                return False
            spine[4] = v
            b_bit = lab.bits
        elif lab.bits is not None:
            pendants.append(v)
        else:
            clique.append(v)
    if set(spine) != {1, 2, 3, 4} or len(pendants) != 2 or len(clique) != n:
        return False
    v1, v2, v3, v4 = (spine[p] for p in (1, 2, 3, 4))
    if set(g.neighbors(v1)) != {v2, *pendants}:
        return False
    if set(g.neighbors(v2)) != {v1, v3} or set(g.neighbors(v3)) != {v2, v4}:
        return False
    v4_nbrs = set(g.neighbors(v4))
    if len(v4_nbrs) != 2 or v3 not in v4_nbrs:
        return False
    attach = (v4_nbrs - {v3}).pop()
    if attach not in clique:
        return False
    cset = set(clique)
    for c in clique:
        expected = (cset - {c}) | ({v4} if c == attach else set())
        if set(g.neighbors(c)) != expected:
            return False
    for p in pendants:
        if set(g.neighbors(p)) != {v1}:
            return False
    x = g.label(pendants[0]).bits
    y = g.label(pendants[1]).bits
    if len(x) != n or len(y) != n:
        return False
    return disjoint(x, y) == (b_bit == "1")


@lru_cache(maxsize=8)
def _disj_4partite_neighbors(n: int) -> tuple[tuple[int, ...], ...]:
    """Each node's sorted neighbour ids in the complete 4-partite graph on id
    blocks of size n: the ids outside its block, one of four tuples."""
    total = 4 * n
    blocks = [range(q * n + 1, (q + 1) * n + 1) for q in range(4)]
    return tuple(
        others for b in blocks for others in [(*range(1, b.start), *range(b.stop, total + 1))] * n
    )


def disj_4partite(g: LabeledGraph) -> bool:
    """Complete 4-partite graph on canonical id blocks of size n; membership
    requires no (i, j) with bit j of row i on the first side and bit i of
    row j on the last side both 1."""
    total = g.n
    if total % 4 or total == 0 or g.big_n != total:  # ids 1..total
        return False
    n = total // 4
    if tuple(g.adjacency.values()) != _disj_4partite_neighbors(n):
        return False
    labels = [g.labels[v] for v in g.nodes]
    x_rows = [_bits_label(lab, n) for lab in labels[:n]]
    y_rows = [_bits_label(lab, n) for lab in labels[3 * n :]]
    if None in x_rows or None in y_rows:
        return False
    if labels[n : 3 * n] != [Label.blank()] * (2 * n):
        return False
    # X row by row against Y column by column: bit i*n + j is x[i][j], y[j][i]
    return not int("".join(x_rows), 2) & int("".join(map("".join, zip(*y_rows))), 2)


# ---------------------------------------------------------------------------
# dispatcher

_ORACLES = {
    "one-marked-edge": one_marked_edge,
    "xor-index-path": xor_index_path,
    "tomdf": tomdf,
    "triangle-freeness": triangle_freeness,
    "disj-on-clique": disj_on_clique,
    "disj-on-edge": disj_on_edge,
    "disj-on-path": disj_on_path,
    "disj-edge-star": disj_edge_star,
    "special-disjointness": special_disjointness,
    "disj-4partite": disj_4partite,
}

LANGUAGE_IDS = (*_ORACLES, "k-pclp")


def parse_language_id(lang: str) -> tuple[str, int | None]:
    """Split an id into (name, k): 'k-pclp:k=K' carries its round count
    K >= 1, every other id carries none. Raises ValueError otherwise."""
    name, sep, param = lang.partition(":")
    if name != "k-pclp":
        if sep:
            raise ValueError(f"malformed language id {lang!r}")
        return name, None
    key, _, value = param.partition("=")
    if key != "k" or not value.isdigit() or int(value) < 1:
        raise ValueError(f"malformed language id {lang!r}")
    return name, int(value)


def membership(lang: str, g: LabeledGraph) -> bool:
    """Oracle dispatch by language id ('k-pclp:k=K' carries its round count)."""
    name, k = parse_language_id(lang)
    if k is not None:
        return k_pclp(g, k)
    try:
        oracle = _ORACLES[name]
    except KeyError:
        raise ValueError(f"unknown language {lang!r}") from None
    return oracle(g)
