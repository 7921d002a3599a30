"""Reference protocols for the decision-language suite, one per upper bound.

Every protocol here is deterministic and is exhaustively tested for verdict
agreement against its language oracle over enumerated instance families
(`sweep`). All of them treat malformed instances by rejecting at (at least)
the node that detects the problem — never by raising, as long as the ids fit
the bandwidth: xor-index-path and k-pclp frame ids in round-1 broadcasts and
raise BandwidthViolationError in round 1 once ids spread far past [1, n]
(LabeledGraph admits ids up to n^3).

Wire conventions: integers are framed at fixed widths (node ids at the id
wire width of the run, id-1 in max(1, ceil(log2 N)) bits); degree fields use
a 2-bit code (00/01/10 for degrees 0/1/2, 11 for anything larger); unbounded
local rounds ship records pickled without a memo (`_codec`) as `bytes`
payloads, which the engine counts at 8 bits per byte, so a payload depends
only on the record's value, never on which sub-objects it shares.

Decoding that depends only on a shared broadcast inbox, not on the node
reading it, happens once per round: it is a pure function of the inbox's
value, memoised by value in one slot (`_last_inbox_memo`), so every node
after the first looks the result up without hashing the inbox again. The
readers that do so are xor-index-path's path (`xor_path_structure`), the
k-pclp round-1 digest (`kpclp_round1_structure`) and the count reader
(`_count_sum_max`), whose sum one-marked-edge reads and whose maximum tomdf
reads; the broadcast-row deciders of `transforms` share the same memo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from types import MappingProxyType
from typing import Container, Mapping, NamedTuple, Sequence

from ._bits import (
    bytes_to_bits,
    count_width as _count_width,
    decode_ids,
    decode_int,
    encode_ids,
    encode_int,
    id_width,
)
from ._codec import bytes_to_obj, obj_to_bytes
from .engine import Inbox, NodeView, Protocol, RoundKind, Schedule, default_bandwidth, run
from .graphs import (
    BITS_KIND,
    INDEX_KIND,
    PAIR_KIND,
    Label,
    LabeledGraph,
    build_disj_on_edge,
    build_disj_on_path,
    build_special_disjointness,
    decode_pointer_map,
    enumerate_small_instances,
)
from .languages import disjoint, membership, parse_language_id, path_order


def _deg_code(d: int) -> str:
    return format(min(d, 3), "02b")


def _last_inbox_memo(decode):
    """Memoise `decode(inbox, w)` for the last inbox seen: a lookup hits when
    the inbox is that very object or equal to it, under an equal w (a width,
    or any value the decoding also depends on), so the result depends on
    values only and a hit costs no hashing of the inbox. Every node reading
    the inbox gets the same result object, so it must be read-only."""
    last: list = [None, None, None]  # inbox, w, result

    @wraps(decode)
    def memo(inbox, w):
        seen, seen_w, result = last
        if w == seen_w and (inbox is seen or inbox == seen):
            return result
        result = decode(inbox, w)
        last[:] = inbox, w, result
        return result

    return memo


def _records(inbox: Inbox) -> dict[int, object]:
    """Each sender's unpickled record; None where the payload does not decode."""
    records = {}
    for sender, msg in inbox:
        try:
            records[sender] = bytes_to_obj(msg)
        except Exception:
            records[sender] = None
    return records


def decode_counts(inbox: Inbox, width: int) -> dict[int, int] | None:
    """Each sender's `width`-bit count; None if any message has another width."""
    counts = {}
    for sender, msg in inbox:
        if len(msg) != width:
            return None
        counts[sender] = decode_int(msg)
    return counts


@_last_inbox_memo
def _count_sum_max(inbox: Inbox, width: int) -> tuple[int, int] | None:
    """The sum and the largest of the `width`-bit counts; None if a message
    has another width or the inbox is empty."""
    counts = decode_counts(inbox, width)
    return (sum(counts.values()), max(counts.values())) if counts else None


@lru_cache(maxsize=64)
def _local_views(build, n: int, key) -> frozenset:
    """Every local view in the well-formed gadget `build(n, "0"*n, "0"*n)`:
    a node's (degree, key(label)) paired with the sorted (degree, key(label))
    profile of its neighbours. A node of an instance passes the structure
    check when its own pair is one of these; the inputs' values never change
    a key, so all-zero inputs stand for every instance of size n."""
    g = build(n, "0" * n, "0" * n)

    def view(v):
        return len(g.neighbors(v)), key(g.label(v))

    return frozenset((view(v), tuple(sorted(map(view, g.neighbors(v))))) for v in g.nodes)


def tomdf_holds_at(mine: Sequence[int], delta: int, adj: Mapping[int, Container[int]]) -> bool:
    """The tomdf test at one node with neighbours `mine`: it holds unless the
    node has the maximum degree `delta` and two of its neighbours are
    adjacent according to `adj` (node -> its neighbours)."""
    return len(mine) != delta or not any(
        b in adj.get(a, ()) for i, a in enumerate(mine) for b in mine[i + 1 :]
    )


# ---------------------------------------------------------------------------
# one-marked-edge — schedule [C, B]


class OneMarkedEdgeProtocol(Protocol):
    """Neighbors exchange mark bits, then everyone broadcasts its count of
    doubly-marked incident edges; accept iff the counts sum to exactly 2
    (each marked edge contributes one count at both endpoints)."""

    def init(self, view: NodeView):
        lab = view.label
        ok = lab.kind == BITS_KIND and len(lab.bits) == 1
        return {
            "nbrs": view.neighbors,
            "n": view.n,
            "ok": ok,
            "bit": lab.bits if ok else "0",
        }

    def round(self, state, index, kind, inbox):
        if index == 1:
            return state, {u: state["bit"] for u in state["nbrs"]}
        if index > 2:
            # past round 2 the inbox holds counts, not marks: reject
            state["ok"] = False
        count = 0
        if state["ok"] and state["bit"] == "1":
            count = sum(1 for _, msg in inbox if msg == "1")
        return state, encode_int(count, _count_width(state["n"]))

    def decide(self, state, inbox):
        counts = _count_sum_max(inbox, _count_width(state["n"])) if state["ok"] else None
        return counts is not None and counts[0] == 2


# ---------------------------------------------------------------------------
# xor-index-path — schedule [B, C]


class XorIndexPathProtocol(Protocol):
    """Everyone broadcasts its neighbor ids (endpoints add their index label);
    all nodes rebuild the path and reject on any structural violation. In the
    capped round the two nodes beside the center each send one input bit —
    selected by the far endpoint's index — and the center accepts iff the two
    bits differ.

    Ids must fit the bandwidth: on an odd path of 5 or more nodes each round-1
    broadcast takes 3 + 2 * ceil(log2 N) bits against a cap of 4 * ceil(log2 n)."""

    def init(self, view: NodeView):
        return {
            "view": view,
            "w": id_width(view.big_n),
            "global_ok": True,
            "self_ok": True,
            "expect": None,  # (left arm node, right arm node) at the center
        }

    def _broadcast(self, state) -> str:
        view: NodeView = state["view"]
        w = state["w"]
        if view.n < 5 or view.n % 2 == 0:
            return "0"
        deg = len(view.neighbors)
        if deg not in (1, 2):
            return "0" + _deg_code(deg)
        msg = "1" + _deg_code(deg) + encode_ids(view.neighbors, w)
        if deg == 1:
            lab = view.label
            if lab.kind != INDEX_KIND or lab.index > (1 << w):
                return "0" + _deg_code(deg)
            msg += encode_ids((lab.index,), w)
        return msg

    @staticmethod
    def _parse(msg: str, w: int):
        """Return (nbrs, idx) or None for an explicit failure flag or
        malformed framing. Either degree sends two id fields: both
        neighbours, or the one neighbour and the index."""
        if len(msg) != 3 + 2 * w or msg[0] != "1" or msg[1:3] not in ("01", "10"):
            return None
        ids = decode_ids(msg[3:], w)
        return (ids, None) if msg[1:3] == "10" else (ids[:1], ids[1])

    def round(self, state, index, kind, inbox):
        view: NodeView = state["view"]
        if index == 1:
            return state, self._broadcast(state)
        # index 2 (capped round): inbox holds every round-1 broadcast
        path = xor_path_structure(tuple(inbox), state["w"])
        if path is None:
            state["global_ok"] = False
            return state, {}
        order, position, i_val, j_val = path
        half = (len(order) - 1) // 2
        pos = position[view.node]
        lab = view.label
        if pos == half - 1 or pos == half + 1:
            state["self_ok"] = lab.kind == BITS_KIND and len(lab.bits) == half
        elif pos not in (0, len(order) - 1):
            state["self_ok"] = lab.is_blank
        out: dict[int, str] = {}
        if pos == half:
            state["expect"] = (order[half - 1], order[half + 1])
        elif pos == half - 1 and state["self_ok"]:
            # my far extremity is the other arm's endpoint
            out[order[half]] = lab.bits[j_val - 1]
        elif pos == half + 1 and state["self_ok"]:
            out[order[half]] = lab.bits[i_val - 1]
        return state, out

    def decide(self, state, inbox):
        if not (state["global_ok"] and state["self_ok"]):
            return False
        if state["expect"] is None:
            return True
        got = dict(inbox)
        left, right = state["expect"]
        if set(got) != {left, right}:
            return False
        return got[left] != got[right]


@_last_inbox_memo
def xor_path_structure(inbox: Inbox, w: int):
    """The path a round-1 xor-index-path inbox describes, which is the same
    at every node: (order, position, i_val, j_val) with `position` mapping
    each id to its place in `order`, or None on any structural failure."""
    adj: dict[int, tuple[int, ...]] = {}
    idx_of: dict[int, int] = {}
    for sender, msg in inbox:
        parsed = XorIndexPathProtocol._parse(msg, w)
        if parsed is None:
            return None
        adj[sender], idx = parsed
        if idx is not None:
            idx_of[sender] = idx
    order = path_order(adj)
    if order is None or len(order) % 2 == 0 or len(order) < 5:
        return None
    half = (len(order) - 1) // 2
    i_val = idx_of.get(order[0])
    j_val = idx_of.get(order[-1])
    if i_val is None or j_val is None or not (1 <= i_val <= half and 1 <= j_val <= half):
        return None
    position = MappingProxyType({v: p for p, v in enumerate(order)})
    return tuple(order), position, i_val, j_val


# ---------------------------------------------------------------------------
# triangle-on-max-degree-freeness — schedule [B, L]


class TomdfProtocol(Protocol):
    """Broadcast degrees, then exchange neighbor lists; a node rejects iff its
    degree matches the global maximum and two of its neighbors are adjacent."""

    def init(self, view: NodeView):
        # only what the rounds read: the B/L swap ships this state whole
        return {
            "nbrs": view.neighbors,
            "w": id_width(view.big_n),
            "wd": _count_width(view.n),
            "delta": None,
            "bad": False,
        }

    def round(self, state, index, kind, inbox):
        nbrs = state["nbrs"]
        if index == 1:
            return state, encode_int(len(nbrs), state["wd"])
        # only round 2 reads round-1 degrees; an empty inbox names no maximum
        counts = _count_sum_max(inbox, state["wd"]) if index == 2 else None
        if counts is None:
            state["bad"] = True
            return state, {}
        state["delta"] = counts[1]
        listing = encode_ids(nbrs, state["w"])
        return state, {u: listing for u in nbrs}

    def decide(self, state, inbox):
        if state["bad"]:
            return False
        nbrs = state["nbrs"]
        if len(nbrs) != state["delta"]:
            return True
        w = state["w"]
        if any(len(msg) % w for _, msg in inbox):
            return False
        nbr_lists = {sender: decode_ids(msg, w) for sender, msg in inbox}
        return tomdf_holds_at(nbrs, state["delta"], nbr_lists)


# ---------------------------------------------------------------------------
# disjointness-on-clique — schedule [C]


class DisjOnCliqueProtocol(Protocol):
    """Rank all ids; everyone routes bit r of its label to the rank-r node;
    the rank-r node accepts iff some bit of column r (its own included) is 0."""

    def init(self, view: NodeView):
        lab = view.label
        n = view.n
        ok = len(view.neighbors) == n - 1 and lab.kind == BITS_KIND and len(lab.bits) == n
        ranks = tuple(sorted((view.node, *view.neighbors)))
        return {
            "node": view.node,
            "n": n,
            "ok": ok,
            "bits": lab.bits if ok else "",
            "ranks": ranks,
        }

    def round(self, state, index, kind, inbox):
        if not state["ok"]:
            return state, {}
        out = {}
        for r, holder in enumerate(state["ranks"], start=1):
            if holder != state["node"]:
                out[holder] = state["bits"][r - 1]
        return state, out

    def decide(self, state, inbox):
        if not state["ok"]:
            return False
        if len(inbox) != state["n"] - 1 or any(len(msg) != 1 for _, msg in inbox):
            return False
        my_rank = state["ranks"].index(state["node"]) + 1
        column = [msg for _, msg in inbox] + [state["bits"][my_rank - 1]]
        return "0" in column


# ---------------------------------------------------------------------------
# k-round pointer chasing on a path — schedule [B^k]


class KPclpProtocol(Protocol):
    """Round 1: everyone broadcasts its neighbor ids; the endpoint holding 0
    also broadcasts the first chase value and its declared domain size, the
    other (mute) endpoint the size of its half of the map. The endpoints then
    alternate broadcasting successive chase values, one per round. Everyone
    accepts iff no check failed, k values arrived and the last has odd popcount.

    Each fact is checked once, where it is first seen:
    - init: an inner label is blank; an endpoint's label decodes (which bounds
      its keys and values by its declared size), no value in its own domain;
    - round 1: an endpoint's declared size and half size frame in an id field;
    - after round 1: the path, with 2 * declared size nodes (every node); the
      same declared size (mute endpoint); half sizes adding up to it (0-holder);
    - each send: the value to chase lies in the sender's domain;
    - decide: k values arrived, which only a schedule of more rounds breaks.

    Ids must fit the bandwidth: the 0-holder's round-1 broadcast takes
    2 + 3 * ceil(log2 N) bits against a cap of 4 * ceil(log2 n).

    Locality note: each endpoint can vet only its own half of the map (plus
    the incoming values landing in its domain); a forged label pair with
    overlapping domains that happens to chase consistently is indistinguishable
    inside k broadcast rounds.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k

    def init(self, view: NodeView):
        lab = view.label
        g = ndom = None
        if len(view.neighbors) != 1:
            bad = not lab.is_blank
        elif lab.kind != BITS_KIND:
            bad = True
        else:
            try:
                g, ndom = decode_pointer_map(lab.bits)
            except ValueError:
                pass
            bad = g is None or any(val in g for val in g.values())
        return {
            "view": view,
            "w": id_width(view.big_n),
            "bad": bad,  # self-detected violation
            "struct_bad": False,  # globally visible violation
            "map": g,
            "ndom": ndom,
            "a_end": None,
            "b_end": None,
        }

    def _round1_broadcast(self, state) -> str:
        view: NodeView = state["view"]
        deg = len(view.neighbors)
        if view.n < 4 or deg not in (1, 2):
            return "11"
        w = state["w"]
        nbr = encode_ids(view.neighbors, w)
        if deg == 2:
            return "00" + nbr
        g, ndom = state["map"], state["ndom"]
        starts = g is not None and 0 in g
        if starts and ndom <= 1 << w:
            return "01" + nbr + encode_int(g[0], w) + encode_int(ndom - 1, w)
        size = len(g or ())
        if starts or size >= 1 << w:
            state["bad"], size = True, 0  # undecodable on the wire
        return "10" + nbr + encode_int(size, w)

    def _absorb(self, state, round_completed: int, inbox):
        """Absorb the broadcasts of round `round_completed`."""
        if round_completed == 1:
            view: NodeView = state["view"]
            structure = kpclp_round1_structure(tuple(inbox), state["w"])
            if structure is None:
                state["struct_bad"] = True
                return
            a_end, b_end, v1, ndom_a, size_b = structure
            if 2 * ndom_a != view.n:
                state["struct_bad"] = True
                return
            state.update(a_end=a_end, b_end=b_end, chase=[v1])
            if view.node == b_end:
                state["bad"] |= state["ndom"] != ndom_a
            elif view.node == a_end:
                state["bad"] |= len(state["map"]) + size_b != ndom_a
            return
        if state["struct_bad"]:
            return
        expected = state["a_end"] if round_completed % 2 else state["b_end"]
        sent = {sender: msg for sender, msg in inbox if msg}
        payload = sent.get(expected, "")
        if len(sent) != 1 or len(payload) != state["w"] + 1 or payload[0] != "1":
            state["struct_bad"] = True
        else:
            state["chase"].append(decode_int(payload[1:]))

    def round(self, state, index, kind, inbox):
        if index == 1:
            return state, self._round1_broadcast(state)
        self._absorb(state, index - 1, inbox)
        chaser = state["a_end"] if index % 2 else state["b_end"]
        if state["struct_bad"] or state["view"].node != chaser:
            return state, ""
        g, prev = state["map"], state["chase"][-1]
        if state["bad"] or prev not in g:
            state["bad"] = True
            return state, "0"
        return state, "1" + encode_int(g[prev], state["w"])

    def decide(self, state, inbox):
        self._absorb(state, self.k, inbox)
        if state["struct_bad"] or state["bad"] or len(state["chase"]) != self.k:
            return False
        return bin(state["chase"][-1]).count("1") % 2 == 1


@_last_inbox_memo
def kpclp_round1_structure(inbox: Inbox, w: int):
    """The node-independent part of a round-1 k-pclp inbox: (a_end, b_end,
    v1, ndom_a, size_b), or None if the framing or the path is bad."""
    adj: dict[int, tuple[int, ...]] = {}
    a_end = b_end = None
    v1 = ndom_a = size_b = None
    for sender, msg in inbox:
        code, body = msg[:2], msg[2:]
        if code == "00" and len(body) == 2 * w:
            adj[sender] = decode_ids(body, w)
        elif code == "01" and len(body) == 3 * w and a_end is None:
            a_end = sender
            adj[sender] = decode_ids(body[:w], w)
            v1 = decode_int(body[w : 2 * w])
            ndom_a = decode_int(body[2 * w :]) + 1
        elif code == "10" and len(body) == 2 * w and b_end is None:
            b_end = sender
            adj[sender] = decode_ids(body[:w], w)
            size_b = decode_int(body[w:])
        else:
            return None
    order = path_order(adj)
    if (
        order is None
        or len(order) < 4
        or a_end is None
        or b_end is None
        or {order[0], order[-1]} != {a_end, b_end}
    ):
        return None
    return a_end, b_end, v1, ndom_a, size_b


# ---------------------------------------------------------------------------
# special-disjointness — schedule [L, C]


def _spd_shape(lab: Label) -> tuple:
    """Label classification: spine position, pendant, filler or other."""
    if lab.kind != PAIR_KIND:
        return ("other",)
    if lab.bits is None and lab.index in (1, 2, 3):
        return ("spine", lab.index)
    if lab.index == 4 and lab.bits is not None and len(lab.bits) == 1:
        return ("spine", 4)
    if lab.index is None and lab.bits is not None:
        return ("pendant",)
    if lab.index is None and lab.bits is None:
        return ("filler",)
    return ("other",)


class SpecialDisjointnessProtocol(Protocol):
    """Structure check by a one-round neighborhood exchange (degree + label
    shape, matched against the gadget `build_special_disjointness` makes),
    plus the input relay: the first spine node evaluates disjointness of the
    two pendant vectors and sends the bit inward, while the stated bit
    travels from the far spine node two hops to meet it."""

    _build = partial(build_special_disjointness, b="0")

    def init(self, view: NodeView):
        return {"view": view, "shape": _spd_shape(view.label), "records": {}, "relayed": False}

    def round(self, state, index, kind, inbox):
        view: NodeView = state["view"]
        if index == 1:
            record = {
                "deg": len(view.neighbors),
                "shape": state["shape"],
                "vec": view.label.bits if state["shape"] == ("pendant",) else None,
                "b": view.label.bits if state["shape"] == ("spine", 4) else None,
            }
            payload = obj_to_bytes(record)
            return state, {u: payload for u in view.neighbors}
        records = state["records"] = _records(inbox)
        out: dict[int, str] = {}
        if state["shape"] == ("spine", 1):
            vecs = [r["vec"] for r in records.values() if r and r["shape"] == ("pendant",)]
            spine2 = [s for s, r in records.items() if r and r["shape"] == ("spine", 2)]
            n = view.n - 6
            state["relayed"] = (
                len(vecs) == 2 and len(spine2) == 1 and len(vecs[0]) == len(vecs[1]) == n
            )
            if state["relayed"]:
                out[spine2[0]] = "1" if disjoint(vecs[0], vecs[1]) else "0"
        elif state["shape"] == ("spine", 3):
            b_vals = [r["b"] for r in records.values() if r and r["shape"] == ("spine", 4)]
            spine2 = [s for s, r in records.items() if r and r["shape"] == ("spine", 2)]
            # _spd_shape gives spine position 4 only to a one-bit label
            if len(b_vals) == 1 and len(spine2) == 1:
                out[spine2[0]] = b_vals[0]
        return state, out

    def _topology_ok(self, state) -> bool:
        view: NodeView = state["view"]
        n = view.n - 6
        records = state["records"]
        if n < 1 or None in records.values():
            return False
        profile = tuple(sorted((r["deg"], r["shape"]) for r in records.values()))
        own = (len(view.neighbors), state["shape"])
        return (own, profile) in _local_views(self._build, n, _spd_shape)

    def decide(self, state, inbox):
        if not self._topology_ok(state):
            return False
        if state["shape"] == ("spine", 2):
            bits = [msg for _, msg in inbox]
            return len(bits) == 2 and bits[0] == bits[1] and bits[0] in ("0", "1")
        if state["shape"] == ("spine", 1):
            # the view fits, so the relay saw two pendants and one spine-2 node
            return state["relayed"]
        return True


# ---------------------------------------------------------------------------
# disjointness-on-edge — schedule [L]


def _carries_bits(lab: Label) -> bool:
    return lab.kind == BITS_KIND


class DisjOnEdgeProtocol(Protocol):
    """Single unbounded round: everyone ships (degree, label) to its
    neighbors. The two adjacent input holders evaluate disjointness; every
    node checks that its local view fits some position of the labeled path
    its family's builder makes."""

    _build = staticmethod(build_disj_on_edge)

    def init(self, view: NodeView):
        lab = view.label
        return {
            "view": view,
            "vec": lab.bits if lab.kind == BITS_KIND else None,
            "shape_ok": lab.kind == BITS_KIND or lab.is_blank,
        }

    def round(self, state, index, kind, inbox):
        view: NodeView = state["view"]
        record = {"deg": len(view.neighbors), "vec": state["vec"]}
        payload = obj_to_bytes(record)
        return state, {u: payload for u in view.neighbors}

    def _fits_path(self, state, records) -> bool:
        """Size guard, then: every neighbour's (degree, labeled) record arrived
        and my local view fits some position of the expected labeled path."""
        view: NodeView = state["view"]
        total = view.n
        if total % 2 or total < 6 or not state["shape_ok"] or None in records.values():
            return False
        profile = tuple(sorted((r["deg"], r["vec"] is not None) for r in records.values()))
        own = (len(view.neighbors), state["vec"] is not None)
        return (own, profile) in _local_views(self._build, total // 2, _carries_bits)

    def decide(self, state, inbox):
        records = _records(inbox)
        if not self._fits_path(state, records):
            return False
        if state["vec"] is None:
            return True
        n = state["view"].n // 2
        # the view fits, so exactly one neighbour is labeled
        (partner,) = [r["vec"] for r in records.values() if r["vec"] is not None]
        if len(state["vec"]) != n or len(partner) != n:
            return False
        return disjoint(state["vec"], partner)


class DisjOnPathProtocol(DisjOnEdgeProtocol):
    """Two unbounded rounds for inputs three hops apart: the first round is
    the same neighborhood exchange; in the second every node relays all it
    learned, giving radius-2 knowledge. The two nodes between the inputs then
    see both vectors and evaluate disjointness. Any later round repeats the
    relay, so a longer all-L schedule reaches the same verdict."""

    _build = staticmethod(build_disj_on_path)

    def round(self, state, index, kind, inbox):
        view: NodeView = state["view"]
        if index == 1:
            return super().round(state, index, kind, inbox)
        if index == 2:
            records = state["r1"] = _records(inbox)
            own = {"deg": len(view.neighbors), "vec": state["vec"]}
            state["relay"] = obj_to_bytes({"own": own, "heard": records})
        return state, {u: state["relay"] for u in view.neighbors}

    def decide(self, state, inbox):
        r1 = state.get("r1", {})
        if not self._fits_path(state, r1):
            return False
        n = state["view"].n // 2
        if state["vec"] is not None:
            return len(state["vec"]) == n
        # unlabeled: decide disjointness when sitting between the two inputs
        relays = _records(inbox)
        if None in relays.values():
            return False
        my_labeled_nbrs = [s for s, r in r1.items() if r["vec"] is not None]
        if len(my_labeled_nbrs) != 1:
            return True
        own_vec = r1[my_labeled_nbrs[0]]["vec"]
        other = [
            rec
            for s, rec in relays.items()
            if s != my_labeled_nbrs[0]
            and rec["own"]["vec"] is None
            and any(h and h["vec"] is not None for h in rec["heard"].values())
        ]
        if len(other) != 1:
            return True
        far_vecs = [
            h["vec"] for h in other[0]["heard"].values() if h and h["vec"] is not None
        ]
        if len(far_vecs) != 1:
            return False
        if len(own_vec) != n or len(far_vecs[0]) != n:
            return False
        return disjoint(own_vec, far_vecs[0])


# ---------------------------------------------------------------------------
# disjointness on an edge-linked star pair — schedule [C, L]


class DisjEdgeStarProtocol(Protocol):
    """Leaves push their (bit, index) to their hub in the capped round; hubs
    rebuild their side's vector, reject duplicate or missing indices, swap
    vectors over the unbounded round, and both evaluate disjointness."""

    def init(self, view: NodeView):
        total = view.n
        m = (total - 2) // 2 if total >= 4 and total % 2 == 0 else 0
        deg = len(view.neighbors)
        role = "hub" if m >= 1 and deg == m + 1 else "leaf" if deg == 1 else "bad"
        if role == "hub" and not view.label.is_blank:
            role = "bad"
        lab = view.label
        leaf_ok = (
            lab.kind == PAIR_KIND
            and lab.bits is not None
            and len(lab.bits) == 1
            and lab.index is not None
            and 1 <= lab.index <= m
        )
        return {
            "view": view,
            "m": m,
            "w": id_width(view.big_n),
            "role": role,
            "leaf_ok": leaf_ok,
            "vec": None,
        }

    def round(self, state, index, kind, inbox):
        view: NodeView = state["view"]
        if index == 1:
            if state["role"] == "leaf" and state["leaf_ok"]:
                lab = view.label
                payload = lab.bits + encode_ids((lab.index,), state["w"])
                return state, {view.neighbors[0]: payload}
            return state, {}
        # unbounded round: hubs talk
        if state["role"] != "hub":
            return state, {}
        m, w = state["m"], state["w"]
        got = dict(inbox)
        silent = [u for u in view.neighbors if u not in got]
        # a round-1 sender passed leaf_ok, so its index lies in [1, m]: the m
        # senders beside one silent co-hub fill every slot unless two collide
        bit_at = {}
        if len(silent) == 1 and all(len(msg) == 1 + w for msg in got.values()):
            bit_at = {decode_ids(msg[1:], w)[0]: msg[0] for msg in got.values()}
        state["vec"] = "".join(bit_at[i] for i in range(1, m + 1)) if len(bit_at) == m else None
        state["cohub"] = silent[0] if len(silent) == 1 else None
        record = {"hub": True, "deg": len(view.neighbors), "vec": state["vec"]}
        payload = obj_to_bytes(record)
        return state, {u: payload for u in view.neighbors}

    def decide(self, state, inbox):
        view: NodeView = state["view"]
        role = state["role"]
        if role == "bad":
            return False
        records = _records(inbox)
        if role == "leaf":
            if not state["leaf_ok"]:
                return False
            rec = records.get(view.neighbors[0])
            return bool(rec and rec.get("hub") and rec.get("deg") == state["m"] + 1)
        # hub: a vector was built only beside one silent co-hub
        if state["vec"] is None:
            return False
        rec = records.get(state["cohub"])
        if not rec or not rec.get("hub") or rec.get("deg") != state["m"] + 1:
            return False
        partner = rec.get("vec")  # a hub's vector has m bits
        if partner is None:
            return True  # the co-hub saw the problem and rejects itself
        return disjoint(state["vec"], partner)


# ---------------------------------------------------------------------------
# disjointness on a complete 4-partite graph — schedule [C, C]


class _Disj4Plan(NamedTuple):
    """What one node of a block does, fixed by (n, block): its expected
    neighbours; whether it holds a row (first and last block) or relays (the
    middle blocks); whom it sends one bit each (in round 1 if it holds a row;
    in round 2 if it relays, and those nodes send one bit back for decide);
    and, for a relay, whose one-bit messages it collects in round 2."""

    neighbors: tuple[int, ...]
    holds_row: bool
    sends: tuple[int, ...]
    reads: tuple[int, ...]


@lru_cache(maxsize=32)
def _disj4_plan(n: int, block: int) -> _Disj4Plan:
    ids = [tuple(range(q * n + 1, (q + 1) * n + 1)) for q in range(4)]
    neighbors = tuple(v for q in range(4) if q != block for v in ids[q])
    if block == 0:  # row i of X, bit by bit, to the second block
        return _Disj4Plan(neighbors, True, ids[1], ())
    if block == 3:  # row j of Y, bit by bit, to the third block
        return _Disj4Plan(neighbors, True, ids[2], ())
    if block == 1:  # column j of X; x[i][j] to the i-th node of the third block
        return _Disj4Plan(neighbors, False, ids[2], ids[0])
    # the i-slice of Y; y[j][i] to the j-th node of the second block
    return _Disj4Plan(neighbors, False, ids[1], ids[3])


def _one_bit_column(inbox: Inbox, senders: tuple[int, ...]) -> str | None:
    """The one-bit payloads of `senders`, in order, as one string; None if a
    sender is silent or sent other than one bit. Other senders are ignored."""
    got = dict(inbox)
    col = ""
    for s in senders:
        bit = got.get(s)
        if bit not in ("0", "1"):
            return None
        col += bit
    return col


class Disj4PartiteProtocol(Protocol):
    """Two capped routing rounds over canonical id blocks: the first block
    spreads its rows bit-by-bit across the second block, the fourth across the
    third; the middle blocks then trade those bits pairwise so each can check
    its slice of the crossing condition.

    A node's state is None once it has seen a malformed instance or inbox
    (it then stays silent and rejects), else (plan, bits): its row, or for a
    relay the column it collected (None before round 2)."""

    def init(self, view: NodeView):
        total = view.n
        n = total // 4 if total % 4 == 0 else 0
        me = view.node
        if not n or me > total:
            return None
        plan = _disj4_plan(n, (me - 1) // n)
        if view.neighbors != plan.neighbors:
            return None
        lab = view.label
        if not plan.holds_row:
            return (plan, None) if lab.is_blank else None
        if lab.kind != BITS_KIND or len(lab.bits) != n:
            return None
        return plan, lab.bits

    def round(self, state, index, kind, inbox):
        if state is None:
            return None, {}
        plan, bits = state
        if plan.holds_row:
            return state, dict(zip(plan.sends, bits)) if index == 1 else {}
        if index == 1:
            return state, {}
        # round 2: relay what was collected
        col = _one_bit_column(inbox, plan.reads)
        if col is None:
            return None, {}
        return (plan, col), dict(zip(plan.sends, col))

    def decide(self, state, inbox):
        if state is None:
            return False
        plan, col = state
        if plan.holds_row:
            return True
        if col is None:  # no round 2 ran
            return False
        incoming = _one_bit_column(inbox, plan.sends)
        return incoming is not None and not int(col, 2) & int(incoming, 2)


# ---------------------------------------------------------------------------
# stress protocol: exercises full state over arbitrary schedules


class FullStateStressProtocol(Protocol):
    """Deterministic protocol with no semantic target: it hashes everything it
    has seen into every message it sends (full pickled state on unbounded
    rounds) and decides by a parity of the final digest. Exists to stress
    schedule transformations, which must preserve its verdicts exactly."""

    def init(self, view: NodeView):
        return {
            "me": view.node,
            "n": view.n,
            "nbrs": view.neighbors,
            "label": (view.label.kind, view.label.bits, view.label.index),
            "trail": [],
        }

    @staticmethod
    def _hash(state, extra: str) -> str:
        material = repr((state["me"], state["label"], state["trail"], extra))
        h = hashlib.sha256(material.encode()).digest()
        return bytes_to_bits(h)

    def round(self, state, index, kind, inbox):
        state = dict(state, trail=state["trail"] + [(index, kind.char, tuple(inbox))])
        cap = default_bandwidth(state["n"])
        if kind is RoundKind.BCC:
            return state, self._hash(state, "b")[:cap]
        if kind is RoundKind.CONGEST:
            return state, {
                u: self._hash(state, f"c{u}")[:cap] for u in state["nbrs"]
            }
        return state, {u: obj_to_bytes((state, u)) for u in state["nbrs"]}

    def decide(self, state, inbox):
        return self._hash(dict(state, trail=state["trail"] + [tuple(inbox)]), "d")[0] == "1"


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class NamedProtocol:
    """A protocol bound to its schedule, target language, and test family."""

    name: str
    protocol: Protocol
    schedule: Schedule
    language: str
    family: str


# id -> (protocol class, schedule); for these rows name == language == family
_SUITE = {
    "one-marked-edge": (OneMarkedEdgeProtocol, "C,B"),
    "xor-index-path": (XorIndexPathProtocol, "B,C"),
    "tomdf": (TomdfProtocol, "B,L"),
    "disj-on-clique": (DisjOnCliqueProtocol, "C"),
    "special-disjointness": (SpecialDisjointnessProtocol, "L,C"),
    "disj-on-edge": (DisjOnEdgeProtocol, "L"),
    "disj-on-path": (DisjOnPathProtocol, "L,L"),
    "disj-edge-star": (DisjEdgeStarProtocol, "C,L"),
    "disj-4partite": (Disj4PartiteProtocol, "C,C"),
}


def proto_registry(name: str) -> NamedProtocol:
    """Look up a suite protocol by id; 'k-pclp:k=2' carries its parameter."""
    _, k = parse_language_id(name)
    if k is not None:
        name = f"k-pclp:k={k}"
        schedule = Schedule((RoundKind.BCC,) * k)
        return NamedProtocol(name, KPclpProtocol(k), schedule, name, "k-pclp")
    try:
        cls, schedule = _SUITE[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None
    return NamedProtocol(name, cls(), Schedule.parse(schedule), name, name)


def protocol_ids() -> tuple[str, ...]:
    return tuple(_SUITE) + ("k-pclp:k=1", "k-pclp:k=2", "k-pclp:k=3")


class SweepResult(NamedTuple):
    """Outcome of checking one suite protocol against its oracle."""

    name: str
    agree: int
    total: int
    counterexample: LabeledGraph | None  # first instance where they differ


def sweep(name: str, max_n: int) -> SweepResult:
    """Run protocol `name` on every instance of its family up to size max_n
    and count the verdicts that match its language's membership oracle."""
    named = proto_registry(name)
    agree = total = 0
    counterexample = None
    for g in enumerate_small_instances(named.family, max_n):
        got = run(named.protocol, g, named.schedule, record=False).verdict.accept
        total += 1
        if got == membership(named.language, g):
            agree += 1
        elif counterexample is None:
            counterexample = g
    return SweepResult(named.name, agree, total, counterexample)
