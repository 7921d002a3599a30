"""Two-party one-round protocols: exact evaluation, exhaustive search, and
the cut-communication meter for network runs.

The two-party problem is XOR-Index(n): Alice holds (x, i) and Bob holds
(y, j), with n-bit strings x, y and 1-based indices i, j in [1, n].  The
target bit is x_j XOR y_i, and a protocol answers correctly when
out_A AND out_B equals it.  A one-round protocol is its four tables: the two
message maps and the two output tables, which the search returns as its
witness and the exact evaluation reads.

Everything here is exact: protocol error probabilities are Fractions computed
by full enumeration of the input space, and the brute-force search
enumerates message maps while optimizing output tables slice by slice —
for a fixed pair of message maps the optimal outputs decouple across index
pairs (i, j), and within a slice Bob's best reply to a fixed Alice table is a
per-entry greedy choice.  That keeps the candidate space honest (it is
counted before searching) without giving up exactness.

A slice splits further into cells (mb, ma): Alice's entry a[x, mb] meets only
the ys Bob maps to mb, and only through his reply to the group of xs Alice
maps to ma.  Inside a cell a y matters only through its bit y_i, and a bit
vector over the group only through its Hamming distance d from the group's
x_j bits, so each d is scored once against two counts, one per value of y_i.
The minimisers of a slice are the product of the cells' minimisers over
disjoint keys, so the cell-wise lexicographically first ones assemble into
the table a full enumeration of Alice's slice tables would keep: error,
witness and table order are those of that enumeration.

The search ranks candidates by slice error counts alone, memoised by value,
and builds tables only for the n² slices of the winner.  For a fixed Bob
map, slice (i, j) meets Alice's map only through her row i (her messages at
index i), so each row is minimised on its own; the witness is the first
minimiser in (Alice map, Bob map) order, the one a loop over pairs keeps.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._bits import bit_strings, encode_int, is_bits
from .engine import RunResult, run
from .graphs import LabeledGraph
from .protocols import NamedProtocol

__all__ = [
    "SearchTooLargeError",
    "OneRoundProtocol",
    "CutConfig",
    "CutReport",
    "trivial_xor_index_protocol",
    "eval_protocol_error",
    "bruteforce_min_error",
    "search_result_json",
    "cut_communication",
]

#: Hard cap on enumerated candidates for bruteforce_min_error.
SEARCH_BUDGET = 10**8

#: Hard cap on input tuples for eval_protocol_error.
EVAL_BUDGET = 1 << 22


class SearchTooLargeError(ValueError):
    """The requested exhaustive computation exceeds the search budget."""


# ---------------------------------------------------------------------------
# one-round protocols


@dataclass(frozen=True)
class OneRoundProtocol:
    """A deterministic simultaneous one-message protocol as four tables.

    ``alice_msg[x, i]`` and ``bob_msg[y, j]`` are the messages;
    ``alice_out[x, i, mb, j]`` and ``bob_out[y, j, ma, i]`` are the output
    bits, read against the peer's message plus the peer's index.  The indices
    ride along for free and only the messages are metered against k_a / k_b.
    An output table needs entries only for the messages the peer sends.
    """

    n: int
    k_a: int
    k_b: int
    alice_msg: Mapping[tuple[str, int], str]
    bob_msg: Mapping[tuple[str, int], str]
    alice_out: Mapping[tuple[str, int, str, int], int]
    bob_out: Mapping[tuple[str, int, str, int], int]


def trivial_xor_index_protocol(n: int) -> OneRoundProtocol:
    """Reference zero-error upper bound: ship the whole input plus index.

    Both messages are the n input bits followed by the sender's own index
    ((n-1).bit_length() bits), so each side can evaluate x_j XOR y_i itself
    and both output exactly the target value.  Each output table holds
    (2^n * n)^2 entries; past EVAL_BUDGET this raises SearchTooLargeError,
    and n = 8 sits exactly at the budget (4,194,304 entries).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    entries = ((1 << n) * n) ** 2
    if entries > EVAL_BUDGET:
        raise SearchTooLargeError(f"{entries} table entries exceed the evaluation budget")
    inputs = [(x, i) for x in bit_strings(n) for i in range(1, n + 1)]
    w = (n - 1).bit_length()
    msg = {(x, i): x + encode_int(i - 1, w) for x, i in inputs}
    out = {
        (x, i, msg[y, j], j): int(x[j - 1]) ^ int(y[i - 1])
        for x, i in inputs
        for y, j in inputs
    }
    return OneRoundProtocol(
        n=n, k_a=n + w, k_b=n + w,
        alice_msg=msg, bob_msg=msg, alice_out=out, bob_out=out,
    )


def eval_protocol_error(protocol: OneRoundProtocol, n: int) -> Fraction:
    """Exact error probability under the uniform distribution on (x, i, y, j).

    Raises SearchTooLargeError when the enumeration would exceed EVAL_BUDGET
    and ValueError if any message overruns its budget.
    """
    total = ((1 << n) * n) ** 2
    if total > EVAL_BUDGET:
        raise SearchTooLargeError(f"{total} tuples exceed the evaluation budget")
    inputs = [(x, i) for x in bit_strings(n) for i in range(1, n + 1)]
    a_msg, b_msg = protocol.alice_msg, protocol.bob_msg
    for name, msgs, k in (("alice", a_msg, protocol.k_a), ("bob", b_msg, protocol.k_b)):
        for key in inputs:
            m = msgs[key]
            if not is_bits(m) or len(m) > k:
                raise ValueError(f"{name} message {m!r} breaks the {k}-bit budget")
    a_out, b_out = protocol.alice_out, protocol.bob_out
    b_side = [(y, j, b_msg[y, j]) for y, j in inputs]
    bad = 0
    for x, i in inputs:
        ma = a_msg[x, i]
        for y, j, mb in b_side:
            # the target x_j XOR y_i is whether the two bits differ
            if (a_out[x, i, mb, j] & b_out[y, j, ma, i]) != (x[j - 1] != y[i - 1]):
                bad += 1
    return Fraction(bad, total)


# ---------------------------------------------------------------------------
# exhaustive minimum-error search


def _candidate_count(n: int, k_a: int, k_b: int) -> int:
    n_inputs = (1 << n) * n
    m_a, m_b = 1 << k_a, 1 << k_b
    pairs_a = m_a ** (n_inputs - 1) if m_a > 1 else 1
    pairs_b = m_b ** n_inputs
    subtables = 1 << ((1 << n) * m_b)
    return pairs_a * pairs_b * n * n * subtables


def _first_at_distance(targets: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Lexicographically first bit vector at Hamming distance d from
    ``targets``: a 0 wherever the flips still owed fit the positions left."""
    bits = []
    for left, t in zip(range(len(targets) - 1, -1, -1), targets):
        bits.append(0 if 0 <= d - t <= left else 1)
        d -= bits[-1] != t
    return tuple(bits)


def _cell_best(targets: tuple[int, ...], n0: int, n1: int):
    """Lexicographically first minimiser of one cell's error count.

    ``targets[k]`` is x_j for the k-th x of the cell's Alice group, and n0/n1
    count the cell's ys with y_i = 0/1.  For a bit vector a over the group at
    Hamming distance d from ``targets`` (ones = sum(targets)), Bob's output 0
    errs on ones tuples of a y with y_i = 0 and output 1 on d of them; for
    y_i = 1 the counts are size - ones and size - d.  The count depends on d
    alone, so each d is scored once and the answer is the first vector at any
    minimising distance.  Returns the error count, the bits, and Bob's reply
    per value of y_i (1 on ties).
    """
    size, ones = len(targets), sum(targets)
    costs = [n0 * min(ones, d) + n1 * min(size - ones, size - d) for d in range(size + 1)]
    cost = min(costs)
    bits, d = min(
        (_first_at_distance(targets, d), d) for d in range(size + 1) if costs[d] == cost
    )
    return cost, bits, (int(d <= ones), int(d >= ones))


def _slice_bad(xs, i, j, a_row, b_row) -> int:
    """Error count of the tables ``_slice_best`` builds for one (i, j) slice,
    given the messages over xs.  A cell's count is concave in d, so its
    minimum is at d = 0 or d = size: min(n1 * zeros, n0 * ones)."""
    groups: dict[str, list[int]] = {}
    for x, ma in zip(xs, a_row):
        groups.setdefault(ma, [0, 0])[int(x[j - 1])] += 1
    counts: dict[str, list[int]] = {}
    for y, mb in zip(xs, b_row):
        counts.setdefault(mb, [0, 0])[int(y[i - 1])] += 1
    return sum(
        min(n1 * zeros, n0 * ones)
        for n0, n1 in counts.values()
        for zeros, ones in groups.values()
    )


def _slice_best(xs, i, j, a_msg_of, b_msg_of):
    """Exact minimum error count over output tables for one (i, j) slice.

    xs lists the n-bit strings, which are Alice's xs and Bob's ys alike.
    Alice's entry a[x, mb] only meets the ys with b_msg(y) = mb, and only
    through Bob's reply to the group of xs sharing a_msg(x) = ma; Bob's best
    reply to a fixed Alice table is the per-entry greedy (his (y, ma) entries
    touch disjoint tuple sets).  So the slice error is a sum over cells
    (mb, ma), each depending only on Alice's bits for the xs of group(ma),
    and within a cell a y matters only through y_i: each candidate is scored
    against the two class counts n0, n1 (see ``_cell_best``).

    The minimisers form a product over the cells' disjoint key blocks, so the
    cell-wise lexicographically first minimisers assemble into the first
    minimiser of the whole table in (x, mb) key order — the witness a full
    enumeration of Alice's tables would keep.  Both tables are built in that
    enumeration's key order, and Bob answers 1 on ties (err1 <= err0).
    Returns the count plus the winning tables.
    """
    groups: dict[str, list[str]] = {}
    for x in xs:
        groups.setdefault(a_msg_of[x], []).append(x)
    counts: dict[str, list[int]] = {}
    for y in xs:
        counts.setdefault(b_msg_of[y], [0, 0])[int(y[i - 1])] += 1
    reach_mb = sorted(counts)
    bad = 0
    a_bit: dict[tuple[str, str], int] = {}
    reply: dict[tuple[str, str], tuple[int, int]] = {}
    for mb in reach_mb:
        n0, n1 = counts[mb]
        for ma, group in groups.items():
            targets = tuple(int(x[j - 1]) for x in group)
            cost, bits, reply[mb, ma] = _cell_best(targets, n0, n1)
            bad += cost
            a_bit.update(zip([(x, mb) for x in group], bits))
    a_tab = {(x, mb): a_bit[x, mb] for x in xs for mb in reach_mb}
    b_tab = {
        (y, ma): reply[b_msg_of[y], ma][int(y[i - 1])] for y in xs for ma in groups
    }
    return bad, a_tab, b_tab


def bruteforce_min_error(n: int, k_a: int, k_b: int) -> tuple[Fraction, OneRoundProtocol]:
    """Exact minimum error over all deterministic protocols within budget.

    Message payloads are drawn from the full 2^k alphabet (padding a shorter
    message out to k bits never loses distinguishing power).  Returns the
    minimum together with a witness protocol achieving it; the witness is
    re-evaluated as a self-check before returning.
    """
    if n < 1 or k_a < 0 or k_b < 0:
        raise ValueError("need n >= 1 and non-negative budgets")
    if _candidate_count(n, k_a, k_b) > SEARCH_BUDGET:
        raise SearchTooLargeError(
            f"bruteforce_min_error({n}, {k_a}, {k_b}) exceeds {SEARCH_BUDGET} candidates"
        )
    xs = bit_strings(n)
    inputs = [(x, i) for x in xs for i in range(1, n + 1)]
    space_a = bit_strings(k_a)
    space_b = bit_strings(k_b)
    # Alice's row i lists her messages over xs at index i; message relabeling
    # pins the first input's message, the first entry of row 1, to space_a[0]
    pinned = [(space_a[0],) + t for t in itertools.product(space_a, repeat=len(xs) - 1)]
    rows = list(itertools.product(space_a, repeat=len(xs))) if n > 1 else []
    rows_of = [pinned] + [rows] * (n - 1)
    # slice scores keyed by (i, j, Bob's row j), one per row of rows_of[i - 1]
    scores: dict[tuple, list[int]] = {}
    best = None
    for b_vals in itertools.product(space_b, repeat=len(inputs)):
        # inputs are x-major, so b_rows[j - 1] lists Bob's messages over ys at j
        b_rows = [b_vals[j::n] for j in range(n)]
        bad = 0
        a_rows = []
        # for a fixed Bob map the rows of Alice's map add up independently, and
        # each row's first minimiser makes the first minimising map
        for i, i_rows in enumerate(rows_of, 1):
            per_j = []
            for j, b_row in enumerate(b_rows, 1):
                found = scores.get((i, j, b_row))
                if found is None:
                    found = scores[i, j, b_row] = [
                        _slice_bad(xs, i, j, a_row, b_row) for a_row in i_rows
                    ]
                per_j.append(found)
            costs = [sum(c) for c in zip(*per_j)]
            low = min(costs)
            bad += low
            a_rows.append(i_rows[costs.index(low)])
        a_vals = tuple(m for column in zip(*a_rows) for m in column)
        # the first minimiser in (Alice map, Bob map) candidate order
        if best is None or (bad, a_vals) < best[:2]:
            best = (bad, a_vals, b_vals)
    best_bad, a_vals, b_vals = best
    a_map = dict(zip(inputs, a_vals))
    b_map = dict(zip(inputs, b_vals))
    a_out: dict[tuple, int] = {}
    b_out: dict[tuple, int] = {}
    table_bad = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bad, a_tab, b_tab = _slice_best(
                xs, i, j, {x: a_map[x, i] for x in xs}, {y: b_map[y, j] for y in xs}
            )
            table_bad += bad
            for (x, mb), bit in a_tab.items():
                a_out[x, i, mb, j] = bit
            for (y, ma), bit in b_tab.items():
                b_out[y, j, ma, i] = bit
    witness = OneRoundProtocol(n, k_a, k_b, a_map, b_map, a_out, b_out)
    error = Fraction(best_bad, ((1 << n) * n) ** 2)
    check = eval_protocol_error(witness, n)
    if check != error or table_bad != best_bad:
        raise AssertionError(f"witness {check}, tables {table_bad} != minimum {error}, {best_bad}")
    return error, witness


def search_result_json(n: int, k_a: int, k_b: int, error: Fraction,
                       witness: OneRoundProtocol, indent: int | None = None) -> str:
    """Serialize a search result; table keys become comma-joined strings."""

    def flatten(table: Mapping) -> dict[str, object]:
        return {
            ",".join(str(p) for p in key): val
            for key, val in sorted(table.items(), key=lambda kv: tuple(map(str, kv[0])))
        }

    tables = {
        "alice_msg": witness.alice_msg,
        "bob_msg": witness.bob_msg,
        "alice_out": witness.alice_out,
        "bob_out": witness.bob_out,
    }
    blob = {
        "n": n,
        "kA": k_a,
        "kB": k_b,
        "min_error": f"{error.numerator}/{error.denominator}",
        "witness": {name: flatten(t) for name, t in tables.items()},
    }
    return json.dumps(blob, indent=indent)


# ---------------------------------------------------------------------------
# cut-communication meter


@dataclass(frozen=True)
class CutConfig:
    """A fixed Alice/Bob split of the node set plus the metered subset."""

    alice_nodes: frozenset[int]
    bob_nodes: frozenset[int]
    accounted_nodes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alice_nodes", frozenset(self.alice_nodes))
        object.__setattr__(self, "bob_nodes", frozenset(self.bob_nodes))
        object.__setattr__(self, "accounted_nodes", frozenset(self.accounted_nodes))
        if self.alice_nodes & self.bob_nodes:
            raise ValueError("alice and bob node sets overlap")


@dataclass(frozen=True)
class CutReport:
    """Per-round bit totals crossing the cut (broadcasts count once each)."""

    alice_to_bob: tuple[int, ...]
    bob_to_alice: tuple[int, ...]

    @property
    def per_round(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.alice_to_bob, self.bob_to_alice))

    @property
    def total(self) -> int:
        return sum(self.per_round)


def cut_communication(named: NamedProtocol, graph: LabeledGraph,
                      cfg: CutConfig) -> tuple[CutReport, RunResult]:
    """Replay a run and meter the bits its accounted nodes push over the cut.

    Point-to-point messages count when sender and receiver sit on opposite
    sides; a broadcast counts its full length once, toward the sender's side,
    since every node on the far side hears it.
    """
    nodes = set(graph.nodes)
    if cfg.alice_nodes | cfg.bob_nodes != nodes:
        raise ValueError("alice_nodes and bob_nodes must partition the node set")
    if not cfg.accounted_nodes <= nodes:
        raise ValueError("accounted_nodes must be a subset of the node set")
    result = run(named.protocol, graph, named.schedule, record=True)
    rounds = len(named.schedule.kinds)
    a2b = [0] * rounds
    b2a = [0] * rounds
    for e in result.transcript.events:
        if e.sender not in cfg.accounted_nodes:
            continue
        r = e.round_index - 1
        sender_a = e.sender in cfg.alice_nodes
        if e.receiver is None:
            (a2b if sender_a else b2a)[r] += e.bits
        elif sender_a and e.receiver in cfg.bob_nodes:
            a2b[r] += e.bits
        elif not sender_a and e.receiver in cfg.alice_nodes:
            b2a[r] += e.bits
    return CutReport(tuple(a2b), tuple(b2a)), result
