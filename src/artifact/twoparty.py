"""Two-party one-round protocols: exact evaluation, exhaustive search, and
the cut-communication meter for network runs.

Everything here is exact: protocol error probabilities are Fractions computed
by full enumeration of the input space (and the shared tape, if any), and the
brute-force search enumerates message maps outright while optimizing output
tables slice by slice — for a fixed pair of message maps the optimal outputs
decouple across index pairs (i, j), and within a slice Bob's best reply to a
fixed Alice table is a per-entry greedy choice.  That keeps the candidate
space honest (it is counted before searching) without giving up exactness.

A slice splits further into cells (mb, ma): Alice's entry a[x, mb] meets only
the ys Bob maps to mb, and only through his reply to the group of xs Alice
maps to ma.  Inside a cell a y matters only through its bit y_i, so each of
the group's 2^|group| bit vectors is scored against two counts, one per value
of y_i, instead of once per y.  The minimisers of a slice are the product of
the cells' minimisers over disjoint keys, so the cell-wise lexicographically
first ones assemble into the table a full enumeration of Alice's slice tables
would keep: error, witness and table order are those of that enumeration.
Slice results are memoised by value within one search.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ._bits import encode_int, is_bits
from .engine import RunResult, run
from .graphs import LabeledGraph
from .languages import pointer_chase
from .protocols import NamedProtocol

__all__ = [
    "PROBLEMS",
    "SearchTooLargeError",
    "TwoPartyInstance",
    "OneRoundProtocol",
    "CutConfig",
    "CutReport",
    "PointerChaseRun",
    "PointerChasingProtocol",
    "xor_index_value",
    "trivial_xor_index_protocol",
    "eval_protocol_error",
    "bruteforce_min_error",
    "search_result_json",
    "cut_communication",
    "pointer_chase",
    "pointer_chasing_protocol",
]

PROBLEMS = ("xor-index", "disj", "pointer-chasing")

#: Hard cap on enumerated candidates for bruteforce_min_error.
SEARCH_BUDGET = 10**8

#: Hard cap on (input tuples x tape cells) for eval_protocol_error.
EVAL_BUDGET = 1 << 22


class SearchTooLargeError(ValueError):
    """The requested exhaustive computation exceeds the search budget."""


@dataclass(frozen=True)
class TwoPartyInstance:
    """One problem instance; input shapes depend on the problem.

    xor-index(n):        alice = (x, i), bob = (y, j) with n-bit x, y and
                         1-based indices.
    disj(n):             alice = x, bob = y (n-bit incidence strings).
    pointer-chasing(n,k): alice = f_A, bob = f_B, each a tuple of n values
                         in [0, n).
    """

    problem: str
    n: int
    alice_input: object
    bob_input: object
    k: int = 0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        a, b = self.alice_input, self.bob_input
        if self.problem == "xor-index":
            x, i = a
            y, j = b
            if not (is_bits(x) and is_bits(y) and len(x) == self.n == len(y)):
                raise ValueError("x and y must be n-bit strings")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("indices must lie in [1, n]")
        elif self.problem == "disj":
            if not (is_bits(a) and is_bits(b) and len(a) == self.n == len(b)):
                raise ValueError("x and y must be n-bit strings")
        else:
            if self.k < 1:
                raise ValueError("pointer chasing needs k >= 1")
            for f in (a, b):
                vals = tuple(f)
                if len(vals) != self.n or any(
                    not isinstance(v, int) or not 0 <= v < self.n for v in vals
                ):
                    raise ValueError("pointer maps must be length-n tuples into [0, n)")


def xor_index_value(inst: TwoPartyInstance) -> int:
    """The target bit x_j XOR y_i (1-based indexing into the strings)."""
    if inst.problem != "xor-index":
        raise ValueError("not an xor-index instance")
    x, i = inst.alice_input
    y, j = inst.bob_input
    return int(x[j - 1]) ^ int(y[i - 1])


# ---------------------------------------------------------------------------
# one-round protocols


@dataclass(frozen=True)
class OneRoundProtocol:
    """A simultaneous one-message protocol.

    Message functions may consult the shared tape cell rho in
    [0, rho_count); deterministic protocols use rho_count = 1 and ignore it.
    Output functions receive the peer's message plus the peer's index — the
    indices ride along for free and only the x/y-dependent payload is
    metered against k_a / k_b.
    """

    n: int
    k_a: int
    k_b: int
    alice_msg: Callable[[str, int, int], str]
    bob_msg: Callable[[str, int, int], str]
    alice_out: Callable[[str, int, str, int], int]
    bob_out: Callable[[str, int, str, int], int]
    rho_count: int = 1
    tables: Mapping[str, Mapping] | None = field(default=None, compare=False)


def _index_width(n: int) -> int:
    return (n - 1).bit_length()


def trivial_xor_index_protocol(n: int) -> OneRoundProtocol:
    """Reference zero-error upper bound: ship the whole input plus index.

    Both message payloads are the n input bits followed by the sender's own
    index ((n-1).bit_length() bits), so each side can evaluate x_j XOR y_i
    itself and both output exactly the target value.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    w = _index_width(n)

    def a_msg(x: str, i: int, rho: int) -> str:
        return x + encode_int(i - 1, w) if w else x

    def b_msg(y: str, j: int, rho: int) -> str:
        return y + encode_int(j - 1, w) if w else y

    def a_out(x: str, i: int, mb: str, j: int) -> int:
        y = mb[:n]
        return int(x[j - 1]) ^ int(y[i - 1])

    def b_out(y: str, j: int, ma: str, i: int) -> int:
        x = ma[:n]
        return int(x[j - 1]) ^ int(y[i - 1])

    return OneRoundProtocol(
        n=n, k_a=n + w, k_b=n + w,
        alice_msg=a_msg, bob_msg=b_msg, alice_out=a_out, bob_out=b_out,
    )


def _bit_strings(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product("01", repeat=n)]


def eval_protocol_error(protocol: OneRoundProtocol, n: int) -> Fraction:
    """Exact error probability under the uniform distribution on (x, i, y, j).

    Randomized protocols are averaged exactly over the rho_count tape cells.
    Raises SearchTooLargeError when the enumeration would exceed EVAL_BUDGET
    and ValueError if any message overruns its budget.
    """
    rho_count = max(1, protocol.rho_count)
    xs = _bit_strings(n)
    total = (len(xs) * n) ** 2 * rho_count
    if total > EVAL_BUDGET:
        raise SearchTooLargeError(f"{total} tuples exceed the evaluation budget")
    bad = 0
    indices = range(1, n + 1)
    for rho in range(rho_count):
        a_msgs = {}
        for x in xs:
            for i in indices:
                m = protocol.alice_msg(x, i, rho)
                if not is_bits(m) or len(m) > protocol.k_a:
                    raise ValueError(f"alice message {m!r} breaks the {protocol.k_a}-bit budget")
                a_msgs[x, i] = m
        b_msgs = {}
        for y in xs:
            for j in indices:
                m = protocol.bob_msg(y, j, rho)
                if not is_bits(m) or len(m) > protocol.k_b:
                    raise ValueError(f"bob message {m!r} breaks the {protocol.k_b}-bit budget")
                b_msgs[y, j] = m
        for x in xs:
            for i in indices:
                for y in xs:
                    for j in indices:
                        out_a = protocol.alice_out(x, i, b_msgs[y, j], j)
                        out_b = protocol.bob_out(y, j, a_msgs[x, i], i)
                        want = int(x[j - 1]) ^ int(y[i - 1])
                        if (out_a & out_b) != want:
                            bad += 1
    return Fraction(bad, total)


# ---------------------------------------------------------------------------
# exhaustive minimum-error search


def _map_candidates(inputs: Sequence, space: Sequence[str], pin_first: bool):
    """All functions inputs -> space, optionally pinning the first input to
    space[0] (message-relabeling symmetry: any protocol can be renamed so the
    lexicographically first input sends the all-zero message)."""
    if pin_first and len(space) > 1:
        tail = itertools.product(space, repeat=len(inputs) - 1)
        return ((space[0],) + rest for rest in tail)
    return itertools.product(space, repeat=len(inputs))


def _candidate_count(n: int, k_a: int, k_b: int) -> int:
    n_inputs = (1 << n) * n
    m_a, m_b = 1 << k_a, 1 << k_b
    pairs_a = m_a ** (n_inputs - 1) if m_a > 1 else 1
    pairs_b = m_b ** n_inputs
    subtables = 1 << ((1 << n) * m_b)
    return pairs_a * pairs_b * n * n * subtables


def _cell_best(targets: tuple[int, ...], n0: int, n1: int):
    """Lexicographically first minimiser of one cell's error count.

    ``targets[k]`` is x_j for the k-th x of the cell's Alice group, and n0/n1
    count the cell's ys with y_i = 0/1.  For a bit vector a over the group at
    Hamming distance d from ``targets`` (ones = sum(targets)), Bob's output 0
    errs on ones tuples of a y with y_i = 0 and output 1 on d of them; for
    y_i = 1 the counts are size - ones and size - d.  Returns the error
    count, the bits, and Bob's reply per value of y_i (1 on ties).
    """
    size, ones = len(targets), sum(targets)
    best = None
    for bits in itertools.product((0, 1), repeat=size):
        d = sum(b != t for b, t in zip(bits, targets))
        cost = n0 * min(ones, d) + n1 * min(size - ones, size - d)
        if best is None or cost < best[0]:
            best = (cost, bits, (int(d <= ones), int(d >= ones)))
    return best


def _slice_best(xs, ys, i, j, a_msg_of, b_msg_of):
    """Exact minimum error count over output tables for one (i, j) slice.

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
    for y in ys:
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
        (y, ma): reply[b_msg_of[y], ma][int(y[i - 1])] for y in ys for ma in groups
    }
    return bad, a_tab, b_tab


def _table_protocol(n, k_a, k_b, a_msg, b_msg, a_out, b_out) -> OneRoundProtocol:
    tables = {
        "alice_msg": dict(a_msg),
        "bob_msg": dict(b_msg),
        "alice_out": dict(a_out),
        "bob_out": dict(b_out),
    }
    return OneRoundProtocol(
        n=n, k_a=k_a, k_b=k_b,
        alice_msg=lambda x, i, rho: a_msg[x, i],
        bob_msg=lambda y, j, rho: b_msg[y, j],
        alice_out=lambda x, i, mb, j: a_out.get((x, i, mb, j), 0),
        bob_out=lambda y, j, ma, i: b_out.get((y, j, ma, i), 0),
        tables=tables,
    )


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
    xs = _bit_strings(n)
    inputs = [(x, i) for x in xs for i in range(1, n + 1)]
    space_a = _bit_strings(k_a) if k_a else [""]
    space_b = _bit_strings(k_b) if k_b else [""]
    # slice results keyed by value: (i, j, Alice's messages over xs at index
    # i, Bob's messages over ys at index j); many candidate pairs share slices
    memo: dict[tuple, tuple] = {}
    best_bad = None
    best = None
    for a_vals in _map_candidates(inputs, space_a, pin_first=True):
        # inputs are x-major, so a_rows[i - 1] lists Alice's messages over xs at i
        a_rows = [a_vals[i::n] for i in range(n)]
        for b_vals in _map_candidates(inputs, space_b, pin_first=False):
            b_rows = [b_vals[j::n] for j in range(n)]
            bad = 0
            slices = []
            for i, a_row in enumerate(a_rows, 1):
                for j, b_row in enumerate(b_rows, 1):
                    key = (i, j, a_row, b_row)
                    found = memo.get(key)
                    if found is None:
                        found = memo[key] = _slice_best(
                            xs, xs, i, j, dict(zip(xs, a_row)), dict(zip(xs, b_row))
                        )
                    bad += found[0]
                    slices.append((i, j, found))
            if best_bad is None or bad < best_bad:
                best_bad = bad
                best = (a_vals, b_vals, slices)
    a_vals, b_vals, slices = best
    a_map = dict(zip(inputs, a_vals))
    b_map = dict(zip(inputs, b_vals))
    a_out: dict[tuple, int] = {}
    b_out: dict[tuple, int] = {}
    for i, j, (_, a_tab, b_tab) in slices:
        for (x, mb), bit in a_tab.items():
            a_out[x, i, mb, j] = bit
        for (y, ma), bit in b_tab.items():
            b_out[y, j, ma, i] = bit
    witness = _table_protocol(n, k_a, k_b, a_map, b_map, a_out, b_out)
    error = Fraction(best_bad, ((1 << n) * n) ** 2)
    check = eval_protocol_error(witness, n)
    if check != error:
        raise AssertionError(f"witness re-evaluation {check} != search minimum {error}")
    return error, witness


def search_result_json(n: int, k_a: int, k_b: int, error: Fraction,
                       witness: OneRoundProtocol, indent: int | None = None) -> str:
    """Serialize a search result; table keys become comma-joined strings."""

    def flatten(table: Mapping) -> dict[str, object]:
        return {
            ",".join(str(p) for p in key): val
            for key, val in sorted(table.items(), key=lambda kv: tuple(map(str, kv[0])))
        }

    tables = witness.tables or {}
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


def cut_communication(named: NamedProtocol, graph: LabeledGraph, cfg: CutConfig,
                      seed: int = 0) -> tuple[CutReport, RunResult]:
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
    result = run(named.protocol, graph, named.schedule, seed=seed, record=True)
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


# ---------------------------------------------------------------------------
# pointer chasing


@dataclass(frozen=True)
class PointerChaseRun:
    transcript: tuple[int, ...]
    pointer: int
    output: int
    bits: int


@dataclass(frozen=True)
class PointerChasingProtocol:
    """k alternating rounds, each shipping the current pointer verbatim."""

    k: int

    def run(self, inst: TwoPartyInstance) -> PointerChaseRun:
        if inst.problem != "pointer-chasing" or inst.k != self.k:
            raise ValueError("instance does not match this protocol")
        f_a, f_b = tuple(inst.alice_input), tuple(inst.bob_input)
        width = max(1, (inst.n - 1).bit_length())
        p = pointer_chase(f_a, f_b, self.k)
        return PointerChaseRun(
            transcript=tuple(pointer_chase(f_a, f_b, r) for r in range(1, self.k + 1)),
            pointer=p,
            output=bin(p).count("1") & 1,
            bits=self.k * width,
        )


def pointer_chasing_protocol(k: int) -> PointerChasingProtocol:
    if k < 1:
        raise ValueError("need k >= 1")
    return PointerChasingProtocol(k)
