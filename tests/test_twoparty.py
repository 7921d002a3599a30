import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from artifact import twoparty
from artifact._bits import bit_strings
from artifact.graphs import build_gadget, build_xor_index_path, gadget_cut
from artifact.languages import pointer_chase
from artifact.protocols import proto_registry
from artifact.twoparty import (
    CutConfig,
    OneRoundProtocol,
    SearchTooLargeError,
    bruteforce_min_error,
    cut_communication,
    eval_protocol_error,
    search_result_json,
    trivial_xor_index_protocol,
)


def constant_protocol(n, bit):
    inputs = [(x, i) for x in bit_strings(n) for i in range(1, n + 1)]
    msg = dict.fromkeys(inputs, "")
    out = {(x, i, "", j): bit for x, i in inputs for j in range(1, n + 1)}
    return OneRoundProtocol(
        n=n, k_a=0, k_b=0, alice_msg=msg, bob_msg=msg, alice_out=out, bob_out=out,
    )


# ---------------------------------------------------------------------------
# protocol evaluation (exact rationals)


def test_trivial_protocol_zero_error():
    for n in (1, 2, 3):
        proto = trivial_xor_index_protocol(n)
        assert eval_protocol_error(proto, n) == 0


def test_trivial_protocol_budget():
    proto = trivial_xor_index_protocol(4)
    assert proto.k_a == proto.k_b == 4 + 2  # n bits plus the free-rider index
    msg = proto.alice_msg["1010", 3]
    assert len(msg) == proto.k_a


def test_constant_protocols_err_half():
    # always-accept errs exactly on tuples with target 0, always-reject on 1s
    assert eval_protocol_error(constant_protocol(1, 1), 1) == Fraction(1, 2)
    assert eval_protocol_error(constant_protocol(1, 0), 1) == Fraction(1, 2)


def test_eval_rejects_over_budget_messages():
    cheat = OneRoundProtocol(
        n=1, k_a=0, k_b=0,
        alice_msg={("0", 1): "0", ("1", 1): "1"},  # 1 bit against a 0-bit budget
        bob_msg={("0", 1): "", ("1", 1): ""},
        alice_out={(x, 1, "", 1): 1 for x in "01"},
        bob_out={(y, 1, ma, 1): 1 for y in "01" for ma in "01"},
    )
    with pytest.raises(ValueError):
        eval_protocol_error(cheat, 1)


def test_evaluation_budget_refuses_n_past_8():
    # n = 8 fills the budget exactly: (2^8 * 8)^2 = 2^22 output entries
    assert (256 * 8) ** 2 == twoparty.EVAL_BUDGET
    for n in (9, 64):  # refused before any input is listed
        with pytest.raises(SearchTooLargeError):
            trivial_xor_index_protocol(n)
        with pytest.raises(SearchTooLargeError):
            eval_protocol_error(constant_protocol(1, 0), n)


# ---------------------------------------------------------------------------
# brute force


def test_bruteforce_zero_budget_quarter():
    error, witness = bruteforce_min_error(1, 0, 0)
    assert error == Fraction(1, 4)
    assert eval_protocol_error(witness, 1) == error


def test_bruteforce_one_bit_suffices_at_n1():
    error, witness = bruteforce_min_error(1, 1, 1)
    assert error == 0
    assert eval_protocol_error(witness, 1) == 0


def test_bruteforce_monotone_in_budget_and_n():
    e_n1_k0 = bruteforce_min_error(1, 0, 0)[0]
    e_n1_k1 = bruteforce_min_error(1, 1, 1)[0]
    assert e_n1_k1 <= e_n1_k0
    e_n2_k0 = bruteforce_min_error(2, 0, 0)[0]
    assert e_n2_k0 >= e_n1_k0
    assert e_n2_k0 > 0


def test_bruteforce_budget_guard():
    with pytest.raises(SearchTooLargeError):
        bruteforce_min_error(2, 2, 2)


def test_bruteforce_pinned_minima():
    pinned = {
        (2, 1, 0): Fraction(1, 8),
        (3, 0, 0): Fraction(1, 4),
        (2, 0, 1): Fraction(1, 8),
        (2, 1, 1): Fraction(0),
    }
    for (n, k_a, k_b), want in pinned.items():
        error, witness = bruteforce_min_error(n, k_a, k_b)
        assert error == want
        assert eval_protocol_error(witness, n) == want


def _slice_best_enumerated(xs, i, j, a_msg_of, b_msg_of):
    """Reference: the slice search that enumerates every Alice table.

    Alice's slice table (keyed by (x, bob message)) is enumerated outright;
    for each, Bob's best table is the per-entry greedy.  Keeps the first
    table with the least error count.
    """
    reach_mb = sorted({b_msg_of[y] for y in xs})
    keys = [(x, mb) for x in xs for mb in reach_mb]
    groups: dict[str, list[str]] = {}
    for x in xs:
        groups.setdefault(a_msg_of[x], []).append(x)
    best = None
    for bits in itertools.product((0, 1), repeat=len(keys)):
        a_tab = dict(zip(keys, bits))
        bad = 0
        b_tab = {}
        for y in xs:
            mb = b_msg_of[y]
            for ma, group in groups.items():
                err0 = err1 = 0
                for x in group:
                    want = int(x[j - 1]) ^ int(y[i - 1])
                    if want:
                        err0 += 1
                    if (a_tab[x, mb] & 1) != want:
                        err1 += 1
                if err1 <= err0:
                    b_tab[y, ma] = 1
                    bad += err1
                else:
                    b_tab[y, ma] = 0
                    bad += err0
        if best is None or bad < best[0]:
            best = (bad, a_tab, b_tab)
    return best


def _cell_best_enumerated(targets, n0, n1):
    """Reference: scores every bit vector over the cell's Alice group and
    keeps the first with the least error count."""
    size, ones = len(targets), sum(targets)
    best = None
    for bits in itertools.product((0, 1), repeat=size):
        d = sum(b != t for b, t in zip(bits, targets))
        cost = n0 * min(ones, d) + n1 * min(size - ones, size - d)
        if best is None or cost < best[0]:
            best = (cost, bits, (int(d <= ones), int(d >= ones)))
    return best


def test_cell_best_matches_enumeration():
    for size in range(8):
        for targets in itertools.product((0, 1), repeat=size):
            for n0, n1 in itertools.product(range(3), repeat=2):
                got = twoparty._cell_best(targets, n0, n1)
                assert got == _cell_best_enumerated(targets, n0, n1), (targets, n0, n1)


def _size_id(size):
    return "n{}-ka{}-kb{}".format(*size)


def _as_items(result):
    bad, a_tab, b_tab = result
    return bad, list(a_tab.items()), list(b_tab.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_best_matches_full_enumeration(n):
    xs = ["".join(t) for t in itertools.product("01", repeat=n)]
    alphabet = ["00", "01", "10", "11"]
    # the reference enumerates 2^(|xs| * |Bob's messages|) tables, so Bob's
    # alphabet is capped at 12 table keys: sizes 1-4 at n=1, 1-3 at n=2, 1 at n=3
    b_sizes = range(1, min(4, 12 // len(xs)) + 1)
    rng = random.Random(20261018 + n)
    for a_size, b_size, i, j in itertools.product(
        range(1, 5), b_sizes, range(1, n + 1), range(1, n + 1)
    ):
        for _ in range(3):
            a_alpha = rng.sample(alphabet, a_size)
            b_alpha = rng.sample(alphabet, b_size)
            a_msg_of = {x: rng.choice(a_alpha) for x in xs}
            b_msg_of = {y: rng.choice(b_alpha) for y in xs}
            new = twoparty._slice_best(xs, i, j, a_msg_of, b_msg_of)
            old = _slice_best_enumerated(xs, i, j, a_msg_of, b_msg_of)
            assert _as_items(new) == _as_items(old), (a_msg_of, b_msg_of, i, j)


def _slice_bad_enumerated(xs, i, j, a_row, b_row):
    return _slice_best_enumerated(xs, i, j, dict(zip(xs, a_row)), dict(zip(xs, b_row)))[0]


@pytest.mark.parametrize(
    "size",
    [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 2), (2, 0, 0), (2, 1, 0), (3, 0, 0)],
    ids=_size_id,
)
def test_bruteforce_json_same_under_full_enumeration(size, monkeypatch):
    error, witness = bruteforce_min_error(*size)
    fast = search_result_json(*size, error, witness)
    # both the slice error counts the search ranks by and the tables it
    # builds for the winner come from the enumerating reference
    monkeypatch.setattr(twoparty, "_slice_bad", _slice_bad_enumerated)
    monkeypatch.setattr(twoparty, "_slice_best", _slice_best_enumerated)
    error_ref, witness_ref = bruteforce_min_error(*size)
    assert error == error_ref
    assert fast == search_result_json(*size, error_ref, witness_ref)


def _bruteforce_pairs(n, k_a, k_b):
    """Reference: the search that scores every (Alice map, Bob map) pair, with
    Alice's first input pinned to the all-zero message, and keeps the first
    pair with the least error count."""
    xs = ["".join(t) for t in itertools.product("01", repeat=n)]
    inputs = [(x, i) for x in xs for i in range(1, n + 1)]
    space_a = ["".join(t) for t in itertools.product("01", repeat=k_a)]
    space_b = ["".join(t) for t in itertools.product("01", repeat=k_b)]
    memo = {}
    best_bad = best = None
    for rest in itertools.product(space_a, repeat=len(inputs) - 1):
        a_vals = (space_a[0],) + rest
        a_rows = [a_vals[i::n] for i in range(n)]
        for b_vals in itertools.product(space_b, repeat=len(inputs)):
            b_rows = [b_vals[j::n] for j in range(n)]
            bad = 0
            slices = []
            for i, a_row in enumerate(a_rows, 1):
                for j, b_row in enumerate(b_rows, 1):
                    key = (i, j, a_row, b_row)
                    found = memo.get(key)
                    if found is None:
                        found = memo[key] = twoparty._slice_best(
                            xs, i, j, dict(zip(xs, a_row)), dict(zip(xs, b_row))
                        )
                    bad += found[0]
                    slices.append((i, j, found))
            if best_bad is None or bad < best_bad:
                best_bad = bad
                best = (a_vals, b_vals, slices)
    a_vals, b_vals, slices = best
    a_out, b_out = {}, {}
    for i, j, (_, a_tab, b_tab) in slices:
        for (x, mb), bit in a_tab.items():
            a_out[x, i, mb, j] = bit
        for (y, ma), bit in b_tab.items():
            b_out[y, j, ma, i] = bit
    witness = OneRoundProtocol(
        n, k_a, k_b, dict(zip(inputs, a_vals)), dict(zip(inputs, b_vals)), a_out, b_out
    )
    return Fraction(best_bad, (len(xs) * n) ** 2), witness


@pytest.mark.parametrize(
    "size",
    [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 2),
     (2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 1, 1), (3, 0, 0)],
    ids=_size_id,
)
def test_bruteforce_json_same_as_pair_enumeration(size):
    fast = search_result_json(*size, *bruteforce_min_error(*size))
    assert fast == search_result_json(*size, *_bruteforce_pairs(*size))


def test_bruteforce_wide_alice_alphabet_stays_small():
    # at n = 1 Alice's row 1 is her whole map: only its 2^k_a pinned rows may
    # be built, not all 2^(2 k_a) rows
    size = (1, 10, 0)
    tracemalloc.start()
    try:
        fast = search_result_json(*size, *bruteforce_min_error(*size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert fast == search_result_json(*size, *_bruteforce_pairs(*size))


# sha256 of search_result_json as written by the search that enumerated every
# Alice table of every slice; the witness is the first minimiser in candidate
# order, so a changed tie rule in either loop moves these digests
_WITNESS_SHA256 = {
    (1, 2, 2): "1333a72c59d9bc18ce8fa1839f03bc2dc50efb8b950bd92267a0f5ee1efec146",
    (2, 0, 1): "f85907d0e8bcc9516e925c3a2cdc4e18363933ffd66496e5776e191247689475",
    (2, 1, 0): "440bad92544c3bfe23fe574762d4d49f6171d10acdb1f68b171e293d7076ee55",
    (2, 1, 1): "236e1488b1debbffc319cc53792c88e588de5edc4479b1558953266905687512",
    (3, 0, 0): "c2b4ab6aa58ab61af15dabe209823c83a47e05f4ee16749c90f37e4d0fe06214",
}


@pytest.mark.parametrize("size", sorted(_WITNESS_SHA256), ids=_size_id)
def test_bruteforce_witness_is_pinned(size):
    blob = search_result_json(*size, *bruteforce_min_error(*size))
    assert hashlib.sha256(blob.encode()).hexdigest() == _WITNESS_SHA256[size]


def test_search_result_json_round_trips_the_fraction():
    import json

    error, witness = bruteforce_min_error(1, 0, 0)
    blob = json.loads(search_result_json(1, 0, 0, error, witness))
    assert blob["min_error"] == "1/4"
    assert blob["n"] == 1 and blob["kA"] == 0
    assert set(blob["witness"]) == {"alice_msg", "bob_msg", "alice_out", "bob_out"}


# ---------------------------------------------------------------------------
# cut communication


def test_cut_requires_a_partition():
    g = build_xor_index_path(2, "10", "01", 1, 2)
    with pytest.raises(ValueError):
        CutConfig(frozenset({1, 2}), frozenset({2, 3}), frozenset({1}))
    with pytest.raises(ValueError):
        cut_communication(
            proto_registry("xor-index-path"),
            g,
            CutConfig(frozenset({1}), frozenset({2}), frozenset({1})),
        )


def test_cut_on_the_index_path():
    n = 8
    params = dict(n=n, x="10110010", y="01100101", i=3, j=6)
    g = build_gadget("xor-index-path", **params)
    named = proto_registry("xor-index-path")
    alice = gadget_cut("xor-index-path", **params)
    bob = frozenset(g.nodes) - alice
    accounted = frozenset({1, n - 1, n, n + 1, n + 2, n + 3, 2 * n + 1})
    report, result = cut_communication(named, g, CutConfig(alice, bob, accounted))
    # the metered endpoints exchange a bounded number of capped messages
    from artifact.engine import default_bandwidth

    assert report.total <= 8 * default_bandwidth(2 * n + 1)
    assert report.total <= result.transcript.total_bits
    assert len(report.per_round) == len(named.schedule)
    assert report.total == sum(report.alice_to_bob) + sum(report.bob_to_alice)


def test_cut_empty_accounted_is_zero():
    params = dict(n=2, x="10", y="01", i=1, j=2)
    g = build_gadget("xor-index-path", **params)
    named = proto_registry("xor-index-path")
    alice = gadget_cut("xor-index-path", **params)
    cfg = CutConfig(alice, frozenset(g.nodes) - alice, frozenset())
    report, _ = cut_communication(named, g, cfg)
    assert report.total == 0


def test_cut_grows_gently_on_clique_bridge():
    named = proto_registry("one-marked-edge")
    totals = {}
    for n in (4, 6, 8):
        m = n * (n - 1) // 2
        params = dict(n=n, x="1" + "0" * (m - 1), y="0" * (m - 1) + "1", i=1, j=m)
        g = build_gadget("clique-bridge", **params)
        alice = gadget_cut("clique-bridge", **params)
        bob = frozenset(g.nodes) - alice
        report, _ = cut_communication(named, g, CutConfig(alice, bob, frozenset(g.nodes)))
        totals[n] = report.total
    from artifact.engine import default_bandwidth

    for n, total in totals.items():
        assert total <= 2 * (n + 2) * default_bandwidth(2 * n + 4)


# ---------------------------------------------------------------------------
# pointer chasing


def test_pointer_chase_alternates_sides():
    f_a = (2, 3, 1, 0)
    f_b = (1, 0, 3, 2)
    assert pointer_chase(f_a, f_b, 1) == f_a[0]
    assert pointer_chase(f_a, f_b, 2) == f_b[f_a[0]]
    assert pointer_chase(f_a, f_b, 3) == f_a[f_b[f_a[0]]]
