"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single ``[criterion N] PASS``
or ``FAIL`` line (visible with ``-v`` through the test name as well).

Two of the ten are expected to fail: 7b and 7c assert a quoted closed-form
ceiling — max over the stationary-rule table equals R_A + R_B − R_A·R_B, and
the dense grid search lands within 0.04 of it — but the measured maximum of
the success formula over [0,1]^4 is max(R_A, R_B), which sits strictly below
that ceiling whenever both posteriors are interior. The assertions are kept
as stated rather than weakened; the failure detail carries the measured
values.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from artifact.engine import (
    BandwidthViolationError,
    Protocol,
    RoundKind,
    Schedule,
    default_bandwidth,
    run,
)
from artifact.graphs import (
    all_graphs,
    build_clique_bridge,
    build_xor_index_path,
    marked_path,
    path_graph,
    random_labeled_graph,
)
from artifact.languages import membership
from artifact.protocols import FullStateStressProtocol, proto_registry, sweep
from artifact.transforms import normalize_lb, triangle_freeness_via_tomdf
from artifact.twoparty import (
    CutConfig,
    bruteforce_min_error,
    cut_communication,
    trivial_xor_index_protocol,
    eval_protocol_error,
)
from artifact.xorlb import (
    TABLE1,
    DecisionRuleParams,
    Distribution,
    Posteriors,
    budget_bound,
    chain_inequalities,
    grid_max_success,
    kkt_residuals,
    kl,
    monte_carlo_rule,
    mutual_information,
    pinsker_check,
    success_prob,
    tv,
)


def report(num: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


# criterion 1 — every suite protocol agrees with its membership oracle on an
# exhaustive enumeration of its gadget family at the stated sizes.

SWEEP_SIZES = [
    ("one-marked-edge", 6),
    ("xor-index-path", 3),
    ("tomdf", 5),
    ("disj-on-clique", 3),
    ("k-pclp:k=1", 4),
    ("k-pclp:k=2", 4),
    ("k-pclp:k=3", 4),
    ("special-disjointness", 3),
    ("disj-on-edge", 3),
    ("disj-on-path", 3),
    ("disj-edge-star", 3),
    ("disj-4partite", 3),
]


def test_criterion_01_protocol_oracle_equivalence():
    started = time.monotonic()
    agree = checked = 0
    first_bad = None
    for name, max_size in SWEEP_SIZES:
        result = sweep(name, max_size)
        agree += result.agree
        checked += result.total
        if first_bad is None and result.counterexample is not None:
            first_bad = (name, result.counterexample.to_json())
    elapsed = time.monotonic() - started
    ok = elapsed < 300
    report("1", ok and first_bad is None, f"{agree}/{checked} instances agree in {elapsed:.1f}s")
    assert first_bad is None, first_bad
    assert ok, f"sweep took {elapsed:.1f}s"


# criterion 2 — the suite respects the 4·ceil(log2 n) cap, and a message one
# bit over the cap is rejected by the engine.


class _Oversend(Protocol):
    """Pads one message of node 1 to bandwidth + 1 bits in the target round."""

    def __init__(self, inner: Protocol, target: RoundKind):
        self.inner = inner
        self.target = target

    def init(self, view):
        return {"me": view.node, "n": view.n, "inner": self.inner.init(view)}

    def round(self, state, index, kind, inbox):
        inner_state, outbox = self.inner.round(state["inner"], index, kind, inbox)
        state = dict(state, inner=inner_state)
        if state["me"] == 1 and kind is self.target:
            over = default_bandwidth(state["n"]) + 1
            if kind is RoundKind.BCC and isinstance(outbox, str):
                outbox = (outbox + "0" * over)[:over]
            elif kind is RoundKind.CONGEST and isinstance(outbox, dict) and outbox:
                u = min(outbox)
                outbox = dict(outbox)
                outbox[u] = (outbox[u] + "0" * over)[:over]
        return state, outbox

    def decide(self, state, inbox):
        return self.inner.decide(state["inner"], inbox)


def test_criterion_02_bandwidth_contract():
    for n in (2, 16, 33):
        assert default_bandwidth(n) == 4 * math.ceil(math.log2(max(n, 2)))
    ran = 0
    for name, _ in SWEEP_SIZES:
        size = 4 if name.startswith("k-pclp") else 2
        ran += sweep(name, size).total  # every run must stay within the cap

    mutations = 0
    cases = [
        ("one-marked-edge", marked_path("110"), RoundKind.CONGEST),
        ("tomdf", path_graph(3), RoundKind.BCC),
    ]
    for name, graph, kind in cases:
        named = proto_registry(name)
        with pytest.raises(BandwidthViolationError):
            run(_Oversend(named.protocol, kind), graph, named.schedule)
        mutations += 1
    report("2", True, f"{ran} clean runs, {mutations} mutations rejected")


# criterion 3 — moving broadcast rounds behind unbounded rounds preserves
# every node's verdict exactly.


def test_criterion_03_normalization_preserves_verdicts():
    named = proto_registry("tomdf")
    norm, nsched = normalize_lb(named.protocol, named.schedule)
    graphs = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            a = run(named.protocol, g, named.schedule, record=False).verdict
            b = run(norm, g, nsched, record=False).verdict
            assert (a.accept, a.rejectors) == (b.accept, b.rejectors), g
            graphs += 1

    stress_checked = 0
    for text in ("B,L", "B,L,B,L"):
        sched = Schedule.parse(text)
        proto = FullStateStressProtocol()
        norm, nsched = normalize_lb(proto, sched)
        for seed in range(250):
            g = random_labeled_graph(2 + seed % 7, seed)
            a = run(proto, g, sched, seed=seed, record=False).verdict
            b = run(norm, g, nsched, seed=seed, record=False).verdict
            assert (a.accept, a.rejectors) == (b.accept, b.rejectors), (text, seed)
            stress_checked += 1
    report("3", True, f"{graphs} graphs + {stress_checked} stress runs, exact match")


# criterion 4 — the degree-padding reduction decides triangle-freeness.


def test_criterion_04_triangle_freeness_reduction():
    checked = 0
    for n in range(1, 6):
        named = triangle_freeness_via_tomdf(n)
        for g in all_graphs(n):
            got = run(named.protocol, g, named.schedule, record=False).verdict.accept
            assert got == membership("triangle-freeness", g), g
            checked += 1
    report("4", True, f"{checked} graphs agree")


# criterion 5 — communication across the Alice/Bob cut stays within the
# stated per-size budgets on both reductions.


def test_criterion_05_cut_communication_scaling():
    named = proto_registry("xor-index-path")
    path_totals = {}
    for n in (8, 16, 32):
        x = ("10" * n)[:n]
        y = ("01" * n)[:n]
        g = build_xor_index_path(n, x, y, 1, n)
        alice = frozenset(range(1, n + 2))
        bob = frozenset(range(n + 2, 2 * n + 2))
        accounted = frozenset({1, n - 1, n, n + 1, n + 2, n + 3, 2 * n + 1})
        rpt, _ = cut_communication(named, g, CutConfig(alice, bob, accounted))
        path_totals[n] = rpt.total
        assert rpt.total <= 32 * math.log2(n), (n, rpt.total)

    edge = proto_registry("one-marked-edge")
    bridge_totals = {}
    for n in (4, 6, 8):
        m = n * (n - 1) // 2
        g = build_clique_bridge(n, "1" + "0" * (m - 1), "0" * (m - 1) + "1", 1, m, k=1)
        alice = frozenset(list(range(1, n + 1)) + [2 * n + 1, 2 * n + 2])
        bob = frozenset(set(g.nodes) - alice)
        rpt, _ = cut_communication(edge, g, CutConfig(alice, bob, frozenset(g.nodes)))
        bridge_totals[m] = rpt.total
        assert rpt.total <= 2 * (n + 2) * default_bandwidth(2 * n + 4), (n, rpt.total)
    report("5", True, f"path {path_totals}, bridge {bridge_totals}")


# criterion 6 — the one-round search reproduces the exactly known minima and
# matches an independent exhaustive oracle at n=2.


def _independent_zero_budget_oracle() -> Fraction:
    """Min error over all deterministic zero-communication protocols at n=2.

    With no messages, Alice's output is a function of (x, j) — her x plus the
    free-riding peer index — and Bob's of (y, i). Enumerate all 2^8 tables
    per side and take the exact minimum of the AND-vs-target mismatch count
    over the 64 uniform tuples.
    """
    xs = [f"{v:02b}" for v in range(4)]
    tuples = [
        (xi, i, yi, j)
        for xi in range(4)
        for i in range(2)
        for yi in range(4)
        for j in range(2)
    ]
    target = np.array(
        [int(xs[xi][j]) ^ int(xs[yi][i]) for (xi, i, yi, j) in tuples], dtype=np.uint8
    )
    # bit t of a table index selects the output for entry t = 2*input + index
    a_entry = np.array([2 * xi + j for (xi, i, yi, j) in tuples])
    b_entry = np.array([2 * yi + i for (xi, i, yi, j) in tuples])
    tables = np.arange(256, dtype=np.uint32)
    a_out = (tables[:, None] >> a_entry[None, :]) & 1  # (256, 64)
    b_out = (tables[:, None] >> b_entry[None, :]) & 1
    mism = np.count_nonzero(
        (a_out[:, None, :] & b_out[None, :, :]) != target[None, None, :], axis=2
    )
    return Fraction(int(mism.min()), len(tuples))


def test_criterion_06_bruteforce_minima():
    started = time.monotonic()
    e_base, w_base = bruteforce_min_error(1, 0, 0)
    assert e_base == Fraction(1, 4)
    e_free, _ = bruteforce_min_error(1, 1, 1)
    assert e_free == 0
    e_n2, w_n2 = bruteforce_min_error(2, 0, 0)
    oracle = _independent_zero_budget_oracle()
    assert e_n2 == oracle
    assert e_n2 > 0
    assert eval_protocol_error(w_n2, 2) == e_n2
    assert eval_protocol_error(trivial_xor_index_protocol(2), 2) == 0
    elapsed = time.monotonic() - started
    ok = elapsed < 60
    report("6", ok, f"1/4, 0, and {e_n2} == oracle in {elapsed:.1f}s")
    assert ok, f"search took {elapsed:.1f}s"


# criterion 7 — the stationary-rule table at 100 random posterior pairs.

RNG = np.random.default_rng(20260818)
POSTERIOR_SAMPLE = [
    Posteriors(float(ra), float(rb)) for ra, rb in RNG.uniform(0.5, 1.0, size=(100, 2))
]


def test_criterion_07a_kkt_residuals():
    worst = 0.0
    rows_checked = 0
    for post in POSTERIOR_SAMPLE:
        for row in TABLE1:
            if not row.feasible_at(post):
                continue
            res = kkt_residuals(row, post).max_residual
            worst = max(worst, res)
            rows_checked += 1
    ok = worst <= 1e-9
    report("7a", ok, f"{rows_checked} feasible rows, worst residual {worst:.2e}")
    assert ok


def test_criterion_07b_row_maximum_matches_quoted_bound():
    worst_gap = 0.0
    witness = None
    for post in POSTERIOR_SAMPLE:
        best = max(
            row.value_at(post) for row in TABLE1 if row.feasible_at(post)
        )
        bound = post.r_a + post.r_b - post.r_a * post.r_b
        gap = abs(best - bound)
        if gap > worst_gap:
            worst_gap, witness = gap, (post, best, bound)
    ok = worst_gap <= 1e-9
    post, best, bound = witness
    report(
        "7b", ok,
        f"max over rows {best:.6f} vs quoted bound {bound:.6f} at "
        f"(R_A={post.r_a:.3f}, R_B={post.r_b:.3f}); measured max is "
        f"max(R_A, R_B) so the gap is {worst_gap:.4f}",
    )
    assert ok, f"row maximum differs from the quoted closed form by {worst_gap:.4f}"


def test_criterion_07c_grid_within_tolerance_of_quoted_bound():
    worst_gap = 0.0
    witness = None
    for post in POSTERIOR_SAMPLE:
        value, _ = grid_max_success(post, grid_step=0.01)
        bound = post.r_a + post.r_b - post.r_a * post.r_b
        gap = abs(value - bound)
        if gap > worst_gap:
            worst_gap, witness = gap, (post, value, bound)
    ok = worst_gap <= 0.04
    post, value, bound = witness
    report(
        "7c", ok,
        f"grid max {value:.6f} vs quoted bound {bound:.6f} at "
        f"(R_A={post.r_a:.3f}, R_B={post.r_b:.3f}); gap {worst_gap:.4f}",
    )
    assert ok, f"grid maximum sits {worst_gap:.4f} from the quoted closed form"


def test_criterion_07d_ordering_chain():
    for post in POSTERIOR_SAMPLE:
        ra, rb = max(post.r_a, post.r_b), min(post.r_a, post.r_b)
        assert chain_inequalities(Posteriors(ra, rb)).holds, post
    report("7d", True, f"chain holds at {len(POSTERIOR_SAMPLE)} posterior pairs")


# criterion 8 — simulation vs closed form.


def test_criterion_08_monte_carlo_matches_closed_form():
    trials = 1_000_000
    worst = 0.0
    for t in range(50):
        vals = RNG.uniform(0.0, 1.0, size=4)
        post = Posteriors(*(float(v) for v in RNG.uniform(0.5, 1.0, size=2)))
        params = DecisionRuleParams(*map(float, vals))
        want = success_prob(params, post)
        est = monte_carlo_rule(params, post, trials, seed=t)
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / trials)
        dev = abs(est - want) / (sigma if sigma else 1.0)
        worst = max(worst, dev)
        assert abs(est - want) <= 3 * sigma + 1e-9, (params, post)
    report("8", True, f"50 points within 3 sigma (worst {worst:.2f} sigma)")


# criterion 9 — budget bound examples.


def test_criterion_09_budget_bound():
    assert budget_bound(1000, 0.2) == 3
    assert budget_bound(100, 0) == 25
    for n in (10, 100, 1000):
        assert budget_bound(n, 0.25) == 0
    report("9", True, "3, 25, and the vacuous quarter all check out")


# criterion 10 — information utilities.


def _random_distribution(rng, size):
    v = rng.uniform(1e-6, 1.0, size=size)
    return Distribution(tuple(float(p) for p in v / v.sum()))


def test_criterion_10_information_utilities():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        size = int(rng.integers(2, 17))
        d1 = _random_distribution(rng, size)
        d2 = _random_distribution(rng, size)
        assert pinsker_check(d1, d2), (d1, d2)
    for size in (2, 5, 9):
        d = _random_distribution(rng, size)
        assert kl(d, d) == 0.0
        assert tv(d, d) == 0.0
    for _ in range(500):
        size = int(rng.integers(2, 8))
        a, b, c = (_random_distribution(rng, size) for _ in range(3))
        assert tv(a, c) <= tv(a, b) + tv(b, c) + 1e-10
    for _ in range(200):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        joint = rng.uniform(1e-6, 1.0, size=(rows, cols))
        joint /= joint.sum()
        assert mutual_information(joint.tolist()) >= -1e-10
    report("10", True, "pinsker x10^4, identities, triangle, MI >= 0")
