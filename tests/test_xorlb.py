import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.xorlb import (
    TABLE1,
    ChainReport,
    DecisionRuleParams,
    Distribution,
    InfeasibleRowError,
    Posteriors,
    budget_bound,
    chain_inequalities,
    entropy,
    grid_max_success,
    kkt_residuals,
    kl,
    monte_carlo_rule,
    mutual_information,
    pinsker_check,
    success_prob,
    table1_scan,
    tv,
)

POST = Posteriors(0.7, 0.6)

probs = st.floats(0.0, 1.0, allow_nan=False)
posteriors = st.floats(0.5, 1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# closed form


def test_param_validation():
    with pytest.raises(ValueError):
        DecisionRuleParams(1.1, 0, 0, 0)
    with pytest.raises(ValueError):
        Posteriors(0.49, 0.6)
    with pytest.raises(ValueError):
        Posteriors(0.7, 1.01)


def test_success_prob_pinned_values():
    assert success_prob(DecisionRuleParams(1, 1, 1, 1), POST) == pytest.approx(0.5)
    # accept-iff-different on Alice's side, Bob always accepts
    assert success_prob(
        DecisionRuleParams(p_a=0, q_a=1, p_b=1, q_b=1), POST
    ) == pytest.approx(1 - 0.6)
    assert success_prob(
        DecisionRuleParams(p_a=1, q_a=0, p_b=1, q_b=0), POST
    ) == pytest.approx((0.7 + 0.6) / 2)


@settings(max_examples=200)
@given(probs, probs, probs, probs, posteriors, posteriors)
def test_success_prob_is_a_probability(pa, qa, pb, qb, ra, rb):
    v = success_prob(DecisionRuleParams(pa, qa, pb, qb), Posteriors(ra, rb))
    assert 0.0 <= v <= 1.0


def test_monte_carlo_is_seed_deterministic():
    params = DecisionRuleParams(0.3, 0.8, 0.6, 0.1)
    a = monte_carlo_rule(params, POST, 10_000, seed=3)
    b = monte_carlo_rule(params, POST, 10_000, seed=3)
    assert a == b
    assert a != monte_carlo_rule(params, POST, 10_000, seed=4)


@pytest.mark.parametrize(
    "params",
    [
        DecisionRuleParams(1, 1, 1, 1),
        DecisionRuleParams(0, 0, 0, 0),
        DecisionRuleParams(1, 0, 1, 0),
    ],
)
def test_monte_carlo_tracks_closed_form(params):
    trials = 200_000
    est = monte_carlo_rule(params, POST, trials, seed=11)
    want = success_prob(params, POST)
    sigma = math.sqrt(max(want * (1 - want), 1e-12) / trials)
    assert abs(est - want) <= 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# stationary-point table


def test_table_has_24_distinct_rows():
    assert len(TABLE1) == 24
    assert [row.row_id for row in TABLE1] == list(range(1, 25))


def test_feasibility_counts():
    assert sum(1 for r in TABLE1 if r.feasible_at(POST)) == 18
    assert sum(1 for r in TABLE1 if r.feasible_at(Posteriors(0.5, 0.5))) == 16


def test_ratio_row_substitution():
    row3 = TABLE1[2]
    assert row3.params_at(POST).q_b == pytest.approx(1 / 3)
    assert row3.value_at(POST) == pytest.approx(0.5)


def test_infeasible_row_raises_on_substitution():
    row4 = TABLE1[3]
    assert not row4.feasible_at(POST)
    with pytest.raises(InfeasibleRowError):
        row4.params_at(POST)
    with pytest.raises(InfeasibleRowError):
        kkt_residuals(row4, POST)


def test_kkt_residuals_vanish_on_table_rows():
    for row in TABLE1:
        if not row.feasible_at(POST):
            continue
        report = kkt_residuals(row, POST)
        assert report.max_residual <= 1e-9, row.row_id
        assert len(report.residuals) == 12
        assert len(report.mu) == 8


def test_kkt_multiplier_signs_are_reported_not_enforced():
    # the corner rule (1,1,1,1) is stationary but with mixed-sign multipliers
    report = kkt_residuals(TABLE1[0], POST)
    assert report.max_residual <= 1e-9
    assert report.mu_nonnegative is False


def test_kkt_negative_control():
    report = kkt_residuals(DecisionRuleParams(0.5, 0.5, 0.5, 0.5), POST)
    assert report.max_residual > 1e-6


# ---------------------------------------------------------------------------
# grid search


def test_grid_step_validation():
    with pytest.raises(ValueError):
        grid_max_success(POST, grid_step=0.0)
    with pytest.raises(ValueError):
        grid_max_success(POST, grid_step=0.6)
    # no lattice size is derived from the step, so a tiny one neither
    # overflows nor scans 10^12 points
    for step in (1e-320, 0.001):
        assert grid_max_success(POST, grid_step=step) == grid_max_success(POST, 0.05)


def test_grid_max_at_perfect_posteriors():
    value, arg = grid_max_success(Posteriors(1, 1), grid_step=0.25)
    assert value == pytest.approx(1.0)
    assert success_prob(arg, Posteriors(1, 1)) == pytest.approx(value)


@pytest.mark.parametrize("ra,rb", [(0.7, 0.6), (0.5, 0.5), (0.93, 0.52), (0.8, 0.8)])
def test_grid_max_equals_larger_posterior(ra, rb):
    # the closed form is multilinear, so the max sits at a corner; checking
    # the 16 corners by hand gives max(R_A, R_B), attained at the rule that
    # trusts the better-informed player alone (e.g. p=(1,1), q=(1,0)).
    post = Posteriors(ra, rb)
    value, arg = grid_max_success(post, grid_step=0.05)
    assert value == pytest.approx(max(ra, rb), abs=1e-9)
    assert success_prob(arg, post) == pytest.approx(value, abs=1e-12)


def test_grid_value_dominates_feasible_rows():
    # spacing the lattice can only miss the optimum by a slope-bounded margin
    for ra, rb in [(0.7, 0.6), (0.91, 0.66), (0.5, 0.5)]:
        post = Posteriors(ra, rb)
        report = table1_scan(post, grid_step=0.05)
        diff = report.grid_value - report.max_over_rows
        assert -4 * 0.05 <= diff <= 1e-9


def test_failure_probability_lower_bound():
    # both players must miss for the protocol to be safe from failure
    for ra, rb in [(0.7, 0.6), (0.55, 0.52), (1.0, 0.5)]:
        value, _ = grid_max_success(Posteriors(ra, rb), grid_step=0.05)
        assert 1 - value >= (1 - ra) * (1 - rb) - 1e-9


def test_table1_scan_report_shape():
    report = table1_scan(POST, grid_step=0.05)
    assert len(report.rows) == 24
    assert report.feasible_count == 18
    assert report.max_over_rows == pytest.approx(0.7)
    assert report.claimed_bound == pytest.approx(0.7 + 0.6 - 0.42)
    # measured maximum stays below the quoted closed-form bound; equality
    # does not hold off the boundary, so the comparison is surfaced as data
    assert report.max_matches_bound is False
    assert report.grid_matches_rows is True
    row22 = report.rows[21]
    assert row22.value == pytest.approx((0.7 + 0.6) / 2)


def test_table1_scan_csv():
    lines = table1_scan(POST, grid_step=0.05).to_csv().strip().splitlines()
    assert lines[0] == "row,feasible,value,residual"
    assert len(lines) == 25
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"


# ---------------------------------------------------------------------------
# ordering chain


def test_chain_values_pinned():
    report = chain_inequalities(POST)
    assert isinstance(report, ChainReport)
    want = [-0.15, 0.3, 0.35, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.88]
    assert report.terms == pytest.approx(want)
    assert report.holds
    assert len(report.labels) == len(report.terms) == 10


def test_chain_holds_on_wider_gap():
    assert chain_inequalities(Posteriors(0.9, 0.6)).holds


def test_chain_requires_sorted_posteriors():
    with pytest.raises(ValueError):
        chain_inequalities(Posteriors(0.6, 0.7))


@settings(max_examples=60)
@given(posteriors, posteriors)
def test_chain_holds_everywhere(ra, rb):
    ra, rb = max(ra, rb), min(ra, rb)
    assert chain_inequalities(Posteriors(ra, rb)).holds


# ---------------------------------------------------------------------------
# corner maximum against the lattice scan


def _grid_scan_py(r_a: float, r_b: float, m: int):
    """Reference: maximize the closed form over the whole m^4 lattice.

    Returns (best value, i_pa, i_pb, i_qa, i_qb) with each index in [0, m)
    mapping to the grid point index/(m-1).  Ties keep the lexicographically
    first index vector in (p_A, p_B, q_A, q_B) order.
    """
    step = 1.0 / (m - 1)
    best = -1.0
    bi = bj = bk = bl = 0
    for i in range(m):
        pa = i * step
        for j in range(m):
            pb = j * step
            base = 1.0 - pa * pb
            for k in range(m):
                qa = k * step
                ca = r_a * (pa + qa)
                cb = r_b * (pa - qa)
                for l in range(m):
                    qb = l * step
                    v = 0.5 * (ca * (pb - qb) + cb * (pb + qb) + base + qa * qb)
                    if v > best:
                        best = v
                        bi, bj, bk, bl = i, j, k, l
    return best, bi, bj, bk, bl


def _lattice_max(post: Posteriors, m: int):
    best, i, j, k, l = _grid_scan_py(post.r_a, post.r_b, m)
    step = 1.0 / (m - 1)
    return best, DecisionRuleParams(p_a=i * step, q_a=k * step, p_b=j * step, q_b=l * step)


def _grid_step(m: int) -> float:
    # m=2, the bare corners, has step 1, outside grid_step's valid range; the
    # corner maximum does not depend on the step
    return min(0.5, 1.0 / (m - 1))


_UNTIED = [
    Posteriors(float(a), float(b))
    for a, b in np.random.default_rng(3).uniform(0.5, 1.0, size=(12, 2))
]


@pytest.mark.parametrize("m", [2, 3, 5, 11, 21])
def test_corner_max_equals_lattice_scan_bit_for_bit(m):
    for post in _UNTIED:
        assert post.r_a != post.r_b
        assert grid_max_success(post, _grid_step(m)) == _lattice_max(post, m), post


_CORNERS = [
    DecisionRuleParams(p_a=p_a, q_a=q_a, p_b=p_b, q_b=q_b)
    for p_a, p_b, q_a, q_b in itertools.product((0.0, 1.0), repeat=4)
]


@settings(max_examples=100, deadline=None)
@given(posteriors, st.one_of(st.none(), posteriors), st.sampled_from([2, 3, 5, 11]))
def test_corner_max_within_2_ulp_of_lattice_scan(ra, rb, m):
    # rb=None draws an exact tie, where the scan can round an interior point
    # up by 1-2 ulp
    post = Posteriors(ra, ra if rb is None else rb)
    want, _ = _lattice_max(post, m)
    value, arg = grid_max_success(post, _grid_step(m))
    assert abs(value - want) <= 2 * math.ulp(want)
    assert arg in _CORNERS
    assert arg == next(c for c in _CORNERS if success_prob(c, post) == value)
    assert success_prob(arg, post) == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# information utilities


def test_distribution_validation():
    Distribution((0.5, 0.5))
    with pytest.raises(ValueError):
        Distribution((0.6, 0.6))
    with pytest.raises(ValueError):
        Distribution((1.2, -0.2))
    assert len(Distribution.uniform(4)) == 4


def test_entropy_basics():
    assert entropy(Distribution.uniform(2)) == pytest.approx(1.0)
    assert entropy(Distribution.uniform(8)) == pytest.approx(3.0)
    assert entropy(Distribution((1.0, 0.0))) == pytest.approx(0.0)


def test_entropy_additive_on_independent_joint():
    d1 = Distribution((0.3, 0.7))
    d2 = Distribution((0.2, 0.5, 0.3))
    joint = Distribution(tuple(p * q for p in (0.3, 0.7) for q in (0.2, 0.5, 0.3)))
    assert entropy(joint) == pytest.approx(entropy(d1) + entropy(d2), abs=1e-10)


def test_kl_identities():
    d = Distribution((0.25, 0.75))
    assert kl(d, d) == 0.0
    assert kl(Distribution((0.9, 0.1)), Distribution((0.5, 0.5))) == pytest.approx(
        0.9 * math.log2(1.8) + 0.1 * math.log2(0.2)
    )
    assert kl(Distribution((1.0, 0.0)), Distribution((0.0, 1.0))) == math.inf


def test_tv_basics():
    assert tv(Distribution((0.9, 0.1)), Distribution((0.5, 0.5))) == pytest.approx(0.4)
    d = Distribution((0.3, 0.7))
    assert tv(d, d) == 0.0


@settings(max_examples=60)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.data())
def test_tv_triangle_inequality(raw, data):
    total = sum(raw)
    size = len(raw)
    d1 = Distribution(tuple(p / total for p in raw))
    other = [
        data.draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
        for _ in range(2)
    ]
    d2, d3 = (Distribution(tuple(p / sum(v) for p in v)) for v in other)
    assert tv(d1, d3) <= tv(d1, d2) + tv(d2, d3) + 1e-12


def test_mutual_information():
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(0.0)
    # perfectly correlated bits carry one full bit
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0)
    assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) >= 0.0


def test_pinsker_examples():
    d = Distribution((0.3, 0.7))
    assert pinsker_check(d, d)
    d1, d2 = Distribution((0.9, 0.1)), Distribution((0.5, 0.5))
    # tv^2 = 0.16 against twice the divergence (1.06 bits)
    assert tv(d1, d2) ** 2 <= 2 * kl(d1, d2)
    assert pinsker_check(d1, d2)


@settings(max_examples=200)
@given(st.integers(2, 16), st.data())
def test_pinsker_random_pairs(size, data):
    def draw():
        v = data.draw(
            st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size)
        )
        return Distribution(tuple(p / sum(v) for p in v))

    assert pinsker_check(draw(), draw())


# ---------------------------------------------------------------------------
# budget bound


def test_budget_bound_examples():
    assert budget_bound(1000, 0.2) == 3
    assert budget_bound(100, 0) == 25
    assert budget_bound(50, 0.25) == 0
    assert budget_bound(50, 0.9) == 0


def test_budget_bound_domain():
    with pytest.raises(ValueError):
        budget_bound(10, -0.01)


def test_budget_bound_monotone_in_n():
    values = [budget_bound(n, 0.1) for n in (10, 100, 1000)]
    assert values == sorted(values)
