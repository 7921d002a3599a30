"""Numeric workbench for the one-round failure-probability analysis.

The objects here study a two-sided randomized accept rule: each player holds
a posterior (r_a, r_b in [1/2, 1]) on the peer's target bit and accepts with
probability p when its estimate disagrees with its own bit and q otherwise.
The closed-form success probability of that rule is a multilinear polynomial
in (p_a, q_a, p_b, q_b); this module evaluates it, simulates it, checks the
stationary-point table for it against the first-order optimality system,
maximizes it over the full parameter cube, and wires up the small
information-theory helpers and the final budget bound that the analysis
feeds into.

The maximum needs no search.  A multilinear function on a box is affine in
each coordinate with the others fixed, so it reaches its maximum at one of
the box's vertices; the maximum over [0,1]^4, and over every lattice on it
that holds the 16 corners, is the best corner value.  ``grid_max_success``
evaluates those 16 corners with ``success_prob``'s float expression.  A
dense lattice scan with the same expression can round an interior point up
to 2 ulp above that value where the maximum is tied (r_a == r_b), e.g.
0.5000000000000001 against 0.5 at r = (1/2, 1/2); the corner maximum is
the exact one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "InfeasibleRowError",
    "DecisionRuleParams",
    "Posteriors",
    "KKTRow",
    "KKTReport",
    "TABLE1",
    "RowResult",
    "Table1Report",
    "ChainReport",
    "Distribution",
    "success_prob",
    "monte_carlo_rule",
    "kkt_residuals",
    "grid_max_success",
    "table1_scan",
    "chain_inequalities",
    "entropy",
    "kl",
    "tv",
    "mutual_information",
    "pinsker_check",
    "budget_bound",
]


class InfeasibleRowError(ValueError):
    """A table row has no valid substitution at the given posteriors."""


@dataclass(frozen=True)
class DecisionRuleParams:
    """Accept probabilities: p on estimate-disagrees, q on estimate-agrees."""

    p_a: float
    q_a: float
    p_b: float
    q_b: float

    def __post_init__(self):
        for name in ("p_a", "q_a", "p_b", "q_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class Posteriors:
    """Each side's probability of estimating the peer's bit correctly."""

    r_a: float
    r_b: float

    def __post_init__(self):
        for name in ("r_a", "r_b"):
            v = getattr(self, name)
            if not 0.5 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [1/2, 1]")


def success_prob(params: DecisionRuleParams, post: Posteriors) -> float:
    """Closed-form probability that the joint rule does NOT fail.

    Multilinear in the four rule parameters, so it is bounded by its corner
    values and stays in [0, 1]; the clamp only shaves float dust.
    """
    p_a, q_a, p_b, q_b = params.p_a, params.q_a, params.p_b, params.q_b
    r_a, r_b = post.r_a, post.r_b
    v = 0.5 * (
        r_a * (p_a + q_a) * (p_b - q_b)
        + r_b * (p_a - q_a) * (p_b + q_b)
        + (1.0 - p_a * p_b)
        + q_a * q_b
    )
    return min(1.0, max(0.0, v))


def monte_carlo_rule(params: DecisionRuleParams, post: Posteriors,
                     trials: int, seed: int = 0) -> float:
    """Simulate the conditional model behind the closed form.

    The target bits X and Y disagree with probability exactly 1/2; each side
    sees an independent estimate of the peer's bit that is correct with
    probability r_a (resp. r_b) and then accepts with probability p on
    disagreement with its own bit, q on agreement.  Success means the AND of
    the accept bits equals [X != Y].  Trials are split over independent
    streams keyed (seed, shard) so the estimate is reproducible.
    """
    import numpy as np  # here, so that importing the package skips numpy

    if trials < 1:
        raise ValueError("need trials >= 1")
    shards = 16
    counts = [trials // shards + (1 if s < trials % shards else 0) for s in range(shards)]
    hits = 0
    for shard, count in enumerate(counts):
        if count == 0:
            continue
        rng = np.random.default_rng((seed, shard))
        x = rng.integers(0, 2, count, dtype=np.int8)
        y = x ^ rng.integers(0, 2, count, dtype=np.int8)
        a_star = x ^ (rng.random(count) > post.r_a)
        b_star = y ^ (rng.random(count) > post.r_b)
        thresh_a = np.where(b_star != x, params.p_a, params.q_a)
        thresh_b = np.where(a_star != y, params.p_b, params.q_b)
        acc = (rng.random(count) < thresh_a) & (rng.random(count) < thresh_b)
        hits += int(np.count_nonzero(acc == (x != y)))
    return hits / trials


# ---------------------------------------------------------------------------
# the stationary-point table and its optimality system


@dataclass(frozen=True)
class _Expr:
    """A table entry that depends on the posteriors."""

    text: str
    fn: Callable[[float, float], float]

    def __call__(self, r_a: float, r_b: float) -> float:
        return self.fn(r_a, r_b)


Entry = float | _Expr

_HALF = 0.5
_E_DIFF_RATIO = _Expr("(rA-rB)/(rA+rB-1)", lambda a, b: (a - b) / (a + b - 1.0))
_E_DIFF_RATIO_INV = _Expr("(rA+rB-1)/(rA-rB)", lambda a, b: (a + b - 1.0) / (a - b))
_E_DIFF_RATIO_NEG = _Expr("(rB-rA)/(rA+rB-1)", lambda a, b: (b - a) / (a + b - 1.0))
_E_DIFF_RATIO_INV_NEG = _Expr("(rA+rB-1)/(rB-rA)", lambda a, b: (a + b - 1.0) / (b - a))

_V_ONE_MINUS_RB = _Expr("1-rB", lambda a, b: 1.0 - b)
_V_ONE_MINUS_RA = _Expr("1-rA", lambda a, b: 1.0 - a)
_V_ONE_MINUS_MEAN = _Expr("1-(rA+rB)/2", lambda a, b: 1.0 - 0.5 * (a + b))
_V_RB = _Expr("rB", lambda a, b: b)
_V_RA = _Expr("rA", lambda a, b: a)
_V_HALF_PLUS = _Expr("(1+rA-rB)/2", lambda a, b: 0.5 * (1.0 + a - b))
_V_HALF_MINUS = _Expr("(1-rA+rB)/2", lambda a, b: 0.5 * (1.0 - a + b))
_V_MEAN = _Expr("(rA+rB)/2", lambda a, b: 0.5 * (a + b))


def _entry_value(entry: Entry, post: Posteriors) -> float:
    if isinstance(entry, _Expr):
        try:
            return entry(post.r_a, post.r_b)
        except ZeroDivisionError as exc:
            raise InfeasibleRowError(f"{entry.text} undefined at {post}") from exc
    return float(entry)


@dataclass(frozen=True)
class KKTRow:
    """One stationary-point candidate: rule entries plus its claimed value.

    Entries may depend on the posteriors; substitution can land outside
    [0, 1] (or divide by zero), in which case the row is infeasible there.
    """

    row_id: int
    p_a: Entry
    q_a: Entry
    p_b: Entry
    q_b: Entry
    value: Entry

    def params_at(self, post: Posteriors) -> DecisionRuleParams:
        vals = {}
        for name in ("p_a", "q_a", "p_b", "q_b"):
            v = _entry_value(getattr(self, name), post)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise InfeasibleRowError(
                    f"row {self.row_id}: {name}={v:.6g} outside [0, 1]"
                )
            vals[name] = min(1.0, max(0.0, v))
        return DecisionRuleParams(**vals)

    def value_at(self, post: Posteriors) -> float:
        return _entry_value(self.value, post)

    def feasible_at(self, post: Posteriors) -> bool:
        try:
            self.params_at(post)
        except InfeasibleRowError:
            return False
        return True


TABLE1: tuple[KKTRow, ...] = (
    KKTRow(1, p_a=1.0, p_b=1.0, q_a=1.0, q_b=1.0, value=_HALF),
    KKTRow(2, p_a=0.0, p_b=0.0, q_a=0.0, q_b=0.0, value=_HALF),
    KKTRow(3, p_a=0.0, p_b=1.0, q_a=0.0, q_b=_E_DIFF_RATIO, value=_HALF),
    KKTRow(4, p_a=0.0, p_b=_E_DIFF_RATIO_INV, q_a=0.0, q_b=1.0, value=_HALF),
    KKTRow(5, p_a=0.0, p_b=1.0, q_a=1.0, q_b=1.0, value=_V_ONE_MINUS_RB),
    KKTRow(6, p_a=1.0, p_b=0.0, q_a=_E_DIFF_RATIO_NEG, q_b=0.0, value=_HALF),
    KKTRow(7, p_a=_E_DIFF_RATIO_INV_NEG, p_b=0.0, q_a=1.0, q_b=0.0, value=_HALF),
    KKTRow(8, p_a=1.0, p_b=0.0, q_a=1.0, q_b=1.0, value=_V_ONE_MINUS_RA),
    KKTRow(9, p_a=0.0, p_b=0.0, q_a=1.0, q_b=1.0, value=_V_ONE_MINUS_MEAN),
    KKTRow(10, p_a=0.0, p_b=1.0, q_a=0.0, q_b=_E_DIFF_RATIO_INV, value=_HALF),
    KKTRow(11, p_a=0.0, p_b=_E_DIFF_RATIO, q_a=0.0, q_b=1.0, value=_HALF),
    KKTRow(12, p_a=1.0, p_b=1.0, q_a=0.0, q_b=1.0, value=_V_RB),
    KKTRow(13, p_a=0.0, p_b=1.0, q_a=0.0, q_b=1.0, value=_HALF),
    KKTRow(14, p_a=1.0, p_b=0.0, q_a=0.0, q_b=1.0, value=_V_HALF_MINUS),
    KKTRow(15, p_a=0.0, p_b=0.0, q_a=0.0, q_b=1.0, value=_HALF),
    KKTRow(16, p_a=1.0, p_b=0.0, q_a=_E_DIFF_RATIO_INV_NEG, q_b=0.0, value=_HALF),
    KKTRow(17, p_a=_E_DIFF_RATIO_NEG, p_b=0.0, q_a=1.0, q_b=0.0, value=_HALF),
    KKTRow(18, p_a=1.0, p_b=1.0, q_a=1.0, q_b=0.0, value=_V_RA),
    KKTRow(19, p_a=0.0, p_b=1.0, q_a=1.0, q_b=0.0, value=_V_HALF_PLUS),
    KKTRow(20, p_a=1.0, p_b=0.0, q_a=1.0, q_b=0.0, value=_HALF),
    KKTRow(21, p_a=0.0, p_b=0.0, q_a=1.0, q_b=0.0, value=_HALF),
    KKTRow(22, p_a=1.0, p_b=1.0, q_a=0.0, q_b=0.0, value=_V_MEAN),
    KKTRow(23, p_a=0.0, p_b=1.0, q_a=0.0, q_b=0.0, value=_HALF),
    KKTRow(24, p_a=1.0, p_b=0.0, q_a=0.0, q_b=0.0, value=_HALF),
)


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the 12-equation first-order system at one rule point.

    residuals holds the four stationarity gaps followed by the eight
    complementary-slackness products; mu holds the recovered multipliers
    (upper bounds first, in variable order p_a, p_b, q_a, q_b, then lower
    bounds in the same order).  Multiplier non-negativity is reported, not
    folded into the residual.
    """

    params: DecisionRuleParams
    residuals: tuple[float, ...]
    mu: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def mu_nonnegative(self) -> bool:
        return all(m >= -1e-9 for m in self.mu)


def kkt_residuals(row: KKTRow | DecisionRuleParams, post: Posteriors) -> KKTReport:
    """Check first-order optimality of a rule point at given posteriors.

    Each stationarity equation couples one variable's pair of multipliers
    only, so the active-set recovery is per-variable: a variable at a bound
    gets the multiplier that zeroes its equation, an interior variable gets
    none and contributes its raw gradient as residual.
    """
    params = row.params_at(post) if isinstance(row, KKTRow) else row
    p_a, q_a, p_b, q_b = params.p_a, params.q_a, params.p_b, params.q_b
    r_a, r_b = post.r_a, post.r_b
    s, d = r_a + r_b - 1.0, r_a - r_b
    grads = (
        s * p_b - d * q_b,       # d/dp_a
        s * p_a + d * q_a,       # d/dp_b
        d * p_b - s * q_b,       # d/dq_a
        -d * p_a - s * q_a,      # d/dq_b
    )
    variables = (p_a, p_b, q_a, q_b)
    upper = [0.0] * 4
    lower = [0.0] * 4
    for idx, (x, g) in enumerate(zip(variables, grads)):
        if abs(x - 1.0) <= 1e-12:
            upper[idx] = g / 2.0
        elif abs(x) <= 1e-12:
            lower[idx] = -g / 2.0
    stationarity = tuple(
        abs(g - 2.0 * upper[idx] + 2.0 * lower[idx]) for idx, g in enumerate(grads)
    )
    slackness = tuple(abs(upper[idx] * (variables[idx] - 1.0)) for idx in range(4)) + tuple(
        abs(lower[idx] * variables[idx]) for idx in range(4)
    )
    return KKTReport(
        params=params,
        residuals=stationarity + slackness,
        mu=tuple(upper) + tuple(lower),
    )


# ---------------------------------------------------------------------------
# corner maximum, table sweep, and the ordering chain


# the 16 vertices of [0,1]^4 in lexicographic (p_A, p_B, q_A, q_B) order
_CORNERS = tuple(
    DecisionRuleParams(p_a=p_a, q_a=q_a, p_b=p_b, q_b=q_b)
    for p_a, p_b, q_a, q_b in itertools.product((0.0, 1.0), repeat=4)
)


def grid_max_success(post: Posteriors, grid_step: float = 0.01
                     ) -> tuple[float, DecisionRuleParams]:
    """Maximize success_prob over the [0,1]^4 lattice with the given step.

    success_prob is multilinear, so its maximum over the cube sits at a
    corner, and a lattice of step 1/(m-1) (the step a valid grid_step
    rounds to) holds all 16 corners: the lattice maximum is the best corner
    whatever the step, and the step is only validated.  Returns that value
    and the lexicographically first maximal corner in (p_A, p_B, q_A, q_B)
    order.  The value is within 2 ulp of an exhaustive scan of the lattice
    with the same float expression, and bit-identical to it when
    r_a != r_b; on a tie the scan can round an interior point up by 1-2 ulp.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    arg = max(_CORNERS, key=lambda corner: success_prob(corner, post))
    return success_prob(arg, post), arg


@dataclass(frozen=True)
class RowResult:
    row_id: int
    feasible: bool
    reason: str
    params: DecisionRuleParams | None
    value: float | None          # success_prob at the substituted entries
    claimed: float | None        # the row's own value column
    residual: float | None       # L-inf residual of the optimality system


@dataclass(frozen=True)
class ChainReport:
    """The ten-term ordering chain of candidate values, for r_a >= r_b."""

    terms: tuple[float, ...]
    labels: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return all(a <= b + 1e-12 for a, b in zip(self.terms, self.terms[1:]))


_CHAIN_LABELS = (
    "(1-(rA+rB))/2",
    "1-rA",
    "1-(rA+rB)/2",
    "1-rB",
    "1/2",
    "min(rB, (1+rA-rB)/2)",
    "max(rB, (1+rA-rB)/2)",
    "(rA+rB)/2",
    "rA",
    "1-(1-rA)(1-rB)",
)


def chain_inequalities(post: Posteriors) -> ChainReport:
    """Evaluate the ordering chain; posteriors must satisfy r_a >= r_b."""
    r_a, r_b = post.r_a, post.r_b
    if r_a < r_b:
        raise ValueError("chain is stated for r_a >= r_b; swap the posteriors")
    mid = 0.5 * (1.0 + r_a - r_b)
    terms = (
        0.5 * (1.0 - (r_a + r_b)),
        1.0 - r_a,
        1.0 - 0.5 * (r_a + r_b),
        1.0 - r_b,
        0.5,
        min(r_b, mid),
        max(r_b, mid),
        0.5 * (r_a + r_b),
        r_a,
        1.0 - (1.0 - r_a) * (1.0 - r_b),
    )
    return ChainReport(terms=terms, labels=_CHAIN_LABELS)


@dataclass(frozen=True)
class Table1Report:
    posteriors: Posteriors
    rows: tuple[RowResult, ...]
    max_over_rows: float
    claimed_bound: float         # r_a + r_b - r_a*r_b
    grid_value: float
    grid_argmax: DecisionRuleParams
    grid_step: float
    chain: ChainReport

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.rows if r.feasible)

    @property
    def max_matches_bound(self) -> bool:
        return abs(self.max_over_rows - self.claimed_bound) <= 1e-9

    @property
    def grid_matches_rows(self) -> bool:
        gap = self.grid_value - self.max_over_rows
        return -4.0 * self.grid_step <= gap <= 1e-9

    def to_csv(self) -> str:
        lines = ["row,feasible,value,residual"]
        for r in self.rows:
            val = "" if r.value is None else f"{r.value:.12g}"
            res = "" if r.residual is None else f"{r.residual:.3e}"
            lines.append(f"{r.row_id},{int(r.feasible)},{val},{res}")
        return "\n".join(lines) + "\n"


def table1_scan(post: Posteriors, grid_step: float = 0.01) -> Table1Report:
    """Evaluate every table row at the posteriors and cross-check the scan.

    Infeasible rows (entries outside [0, 1], or undefined ratios) are
    skipped and reported with the reason.  The report carries the row
    maximum, the analytic bound r_a + r_b - r_a*r_b, the lattice maximum,
    and the ordering chain; the comparisons are exposed as report properties
    rather than asserted here so a failing claim is visible, not fatal.
    """
    results = []
    best = -math.inf
    for row in TABLE1:
        try:
            params = row.params_at(post)
        except InfeasibleRowError as exc:
            results.append(RowResult(row.row_id, False, str(exc), None, None, None, None))
            continue
        value = success_prob(params, post)
        claimed = row.value_at(post)
        residual = kkt_residuals(row, post).max_residual
        results.append(RowResult(row.row_id, True, "", params, value, claimed, residual))
        best = max(best, value)
    grid_value, grid_arg = grid_max_success(post, grid_step)
    ordered = Posteriors(max(post.r_a, post.r_b), min(post.r_a, post.r_b))
    return Table1Report(
        posteriors=post,
        rows=tuple(results),
        max_over_rows=best,
        claimed_bound=post.r_a + post.r_b - post.r_a * post.r_b,
        grid_value=grid_value,
        grid_argmax=grid_arg,
        grid_step=grid_step,
        chain=chain_inequalities(ordered),
    )


# ---------------------------------------------------------------------------
# information utilities


@dataclass(frozen=True)
class Distribution:
    """A finite probability vector (non-negative, sums to 1 within 1e-12)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p < -1e-12 for p in probs):
            raise ValueError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution((1.0 / n,) * n)

    def __len__(self) -> int:
        return len(self.probs)


def entropy(d: Distribution) -> float:
    """Shannon entropy in bits."""
    return -sum(p * math.log2(p) for p in d.probs if p > 0.0)


def kl(d1: Distribution, d2: Distribution) -> float:
    """KL divergence in bits; +inf when d1 puts mass where d2 has none."""
    if len(d1) != len(d2):
        raise ValueError("distributions must share a support size")
    total = 0.0
    for p, q in zip(d1.probs, d2.probs):
        if p <= 0.0:
            continue
        if q <= 0.0:
            return math.inf
        total += p * math.log2(p / q)
    return total


def tv(d1: Distribution, d2: Distribution) -> float:
    """Total variation distance."""
    if len(d1) != len(d2):
        raise ValueError("distributions must share a support size")
    return 0.5 * sum(abs(p - q) for p, q in zip(d1.probs, d2.probs))


def mutual_information(joint: Sequence[Sequence[float]]) -> float:
    """MI in bits of a finite joint, as KL(joint || product of marginals)."""
    rows = [tuple(float(p) for p in row) for row in joint]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("joint must be a rectangular matrix")
    flat = Distribution(tuple(p for row in rows for p in row))
    row_marg = [sum(row) for row in rows]
    col_marg = [sum(col) for col in zip(*rows)]
    product = Distribution(tuple(a * b for a in row_marg for b in col_marg))
    return kl(flat, product)


def pinsker_check(d1: Distribution, d2: Distribution) -> bool:
    """tv(d1, d2)^2 <= (2/ln 2) * divergence in nats, with float slack.

    kl() reports bits, so the natural-log bound becomes 2 * kl; this is the
    loose direction of the inequality and holds for every pair.
    """
    return tv(d1, d2) ** 2 <= 2.0 * kl(d1, d2) + 1e-12


def budget_bound(n: int, epsilon: float) -> int:
    """Smallest symmetric message budget k consistent with error epsilon.

    Solves (1/2 - sqrt(k/n))^2 <= epsilon for the least integer k; vacuous
    (0) once sqrt(epsilon) reaches 1/2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    root = math.sqrt(epsilon)
    if root >= 0.5:
        return 0
    return math.ceil((0.5 - root) ** 2 * n - 1e-12)
