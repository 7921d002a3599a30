"""The four benchmark workloads.

Each workload is a closed loop of verification ops: one caller, and each op
starts when the previous one returns. An op calls into the layers, checks
the program's answer and returns whether it was right; an op that raises or
returns False counts as failed. Ops come in fixed-composition blocks, and
the run stops only at a block boundary, so every run sees the same mix of
op kinds whatever the machine's speed.

Inputs come from the workload seed only. ``prepare`` does all set-up
(registry and ``normalize_lb`` construction, input generation); the ops
build per-instance graphs themselves where the traffic they model does.

Why each workload, and the layer it isolates:

* ``sweep`` -- the criterion-01 / ``artifact verify`` traffic: every registry
  protocol against its membership oracle, with ``disj-4partite`` at its real
  share of that traffic (262,404 of 265,652 instances, 98.8%; the ratio is
  worked out from ``graphs.count_instances``). Isolates the per-instance
  path ``graphs`` -> ``languages`` -> ``engine`` (record=False) ->
  ``protocols``; never touches ``transforms``, ``xorlb`` or ``twoparty``.
* ``transform`` -- verdict preservation of ``normalize_lb``: the swap's
  full-state codec and replay. Isolates ``transforms``; the only workload
  where the codec matters. The 1,099 graphs with at most 5 nodes are taken
  in a seeded order, 11 per block, and each is checked under both ``tomdf``
  and ``triangle_freeness_via_tomdf``; a run lasts at least 100 blocks, so
  every one of them is checked. The stress schedules that the codec defect
  breaks today are checked in the traced run instead (``DEFECT_SCHEDULES``).
* ``workbench`` -- the numeric lower-bound workbench. Isolates ``xorlb`` and
  its lattice kernel, which no other workload calls.
* ``reduce`` -- two-party cut metering (record=True, large graphs, full
  transcript) and brute-force search. Isolates ``twoparty``, and runs the
  engine on the path ``sweep`` does not: an engine change that wins on
  ``sweep`` by cheapening ``Transcript`` or assuming tiny graphs shows here.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

import numpy as np

from artifact import engine, graphs, languages, protocols, transforms, twoparty, xorlb

Op = Callable[[], bool]

WORKLOADS = ("sweep", "transform", "workbench", "reduce")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` exists for its test."""

    sweep_sizes: tuple            # (registry id, max enumeration size)
    disj_n3_per_op: int | None    # sampled disj-4partite n=3 ops per enumerated
                                  # sweep op; None: their share in criterion 01
    transform_max_nodes: int      # tomdf / triangle graphs: every graph up to this
    stress_sizes: tuple           # node counts of the stress graphs, cycled
    workbench_block: tuple        # (grid step, ops per block)
    mc_trials: int
    xip_sizes: tuple              # xor-index-path n for cut metering
    bridge_sizes: tuple           # clique-bridge n for cut metering
    searches: tuple               # bruteforce_min_error sizes
    counted_blocks: dict          # workload -> blocks in the exact-count prefix
    min_ops: dict                 # workload -> never stop before this many ops
    defect_probe_graphs: int      # stress graphs per DEFECT_SCHEDULES entry
    setup_repeats: int


# Criterion-01 sizes, except that disj-4partite is enumerated only up to
# n=2: its 262,144 n=3 instances are sampled instead (see ``sweep``).
_SWEEP_SIZES = (
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
    ("disj-4partite", 2),
)

# Bruteforce sizes with the exact minimum each must reproduce. (1,0,0) = 1/4
# and (1,1,1) = 0 are the known values of criterion 06; (2,0,0) is the value
# criterion 06 checks against an independent exhaustive oracle; (2,1,0) and
# (3,0,0) pin the minima found at the commit that added the benchmark.
_SEARCH_MINIMA = {
    (1, 0, 0): Fraction(1, 4),
    (1, 1, 1): Fraction(0),
    (2, 0, 0): Fraction(1, 4),
    (2, 1, 0): Fraction(1, 8),
    (3, 0, 0): Fraction(1, 4),
}

FULL = Scale(
    sweep_sizes=_SWEEP_SIZES,
    disj_n3_per_op=None,
    transform_max_nodes=5,
    stress_sizes=(2, 3, 4),
    workbench_block=((0.01, 1), (0.02, 5), (0.05, 14)),
    mc_trials=100_000,
    xip_sizes=(8, 16, 32, 64),
    bridge_sizes=(4, 6, 8),
    searches=tuple(_SEARCH_MINIMA),
    counted_blocks={"sweep": 40, "transform": 8, "workbench": 2, "reduce": 8},
    # >= 100 ops puts ten samples beyond p90; transform: 100 blocks of
    # 14 stress + 22 small-graph ops check every graph with at most 5 nodes
    min_ops={"sweep": 100, "transform": 100 * 36, "workbench": 100, "reduce": 100},
    defect_probe_graphs=24,
    setup_repeats=5,
)

TINY = Scale(
    sweep_sizes=tuple((name, min(size, 2)) for name, size in _SWEEP_SIZES),
    disj_n3_per_op=3,
    transform_max_nodes=3,
    stress_sizes=(2, 3),
    workbench_block=((0.1, 1), (0.25, 2)),
    mc_trials=20_000,
    xip_sizes=(8,),               # criterion 05's 32*log2(n) budget starts at n=8
    bridge_sizes=(4,),
    searches=((1, 0, 0), (1, 1, 1), (2, 0, 0)),
    counted_blocks=dict.fromkeys(WORKLOADS, 2),
    min_ops=dict.fromkeys(WORKLOADS, 1),
    defect_probe_graphs=3,
    setup_repeats=1,
)


def prepare(name: str, seed: int, api, scale: Scale = FULL) -> Iterator[list[Op]]:
    """Set up workload ``name`` for ``seed`` and return its endless stream of
    op blocks; ``api`` is a ``tracing.Plain`` or ``tracing.Tracer``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}") from None
    return builder(seed, api, scale)


def _interleave(major: list, minor: list) -> list:
    """Spread ``minor`` evenly through ``major``."""
    out, step = [], (len(major) + len(minor)) / max(len(minor), 1)
    slots = {int(step * k) for k in range(len(minor))}
    a, b = iter(major), iter(minor)
    for pos in range(len(major) + len(minor)):
        out.append(next(b) if pos in slots else next(a))
    return out


def _verdict_key(verdict) -> tuple:
    return verdict.accept, verdict.rejectors


# ---------------------------------------------------------------------------
# sweep


class _Enumeration:
    """Next instance of a family's exhaustive enumeration, restarting at the end."""

    def __init__(self, family: str, max_size: int):
        self.family, self.max_size = family, max_size
        self._it = iter(())

    def __call__(self):
        try:
            return next(self._it)
        except StopIteration:
            self._it = graphs.enumerate_small_instances(self.family, self.max_size)
            return next(self._it)


def _disj4_n3(code: int):
    """The disj-4partite n=3 instance numbered ``code`` in [0, 2^18)."""
    bits = format(code, "018b")
    rows = [bits[t : t + 3] for t in range(0, 18, 3)]
    return graphs.build_disj_4partite(rows[:3], rows[3:])


def _sweep(seed: int, api, scale: Scale):
    run = api.wrap("engine.run", engine.run)
    membership = api.wrap("languages.membership", languages.membership)
    # every family's instances spread evenly through the cycle, so that any
    # stretch of it (such as the counted prefix) has the cycle's family mix
    slots = []
    for f, (name, max_size) in enumerate(scale.sweep_sizes):
        named = api.named(protocols.proto_registry(name))
        build = api.wrap("graphs.build", _Enumeration(named.family, max_size))
        count = graphs.count_instances(named.family, max_size)
        slots += [((k + 0.5) / count, f, (named, build, ())) for k in range(count)]
    enumerated = [item for *_, item in sorted(slots, key=lambda s: s[:2])]
    # criterion 01 enumerates all 2^18 disj-4partite n=3 instances next to
    # the enumerated ones above: ~74.7 n=3 instances per enumerated one
    per_op = scale.disj_n3_per_op or Fraction(1 << 18, len(enumerated))
    disj = api.named(protocols.proto_registry("disj-4partite"))
    build_disj = api.wrap("graphs.build", _disj4_n3)
    # a seeded permutation: no n=3 instance repeats within a run
    codes = np.random.default_rng([seed, 1]).permutation(1 << 18).tolist()

    def op(named, build, args):
        g = build(*args)
        want = membership(named.language, g)
        result = run(named.protocol, g, named.schedule, record=False)
        api.after_run(result)
        return result.verdict.accept == want

    def blocks():
        others = itertools.cycle(enumerated)
        sampled = itertools.cycle(codes)
        for k in itertools.count():
            per = math.floor((k + 1) * per_op) - math.floor(k * per_op)
            block = [partial(op, *next(others))]
            block += [partial(op, disj, build_disj, (next(sampled),)) for _ in range(per)]
            yield block

    return blocks()


# ---------------------------------------------------------------------------
# transform

# Every {B,L} schedule of length 2-4 with at most two L rounds (22 of them),
# split by what ``normalize_lb`` makes of the stress protocol today.
#
# Schedules with three L rounds are left out for COST ONLY: B,L,L,L takes
# ~7 s per pair, which would starve every other op of the run. They are not
# left out for their verdicts.
#
# DEFECT_SCHEDULES are the eight whose normalized verdicts mismatch at the
# commit that added the benchmark: the codec's identity-dependent pickling
# changes the replayed payload bytes, and the digest flips about half of the
# verdicts. Every timed op must pass, so that a failed op always means a new
# defect; so these are not timed ops. They are not dropped either: every
# traced transform run checks all of them on a fixed set of stress graphs and
# reports the mismatches as ``transforms.defect_mismatches``. Keep them in
# that probe; once the codec is fixed they belong in STRESS_SCHEDULES.
_ALL_SCHEDULES = tuple(
    ",".join(kinds)
    for length in (2, 3, 4)
    for kinds in itertools.product("BL", repeat=length)
    if kinds.count("L") <= 2
)
DEFECT_SCHEDULES = (
    "B,B,L", "L,B,L", "B,B,B,L", "B,B,L,B", "B,B,L,L", "B,L,B,L", "L,B,B,L", "L,B,L,B",
)
STRESS_SCHEDULES = tuple(s for s in _ALL_SCHEDULES if s not in DEFECT_SCHEDULES)

# small graphs per transform block, each checked under tomdf and the triangle
# reduction: 100 blocks check all 1,099 graphs with at most 5 nodes
_SMALL_PER_BLOCK = 11


def _degree_sequence(g) -> tuple:
    return tuple(sorted(g.degree(v) for v in g.nodes))


def _degree_cycle(n: int) -> list[tuple]:
    """The degree sequences of all 2^C(n,2) graphs on n labelled nodes, each
    as often as it occurs, ordered so that every prefix holds each sequence
    in close to its share."""
    counts: dict[tuple, int] = {}
    for g in graphs.all_graphs(n):
        key = _degree_sequence(g)
        counts[key] = counts.get(key, 0) + 1
    slots = [((k + 0.5) / c, key) for key, c in counts.items() for k in range(c)]
    return [key for _, key in sorted(slots)]


def _stress_graphs(seed: int, sizes: tuple, stream: int = 2) -> Iterator:
    """Endless seeded ``random_labeled_graph``s, cycling through the sizes.

    A stress op's cost grows steeply with the degrees (the pickled state
    nests neighbours' states), so graphs are drawn to follow a fixed cycle
    of degree sequences: the cost mix of a run is the same for every seed,
    while structure within a degree sequence, labels and run seeds follow
    the seed.
    """
    rng = np.random.default_rng([seed, stream])
    cycles = {n: _degree_cycle(n) for n in sizes}
    for t in itertools.count():
        for n in sizes:
            want = cycles[n][t % len(cycles[n])]
            while True:
                g = graphs.random_labeled_graph(n, int(rng.integers(1 << 31)))
                if _degree_sequence(g) == want:
                    yield g
                    break


def _transform(seed: int, api, scale: Scale):
    run = api.wrap("engine.run", engine.run)
    membership = api.wrap("languages.membership", languages.membership)
    normalize = api.wrap("transforms.normalize_lb", transforms.normalize_lb)

    def pair(named_protocol, schedule):
        inner = api.protocol(named_protocol)
        norm, nsched = normalize(inner, schedule)
        return inner, schedule, api.protocol(norm, swap=True), nsched

    tomdf = protocols.proto_registry("tomdf")
    tomdf_pair = pair(tomdf.protocol, tomdf.schedule)
    triangle = {}
    for n in range(1, scale.transform_max_nodes + 1):
        named = transforms.triangle_freeness_via_tomdf(n)
        triangle[n] = (named.language,) + pair(named.protocol, named.schedule)
    stress = [
        pair(protocols.FullStateStressProtocol(), engine.Schedule.parse(text))
        for text in STRESS_SCHEDULES
    ]
    rng = np.random.default_rng([seed, 3])
    small = [
        g for n in range(1, scale.transform_max_nodes + 1) for g in graphs.all_graphs(n)
    ]
    small = [small[t] for t in rng.permutation(len(small))]
    stress_graphs = _stress_graphs(seed, scale.stress_sizes)

    def same_verdicts(p, g, run_seed=0):
        inner, sched, norm, nsched = p
        a = run(inner, g, sched, seed=run_seed, record=False)
        api.after_run(a)
        b = run(norm, g, nsched, seed=run_seed, record=False)
        api.after_run(b, normalized=True)
        return a, _verdict_key(a.verdict) == _verdict_key(b.verdict)

    def tomdf_op(g):
        return same_verdicts(tomdf_pair, g)[1]

    def triangle_op(g):
        language, *p = triangle[g.n]
        a, same = same_verdicts(p, g)
        return same and a.verdict.accept == membership(language, g)

    def stress_op(p, g, run_seed):
        return same_verdicts(p, g, run_seed)[1]

    def blocks():
        # every schedule once, each on the next stress graph (a fresh graph
        # per op, so that a run averages over many labellings), plus the
        # next small graphs, each under both tomdf and the triangle reduction
        smalls = itertools.cycle(small)
        for b in itertools.count():
            heavy = [partial(stress_op, p, next(stress_graphs), b) for p in stress]
            heavy = [heavy[s] for s in rng.permutation(len(heavy))]
            light = []
            for _ in range(_SMALL_PER_BLOCK):
                h = next(smalls)
                light += [partial(tomdf_op, h), partial(triangle_op, h)]
            yield _interleave(light, heavy)

    return blocks()


def defect_mismatches(seed: int, scale: Scale = FULL) -> int:
    """How many of the ``len(DEFECT_SCHEDULES) * scale.defect_probe_graphs``
    stress pairs have normalized verdicts that differ from the original's:
    every defect schedule on the same seeded stress graphs."""
    proto = protocols.FullStateStressProtocol()
    probe = list(itertools.islice(
        _stress_graphs(seed, scale.stress_sizes, stream=6), scale.defect_probe_graphs
    ))
    mismatches = 0
    for text in DEFECT_SCHEDULES:
        sched = engine.Schedule.parse(text)
        norm, nsched = transforms.normalize_lb(proto, sched)
        for g in probe:
            a = engine.run(proto, g, sched, record=False)
            b = engine.run(norm, g, nsched, record=False)
            mismatches += _verdict_key(a.verdict) != _verdict_key(b.verdict)
    return mismatches


# ---------------------------------------------------------------------------
# workbench

# The per-op MC gate is 6 sigma, not 3: a 3-sigma test misflags one correct
# op in ~370, which over the hundreds of ops of a run is a certain false
# failure; 6 sigma misflags one in ~5e8.
_MC_SIGMAS = 6.0


def _workbench(seed: int, api, scale: Scale):
    table1_scan = api.wrap("xorlb.table1_scan", xorlb.table1_scan)
    monte_carlo = api.wrap("xorlb.monte_carlo_rule", xorlb.monte_carlo_rule)
    rng = np.random.default_rng([seed, 4])
    steps = [step for step, count in scale.workbench_block for _ in range(count)]
    trials = scale.mc_trials

    def op(step, r_a, r_b, rule, mc_seed):
        post = xorlb.Posteriors(r_a, r_b)
        # the lattice scan runs inside table1_scan, as in ``artifact`` traffic
        table = table1_scan(post, step)
        value = table.grid_value
        params = xorlb.DecisionRuleParams(*rule)
        want = xorlb.success_prob(params, post)
        est = monte_carlo(params, post, trials, seed=mc_seed)
        sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
        return (
            abs(value - max(r_a, r_b)) <= 1e-12
            and value >= table.max_over_rows - 4 * step
            and abs(est - want) <= _MC_SIGMAS * sigma
        )

    def blocks():
        for b in itertools.count():
            block = []
            for t in rng.permutation(len(steps)):
                r_a, r_b = (float(v) for v in rng.uniform(0.5, 1.0, size=2))
                rule = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=4))
                block.append(partial(op, steps[t], r_a, r_b, rule, b * len(steps) + int(t)))
            yield block

    return blocks()


def grid_wrapper(api):
    """Span per ``grid_max_success`` call, named by step, and the lattice
    size m^4 it scans as an exact count."""

    def factory(fn):
        if not api.traced:
            return fn

        def grid_max_success(post, grid_step=0.01):
            m = int(round(1.0 / grid_step)) + 1
            api.count("grid_calls")
            api.count("grid_points", m**4)
            return api.call(f"xorlb.grid_ms.step_{grid_step:g}", fn, post, grid_step)

        return grid_max_success

    return factory


# ---------------------------------------------------------------------------
# reduce


def _reduce(seed: int, api, scale: Scale):
    cut = api.wrap("twoparty.cut_communication", twoparty.cut_communication)
    search = api.wrap("twoparty.bruteforce_min_error", twoparty.bruteforce_min_error)
    membership = api.wrap("languages.membership", languages.membership)
    build_path = api.wrap("graphs.build", graphs.build_xor_index_path)
    build_bridge = api.wrap("graphs.build", graphs.build_clique_bridge)
    xip = api.named(protocols.proto_registry("xor-index-path"))
    edge = api.named(protocols.proto_registry("one-marked-edge"))
    rng = np.random.default_rng([seed, 5])

    def bits(k):
        return "".join("01"[int(v)] for v in rng.integers(0, 2, size=k))

    def cut_path_op(n, x, y, i, j):
        # the criterion-05 split and metered nodes
        g = build_path(n, x, y, i, j)
        cfg = twoparty.CutConfig(
            frozenset(range(1, n + 2)),
            frozenset(range(n + 2, 2 * n + 2)),
            frozenset({1, n - 1, n, n + 1, n + 2, n + 3, 2 * n + 1}),
        )
        report, result = cut(xip, g, cfg)
        api.after_run(result)
        return (
            result.verdict.accept == membership(xip.language, g)
            and report.total <= 32 * math.log2(n)
        )

    def cut_bridge_op(n, x, y, i, j):
        g = build_bridge(n, x, y, i, j, k=1)
        alice = frozenset(list(range(1, n + 1)) + [2 * n + 1, 2 * n + 2])
        cfg = twoparty.CutConfig(alice, frozenset(g.nodes) - alice, frozenset(g.nodes))
        report, result = cut(edge, g, cfg)
        api.after_run(result)
        return (
            result.verdict.accept == membership(edge.language, g)
            and report.total <= 2 * (n + 2) * engine.default_bandwidth(2 * n + 4)
        )

    def search_op(size):
        error, _ = search(*size)
        return error == _SEARCH_MINIMA[size]

    def blocks():
        while True:
            block = []
            for n in scale.xip_sizes:
                i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
                block.append(partial(cut_path_op, n, bits(n), bits(n), i, j))
            for n in scale.bridge_sizes:
                m = n * (n - 1) // 2
                i, j = (int(v) for v in rng.integers(1, m + 1, size=2))
                block.append(partial(cut_bridge_op, n, bits(m), bits(m), i, j))
            block += [partial(search_op, size) for size in scale.searches]
            yield [block[t] for t in rng.permutation(len(block))]

    return blocks()


_BUILDERS = {
    "sweep": _sweep,
    "transform": _transform,
    "workbench": _workbench,
    "reduce": _reduce,
}


def patches(api):
    """Internal call sites traced during the traced phase: the lattice scan
    and KKT system inside ``table1_scan``, and the engine run inside
    ``cut_communication``."""
    return [
        (xorlb, "grid_max_success", grid_wrapper(api)),
        (xorlb, "kkt_residuals", partial(api.wrap, "xorlb.kkt_residuals")),
        (twoparty, "run", partial(api.wrap, "engine.run")),
    ]
