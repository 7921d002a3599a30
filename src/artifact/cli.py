"""Batch front-end: simulate protocols, sweep the verification suite, meter
reductions, run searches, and emit numeric reports.

Exit codes are uniform across subcommands: 0 for success (for `simulate`,
global acceptance), 1 for a negative outcome (rejection, or a verify sweep
with mismatches), 2 for any error.  Instances come either from a JSON file
or from the generator mini-language, e.g.::

    path:6                       blank path on 6 nodes
    path:3:marks=110             marked path (one-bit labels)
    random:8:seed=3              seeded random labeled graph
    xor-index-path:n=2,x=10,y=01,i=1,j=2
    disj-on-clique:rows=101+011+110
    k-pclp:n=2,f_a=0.1,f_b=1.0   pointer map halves, entry t.v maps t to v

Positional segments and param=value pairs may be mixed; list-valued params
join their items with '+'.  No command takes a run seed: every suite
protocol is deterministic, and the seed is an engine-level hook
(`engine.run(seed=)`) for a randomized protocol.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import EngineError, Schedule, run, schedule_cost
from .graphs import (
    EnumerationTooLargeError,
    InvalidInstanceError,
    LabeledGraph,
    build_gadget,
    clique_graph,
    cycle_graph,
    gadget_cut,
    marked_clique,
    marked_cycle,
    marked_path,
    path_graph,
    random_labeled_graph,
)
from .protocols import NamedProtocol, proto_registry, protocol_ids, sweep
from .twoparty import (
    CutConfig,
    SearchTooLargeError,
    bruteforce_min_error,
    cut_communication,
    search_result_json,
)
from .xorlb import Posteriors, budget_bound, table1_scan

__all__ = ["main", "parse_generator", "parse_node_set"]


# ---------------------------------------------------------------------------
# instance sources

_INT_KEYS = {"n", "i", "j", "k", "seed"}
_STR_LIST_KEYS = {"rows", "x_rows", "y_rows"}
_INT_LIST_KEYS = {"indices_a", "indices_b"}
_MAP_KEYS = {"f_a", "f_b"}


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _STR_LIST_KEYS:
        return tuple(value.split("+"))
    if key in _INT_LIST_KEYS:
        return tuple(int(v) for v in value.split("+"))
    if key in _MAP_KEYS:
        pairs = [entry.partition(".") for entry in value.split("+")]
        if not all(dot and t.isdecimal() and v.isdecimal() for t, dot, v in pairs):
            raise InvalidInstanceError(f"{key} entries must read t.v, got {value!r}")
        f = {int(t): int(v) for t, _, v in pairs}
        if len(f) != len(pairs):
            raise InvalidInstanceError(f"{key} maps some pointer twice: {value!r}")
        return f
    return value


def parse_generator(spec: str) -> LabeledGraph:
    """Build a graph from 'family:arg:key=value,...' text."""
    return _generate(spec)[0]


def _generate(spec: str) -> tuple[LabeledGraph, tuple[str, dict] | None]:
    """parse_generator's graph, plus (family, params) when the spec names a
    gadget, so that a caller can ask for the gadget's cut without a reparse."""
    parts = spec.split(":")
    family, rest = parts[0], parts[1:]
    positional: list[str] = []
    kv: dict[str, str] = {}
    for part in rest:
        for item in part.split(","):
            if not item:
                continue
            if "=" in item:
                key, _, value = item.partition("=")
                kv[key] = value
            else:
                positional.append(item)
    if family in ("path", "cycle", "clique"):
        marks = kv.pop("marks", None)
        if kv or len(positional) > 1:
            raise InvalidInstanceError(f"unexpected parameters in {spec!r}")
        size = int(positional[0]) if positional else None
        if marks is not None:
            if size is not None and size != len(marks):
                raise InvalidInstanceError("size and marks length disagree")
            builder = {"path": marked_path, "cycle": marked_cycle, "clique": marked_clique}
            return builder[family](marks), None
        if size is None:
            raise InvalidInstanceError(f"{family} generator needs a size")
        builder = {"path": path_graph, "cycle": cycle_graph, "clique": clique_graph}
        return builder[family](size), None
    if family == "random":
        size = positional[0] if positional else kv.pop("n", None)
        if size is None:
            raise InvalidInstanceError("random generator needs a size")
        seed = int(kv.pop("seed", "0"))
        if kv:
            raise InvalidInstanceError(f"unexpected parameters in {spec!r}")
        return random_labeled_graph(int(size), seed), None
    if positional:
        raise InvalidInstanceError(
            f"{family!r} takes named parameters only, got {positional}"
        )
    params = {k: _coerce(k, v) for k, v in kv.items()}
    return build_gadget(family, **params), (family, params)


def _load_instance(ns: argparse.Namespace) -> tuple[LabeledGraph, tuple[str, dict] | None]:
    """The instance, plus (family, params) when --gen names a gadget."""
    if (ns.gen is None) == (ns.instance is None):
        raise InvalidInstanceError("provide exactly one of --gen and --instance")
    if ns.gen is not None:
        return _generate(ns.gen)
    try:
        with open(ns.instance, encoding="utf-8") as fh:
            return LabeledGraph.from_json(fh.read()), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"bad instance file {ns.instance}: {exc}") from exc


def parse_node_set(text: str, nodes: tuple[int, ...]) -> frozenset[int]:
    """Parse '1-4,9' style node lists; 'all' is handled by callers."""
    out: set[int] = set()
    for item in text.split(","):
        if not item:
            continue
        if "-" in item:
            lo, hi = map(int, item.split("-", 1))
            if lo > hi:
                raise InvalidInstanceError(f"node range {item!r} runs backwards")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(item))
    bad = out - set(nodes)
    if bad:
        raise InvalidInstanceError(f"nodes {sorted(bad)} not in the instance")
    return frozenset(out)


def _resolve_schedule(named: NamedProtocol, ns: argparse.Namespace) -> Schedule:
    schedule = named.schedule
    if ns.schedule:
        schedule = Schedule.parse(ns.schedule, bandwidth=schedule.bandwidth)
    if ns.bandwidth is not None:
        cap = ns.bandwidth
        schedule = Schedule(schedule.kinds, bandwidth=lambda n: cap)
    return schedule


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(ns: argparse.Namespace) -> int:
    named = proto_registry(ns.protocol)
    graph, _ = _load_instance(ns)
    schedule = _resolve_schedule(named, ns)
    result = run(named.protocol, graph, schedule, record=ns.transcript is not None)
    verdict = result.verdict
    report = {
        "protocol": named.name,
        "schedule": schedule.text,
        "n": graph.n,
        "accept": verdict.accept,
        "rejectors": list(verdict.rejectors),
        "bits": result.transcript.totals,
    }
    _emit(ns, json.dumps(report, indent=2))
    if ns.transcript:
        with open(ns.transcript, "w", encoding="utf-8") as fh:
            fh.write(
                result.transcript.to_csv() if ns.format == "csv"
                else result.transcript.to_json(indent=2)
            )
    return 0 if verdict.accept else 1


def cmd_verify(ns: argparse.Namespace) -> int:
    any_bad = False
    lines = []
    for name in ns.only or protocol_ids():
        result = sweep(name, ns.max_n)
        line = f"{result.name}: {result.agree}/{result.total} agree"
        if result.counterexample is not None:
            any_bad = True
            line += f"; first counterexample {result.counterexample.to_json()}"
        lines.append(line)
    _emit(ns, "\n".join(lines))
    return 1 if any_bad else 0


def cmd_reduce(ns: argparse.Namespace) -> int:
    named = proto_registry(ns.protocol)
    graph, gadget = _load_instance(ns)
    nodes = graph.nodes
    if ns.alice is not None:
        alice = parse_node_set(ns.alice, nodes)
    elif gadget is None:
        raise InvalidInstanceError("only a --gen gadget has a built-in cut: give --alice")
    else:
        family, params = gadget
        try:
            alice = gadget_cut(family, **params)
        except InvalidInstanceError as exc:
            raise InvalidInstanceError(f"{exc}: give --alice") from None
    bob = frozenset(nodes) - alice
    accounted = (
        frozenset(nodes) if ns.accounted == "all" else parse_node_set(ns.accounted, nodes)
    )
    report, _ = cut_communication(named, graph, CutConfig(alice, bob, accounted))
    blob = {
        "protocol": named.name,
        "alice_to_bob": list(report.alice_to_bob),
        "bob_to_alice": list(report.bob_to_alice),
        "per_round": list(report.per_round),
        "total": report.total,
    }
    _emit(ns, json.dumps(blob, indent=2))
    return 0


def cmd_bruteforce(ns: argparse.Namespace) -> int:
    n, k_a, k_b = ns.n, ns.ka, ns.kb
    error, witness = bruteforce_min_error(n, k_a, k_b)
    if ns.out:
        _emit(ns, search_result_json(n, k_a, k_b, error, witness, indent=2))
    print(f"{error.numerator}/{error.denominator}")
    return 0


def cmd_kkt(ns: argparse.Namespace) -> int:
    report = table1_scan(Posteriors(ns.ra, ns.rb))
    _emit(ns, report.to_csv())
    print(
        f"feasible={report.feasible_count}/24 max_over_rows={report.max_over_rows:.6f} "
        f"bound={report.claimed_bound:.6f} grid={report.grid_value:.6f} "
        f"chain={'ok' if report.chain.holds else 'VIOLATED'}",
        file=sys.stderr,
    )
    return 0


def cmd_bound(ns: argparse.Namespace) -> int:
    print(budget_bound(ns.n, ns.eps))
    return 0


def cmd_cost(ns: argparse.Namespace) -> int:
    cost = schedule_cost(Schedule.parse(ns.schedule), ns.a, ns.b, ns.c)
    print(f"{cost:g}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "reduce": cmd_reduce,
    "bruteforce": cmd_bruteforce,
    "kkt": cmd_kkt,
    "bound": cmd_bound,
    "cost": cmd_cost,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Hybrid-schedule protocol workbench (see module docstring "
        "for the generator mini-language).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, protocol=False, instance=False):
        p.add_argument("--out", help="write the report here instead of stdout")
        if protocol:
            p.add_argument("--protocol", required=True,
                           help=f"one of: {', '.join(protocol_ids())}")
        if instance:
            p.add_argument("--gen", help="generator spec, e.g. path:3:marks=110")
            p.add_argument("--instance", help="path to a JSON instance file")

    p = sub.add_parser("simulate", help="run one protocol on one instance")
    add_common(p, protocol=True, instance=True)
    p.add_argument("--schedule", help="override round kinds, e.g. B,L or B^3")
    p.add_argument("--bandwidth", type=int, help="override the per-round bit cap")
    p.add_argument("--transcript", help="also write the transcript here")
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="transcript format (default csv)")

    p = sub.add_parser("verify", help="protocol-vs-oracle exhaustive sweep")
    add_common(p)
    p.add_argument("--max-n", type=int, default=3, dest="max_n",
                   help="sweep each family up to this size (default 3)")
    p.add_argument("--only", action="append",
                   help="restrict to this protocol id (repeatable)")

    p = sub.add_parser("reduce", help="meter cut communication of a run")
    add_common(p, protocol=True, instance=True)
    p.add_argument("--alice", help="node list, e.g. 1-4,9 (default: the cut of the "
                   "--gen gadget); Bob gets the rest")
    p.add_argument("--accounted", default="all", help="node list or 'all'")

    p = sub.add_parser("bruteforce", help="exact minimum-error search")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ka", type=int, required=True)
    p.add_argument("--kb", type=int, required=True)

    p = sub.add_parser("kkt", help="stationary-point table scan (CSV)")
    add_common(p)
    p.add_argument("--ra", type=float, required=True)
    p.add_argument("--rb", type=float, required=True)

    p = sub.add_parser("bound", help="budget bound implied by an error rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("cost", help="weighted round-cost of a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--a", type=float, default=1.0, help="weight per unbounded round")
    p.add_argument("--b", type=float, default=1.0, help="weight per broadcast round")
    p.add_argument("--c", type=float, default=1.0, help="weight per capped round")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except (InvalidInstanceError, EnumerationTooLargeError, SearchTooLargeError,
            EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
