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

Positional segments and param=value pairs may be mixed; list-valued params
join their items with '+'.  The default seed comes from ARTIFACT_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .engine import EngineError, Schedule, default_bandwidth, run, schedule_cost
from .graphs import (
    EnumerationTooLargeError,
    InvalidInstanceError,
    LabeledGraph,
    build_gadget,
    clique_graph,
    cycle_graph,
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

__all__ = ["ExperimentConfig", "main", "parse_generator", "parse_node_set"]


@dataclass
class ExperimentConfig:
    """One resolved invocation: everything a command needs to run."""

    command: str
    protocol: str | None = None
    gen: str | None = None
    instance_path: str | None = None
    schedule: str | None = None
    bandwidth: int | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    params: dict = field(default_factory=dict)


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
        return {t: int(v) for t, v in enumerate(value.split("+"))}
    return value


def parse_generator(spec: str) -> LabeledGraph:
    """Build a graph from 'family:arg:key=value,...' text."""
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
            return builder[family](marks)
        if size is None:
            raise InvalidInstanceError(f"{family} generator needs a size")
        builder = {"path": path_graph, "cycle": cycle_graph, "clique": clique_graph}
        return builder[family](size)
    if family == "random":
        size = int(positional[0]) if positional else int(kv.pop("n"))
        seed = int(kv.pop("seed", "0"))
        if kv:
            raise InvalidInstanceError(f"unexpected parameters in {spec!r}")
        return random_labeled_graph(size, seed)
    if positional:
        raise InvalidInstanceError(
            f"{family!r} takes named parameters only, got {positional}"
        )
    return build_gadget(family, **{k: _coerce(k, v) for k, v in kv.items()})


def _load_instance(cfg: ExperimentConfig) -> LabeledGraph:
    if (cfg.gen is None) == (cfg.instance_path is None):
        raise InvalidInstanceError("provide exactly one of --gen and --instance")
    if cfg.gen is not None:
        return parse_generator(cfg.gen)
    try:
        with open(cfg.instance_path, encoding="utf-8") as fh:
            return LabeledGraph.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"bad instance file {cfg.instance_path}: {exc}") from exc


def parse_node_set(text: str, nodes: tuple[int, ...]) -> frozenset[int]:
    """Parse '1-4,9' style node lists; 'all'/'rest' are handled by callers."""
    out: set[int] = set()
    for item in text.split(","):
        if not item:
            continue
        if "-" in item:
            lo, _, hi = item.partition("-")
            out.update(range(int(lo), int(hi) + 1))
        else:
            out.add(int(item))
    bad = out - set(nodes)
    if bad:
        raise InvalidInstanceError(f"nodes {sorted(bad)} not in the instance")
    return frozenset(out)


def _resolve_schedule(named: NamedProtocol, cfg: ExperimentConfig) -> Schedule:
    schedule = named.schedule
    if cfg.schedule:
        schedule = Schedule.parse(cfg.schedule, bandwidth=schedule.bandwidth)
    if cfg.bandwidth is not None:
        cap = cfg.bandwidth
        schedule = Schedule(schedule.kinds, bandwidth=lambda n: cap)
    return schedule


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ExperimentConfig) -> int:
    named = proto_registry(cfg.protocol)
    graph = _load_instance(cfg)
    schedule = _resolve_schedule(named, cfg)
    result = run(named.protocol, graph, schedule, seed=cfg.seed)
    verdict = result.verdict
    report = {
        "protocol": named.name,
        "schedule": schedule.text,
        "n": graph.n,
        "seed": cfg.seed,
        "accept": verdict.accept,
        "rejectors": list(verdict.rejectors),
        "bits": result.transcript.totals,
    }
    _emit(cfg, json.dumps(report, indent=2))
    t_path = cfg.params.get("transcript")
    if t_path:
        with open(t_path, "w", encoding="utf-8") as fh:
            fh.write(
                result.transcript.to_csv() if cfg.fmt == "csv"
                else result.transcript.to_json(indent=2)
            )
    return 0 if verdict.accept else 1


def cmd_verify(cfg: ExperimentConfig) -> int:
    only = cfg.params.get("only") or list(protocol_ids())
    any_bad = False
    lines = []
    for name in only:
        result = sweep(name, cfg.params["max_n"], seed=cfg.seed)
        line = f"{result.name}: {result.agree}/{result.total} agree"
        if result.counterexample is not None:
            any_bad = True
            line += f"; first counterexample {result.counterexample.to_json()}"
        lines.append(line)
    _emit(cfg, "\n".join(lines))
    return 1 if any_bad else 0


def cmd_reduce(cfg: ExperimentConfig) -> int:
    named = proto_registry(cfg.protocol)
    graph = _load_instance(cfg)
    nodes = graph.nodes
    alice = parse_node_set(cfg.params["alice"], nodes)
    bob_text = cfg.params.get("bob")
    bob = (
        frozenset(set(nodes) - alice) if bob_text in (None, "rest")
        else parse_node_set(bob_text, nodes)
    )
    acc_text = cfg.params.get("accounted", "all")
    accounted = frozenset(nodes) if acc_text == "all" else parse_node_set(acc_text, nodes)
    report, _ = cut_communication(
        named, graph, CutConfig(alice, bob, accounted), seed=cfg.seed
    )
    blob = {
        "protocol": named.name,
        "alice_to_bob": list(report.alice_to_bob),
        "bob_to_alice": list(report.bob_to_alice),
        "per_round": list(report.per_round),
        "total": report.total,
    }
    _emit(cfg, json.dumps(blob, indent=2))
    return 0


def cmd_bruteforce(cfg: ExperimentConfig) -> int:
    n, k_a, k_b = cfg.params["n"], cfg.params["ka"], cfg.params["kb"]
    error, witness = bruteforce_min_error(n, k_a, k_b)
    if cfg.out:
        _emit(cfg, search_result_json(n, k_a, k_b, error, witness, indent=2))
    print(f"{error.numerator}/{error.denominator}")
    return 0


def cmd_kkt(cfg: ExperimentConfig) -> int:
    post = Posteriors(cfg.params["ra"], cfg.params["rb"])
    report = table1_scan(post, grid_step=cfg.params.get("grid_step", 0.01))
    _emit(cfg, report.to_csv())
    print(
        f"feasible={report.feasible_count}/24 max_over_rows={report.max_over_rows:.6f} "
        f"bound={report.claimed_bound:.6f} grid={report.grid_value:.6f} "
        f"chain={'ok' if report.chain.holds else 'VIOLATED'}",
        file=sys.stderr,
    )
    return 0


def cmd_bound(cfg: ExperimentConfig) -> int:
    print(budget_bound(cfg.params["n"], cfg.params["eps"]))
    return 0


def cmd_cost(cfg: ExperimentConfig) -> int:
    schedule = Schedule.parse(cfg.schedule)
    cost = schedule_cost(schedule, cfg.params["a"], cfg.params["b"], cfg.params["c"])
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
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (default: ARTIFACT_SEED or 0)")
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
    p.add_argument("--alice", required=True, help="node list, e.g. 1-4,9")
    p.add_argument("--bob", help="node list (default: the rest)")
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
    p.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")

    p = sub.add_parser("bound", help="budget bound implied by an error rate")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("cost", help="weighted round-cost of a schedule")
    add_common(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--a", type=float, default=1.0, help="weight per unbounded round")
    p.add_argument("--b", type=float, default=1.0, help="weight per broadcast round")
    p.add_argument("--c", type=float, default=1.0, help="weight per capped round")

    return parser


def _config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("ARTIFACT_SEED", "0"))
    known = {"command", "protocol", "gen", "instance", "schedule", "bandwidth",
             "seed", "out", "format"}
    params = {k: v for k, v in vars(ns).items() if k not in known and v is not None}
    return ExperimentConfig(
        command=ns.command,
        protocol=getattr(ns, "protocol", None),
        gen=getattr(ns, "gen", None),
        instance_path=getattr(ns, "instance", None),
        schedule=getattr(ns, "schedule", None),
        bandwidth=getattr(ns, "bandwidth", None),
        seed=seed,
        out=ns.out,
        fmt=getattr(ns, "format", "json"),
        params=params,
    )


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    cfg = _config_from_args(ns)
    try:
        return _COMMANDS[cfg.command](cfg)
    except (InvalidInstanceError, EnumerationTooLargeError, SearchTooLargeError,
            EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
