"""Layer spans and counters, recorded from the benchmark's side of each call.

Nothing in ``src/`` is changed to trace it. The traced run reaches the layers
in three ways:

* public functions the workloads call (``Tracer.wrap``): one span each;
* ``Protocol`` objects handed to the engine (``Tracer.protocol``): a proxy
  that times and counts every ``init``/``round``/``decide`` callback without
  storing a span per callback;
* public functions that other public functions call internally
  (``Tracer.patched``): the module attribute is swapped for a traced wrapper
  for the duration of the traced phase and restored afterwards. If a later
  refactor stops calling through that attribute, the nested span simply
  disappears and its time shows up as the caller's self time.

A span's self time is its duration minus the time covered by the spans and
callbacks nested in it. The proxy's own call overhead falls outside the
callback timing, so it lands in ``engine.self_us``; ``trace.overhead_us_per_op``
bounds it. Spans are kept in memory and written out once, at the end
(``Tracer.dump``).

``Plain`` has the same interface and adds nothing: it is what the end-to-end
run uses, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

from artifact.engine import Protocol, RoundKind

#: Spans kept for the trace file; later spans are still aggregated.
MAX_STORED_SPANS = 200_000


class Plain:
    """Untraced: every hook hands back what it was given."""

    traced = False
    counting = False

    def wrap(self, name, fn):
        return fn

    def protocol(self, proto, swap=False):
        return proto

    def named(self, named):
        return named

    def after_run(self, result, normalized=False):
        pass

    def op_done(self):
        pass

    @contextmanager
    def patched(self, patches):
        yield


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Spans, callback aggregates and exact counters for one traced phase.

    Exact counters are taken only while ``counting`` is true; the run clears
    it after a fixed number of blocks so that counts repeat bit for bit.
    """

    traced = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.dropped_spans = 0
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.normalized_runs = 0
        self.counting = True
        self.op = 0
        # open spans: [stored span index or -1, time covered by nested work]
        self._stack: list[list] = []
        self._in_callback = False

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = -1
        if len(self.spans) < MAX_STORED_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped_spans += 1
        frame = [index, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            if stack:
                stack[-1][1] += dt
            st = self.stats[name]
            st.calls += 1
            st.total += dt
            st.self += dt - frame[1]
            if index >= 0:
                self.spans[index] = (self._name_id(name), parent, self.op, t0, t1)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patched(self, patches):
        """Swap ``(module, attribute, wrapper_factory)`` entries for the
        duration of the block; absent attributes are skipped."""
        with ExitStack() as stack:
            for module, attr, factory in patches:
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                setattr(module, attr, factory(original))
                stack.callback(setattr, module, attr, original)
            yield

    # -- protocol callbacks ----------------------------------------------

    def callback(self, role: str, fn, *args):
        """Time one protocol callback. ``role`` is "protocol" for a suite
        protocol and "swap" for the protocol ``normalize_lb`` returned; a
        callback made from inside another one counts as "nested"."""
        nested = self._in_callback
        self._in_callback = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self._in_callback = nested
            if nested:
                key = "callback.nested"
            else:
                key = "callback." + role
                if self._stack:
                    self._stack[-1][1] += dt
            st = self.stats[key]
            st.calls += 1
            st.total += dt
            if self.counting:
                self.counts[key] += 1

    def protocol(self, proto, swap=False):
        return _TracedProtocol(proto, self, "swap" if swap else "protocol")

    def named(self, named):
        return dataclasses.replace(named, protocol=self.protocol(named.protocol))

    # -- exact counters ----------------------------------------------------

    def count(self, key: str, amount: int = 1):
        if self.counting:
            self.counts[key] += amount

    def after_run(self, result, normalized=False):
        """Read the counters users see off a finished run's transcript."""
        self.normalized_runs += normalized
        if not self.counting:
            return
        c = self.counts
        t = result.transcript
        c["runs"] += 1
        for kind in ("L", "B", "C"):
            c[f"bits.{kind}"] += t.totals[kind]
        c["max_bits"] = max(c["max_bits"], max(t.max_bits.values()))
        c["events"] += len(t.events)
        if normalized:
            c["normalized_runs"] += 1
            c["normalized_bits.L"] += t.totals["L"]

    def op_done(self):
        self.op += 1

    # -- output ------------------------------------------------------------

    def dump(self, path, header: dict):
        """Write the stored spans as JSON: names, then one
        [name id, parent span, op, start s, end s] row per span."""
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [
            [nid, parent, op, round(t0 - origin, 9), round(t1 - origin, 9)]
            for nid, parent, op, t0, t1 in self.spans
        ]
        doc = dict(header, names=self.names, dropped_spans=self.dropped_spans,
                   span_fields=["name", "parent", "op", "start_s", "end_s"],
                   spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _TracedProtocol(Protocol):
    """Times and counts the callbacks of ``inner``; a top-level proxy also
    counts the messages it hands to the engine."""

    def __init__(self, inner: Protocol, tracer: Tracer, role: str):
        self.inner = inner
        self.tracer = tracer
        self.role = role

    def init(self, view):
        return self.tracer.callback(self.role, self.inner.init, view)

    def round(self, state, index, kind, inbox):
        tracer = self.tracer
        top = not tracer._in_callback
        result = tracer.callback(self.role, self.inner.round, state, index, kind, inbox)
        if top and tracer.counting and isinstance(result, tuple) and len(result) == 2:
            out = result[1]
            if kind is RoundKind.BCC:
                tracer.counts["messages"] += 1
            elif isinstance(out, dict):
                tracer.counts["messages"] += len(out)
        return result

    def decide(self, state, inbox):
        return self.tracer.callback(self.role, self.inner.decide, state, inbox)


# ---------------------------------------------------------------------------
# per-layer metrics

#: (name, unit) of every per-layer metric, in report order, with the
#: end-to-end metric each should move and on which workload. Times are
#: self times, means per call (per run for the engine/protocol split);
#: "count" and "bits" metrics are exact, per run over the counted prefix.
PER_LAYER = (
    # -> sweep.throughput_ops_per_s (about 0 in workbench)
    ("graphs.build_us", "us"),
    ("languages.oracle_us", "us"),
    # run time minus protocols.callback_us
    # -> sweep.throughput_ops_per_s and reduce.op_ms_p50
    ("engine.self_us", "us"),
    # -> sweep.throughput_ops_per_s
    ("protocols.callback_us", "us"),
    ("protocols.callbacks_per_run", "count"),
    # read off Transcript.totals / max_bits: verdicts and bits unchanged
    ("engine.messages_per_run", "count"),
    ("engine.bits_per_run.L", "bits"),
    ("engine.bits_per_run.B", "bits"),
    ("engine.bits_per_run.C", "bits"),
    ("engine.max_msg_bits", "bits"),
    # -> reduce.op_ms_p50
    ("engine.transcript_events_per_run", "count"),
    # normalized-run callbacks minus the inner protocol's: codec plus replay
    # bookkeeping -> transform.op_ms_p90
    ("transforms.swap_self_ms", "ms"),
    ("transforms.l_bits_per_run", "bits"),
    # -> transform.throughput_ops_per_s
    ("transforms.inner_calls_per_run", "count"),
    # stress pairs of workloads.DEFECT_SCHEDULES whose normalized verdicts
    # differ (transform only): the known codec defect, measured off the
    # timed ops; 0 once the codec depends on values only
    ("transforms.defect_mismatches", "count"),
    # -> workbench.op_ms_p90 and workbench.throughput_ops_per_s
    ("xorlb.grid_ms.step_0.05", "ms"),
    ("xorlb.grid_ms.step_0.02", "ms"),
    ("xorlb.grid_ms.step_0.01", "ms"),
    ("xorlb.grid_points", "count"),  # m^4 per call, computed from the step
    # -> workbench.op_ms_p50
    ("xorlb.table_ms", "ms"),
    ("xorlb.kkt_us", "us"),
    ("xorlb.mc_ms", "ms"),
    # metering loop only, the engine run inside excluded -> reduce.op_ms_p50
    ("twoparty.cut_ms", "ms"),
    # -> reduce.op_ms_p90
    ("twoparty.search_ms", "ms"),
    # traced minus untraced time per op, over the same ops
    ("trace.overhead_us_per_op", "us"),
)

#: Per-layer metrics that are exact counts over the counted prefix.
EXACT = tuple(
    name for name, unit in PER_LAYER if unit in ("count", "bits")
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_us_per_op: float,
                  defect_mismatches: int = 0) -> dict[str, float]:
    """Per-layer values from one traced run, as described at ``PER_LAYER``.
    A layer the workload never calls reads 0."""
    s, c = tracer.stats, tracer.counts
    run = s["engine.run"]
    top = s["callback.protocol"].total + s["callback.swap"].total
    swap_top = s["callback.swap"].total
    nested = s["callback.nested"].total
    grid = {
        step: s[f"xorlb.grid_ms.step_{step}"] for step in ("0.05", "0.02", "0.01")
    }
    runs = c["runs"]
    return {
        "graphs.build_us": 1e6 * _ratio(s["graphs.build"].self, s["graphs.build"].calls),
        "languages.oracle_us": 1e6 * _ratio(
            s["languages.membership"].self, s["languages.membership"].calls
        ),
        "engine.self_us": 1e6 * _ratio(run.self, run.calls),
        "protocols.callback_us": 1e6 * _ratio(top, run.calls),
        "protocols.callbacks_per_run": _ratio(
            c["callback.protocol"] + c["callback.swap"], runs
        ),
        "engine.messages_per_run": _ratio(c["messages"], runs),
        "engine.bits_per_run.L": _ratio(c["bits.L"], runs),
        "engine.bits_per_run.B": _ratio(c["bits.B"], runs),
        "engine.bits_per_run.C": _ratio(c["bits.C"], runs),
        "engine.max_msg_bits": float(c["max_bits"]),
        "engine.transcript_events_per_run": _ratio(c["events"], runs),
        "transforms.swap_self_ms": 1e3 * _ratio(swap_top - nested, tracer.normalized_runs),
        "transforms.l_bits_per_run": _ratio(c["normalized_bits.L"], c["normalized_runs"]),
        "transforms.inner_calls_per_run": _ratio(
            c["callback.nested"], c["normalized_runs"]
        ),
        "transforms.defect_mismatches": float(defect_mismatches),
        **{
            f"xorlb.grid_ms.step_{step}": 1e3 * _ratio(st.self, st.calls)
            for step, st in grid.items()
        },
        "xorlb.grid_points": _ratio(c["grid_points"], c["grid_calls"]),
        "xorlb.table_ms": 1e3 * _ratio(s["xorlb.table1_scan"].self, s["xorlb.table1_scan"].calls),
        "xorlb.kkt_us": 1e6 * _ratio(s["xorlb.kkt_residuals"].self, s["xorlb.kkt_residuals"].calls),
        "xorlb.mc_ms": 1e3 * _ratio(
            s["xorlb.monte_carlo_rule"].self, s["xorlb.monte_carlo_rule"].calls
        ),
        "twoparty.cut_ms": 1e3 * _ratio(
            s["twoparty.cut_communication"].self, s["twoparty.cut_communication"].calls
        ),
        "twoparty.search_ms": 1e3 * _ratio(
            s["twoparty.bruteforce_min_error"].self, s["twoparty.bruteforce_min_error"].calls
        ),
        "trace.overhead_us_per_op": overhead_us_per_op,
    }
