"""Benchmark of the artifact simulator and workbench.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,transform,workbench,reduce} \\
        --seed N --seconds S --trace {0,1}

One process, no worker threads, one caller in a closed loop (see
``workloads``). Every op's answer is checked; an op that raises or answers
wrongly is counted as failed and the run goes on.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same ops twice, untraced and traced, block by block in turn, and
reports the per-layer metrics of the traced copy plus the tracing overhead:
traced minus untraced time per op. The traced spans are written to
``perfbench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the failure counts, the sample counts and an environment block.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
)


def _import_program():
    """Put ``src`` on the path and import the program; exits with status 2,
    before any result is printed, when the checkout does not hold it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import artifact  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        from artifact._kernels import USING_NUMBA
    except ImportError:
        USING_NUMBA = None  # the compiled-kernel module is gone
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "using_numba": USING_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int) -> float:
    """Imports plus ``prepare``, timed in this (fresh) process."""
    t0 = time.perf_counter()
    _import_program()
    import tracing
    import workloads

    workloads.prepare(workload, seed, tracing.Plain())
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    """Median set-up time over ``repeats`` fresh interpreter processes."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


class Lane:
    """One api (``tracing.Plain`` or ``tracing.Tracer``) working through its
    own copy of a workload's ops, with the latencies and outcomes it saw."""

    def __init__(self, api, blocks, patches=()):
        self.api, self.blocks, self.patches = api, blocks, patches
        self.latencies: list[float] = []
        self.failed = 0
        self.first_failure: str | None = None
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_block(self):
        lat, api = self.latencies, self.api
        block = next(self.blocks)
        start = time.perf_counter()
        with api.patched(self.patches):
            for op in block:
                t0 = time.perf_counter()
                try:
                    ok = op() is True
                except Exception:  # a failed op is counted, never fatal
                    ok = False
                    if self.first_failure is None:
                        self.first_failure = f"{op!r} raised:\n{traceback.format_exc()}"
                lat.append(time.perf_counter() - t0)
                api.op_done()
                if not ok:
                    self.failed += 1
                    if self.first_failure is None:
                        self.first_failure = f"{op!r} gave a wrong answer"
        self.elapsed += time.perf_counter() - start


def measure(lanes: list[Lane], seconds: float, min_ops: int = 1,
            counted_blocks: int = 0) -> None:
    """Run whole blocks, the lanes taking turns block by block (so that a
    change in the machine's speed hits them alike), until ``seconds`` have
    passed and every lane has done ``min_ops`` ops and ``counted_blocks``
    blocks. Exact counters stop after ``counted_blocks`` blocks."""
    deadline = time.perf_counter() + seconds
    for b in itertools.count():
        if b == counted_blocks:
            for lane in lanes:
                lane.api.counting = False
        for lane in lanes:
            lane.run_block()
        if (time.perf_counter() >= deadline and b + 1 >= counted_blocks
                and all(lane.attempted >= min_ops for lane in lanes)):
            return


def end_to_end(lane: Lane, setup_s: float) -> dict[str, float]:
    lat_ms = [1e3 * t for t in lane.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "setup_s": setup_s,
        "throughput_ops_per_s": lane.attempted / lane.elapsed,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": p90,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale=None, write_out: bool = True) -> dict:
    """One benchmark run; returns the result object plus its context."""
    _import_program()
    import tracing
    import workloads

    scale = scale or workloads.FULL
    env = environment(workload, seed)
    api = tracing.Plain()
    plain = Lane(api, workloads.prepare(workload, seed, api, scale))
    if not trace:
        setup_s = measure_setup(workload, seed, scale.setup_repeats)
        measure([plain], seconds, scale.min_ops[workload])
        lanes = [plain]
        metrics = end_to_end(plain, setup_s)
        units = dict(END_TO_END)
    else:
        tracer = tracing.Tracer()
        traced = Lane(tracer, workloads.prepare(workload, seed, tracer, scale),
                      workloads.patches(tracer))
        lanes = [plain, traced]
        measure(lanes, seconds, counted_blocks=scale.counted_blocks[workload])
        # both lanes ran the same ops
        overhead_us = 1e6 * (sum(traced.latencies) - sum(plain.latencies)) / traced.attempted
        defects = workloads.defect_mismatches(seed, scale) if workload == "transform" else 0
        metrics = tracing.layer_metrics(tracer, overhead_us, defects)
        units = dict(tracing.PER_LAYER)
        if write_out:
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{workload}.json", {"env": env, "metrics": metrics})
    attempted = sum(lane.attempted for lane in lanes)
    failed = sum(lane.failed for lane in lanes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    context = {
        "env": env,
        "failed_share": failed / attempted,
        "samples": lanes[-1].attempted,
        "elapsed_s": lanes[-1].elapsed,
        "first_failure": next((l.first_failure for l in lanes if l.first_failure), None),
    }
    if write_out:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"result-{workload}-trace{int(trace)}.json", "w") as fh:
            json.dump({"context": context, "result": result}, fh, indent=1)
    return {"result": result, "context": context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "transform", "workbench", "reduce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result, context = out["result"], out["context"]
    if context["first_failure"]:
        print(f"first failure:\n{context['first_failure']}", file=sys.stderr)
    print(f"failed {result['failed']} of {result['attempted']} attempted "
          f"(failed_share {context['failed_share']!r})")
    print(f"samples {context['samples']} in {context['elapsed_s']!r} s")
    print("env " + json.dumps(context["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
