"""Checks of the benchmark itself, on every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run as bench

bench._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from artifact import languages  # noqa: E402

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=7):
    out = bench.run_benchmark(workload, seed, 0.2, trace, scale=workloads.TINY,
                              write_out=False)
    return out["result"]


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_present_and_counts_repeat(workload):
    plain = _run(workload, trace=False)
    assert plain["attempted"] >= 1
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    first = _run(workload, trace=True)
    second = _run(workload, trace=True)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_sweep_is_correct_and_a_wrong_verdict_is_counted(monkeypatch):
    clean = _run("sweep", trace=False)
    assert clean["correct"] and clean["failed"] == 0
    truth = languages.membership
    monkeypatch.setattr(languages, "membership", lambda *a, **k: not truth(*a, **k))
    broken = _run("sweep", trace=False)
    assert not broken["correct"]
    assert broken["failed"] == broken["attempted"]


def test_an_op_that_raises_is_counted_not_fatal(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(languages, "membership", boom)
    result = _run("reduce", trace=False)
    assert 0 < result["failed"] < result["attempted"]  # the searches still pass
