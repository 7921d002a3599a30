import json
import re

import pytest

from artifact import languages, protocols
from artifact.cli import main, parse_generator, parse_node_set
from artifact.engine import run
from artifact.graphs import (
    InvalidInstanceError,
    LabeledGraph,
    enumerate_small_instances,
    marked_path,
)
from artifact.protocols import proto_registry


def test_simulate_accepting_instance(capsys):
    code = main(
        ["simulate", "--protocol", "one-marked-edge", "--gen", "path:3:marks=110"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accept"] is True
    assert report["rejectors"] == []
    assert report["schedule"] == "C,B"
    assert report["n"] == 3


def test_simulate_rejecting_instance(capsys):
    code = main(["simulate", "--protocol", "tomdf", "--gen", "clique:3"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["accept"] is False
    assert report["rejectors"] == [1, 2, 3]


def test_simulate_bandwidth_override_fails_loudly(capsys):
    code = main(
        [
            "simulate", "--protocol", "one-marked-edge",
            "--gen", "path:3:marks=110", "--bandwidth", "1",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_schedule_override(capsys):
    code = main(
        [
            "simulate", "--protocol", "one-marked-edge",
            "--gen", "path:3:marks=110", "--schedule", "C,B,B",
        ]
    )
    assert code in (0, 1)  # extra silent round; the report must reflect it
    assert json.loads(capsys.readouterr().out)["schedule"] == "C,B^2"


def test_simulate_writes_transcript(tmp_path, capsys):
    t_file = tmp_path / "transcript.csv"
    code = main(
        [
            "simulate", "--protocol", "one-marked-edge",
            "--gen", "path:3:marks=110", "--transcript", str(t_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert t_file.read_text().startswith("round,kind,sender,receiver,bits")


def test_simulate_from_instance_file(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(marked_path("110").to_json())
    assert main(["simulate", "--protocol", "one-marked-edge", "--instance", str(inst)]) == 0
    capsys.readouterr()


def test_simulate_rejects_bad_instance_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--protocol", "one-marked-edge", "--instance", str(bad)]) == 2
    capsys.readouterr()


def test_simulate_needs_exactly_one_source(capsys):
    assert main(["simulate", "--protocol", "tomdf"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("ARTIFACT_SEED", "7")
    main(["simulate", "--protocol", "tomdf", "--gen", "path:3"])
    assert json.loads(capsys.readouterr().out)["seed"] == 7


# ---------------------------------------------------------------------------
# generator mini-language


def test_parse_generator_shapes():
    assert parse_generator("path:4").n == 4
    assert parse_generator("cycle:5").n == 5
    assert parse_generator("clique:3").n == 3
    assert parse_generator("path:3:marks=110") == marked_path("110")
    assert parse_generator("path:marks=110") == marked_path("110")


def test_parse_generator_random_is_seeded():
    assert parse_generator("random:8:seed=3") == parse_generator("random:8:seed=3")
    assert parse_generator("random:8:seed=3") != parse_generator("random:8:seed=4")


def test_parse_generator_gadgets():
    g = parse_generator("xor-index-path:n=2,x=10,y=01,i=1,j=2")
    assert g.n == 5
    rows = parse_generator("disj-on-clique:rows=101+011+110")
    assert rows.n == 3


def test_parse_generator_errors():
    with pytest.raises(InvalidInstanceError):
        parse_generator("path:4:marks=110")  # size disagrees with marks
    with pytest.raises(InvalidInstanceError):
        parse_generator("path")
    with pytest.raises(InvalidInstanceError):
        parse_generator("mystery:3")
    with pytest.raises(InvalidInstanceError):
        parse_generator("path:3:wibble=1")


def test_parse_node_set():
    nodes = tuple(range(1, 11))
    assert parse_node_set("1-4,9", nodes) == frozenset({1, 2, 3, 4, 9})
    assert parse_node_set("10", nodes) == frozenset({10})
    with pytest.raises(InvalidInstanceError):
        parse_node_set("11", nodes)


# ---------------------------------------------------------------------------
# remaining commands


def test_verify_single_family(capsys):
    code = main(["verify", "--only", "xor-index-path", "--max-n", "2"])
    assert code == 0
    assert "xor-index-path: 64/64 agree" in capsys.readouterr().out


@pytest.mark.parametrize("wrong", ["inverted", "rejects-all"])
def test_verify_prints_first_counterexample(capsys, monkeypatch, wrong):
    real = languages.membership
    fake = (lambda lang, g: not real(lang, g)) if wrong == "inverted" else (lambda lang, g: False)
    monkeypatch.setattr(protocols, "membership", fake)
    code = main(["verify", "--only", "xor-index-path", "--max-n", "2"])
    assert code == 1
    line, = capsys.readouterr().out.splitlines()
    head, _, text = line.partition("; first counterexample ")
    assert re.fullmatch(r"xor-index-path: \d+/64 agree", head)
    g = LabeledGraph.from_json(text)
    assert g.to_json() == text
    named = proto_registry("xor-index-path")

    def disagrees(h):
        return run(named.protocol, h, named.schedule).verdict.accept != fake(named.language, h)

    assert disagrees(g)
    assert g == next(h for h in enumerate_small_instances(named.family, 2) if disagrees(h))
    if wrong == "inverted":
        assert head == "xor-index-path: 0/64 agree"


def test_reduce_reports_totals(capsys):
    code = main(
        [
            "reduce", "--protocol", "xor-index-path",
            "--gen", "xor-index-path:n=2,x=10,y=01,i=1,j=2",
            "--alice", "1-3",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == sum(report["per_round"])
    assert len(report["alice_to_bob"]) == len(report["bob_to_alice"])


def test_bruteforce_prints_fraction(capsys):
    assert main(["bruteforce", "--n", "1", "--ka", "0", "--kb", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_bruteforce_json_out(tmp_path, capsys):
    out = tmp_path / "search.json"
    main(["bruteforce", "--n", "1", "--ka", "1", "--kb", "1", "--out", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["min_error"] == "0/1"


def test_bruteforce_two_bit_budget_at_n2(tmp_path, capsys):
    out = tmp_path / "search.json"
    code = main(["bruteforce", "--n", "2", "--ka", "1", "--kb", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0/1"
    assert json.loads(out.read_text())["min_error"] == "0/1"


def test_kkt_csv(capsys):
    code = main(["kkt", "--ra", "0.7", "--rb", "0.6", "--grid-step", "0.05"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "row,feasible,value,residual"
    assert len(lines) == 25
    assert "feasible=18/24" in captured.err


@pytest.mark.parametrize("step", ["1e-320", "0.001"])
def test_kkt_fine_grid_step(step, capsys):
    # the corner maximum does not depend on the step: no lattice size is
    # derived from it, so a tiny step neither overflows nor scans 10^12 points
    code = main(["kkt", "--ra", "0.7", "--rb", "0.6", "--grid-step", step])
    assert code == 0
    grid = re.search(r"grid=(\S+)", capsys.readouterr().err).group(1)
    assert float(grid) == pytest.approx(0.7, abs=1e-12)


def test_kkt_rejects_bad_posteriors(capsys):
    assert main(["kkt", "--ra", "0.4", "--rb", "0.6"]) == 2
    capsys.readouterr()


def test_bound(capsys):
    assert main(["bound", "--n", "1000", "--eps", "0.2"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cost(capsys):
    code = main(["cost", "--schedule", "L,B", "--a", "1", "--b", "1", "--c", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_search_too_large_is_an_error_exit(capsys):
    assert main(["bruteforce", "--n", "2", "--ka", "2", "--kb", "2"]) == 2
    assert "error:" in capsys.readouterr().err
