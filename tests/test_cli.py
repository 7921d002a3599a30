import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import artifact
from artifact import cli, languages, protocols, twoparty, xorlb
from artifact.cli import main, parse_generator, parse_node_set
from artifact.engine import run
from artifact.graphs import (
    InvalidInstanceError,
    LabeledGraph,
    build_kpclp_path,
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


def test_simulate_long_non_bit_payload_error_is_short(capsys):
    # round 1 is broadcast but the protocol returns its neighbour dict of
    # several hundred bits per entry
    code = main(
        [
            "simulate", "--protocol", "special-disjointness",
            "--gen", "special-disjointness:n=1,x=0,y=0,b=0", "--schedule", "B",
        ]
    )
    assert code == 2
    line = capsys.readouterr().err.strip()
    assert "\n" not in line and len(line) < 200
    assert "round 1: node 1 produced a non-bit payload <dict of length 3>" in line


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


def test_simulate_random_without_size_is_an_error_exit(capsys):
    assert main(["simulate", "--protocol", "tomdf", "--gen", "random"]) == 2
    assert "random generator needs a size" in capsys.readouterr().err


def test_simulate_needs_exactly_one_source(capsys):
    assert main(["simulate", "--protocol", "tomdf"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("f_b_text, f_b", [("1.2+3.0", {1: 2, 3: 0}), ("1.0+3.2", {1: 0, 3: 2})])
def test_simulate_kpclp_map_entries(capsys, f_b_text, f_b):
    # entry t.v maps pointer t to v; the two halves split {0..3}
    spec = f"k-pclp:n=4,f_a=0.1+2.3,f_b={f_b_text}"
    g = build_kpclp_path({0: 1, 2: 3}, f_b, 4)
    assert parse_generator(spec) == g
    code = main(["simulate", "--protocol", "k-pclp:k=2", "--gen", spec])
    report = json.loads(capsys.readouterr().out)
    assert report["accept"] is languages.membership("k-pclp:k=2", g)
    assert code == (0 if report["accept"] else 1)


@pytest.mark.parametrize("f_a", ["0.1+2", "0.1+0.3", "0-1", "0.1.2", "a.1", ""])
def test_simulate_kpclp_malformed_map_is_an_error_exit(capsys, f_a):
    spec = f"k-pclp:n=4,f_a={f_a},f_b=1.2+3.0"
    assert main(["simulate", "--protocol", "k-pclp:k=2", "--gen", spec]) == 2
    assert "error:" in capsys.readouterr().err


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
    with pytest.raises(InvalidInstanceError):
        parse_generator("random")  # no size, positional or n=


def test_parse_node_set():
    nodes = tuple(range(1, 11))
    assert parse_node_set("1-4,9", nodes) == frozenset({1, 2, 3, 4, 9})
    assert parse_node_set("10", nodes) == frozenset({10})
    with pytest.raises(InvalidInstanceError):
        parse_node_set("11", nodes)
    with pytest.raises(InvalidInstanceError):
        parse_node_set("9-1", nodes)  # a reversed range is not an empty one


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


@pytest.mark.parametrize(
    "argv,alice,digest",
    [
        (["--protocol", "xor-index-path",
          "--gen", "xor-index-path:n=8,x=10110010,y=01100101,i=3,j=6",
          "--accounted", "1,7,8,9,10,11,17"],
         "1-9", "1334eff3597eb716c9c9da30217b13db"),
        (["--protocol", "one-marked-edge",
          "--gen", "clique-bridge:n=4,x=100000,y=000001,i=1,j=6"],
         "1-4,9,10", "90485bc2db01b20ca0e98bbad681e516"),
    ],
    ids=["xor-index-path", "clique-bridge"],
)
def test_reduce_takes_alice_from_the_gadget_cut(argv, alice, digest, capsys):
    outs = []
    for extra in ([], ["--alice", alice]):
        assert main(["reduce", *argv, *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert hashlib.md5(outs[0].encode()).hexdigest() == digest


@pytest.mark.parametrize("source", ["path", "special-disjointness", "instance"])
def test_reduce_without_a_built_in_cut_needs_alice(source, tmp_path, capsys):
    inst = tmp_path / "g.json"
    inst.write_text(marked_path("110").to_json())
    where = {
        "path": ["--gen", "path:3"],
        "special-disjointness": ["--gen", "special-disjointness:n=2,x=10,y=01,b=1"],
        "instance": ["--instance", str(inst)],
    }[source]
    assert main(["reduce", "--protocol", "one-marked-edge", *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alice" in captured.err


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


def test_bruteforce_output_does_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(artifact.__file__).resolve().parents[1])
    written = {}
    for seed in ("0", "12345"):
        out = tmp_path / f"search-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "artifact", "bruteforce",
             "--n", "2", "--ka", "1", "--kb", "0", "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        written[seed] = out.read_bytes()
    assert written["0"] == written["12345"]
    assert json.loads(written["0"])["min_error"] == "1/8"


def test_kkt_csv(capsys):
    code = main(["kkt", "--ra", "0.7", "--rb", "0.6"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "row,feasible,value,residual"
    assert len(lines) == 25
    assert "feasible=18/24" in captured.err


def test_kkt_rejects_bad_posteriors(capsys):
    assert main(["kkt", "--ra", "0.4", "--rb", "0.6"]) == 2
    capsys.readouterr()


def test_bound(capsys):
    assert main(["bound", "--n", "1000", "--eps", "0.2"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--n", "10", "--eps", "0.1", "--seed", "1"],
        ["bound", "--n", "10", "--eps", "0.1", "--out", "bound.txt"],
        ["cost", "--schedule", "L,B", "--seed", "1"],
        ["cost", "--schedule", "L,B", "--out", "cost.txt"],
        ["kkt", "--ra", "0.7", "--rb", "0.6", "--seed", "1"],
        ["kkt", "--ra", "0.7", "--rb", "0.6", "--grid-step", "0.05"],
        ["bruteforce", "--n", "1", "--ka", "0", "--kb", "0", "--seed", "1"],
        ["simulate", "--protocol", "one-marked-edge", "--gen", "path:3", "--seed", "1"],
        ["verify", "--only", "one-marked-edge", "--max-n", "2", "--seed", "1"],
        ["reduce", "--protocol", "one-marked-edge", "--gen", "path:3", "--alice", "1",
         "--seed", "1"],
        ["reduce", "--protocol", "one-marked-edge", "--gen", "path:3", "--alice", "1",
         "--bob", "2"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2][1:]}",
)
def test_commands_refuse_options_they_would_ignore(argv, capsys):
    # no command takes a run seed (every suite protocol is deterministic),
    # bound and cost print to stdout only, and reduce gives Bob the nodes
    # that --alice leaves
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cost(capsys):
    code = main(["cost", "--schedule", "L,B", "--a", "1", "--b", "1", "--c", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_search_too_large_is_an_error_exit(capsys):
    assert main(["bruteforce", "--n", "2", "--ka", "2", "--kb", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# package surface and determinism


@pytest.mark.parametrize("module", [artifact, twoparty, xorlb, cli], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


def test_importing_the_cli_skips_numpy():
    # numpy serves only the Monte-Carlo estimate, which imports it on call
    src = str(Path(artifact.__file__).resolve().parents[1])
    code = "import sys, artifact.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True, text=True,
    ).stdout
    assert out.strip() == "False"


def test_verify_output_does_not_depend_on_the_hash_seed():
    src = str(Path(artifact.__file__).resolve().parents[1])
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "artifact", "verify", "--max-n", "2"],
            env=env, capture_output=True, check=True,
        ).stdout
        assert hashlib.md5(out).hexdigest() == "6322a6ef602899fbf08fe42fba42e60a", seed


def test_transcript_file_does_not_depend_on_the_hash_seed(tmp_path):
    # L records travel as pickled bytes; the file shows them as bit strings
    src = str(Path(artifact.__file__).resolve().parents[1])
    written = {}
    for seed in ("0", "12345"):
        out = tmp_path / f"t-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "artifact", "simulate", "--protocol", "disj-on-path",
             "--gen", "disj-on-path:n=3,x=101,y=010",
             "--transcript", str(out), "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        written[seed] = out.read_bytes()
    assert written["0"] == written["12345"]
    assert hashlib.md5(written["0"]).hexdigest() == "2eaad1f9c7803575df35a3952a97bb98"
