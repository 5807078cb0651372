import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soficlab
from soficlab import almosthom, cli
from soficlab.backends import zpower_backend
from soficlab.balls import ball
from soficlab.cli import build_parser, main
from soficlab.config import ResourceLimits
from soficlab.errors import MalformedCertificateError, ResourceCapError
from soficlab.metrics import Permutation, UnitaryMatrix


def run(argv):
    return main([str(a) for a in argv])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_ball_stats(capsys):
    assert run(["ball", "--family", "free", "--radius", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == 17
    assert doc["by_length"] == {"0": 1, "1": 4, "2": 12} or doc["by_length"] == {
        0: 1,
        1: 4,
        2: 12,
    }


def test_ball_counts_non_free_products_within_the_double_ball(capsys, monkeypatch):
    # the products of B_N are walked through B_2N, which the ball cap bounds
    monkeypatch.setenv("SOFICLAB_BALL_CAP", "100")
    assert run(["ball", "--family", "z", "--radius", "30"]) == 2  # |B_60| = 121
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds cap of 100 elements" in err
    assert "Traceback" not in err
    assert run(["ball", "--family", "z", "--radius", "20"]) == 0  # |B_40| = 81
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == 41
    assert doc["products_defined"] == len(ball(zpower_backend(1), 20).products)


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
@pytest.mark.parametrize("name", ["SOFICLAB_BALL_CAP", "SOFICLAB_RANK_CAP",
                                  "SOFICLAB_PRIME_CEILING"])
def test_env_caps_must_be_positive_integers(name, value, capsys, monkeypatch):
    monkeypatch.setenv(name, value)
    message = f"{name} must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError) as exc:
        ResourceLimits.from_env()
    assert str(exc.value) == message
    assert run(["ball", "--family", "z", "--radius", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_malformed_cap_fails_verify_before_the_file_is_read(tmp_path, capsys):
    # the file does not exist, so reading it first would give an i/o error
    with mock.patch.dict(os.environ, {"SOFICLAB_BALL_CAP": "abc"}):
        assert run(["verify", tmp_path / "missing.json", "--eps", "1", "--delta", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: SOFICLAB_BALL_CAP must be an integer >= 1, got 'abc'\n")


def test_certify_verify_pipeline(tmp_path, capsys):
    cert = tmp_path / "z.json"
    assert run(["certify", "--family", "z", "--folner", "100", "--radius", "2",
                "-o", cert]) == 0
    assert run(["verify", cert, "--eps", "1e-9", "--delta", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["defect"] == 0.0 and report["separation"] == 1.0


def test_verify_tampered_certificate_exits_1(tmp_path, capsys):
    cert = tmp_path / "z.json"
    run(["certify", "--family", "z", "--folner", "10", "--radius", "2", "-o", cert])
    doc = json.loads(cert.read_text())
    perm = doc["map"]["a"]
    perm[0], perm[1] = perm[1], perm[0]  # hand-corrupt one image
    cert.write_text(json.dumps(doc))
    assert run(["verify", cert, "--eps", "1e-9", "--delta", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    assert report["worst_defect_pair"] is not None


def test_verify_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert run(["verify", bad, "--eps", "1e-9", "--delta", "1"]) == 2
    bad.write_text(json.dumps({"schema": "other"}))
    assert run(["verify", bad, "--eps", "1e-9", "--delta", "1"]) == 2
    assert run(["verify", tmp_path / "missing.json", "--eps", "1", "--delta", "0"]) == 2


@pytest.mark.parametrize("eps,delta", [("nan", "1"), ("inf", "1"), ("1e-9", "nan"),
                                       ("1e-9", "inf"), ("0", "1")])
def test_verify_malformed_thresholds_exit_2_without_a_report(tmp_path, capsys, eps, delta):
    cert, report = tmp_path / "z.json", tmp_path / "report.json"
    assert run(["certify", "--family", "z", "--folner", "10", "--radius", "2",
                "-o", cert]) == 0
    capsys.readouterr()
    assert run(["verify", cert, "--eps", eps, "--delta", delta, "-o", report]) == 2
    assert run(["verify", cert, "--eps", eps, "--delta", delta]) == 2
    out, err = capsys.readouterr()
    assert not report.exists() and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("eps,delta", [("nan", "1"), ("1e-9", "inf")])
def test_verify_checks_thresholds_before_loading(tmp_path, monkeypatch, eps, delta):
    def load_certificate(*args, **kwargs):
        raise AssertionError("load_certificate called")

    monkeypatch.setattr(almosthom, "load_certificate", load_certificate)
    assert run(["verify", tmp_path / "cert.json", "--eps", eps, "--delta", delta]) == 2


def test_paradox_over_the_ball_cap_exits_2(capsys):
    assert run(["paradox", "--radius", "13"]) == 2
    assert "ball at radius 12 exceeds cap of" in capsys.readouterr().err


def test_certify_free_and_graph_round_trip(tmp_path, capsys):
    cert = tmp_path / "free.json"
    graph = tmp_path / "g.json"
    assert run(["certify", "--family", "free", "--radius", "1", "-o", cert]) == 0
    assert run(["graph", cert, "-o", graph]) == 0
    assert run(["match-fraction", graph, "--family", "free", "--radius", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fraction"] == 1.0
    dot = tmp_path / "g.dot"
    assert run(["graph", cert, "-o", dot]) == 0
    assert dot.read_text().startswith("digraph")


def test_to_unitary_and_amplify(tmp_path, capsys):
    cert = tmp_path / "z.json"
    ucert = tmp_path / "zu.json"
    amped = tmp_path / "za.json"
    run(["certify", "--family", "z", "--folner", "4", "--radius", "1", "-o", cert])
    assert run(["to-unitary", cert, "-o", ucert]) == 0
    assert run(["amplify", ucert, "--times", "1", "-o", amped]) == 0
    doc = json.loads(amped.read_text())
    assert doc["target"] == {"kind": "unitary", "n": 16}
    # rank cap: 16^(2^2) = 65536 > 256
    assert run(["amplify", amped, "--times", "2", "-o", tmp_path / "x.json"]) == 2


def test_certify_requires_folner_for_amenable(tmp_path):
    assert run(["certify", "--family", "z", "--radius", "1",
                "-o", tmp_path / "x.json"]) == 2


def test_folner_command(capsys):
    assert run(["folner", "--family", "heisenberg", "-L", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 256
    assert doc["generator_defect"] == doc["reiter_norm_max"]


def test_hall_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"left_count": 1, "right_count": 2, "adjacency": [[0, 1]]}))
    assert run(["hall", good]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"left_count": 1, "right_count": 1, "adjacency": [[0]]}))
    assert run(["hall", bad]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] == [0]


def test_hall_sizes_its_flow_by_the_adjacent_right_vertices(tmp_path, capsys):
    """Right vertices no edge reaches change nothing, so a right count of
    2^70 gives the report of the same edges with no such vertex; the flow's
    lists were sized by the count, which raised OverflowError."""
    reports = []
    for right_count in (4, 2**70):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(
            {"left_count": 2, "right_count": right_count, "adjacency": [[0, 1], [1, 2, 3]]}))
        assert run(["hall", graph]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_hall_sorts_deduplicates_and_range_checks_json_rows(tmp_path, capsys):
    """Only rows given strictly increasing are kept as they are: unsorted or
    repeated neighbours give the report of their sorted distinct rows, and a
    neighbour out of range is refused wherever it stands in its row."""
    graph = tmp_path / "graph.json"
    reports = []
    for adjacency in ([[0, 1], [1, 2, 3]], [[1, 0, 1], [3, 2, 1]], [[0, 0, 1], [1, 3, 3, 2]]):
        graph.write_text(json.dumps({"left_count": 2, "right_count": 4, "adjacency": adjacency}))
        assert run(["hall", graph]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    for row in ([4, 0], [0, 4], [-1, 0], [0, -1], [1, 1, 4], [2, 2, -1]):
        graph.write_text(json.dumps({"left_count": 1, "right_count": 4, "adjacency": [row]}))
        assert run(["hall", graph]) == 2
        assert capsys.readouterr().err == "malformed: neighbour index out of range\n"


def test_paradox_commands(capsys):
    assert run(["paradox", "--radius", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["partition_ok"]
    assert run(["paradox", "--radius", "2", "--spread", "1"]) in (0, 1)


def test_demo_sinfty(capsys):
    assert run(["demo", "sinfty", "--k", "3"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["0.1875", "0.5625"]


def test_demo_sinfty_respects_the_ball_cap(capsys, monkeypatch):
    # 2^k is an exact integer, so k counts against the point cap before it is built
    assert run(["demo", "sinfty", "--k", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k = 100000000000 exceeds the point cap 1000000" in err
    assert "Traceback" not in err
    monkeypatch.setenv("SOFICLAB_BALL_CAP", "50")
    assert run(["demo", "sinfty", "--k", "51"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k = 51 exceeds the point cap 50" in captured.err
    assert run(["demo", "sinfty", "--k", "50"]) == 0


def test_amplify_refuses_large_times_at_once(tmp_path, capsys, monkeypatch):
    # the steps are held to the iteration cap and the rank squared stepwise,
    # so neither 4^(2^40) nor 10^9 squarings of a rank-1 image is attempted
    monkeypatch.setenv("SOFICLAB_RANK_CAP", "16")
    for side, times, message in ((4, 40, "amplified rank 256 exceeds cap 16"),
                                 (1, 10**9, "1000000000 amplification steps exceed cap 200")):
        cert, unitary = tmp_path / f"z{side}.json", tmp_path / f"z{side}_unitary.json"
        assert run(["certify", "--family", "z", "--folner", side, "--radius", "1",
                    "-o", cert]) == 0
        assert run(["to-unitary", cert, "-o", unitary]) == 0
        capsys.readouterr()
        assert run(["amplify", unitary, "--times", times, "-o", tmp_path / "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_demo_amplify_deterministic(capsys):
    assert run(["demo", "amplify", "--rank", "2", "--pairs", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["demo", "amplify", "--rank", "2", "--pairs", "3", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert len(doc["pairs"]) == 3


def test_demo_amplify_respects_the_rank_cap(capsys):
    # the tensor square of a rank-17 unitary has rank 289 > 256
    assert run(["demo", "amplify", "--rank", "17", "--pairs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "rank 289 exceeds cap 256" in captured.err
    assert run(["demo", "amplify", "--rank", "16", "--pairs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["output_rank"] == 256


@pytest.mark.parametrize("argv,code,err", [
    (["--pairs", "0"], 2, "error: at least one pair required\n"),
    (["--pairs", "-3"], 2, "error: at least one pair required\n"),
    (["--rank", "0"], 2, "error: rank of at least 1 required\n"),
    (["--rank", "-2"], 2, "error: rank of at least 1 required\n"),
    (["--rank", "1"], 0, ""),
])
def test_demo_amplify_degenerate_arguments(capsys, argv, code, err):
    # a refused argument is refused before any unitary is drawn
    drawn = mock.patch("soficlab.metrics.random_unitaries", side_effect=AssertionError("drawn"))
    with drawn if code else contextlib.nullcontext():
        assert run(["demo", "amplify", *argv]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        doc = json.loads(captured.out)
        assert (doc["input_rank"], doc["output_rank"], len(doc["pairs"])) == (1, 1, 10)
    else:
        assert captured.out == ""


def test_demo_amplify_holds_the_drawn_entries_to_the_ball_cap(capsys, monkeypatch):
    # 2 * pairs * rank^2 Gaussian entries are drawn, checked before any is
    with mock.patch("soficlab.metrics.random_unitaries", side_effect=AssertionError("drawn")):
        assert run(["demo", "amplify", "--rank", "2", "--pairs", "100000000000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: 800000000000 drawn entries exceed the ball cap 1000000\n"
        monkeypatch.setenv("SOFICLAB_BALL_CAP", "64")
        assert run(["demo", "amplify", "--rank", "2", "--pairs", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "72 drawn entries exceed the ball cap 64" in captured.err
    assert run(["demo", "amplify", "--rank", "2", "--pairs", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["pairs"]) == 8


def test_certify_finite_family(tmp_path, capsys):
    table = tmp_path / "c5.json"
    table.write_text(json.dumps({
        "order": 5,
        "table": [[(i + j) % 5 for j in range(5)] for i in range(5)],
        "identity": 0,
        "generators": [1],
    }))
    cert = tmp_path / "c5cert.json"
    assert run(["certify", "--family", "finite", "--table", table,
                "--radius", "2", "-o", cert]) == 0
    assert run(["verify", cert, "--eps", "1e-9", "--delta", "0.1"]) == 0


def _z_certificate(tmp_path, unitary=False):
    cert = tmp_path / "z.json"
    run(["certify", "--family", "z", "--folner", "10", "--radius", "2", "-o", cert])
    if unitary:
        run(["to-unitary", cert, "-o", cert])
    return cert, json.loads(cert.read_text())


def _assert_verify_malformed(cert, doc, capsys):
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", cert, "--eps", "1e-9", "--delta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("malformed:")
    assert captured.out == ""


def test_verify_float_permutation_entry_is_malformed(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path)
    doc["map"]["a"][0] = doc["map"]["a"][0] + 0.3  # int() would round it back
    _assert_verify_malformed(cert, doc, capsys)


@pytest.mark.parametrize("entry", [2**40, -1, 10])
def test_verify_out_of_range_permutation_entry_is_malformed(tmp_path, capsys, entry):
    # 2**40 does not fit the int32 image rows; -1 and 10 break the bijection
    cert, doc = _z_certificate(tmp_path)
    doc["map"]["a"][0] = entry
    _assert_verify_malformed(cert, doc, capsys)


def test_verify_nan_unitary_entry_is_malformed(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path, unitary=True)
    doc["map"]["a"][0][0] = float("nan")
    _assert_verify_malformed(cert, doc, capsys)


def test_verify_map_given_as_a_list_is_malformed(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path)
    doc["map"] = list(doc["map"].values())
    _assert_verify_malformed(cert, doc, capsys)


def test_verify_aliased_map_keys_are_malformed(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path)
    doc["map"]["a a'"] = doc["map"][""]  # another spelling of the identity
    _assert_verify_malformed(cert, doc, capsys)


def test_verify_non_numeric_claim_is_malformed(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path)
    doc["claimed_defect"] = "small"
    _assert_verify_malformed(cert, doc, capsys)
    doc["claimed_defect"] = 0.0
    doc["claimed_separation"] = {"value": 1}
    _assert_verify_malformed(cert, doc, capsys)


C3_TABLE = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0,
            "generators": [1]}
CYCLE_GRAPH = {"vertexCount": 3, "colors": ["a"], "successors": {"a": [1, 2, 0]}}
HALL_GRAPH = {"left_count": 1, "right_count": 2, "adjacency": [[0, 1]]}


def _assert_malformed_input(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("malformed:")
    assert captured.out == ""


def test_finite_table_float_entry_is_malformed(tmp_path, capsys):
    table = tmp_path / "c3.json"
    cert = tmp_path / "c3cert.json"
    table.write_text(json.dumps(C3_TABLE))
    assert run(["certify", "--family", "finite", "--table", table, "--radius", "1",
                "-o", cert]) == 0
    doc = json.loads(table.read_text())
    doc["table"][2][2] = 1.7  # int() would truncate it to a valid entry
    table.write_text(json.dumps(doc))
    _assert_malformed_input(["certify", "--family", "finite", "--table", table,
                             "--radius", "1", "-o", tmp_path / "x.json"], capsys)
    # the same table read back as a certificate's group descriptor
    doc = json.loads(cert.read_text())
    doc["group"]["table"][2][2] = 1.7
    cert.write_text(json.dumps(doc))
    _assert_malformed_input(["verify", cert, "--eps", "1e-9", "--delta", "1"], capsys)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("identity"),
    lambda d: d.update(identity="0"),
    lambda d: d.update(order=3.0),
    lambda d: d.update(generators=[True]),
    lambda d: d.update(table=[[0, 1, 2], [1, 2, 0], [2, 0]]),  # ragged
    lambda d: d.update(table=[[0, 1, 2], [1, 2, 0], [2, 1, 0]]),  # not a group
], ids=["missing-identity", "string-identity", "float-order", "bool-generator",
        "ragged", "not-a-group"])
def test_finite_table_structure_is_malformed(tmp_path, capsys, mutate):
    doc = json.loads(json.dumps(C3_TABLE))
    mutate(doc)
    table = tmp_path / "t.json"
    table.write_text(json.dumps(doc))
    _assert_malformed_input(["certify", "--family", "finite", "--table", table,
                             "--radius", "1", "-o", tmp_path / "x.json"], capsys)


@pytest.mark.parametrize("mutate", [
    lambda d: d["successors"]["a"].__setitem__(0, True),  # would be used as 1
    lambda d: d["successors"]["a"].__setitem__(0, 1.0),
    lambda d: d.pop("successors"),
    lambda d: d.update(vertexCount="3"),
    lambda d: d.update(colors="a"),
    lambda d: d["successors"]["a"].__setitem__(0, 7),  # out of range
    lambda d: d["successors"]["a"].__setitem__(0, -1),  # null marks a missing edge
    lambda d: d["successors"]["a"].__setitem__(0, 2**70),  # beyond int64
    lambda d: d.update(colors=["a", "a"]),
], ids=["bool-successor", "float-successor", "missing-successors", "string-count",
        "string-colors", "out-of-range", "negative", "beyond-int64", "duplicate-colour"])
def test_match_fraction_graph_structure_is_malformed(tmp_path, capsys, mutate):
    doc = json.loads(json.dumps(CYCLE_GRAPH))
    mutate(doc)
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    _assert_malformed_input(["match-fraction", graph, "--family", "z", "--radius", "1"],
                            capsys)


@pytest.mark.parametrize("mutate", [
    lambda d: d["adjacency"][0].__setitem__(1, 1.0),
    lambda d: d.pop("adjacency"),
    lambda d: d.update(left_count=True),
    lambda d: d["adjacency"][0].__setitem__(1, 5),  # out of range
], ids=["float-neighbour", "missing-adjacency", "bool-count", "out-of-range"])
def test_hall_graph_structure_is_malformed(tmp_path, capsys, mutate):
    doc = json.loads(json.dumps(HALL_GRAPH))
    mutate(doc)
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps(doc))
    _assert_malformed_input(["hall", graph], capsys)


def test_list_documents_are_malformed(tmp_path, capsys):
    doc = tmp_path / "list.json"
    doc.write_text("[1, 2]")
    _assert_malformed_input(["certify", "--family", "finite", "--table", doc,
                             "--radius", "1", "-o", tmp_path / "x.json"], capsys)
    _assert_malformed_input(["match-fraction", doc, "--family", "z", "--radius", "1"], capsys)
    _assert_malformed_input(["hall", doc], capsys)


# per command: a valid input, one of its keys, a value for that key that the
# command refuses, and the argv that reads the input from `path`
JSON_INPUTS = {
    "table": (C3_TABLE, "identity", 5, lambda path, tmp_path: [
        "certify", "--family", "finite", "--table", path, "--radius", "1",
        "-o", tmp_path / "x.json"]),
    "match-fraction": (CYCLE_GRAPH, "vertexCount", 7, lambda path, tmp_path: [
        "match-fraction", path, "--family", "z", "--radius", "1"]),
    "hall": (HALL_GRAPH, "left_count", 9, lambda path, tmp_path: ["hall", path]),
}


@pytest.mark.parametrize("defect", ["duplicate-key", "truncated", "too-deep"])
@pytest.mark.parametrize("command", sorted(JSON_INPUTS))
def test_json_inputs_are_read_strictly(tmp_path, capsys, command, defect):
    """A repeated key is refused even when its last value is the valid one,
    and text that is not JSON is malformed, not an i/o error or a traceback."""
    doc, key, refused, argv = JSON_INPUTS[command]
    path = tmp_path / "input.json"
    argv = argv(path, tmp_path)
    text = json.dumps(doc)
    path.write_text(text)
    assert run(argv) == 0
    path.write_text({"duplicate-key": f'{{"{key}": {refused}, {text[1:]}',
                     "truncated": text[:-1],
                     "too-deep": "[" * 100_000}[defect])
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    message = "duplicate key" if defect == "duplicate-key" else "not valid JSON"
    assert captured.err.startswith(f"malformed: {message}") and captured.out == ""


def test_to_unitary_over_the_rank_cap_exits_2(tmp_path, capsys):
    cert = tmp_path / "z.json"
    assert run(["certify", "--family", "z", "--folner", "300", "--radius", "1",
                "-o", cert]) == 0
    capsys.readouterr()
    assert run(["to-unitary", cert, "-o", tmp_path / "zu.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rank 300 exceeds cap 256" in err
    assert "Traceback" not in err
    assert not (tmp_path / "zu.json").exists()


def test_folner_boxes_over_the_ball_cap_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOFICLAB_BALL_CAP", "5000")
    cert = tmp_path / "z.json"
    for argv, size in ((["folner", "--family", "heisenberg", "-L", "100000"], 10**20),
                       (["certify", "--family", "z", "--folner", "1000000000",
                         "--radius", "1", "-o", cert], 10**9)):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{size} points exceeds cap of 5000" in err
        assert "Traceback" not in err
    assert not cert.exists()
    assert run(["folner", "--family", "z2", "-L", "70"]) == 0  # 4900 points


def test_unitary_rank_over_the_cap_is_rejected_before_the_images(tmp_path, capsys):
    cert, doc = _z_certificate(tmp_path, unitary=True)
    doc["target"]["n"] = 257
    with pytest.raises(ResourceCapError, match="rank 257"):
        almosthom.certificate_from_json(doc)
    with mock.patch.dict(os.environ, {"SOFICLAB_RANK_CAP": "257"}), \
            pytest.raises(MalformedCertificateError, match="66049 entries"):  # 257^2
        almosthom.certificate_from_json(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", cert, "--eps", "1e-9", "--delta", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_certificate_pipeline_builds_no_per_element_objects(tmp_path, capsys):
    built = {"Permutation": 0, "UnitaryMatrix": 0}

    def counting(cls):
        original = cls.__post_init__

        def post_init(self):
            built[cls.__name__] += 1
            original(self)
        return mock.patch.object(cls, "__post_init__", post_init)

    cert, unitary, amplified = (tmp_path / f"{name}.json" for name in ("z", "zu", "za"))
    with counting(Permutation), counting(UnitaryMatrix):
        assert run(["certify", "--family", "z", "--folner", "8", "--radius", "2",
                    "-o", cert]) == 0
        assert run(["verify", cert, "--eps", "1e-9", "--delta", "1"]) == 0
        assert run(["to-unitary", cert, "-o", unitary]) == 0
        assert run(["verify", unitary, "--eps", "1e-9", "--delta", "1.4"]) == 0
        assert run(["amplify", unitary, "--times", "1", "-o", amplified]) == 0
        assert run(["verify", amplified, "--eps", "1e-9", "--delta", "1.4"]) == 0
        assert run(["graph", cert, "-o", tmp_path / "g.json"]) == 0
    assert built == {"Permutation": 0, "UnitaryMatrix": 0}
    assert isinstance(almosthom.load_certificate(amplified).hom.images, np.ndarray)


def test_rotation_certificate_is_exact_to_rounding(tmp_path, capsys):
    # Z -> U(2), k -> rotation by 0.7 k: a homomorphism, so the defect is
    # rounding only, which the trace formula's sqrt would blow up to ~1e-8
    domain = ball(zpower_backend(1), 3)
    angles = [0.7 * k for (k,) in domain.elements]
    images = np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in angles])
    cert = almosthom.measured_certificate(almosthom.AlmostHom(domain, "unitary", 2, images))
    assert cert.claimed_defect <= 1e-12
    path = tmp_path / "rotation.json"
    almosthom.save_certificate(cert, path)
    capsys.readouterr()
    assert run(["verify", path, "--eps", "1e-9", "--delta", "0.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["defect"] <= 1e-12


@pytest.mark.parametrize("rank", [1, 3])
def test_certify_free_refuses_other_ranks(tmp_path, capsys, rank):
    cert = tmp_path / "free.json"
    assert run(["certify", "--family", "free", "--rank", rank, "--radius", "1", "-o", cert]) == 2
    assert "rank 2" in capsys.readouterr().err
    assert not cert.exists()


@pytest.mark.parametrize("rank", [0, -1])
def test_ball_free_rank_below_one_exits_2(capsys, rank):
    assert run(["ball", "--family", "free", "--rank", rank, "--radius", "2"]) == 2
    assert "rank must be >= 1" in capsys.readouterr().err


def test_paradox_spread_zero_exits_2(capsys):
    assert run(["paradox", "--radius", "3", "--spread", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_2(unbuffered):
    """`ball` printing into a pipe whose reader has already closed exits 2
    with an i/o error, with stdout block-buffered (the default for a pipe)
    or unbuffered, and nothing more is reported at interpreter exit."""
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "soficlab.cli", "ball", "--family", "free", "--radius", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("i/o error:") and err.count("\n") == 1, err


# Runs one command through main() in a fresh interpreter, then writes its exit
# code and the soficlab modules (and numpy.random and fractions) it
# loaded as the last line of stderr.
FOOTPRINT = """
import json, sys
from soficlab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules
                if m in ("numpy.random", "fractions") or m.split(".")[0] == "soficlab")
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def _footprint(*argv):
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded)


def test_version_loads_only_the_cli_and_errors():
    assert _footprint("--version") == (0, {"soficlab", "soficlab.cli", "soficlab.errors"})


@pytest.mark.parametrize("argv", [
    ["verify", "z_unitary.json", "--eps", "1e-9", "--delta", "1"],
    ["to-unitary", "z.json", "-o", "out.json"],
    ["amplify", "z_unitary.json", "--times", "1", "-o", "out.json"],
    ["verify", "out.json", "--eps", "1e-9", "--delta", "1"],
])
def test_unitary_commands_load_neither_fractions_nor_metrics(argv, tmp_path, monkeypatch):
    """Permutation-matrix certificates are held, squared and scanned as int32
    columns: no exact Fraction and no dense unitarity check is needed."""
    monkeypatch.chdir(tmp_path)
    _z_certificate(tmp_path)
    assert run(["to-unitary", "z.json", "-o", "z_unitary.json"]) == 0
    assert run(["amplify", "z_unitary.json", "--times", "1", "-o", "out.json"]) == 0
    code, loaded = _footprint(*argv)
    assert code == 0
    assert not loaded & {"fractions", "soficlab.metrics"}


def test_verify_loads_only_the_certificate_layers(tmp_path):
    cert, _ = _z_certificate(tmp_path)
    code, loaded = _footprint("verify", cert, "--eps", "1e-9", "--delta", "1")
    assert code == 0 and "soficlab.almosthom" in loaded
    assert not loaded & {"numpy.random", "soficlab.matching", "soficlab.graphs",
                         "soficlab.amenability"}


@pytest.mark.parametrize("argv,used,unused", [
    (["certify", "--family", "z", "--folner", "4", "--radius", "1"],
     "soficlab.amenability", {"soficlab.sl2", "soficlab.amplify"}),
    (["certify", "--family", "free", "--radius", "1"],
     "soficlab.sl2", {"soficlab.amenability", "soficlab.amplify"}),
    (["to-unitary", "z.json"],
     "soficlab.constructions", {"soficlab.sl2", "soficlab.amenability"}),
])
def test_constructions_load_only_the_layers_they_call(argv, used, unused, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _z_certificate(tmp_path)
    code, loaded = _footprint(*argv, "-o", "out.json")
    assert code == 0 and used in loaded
    assert not loaded & unused


def test_paradox_loads_no_certificate_layer():
    code, loaded = _footprint("paradox", "--radius", "3")
    assert code == 0 and "soficlab.amenability" in loaded
    assert not loaded & {"soficlab.almosthom", "soficlab.metrics"}


@pytest.mark.parametrize("argv,used,unused", [
    (["match-fraction", "z_graph.json", "--family", "z", "--radius", "2"],
     "soficlab.graphs", {"soficlab.almosthom", "soficlab.metrics"}),
    (["folner", "--family", "heisenberg", "-L", "4"],
     "soficlab.amenability", {"soficlab.almosthom", "soficlab.balls"}),
])
def test_checks_load_no_certificate_layer(argv, used, unused, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cert, _ = _z_certificate(tmp_path)
    assert run(["graph", cert, "-o", "z_graph.json"]) == 0
    code, loaded = _footprint(*argv)
    assert code == 0 and used in loaded
    assert not loaded & unused


@pytest.mark.parametrize("argv,draws", [
    (["demo", "amplify", "--rank", "2", "--pairs", "1"], True),
    (["demo", "sinfty", "--k", "3"], False),
    (["ball", "--family", "free", "--radius", "2"], False),
    (["folner", "--family", "z", "-L", "4"], False),
    (["paradox", "--radius", "3", "--spread", "2"], False),
])
def test_only_demo_amplify_loads_numpy_random(argv, draws):
    code, loaded = _footprint(*argv)
    assert code == 0 and ("numpy.random" in loaded) == draws


def test_verify_reads_utf8_under_the_c_locale(tmp_path):
    """JSON text is UTF-8: a certificate whose provenance is raw non-ASCII
    text verifies in a fresh interpreter under the C locale, with locale
    coercion and UTF-8 mode off (it was `malformed: not valid JSON: 'ascii'
    codec can't decode ...` when files were read in the locale's encoding)."""
    cert = tmp_path / "z.json"
    assert run(["certify", "--family", "z", "--folner", "4", "--radius", "1", "-o", cert]) == 0
    doc = json.loads(cert.read_text())
    doc["provenance"] = "café ✓"
    cert.write_bytes(json.dumps(doc, indent=1, ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "soficlab.cli", "verify", str(cert), "--eps", "2", "--delta", "0"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


SUBCOMMANDS = ("ball", "certify", "verify", "amplify", "to-unitary", "graph",
               "match-fraction", "folner", "hall", "paradox", "demo")


def _parsed(parse, argv):
    """(namespace or exit code, stdout, stderr) of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return build_parser().parse_args(argv)


def _bench_commands():
    """Every argv of the three bench workloads, at full and at tiny size."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cmd.resolved(1) for w in workloads.WORKLOADS for tiny in (False, True)
            for cmd in workloads.commands(w, tiny)]


def test_the_program_freezes_its_start_up_heap():
    """Run as the program, main() moves what is alive at start-up into the
    permanent generation, so that no collection rescans it, those at exit
    included."""
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import atexit, gc, sys; from soficlab.cli import main; "
             "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
             "sys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", probe, "ball", "--family", "z", "--radius", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and json.loads(proc.stdout)["elements"] == 5
    assert int(proc.stderr.splitlines()[-1]) > 0


@pytest.mark.parametrize("argv,code", [
    (["ball", "--family", "z", "--radius", "2"], 0),
    (["verify", "missing.json", "--eps", "0.1", "--delta", "0.1"], 2),
    (["verify", "missing.json"], 2),
    (["frobnicate"], 2),
    ([], 2),
])
def test_main_with_an_argv_freezes_nothing(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    assert _parsed(main, argv)[0] == code
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_parser_for_one_subcommand_gives_its_full_help(name):
    result, out, err = _parsed(build_parser(name).parse_args, [name, "--help"])
    assert (result, out, err) == _parsed(_full_parse, [name, "--help"])
    assert result == 0 and out.startswith(f"usage: soficlab {name} ") and not err


# sha256 of the program's and each subcommand's --help text at COLUMNS=80, as
# printed when every process built the parsers of all 11 subcommands
HELP_SHA256 = {
    "--help": "fc2878d3e388a644227d0ecb8c66d24107cbd1305e2e52b819a3967d45c60b43",
    "ball": "40bf7434f51accb867fa04dbe4a5bcb27a17887188de7121431155d72d5ddbf0",
    "certify": "94e77cb3137703b0332f55b1f257e526deae60929d388f1414b79cf25ed19aba",
    "verify": "8373f6f65e75de039bb047ea11de16cf2f26835ac3a7270cc50ca0c0050704ee",
    "amplify": "a5cccd7945f9be6df09a1705ec0612f3447f6cc0120c91084e6274e6b3d3d297",
    "to-unitary": "9bd73eba70afddd16fe4105e80dcb3bea1bec699b500d74898c62f6c10965981",
    "graph": "6a68d1810e0630fa1849db6de9f761e9928f269fd4bc2fa821f54e4b6d481849",
    "match-fraction": "4446d3bec71e5334768fefb44cdc42b06ffe60d8ce58c13a065ded7a0a001345",
    "folner": "4911d2fe93ac56abfc347ffa18d777ebbf9db99abe7c4c455ebc97ad5ea0d03a",
    "hall": "5944574430d6aca6901a2cc8763036c99635a10513f12adb6d964686fda3a412",
    "paradox": "374b77ef7f040d694909cb83b0c303bc16ea81692383a6fb7263e6ba86cf52bb",
    "demo": "a83654fdf47a07a0a8175a31a92fe5cf3bcd174a955dba6b2be3b2eb9d13a1ab",
}


@pytest.mark.parametrize("word", sorted(HELP_SHA256))
def test_help_texts_are_unchanged(word, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    result, out, err = _parsed(main, [word] if word == "--help" else [word, "--help"])
    assert result == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[word]


@pytest.mark.parametrize("argv,error", [
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                     f"(choose from {', '.join(map(repr, SUBCOMMANDS))})"),
    ([], "the following arguments are required: command"),
], ids=["unknown", "missing"])
def test_a_missing_or_unknown_subcommand_is_named_command(argv, error):
    result, out, err = _parsed(main, argv)
    assert result == 2 and not out and err.endswith(f"soficlab: error: {error}\n")


def test_a_rebound_handler_is_the_one_run(monkeypatch):
    """Handlers are looked up when the parser is built, so the wrappers that
    bench/spans.py binds over cmd_* see every traced command."""
    calls = []
    monkeypatch.setattr(cli, "cmd_to_unitary", lambda args: calls.append(args.certificate) or 0)
    assert main(["to-unitary", "z.json", "-o", "out.json"]) == 0 and calls == ["z.json"]


@pytest.mark.parametrize("command", [*SUBCOMMANDS, None, "--help", "--version", "frobnicate", "--"])
def test_a_named_subcommand_builds_only_its_own_parser(command, monkeypatch):
    """The program's parser and the subcommand's: 2 ArgumentParsers; any
    other first word gets all 12."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser(command)
    assert len(built) == (2 if command in SUBCOMMANDS else 12)


TOKENS = (*SUBCOMMANDS, "--family", "--rank", "--table", "--radius", "-o", "--output",
          "--folner", "--eps", "--delta", "--times", "-L", "--side", "--spread", "--k",
          "--pairs", "--seed", "--version", "-h", "--help", "--", "--rad", "--ver", "-x",
          "--radius=3", "-L4", "1", "-1", "x", "0.5", "nan", "z", "free", "q", "sinfty",
          "amplify", "z.json", "frobnicate", "")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*SUBCOMMANDS, None]), st.lists(st.sampled_from(TOKENS), max_size=8))
def test_the_parser_of_the_first_word_parses_as_the_whole_tree(first, rest):
    """Namespace or exit code, stdout and stderr of build_parser(argv[0])
    equal those of the parser that holds every subcommand."""
    argv = [first, *rest] if first else rest
    named = build_parser(argv[0] if argv else None).parse_args
    assert _parsed(named, argv) == _parsed(_full_parse, argv)


def test_a_parser_for_one_subcommand_parses_every_bench_command():
    argvs = _bench_commands()
    assert {argv[0] for argv in argvs} >= {"certify", "verify", "to-unitary", "amplify",
                                           "graph", "match-fraction", "paradox", "folner", "demo"}
    for argv in argvs:
        namespace = build_parser(argv[0]).parse_args(argv)
        assert namespace == _full_parse(argv), argv


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["frobnicate"], ["frobnicate", "--help"],
    ["verify", "z.json"], ["verify", "z.json", "--eps", "x", "--delta", "1"],
    ["certify", "--family", "q", "--radius", "1", "-o", "z.json"], ["ball", "--radius", "1"],
    ["demo", "nothing"], ["hall"], ["hall", "a.json", "b.json"],
    ["paradox", "--radius", "2", "--spread"], ["--version", "ball"], ["ball", "--version"],
    ["--", "ball"],
])
def test_usage_errors_and_help_match_the_full_parser(argv):
    """main(argv) prints the bytes and exits with the code that a parser
    holding every subcommand's arguments gives."""
    expected = _parsed(_full_parse, argv)
    assert type(expected[0]) is int
    assert _parsed(main, argv) == expected
