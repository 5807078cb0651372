"""Fuzz of the certificate, group-table and graph loaders.

Whatever JSON document they are given, `finite_backend_from_json`,
`ColoredGraph.from_json` and `BipartiteGraph.from_json` either return a value
or raise MalformedCertificateError, and `certificate_from_json` may also
raise ResourceCapError; any other exception is a defect (the CLI would turn
it into a traceback or an "error:" line instead of "malformed:").  Documents
are valid ones with one entry replaced or removed, plus arbitrary JSON
values.  The same holds for files read through `load_json`, whose texts
are valid documents with a key duplicated or cut short, and arbitrary short
strings; the reader leaves the cyclic collector as it found it.  The CLI
commands that read group tables and graphs, given such documents as files
under small caps, return 0, 1 or 2 and raise nothing; so does `main()` on
argv drawn from a grammar of its subcommands, families, flags and integers.
"""

import contextlib
import gc
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from soficlab.almosthom import certificate_from_json, certificate_to_json
from soficlab.amenability import folner_box
from soficlab.backends import finite_backend_from_json, zpower_backend
from soficlab.balls import ball
from soficlab.cli import FAMILIES, main
from soficlab.constructions import folner_certificate, hyperlinear_certificate
from soficlab.errors import MalformedCertificateError, ResourceCapError, load_json
from soficlab.graphs import ColoredGraph, cert_to_graph
from soficlab.matching import BipartiteGraph

C3_TABLE = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0,
            "generators": [1]}
PARTIAL_GRAPH = {"vertexCount": 3, "colors": ["a", "b"],
                 "successors": {"a": [1, 2, 0], "b": [None, 0, None]}}
HALL_GRAPH = {"left_count": 2, "right_count": 4, "adjacency": [[0, 1], [1, 2, 3]]}
_Z_CERT = folner_certificate(ball(zpower_backend(1), 1), folner_box(zpower_backend(1), 3))
SYM_CERT = certificate_to_json(_Z_CERT)
UNITARY_CERT = certificate_to_json(hyperlinear_certificate(_Z_CERT))
# small caps: a mutated radius or rank is refused at once instead of built
SMALL_CAPS = {"SOFICLAB_BALL_CAP": "64", "SOFICLAB_RANK_CAP": "8"}


def certificate_under_small_caps(doc):
    with mock.patch.dict(os.environ, SMALL_CAPS):
        return certificate_from_json(doc)


scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.just(2**70)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def mutated(draw, base: dict):
    """`base` with one entry, at a random depth, replaced or removed."""
    doc = json.loads(json.dumps(base))
    node = doc
    for _ in range(draw(st.integers(0, 3))):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        child = node[draw(st.sampled_from(keys))] if keys else None
        if not isinstance(child, (dict, list)) or not child:
            break
        node = child
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_values)
    return doc


def assert_value_or_malformed(load, doc) -> None:
    try:
        load(doc)
    except MalformedCertificateError:
        pass


@settings(max_examples=150, deadline=None)
@given(mutated(C3_TABLE) | json_values)
def test_group_table_loader_fuzz(doc):
    assert_value_or_malformed(finite_backend_from_json, doc)


@settings(max_examples=150, deadline=None)
@given(mutated(PARTIAL_GRAPH) | json_values)
@example({**PARTIAL_GRAPH, "colors": ["a", "a"]})
@example({**PARTIAL_GRAPH, "successors": {"a": [1, 2, 2**70], "b": [None, 0, None]}})
def test_coloured_graph_loader_fuzz(doc):
    assert_value_or_malformed(ColoredGraph.from_json, doc)


@settings(max_examples=150, deadline=None)
@given(mutated(HALL_GRAPH) | json_values)
def test_bipartite_graph_loader_fuzz(doc):
    assert_value_or_malformed(BipartiteGraph.from_json, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(SYM_CERT) | mutated(UNITARY_CERT) | json_values)
@example([])
@example(None)
@example(float("nan"))
@example({**SYM_CERT, "ball_radius": 10**9})
@example({**UNITARY_CERT, "target": {"kind": "unitary", "n": 9}})
def test_certificate_loader_fuzz(doc):
    try:
        certificate_under_small_caps(doc)
    except (MalformedCertificateError, ResourceCapError):
        pass


def test_valid_documents_load():
    assert certificate_under_small_caps(SYM_CERT).hom.images.tolist() == [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert certificate_under_small_caps(UNITARY_CERT).hom.target_n == 3
    assert finite_backend_from_json(C3_TABLE).order == 3
    assert ColoredGraph.from_json(PARTIAL_GRAPH).successors.tolist() == [[1, 2, 0], [-1, 0, -1]]
    assert BipartiteGraph.from_json(HALL_GRAPH).adjacency == ((0, 1), (1, 2, 3))


VALID_TEXTS = [json.dumps(doc) for doc in
               (SYM_CERT, UNITARY_CERT, C3_TABLE, PARTIAL_GRAPH, HALL_GRAPH)]
BUILDERS = [certificate_under_small_caps, finite_backend_from_json,
            ColoredGraph.from_json, BipartiteGraph.from_json]
_MARK = "\x00duplicate\x00"


@st.composite
def duplicated(draw) -> str:
    """A valid text in which one object, at a random depth, names one of its
    keys twice; either copy may come first."""
    doc = json.loads(draw(st.sampled_from(VALID_TEXTS)))
    objects, todo = [], [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            objects += [node] if node else []
            node = list(node.values())
        todo += [child for child in node if isinstance(child, (dict, list))]
    node = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(node)))
    items = list(node.items())
    items.insert(draw(st.integers(0, len(items))), (_MARK, draw(json_values)))
    node.clear()
    node.update(items)
    return json.dumps(doc).replace(json.dumps(_MARK), json.dumps(key), 1)


@st.composite
def truncated(draw) -> str:
    text = draw(st.sampled_from(VALID_TEXTS))
    return text[:draw(st.integers(0, len(text) - 1))]


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "input.json"


def read_through_each_builder(path, collector_on: bool) -> list:
    """The outcome of `load_json(path, build)` for every builder: a value,
    MalformedCertificateError or ResourceCapError; with the collector left
    as it was."""
    outcomes = []
    (gc.enable if collector_on else gc.disable)()
    try:
        for build in BUILDERS:
            try:
                outcomes.append(load_json(path, build))
            except (MalformedCertificateError, ResourceCapError) as exc:
                outcomes.append(exc)
            assert gc.isenabled() is collector_on
    finally:
        gc.enable()
    return outcomes


@settings(max_examples=150, deadline=None)
@given(duplicated(), st.booleans())
def test_reader_refuses_duplicate_keys(json_file, text, collector_on):
    json_file.write_text(text)
    for outcome in read_through_each_builder(json_file, collector_on):
        assert isinstance(outcome, MalformedCertificateError)
        assert str(outcome).startswith("duplicate key")


@settings(max_examples=150, deadline=None)
@given(truncated(), st.booleans())
def test_reader_refuses_cut_texts(json_file, text, collector_on):
    json_file.write_text(text)
    for outcome in read_through_each_builder(json_file, collector_on):
        assert isinstance(outcome, MalformedCertificateError)
        assert str(outcome).startswith("not valid JSON")


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=12), st.booleans())
@example("[" * 100_000, True)  # deeper than the parser's recursion limit
@example('{"a": 1, "a": 1}', True)
@example("\udc80", False)  # written as a byte that is not UTF-8
def test_reader_fuzz(json_file, text, collector_on):
    json_file.write_text(text, errors="surrogateescape")
    read_through_each_builder(json_file, collector_on)


# argv of each CLI command that reads one of the documents above, with "IN"
# for the document's file and "OUT" for the output file
CLI_COMMANDS = {
    "certify": (C3_TABLE, ["certify", "--family", "finite", "--radius", "2",
                           "--table", "IN", "-o", "OUT"]),
    "match-fraction": (PARTIAL_GRAPH, ["match-fraction", "IN", "--family", "free",
                                       "--radius", "1", "-o", "OUT"]),
    "hall": (HALL_GRAPH, ["hall", "IN", "-o", "OUT"]),
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cli")
    return {"IN": str(folder / "input.json"), "OUT": str(folder / "output.json")}


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_fuzz(cli_files, command, data):
    base, argv = CLI_COMMANDS[command]
    with open(cli_files["IN"], "w", encoding="utf-8") as fh:
        json.dump(data.draw(mutated(base) | json_values), fh)
    with mock.patch.dict(os.environ, SMALL_CAPS):
        assert main([cli_files.get(arg, arg) for arg in argv]) in (0, 1, 2)


# argv grammar: each subcommand with each of its options present or absent,
# in the order drawn; a value is a family, an integer (negative, 0, small or
# 10^12), a threshold, an input file (mostly of the kind the command reads,
# or a missing one) or an output file, and a token may be dropped or an
# unknown one added
INTEGERS = st.integers(1, 4) | st.sampled_from([-1, 0, 10**12])
THRESHOLDS = st.sampled_from(["1e-6", "0.5", "1.4", "0", "-1", "nan", "inf"])
INPUTS = st.sampled_from(["sym.json", "unitary.json", "table.json", "graph.json",
                          "bipartite.json", "missing.json"])
VALUES = {
    "--family": st.sampled_from([*FAMILIES, "klein"]),
    "--table": st.just("table.json") | INPUTS, "--eps": THRESHOLDS, "--delta": THRESHOLDS,
    "-o": st.sampled_from(["out.json", "out.dot"]),
    "CERTIFICATE": st.sampled_from(["sym.json", "unitary.json"]) | INPUTS,
    "GRAPH": st.just("graph.json") | INPUTS, "BIPARTITE": st.just("bipartite.json") | INPUTS,
    "WHAT": st.sampled_from(["sinfty", "amplify", "tour"]),
}
SUBCOMMANDS = {
    "ball": ["--family", "--rank", "--table", "--radius", "-o"],
    "certify": ["--family", "--rank", "--table", "--radius", "--folner", "-o"],
    "verify": ["CERTIFICATE", "--eps", "--delta", "-o"],
    "amplify": ["CERTIFICATE", "--times", "-o"],
    "to-unitary": ["CERTIFICATE", "-o"],
    "graph": ["CERTIFICATE", "-o"],
    "match-fraction": ["GRAPH", "--family", "--rank", "--table", "--radius", "-o"],
    "folner": ["--family", "--rank", "--table", "-L", "-o"],
    "hall": ["BIPARTITE", "-o"],
    "paradox": ["--radius", "--spread", "-o"],
    "demo": ["WHAT", "--k", "--rank", "--pairs", "--seed", "-o"],
}


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for option in draw(st.permutations(SUBCOMMANDS[command])):
        if draw(st.integers(0, 4)):  # present four times in five
            value = str(draw(VALUES.get(option, INTEGERS)))
            argv += [option, value] if option.startswith("-") else [value]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ["--radius", "--bogus", "-h", "--version", "1"])))
    return argv


# the files that drawn argv name, rewritten before each draw, as a drawn
# -o may name one of them
ARGV_INPUTS = {
    "sym.json": json.dumps(SYM_CERT, indent=1) + "\n",
    "unitary.json": json.dumps(UNITARY_CERT, indent=1) + "\n",
    "graph.json": cert_to_graph(_Z_CERT.hom).json_text() + "\n",
    "table.json": json.dumps(C3_TABLE), "bipartite.json": json.dumps(HALL_GRAPH),
}


@pytest.fixture(scope="module")
def argv_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_cli_argv_fuzz(argv_folder, argv):
    """`main()` on any drawn argv, run in a temporary folder that takes
    every output, under small caps, exits 0, 1 or 2 (argparse's SystemExit
    counted by its code) and prints no traceback."""
    for name, text in ARGV_INPUTS.items():
        (argv_folder / name).write_text(text)
    caps = {"SOFICLAB_BALL_CAP": "64", "SOFICLAB_RANK_CAP": "16", "SOFICLAB_PRIME_CEILING": "50"}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_folder)  # contextlib.chdir needs Python 3.11
    try:
        with mock.patch.dict(os.environ, caps), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
