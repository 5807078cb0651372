"""Certificate JSON: the streaming writer against the reference document,
strict ingest of image entries and map structure, the file reader against
json.loads then `certificate_from_json`, and the CLI's exit codes on damaged
certificate files."""

import contextlib
import gc
import io
import json
import math
import os
import random
import re
import threading
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import almosthom
from soficlab.almosthom import (
    AlmostHom,
    Certificate,
    certificate_from_json,
    certificate_to_json,
    load_certificate,
    measured_certificate,
    save_certificate,
)
from soficlab.backends import FiniteBackend, free_backend, heisenberg_backend, zpower_backend
from soficlab.amenability import folner_box
from soficlab.balls import ball
from soficlab.cli import main
from soficlab.constructions import (
    amplify_certificate,
    folner_certificate,
    hyperlinear_certificate,
    lef_to_sofic,
    sofic_to_hyperlinear,
)
from soficlab.errors import (
    MalformedCertificateError,
    ResourceCapError,
    int_row_speller,
    load_json,
    read_json,
)
from soficlab.metrics import UnitaryMatrix, random_unitary

from oracles import cyclic_backend, random_orthogonal, text_mode_read_json

BACKENDS = {
    "z": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "free": lambda: free_backend(2),
    "heisenberg": heisenberg_backend,
    "finite": lambda: cyclic_backend(5),  # a multiplication table in the head
}

claims = st.floats(allow_nan=True, allow_infinity=True)
provenances = st.text(max_size=20)


def reference_text(cert: Certificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=1) + "\n"


def saved_text(cert: Certificate, tmp_path) -> str:
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    return path.read_text()


@st.composite
def sym_certificates(draw):
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]()
    domain = ball(backend, draw(st.integers(0, 2)))
    n = draw(st.integers(1, 12))
    perm = st.permutations(range(n))
    images = [list(range(n))] + [draw(perm) for _ in range(len(domain) - 1)]
    hom = AlmostHom(domain=domain, target_kind="sym", target_n=n, images=np.array(images))
    return Certificate(hom, draw(claims), draw(claims), draw(provenances))


@st.composite
def unitary_certificates(draw):
    """Complex unitary images, or real ones (random orthogonal or permutation
    matrices), which the writer spells from their real parts."""
    domain = ball(BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))](), draw(st.integers(0, 1)))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["unitary", "orthogonal", "permutation"]))
    draw_image = {
        "unitary": lambda: random_unitary(n, rng).entries,
        "orthogonal": lambda: random_orthogonal(n, rng).entries,
        "permutation": lambda: np.eye(n, dtype=np.complex128)[rng.permutation(n)],
    }[kind]
    # global phases and .conj() put -0.0 and exact zeros among the parts;
    # only the phases +-1 keep a real image real
    phases = st.sampled_from([1, -1, 1j, -1j] if kind == "unitary" else [1, -1])
    images = np.array([np.eye(n)] + [draw(phases) * draw_image()
                                     for _ in range(len(domain) - 1)])
    if draw(st.booleans()):
        images = images.conj()
    hom = AlmostHom(domain=domain, target_kind="unitary", target_n=n, images=images)
    return Certificate(hom, draw(claims), draw(claims), draw(provenances))


@settings(max_examples=40, deadline=None)
@given(sym_certificates())
def test_writer_matches_reference_sym(tmp_path_factory, cert):
    assert saved_text(cert, tmp_path_factory.mktemp("c")) == reference_text(cert)


@settings(max_examples=40, deadline=None)
@given(unitary_certificates())
def test_writer_matches_reference_unitary(tmp_path_factory, cert):
    assert saved_text(cert, tmp_path_factory.mktemp("c")) == reference_text(cert)


def test_writer_spells_signed_zeros_and_non_finite_parts(tmp_path):
    # AlmostHom checks the unitarity of its images, so swap the images
    # after construction to reach the non-finite spellings
    domain = ball(zpower_backend(1), 1)
    odd = [[complex(-0.0, 0.0), complex(math.nan, -math.inf)], [math.inf, complex(0.0, -0.0)]]
    # every imaginary part zero: spelled from the real parts alone
    real_odd = [[-0.0, math.nan], [-math.inf, complex(1.0, -0.0)]]
    swap = np.array([[0, 1], [1, 0]], dtype=complex).conj()
    hom = AlmostHom(domain, "unitary", 2, np.array([np.eye(2), swap, swap]))
    hom.images = np.array([np.eye(2), odd, real_odd])
    cert = Certificate(hom, math.nan, -math.inf, "")
    text = saved_text(cert, tmp_path)
    assert text == reference_text(cert)
    assert "-0.0" in text and "NaN" in text and "-Infinity" in text


def test_writer_matches_reference_for_finite_provenance_needing_escapes(tmp_path):
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    backend = FiniteBackend(table, 0, generators=[1])
    domain = ball(backend, 2)
    hom = lef_to_sofic(domain, backend, {i: g for i, g in enumerate(domain.elements)})
    cert = measured_certificate(hom, provenance="Z_3 → S_3, \"quoted\"\té")
    text = saved_text(cert, tmp_path)
    assert text == reference_text(cert)
    assert "\\u2192" in text  # ensure_ascii escaping, as json.dump does
    unitary = measured_certificate(sofic_to_hyperlinear(hom), provenance="é")
    assert saved_text(unitary, tmp_path) == reference_text(unitary)


def shift_doc(kind: str = "sym") -> dict:
    domain = ball(zpower_backend(1), 1)
    m = 4
    images = np.array([[(i + k) % m for i in range(m)] for (k,) in domain.elements])
    hom = AlmostHom(domain, "sym", m, images)
    if kind == "unitary":
        hom = sofic_to_hyperlinear(hom)
    return json.loads(json.dumps(certificate_to_json(measured_certificate(hom))))


def expect_malformed(doc: dict, match: str) -> None:
    with pytest.raises(MalformedCertificateError, match=match):
        certificate_from_json(doc)


@pytest.mark.parametrize("entry", [1.3, 1.0, True, "1", None])
def test_permutation_entries_must_be_json_integers(entry):
    doc = shift_doc()
    doc["map"]["a"][0] = entry
    expect_malformed(doc, "JSON integers")


@pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf])
def test_unitary_entries_must_be_finite(part):
    doc = shift_doc("unitary")
    doc["map"]["a"][5][1] = part
    expect_malformed(doc, "finite")


@pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, None, "10", ["1", 0.0],
                                   [True, 0.0], [[1.0], 0.0], {"re": 1.0, "im": 0.0},
                                   [10**400, 0.0]])
def test_unitary_entries_must_be_number_pairs(entry):
    doc = shift_doc("unitary")
    doc["map"]["a"][0] = entry
    expect_malformed(doc, "unitary")


def test_unitary_matrix_rejects_nan():
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryMatrix(np.array([[math.nan]]))


def test_map_structure_errors():
    doc = shift_doc()
    doc["map"] = list(doc["map"].values())
    expect_malformed(doc, "map must be a JSON object")
    doc = shift_doc()
    doc["map"]["a a'"] = doc["map"][""]
    expect_malformed(doc, "name the same element")
    for key in ("claimed_defect", "claimed_separation"):
        for value in ("0.5", None, [0.5], True, 10**400):
            doc = shift_doc()
            doc[key] = value
            expect_malformed(doc, key)


@pytest.mark.parametrize("doc", [[], None, math.nan, "map", 3, [{"schema": "sofic-cert/v1"}]])
def test_non_object_documents_are_malformed(doc):
    expect_malformed(doc, "certificate document must be a JSON object")


@pytest.mark.parametrize("field,value", [("ball_radius", 1.0), ("ball_radius", -1),
                                         ("ball_radius", True), ("n", 4.0), ("n", 0)])
def test_integer_header_fields_are_strict(field, value):
    doc = shift_doc()
    (doc["target"] if field == "n" else doc)[field] = value
    expect_malformed(doc, field)


@pytest.mark.parametrize("value", [True, 1.0, "1", 0])
def test_group_descriptor_dimension_is_strict(value):
    doc = shift_doc()
    doc["group"]["dim"] = value  # true would be read as Z^1 and pass
    expect_malformed(doc, "dim")


def test_duplicate_json_keys_are_malformed(tmp_path):
    path = tmp_path / "dup.json"
    text = json.dumps(shift_doc(), indent=1)
    path.write_text(text.replace('"map": {', '"map": {\n  "a": [0, 1, 2, 3],', 1))
    with pytest.raises(MalformedCertificateError, match="duplicate key 'a'"):
        load_certificate(path)


def test_certificate_load_pauses_the_collector(tmp_path):
    """A rank-64 certificate is 32k `[re, im]` lists: reading it runs no
    cyclic collection (29 ran before the pause), and the collector is left
    as the caller had it on every outcome."""
    z = zpower_backend(1)
    cert = amplify_certificate(
        hyperlinear_certificate(folner_certificate(ball(z, 2), folner_box(z, 8))), 1)
    path = tmp_path / "z_amplified.json"
    save_certificate(cert, path)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        loaded = load_certificate(path)
    finally:
        gc.callbacks.remove(record)
    assert collections == []
    assert loaded.hom.target_n == 64 and gc.isenabled()

    text = path.read_text()
    duplicate = tmp_path / "dup.json"
    # a copy of the real image, so the repeated key is the file's only defect
    start, end = image_span(text, "")
    duplicate.write_text(text.replace('"map": {', '"map": {\n  "": ' + text[start:end] + ",", 1))
    truncated = tmp_path / "cut.json"
    truncated.write_text(text[:len(text) // 2])
    for bad, match in ((duplicate, "duplicate key ''"), (truncated, "not valid JSON")):
        with pytest.raises(MalformedCertificateError, match=match):
            load_certificate(bad)
        assert gc.isenabled()
    gc.disable()
    try:
        load_certificate(path)
        assert not gc.isenabled()
        with pytest.raises(MalformedCertificateError):
            load_certificate(truncated)
        assert not gc.isenabled()
    finally:
        gc.enable()


# The file reader against the whole-document path: `load_certificate` walks
# the text image by image, and must give what json.loads then
# `certificate_from_json` give, on any text.

SMALL_CAPS = {"SOFICLAB_BALL_CAP": "64", "SOFICLAB_RANK_CAP": "16"}
_rng = np.random.default_rng(16)
_z1 = ball(zpower_backend(1), 1)
# every entry of its images distinct
RANDOM_RANK_16 = Certificate(AlmostHom(_z1, "unitary", 16, np.array(
    [np.eye(16)] + [random_unitary(16, _rng).entries for _ in range(len(_z1) - 1)])), 0.5, 1.2)
SPELLINGS = {0.0: ["0", "0.0", "-0.0", "0e0", "0E+0", "-0", "0.000"],
             1.0: ["1", "1.0", "1e0", "10E-1", "1.00", "0.1e1"]}
# floats only: respelling an integer field as 1.0 would only make a type error
_FLOAT = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")
small_values = (st.none() | st.booleans() | st.integers(-2, 4) | st.just(2**70)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
                | st.lists(st.integers(-1, 3), max_size=3))


def objects_in(doc) -> list:
    found, todo = [], [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            found += [node] if node else []
            node = list(node.values())
        todo += [child for child in node if isinstance(child, (dict, list))]
    return found


def permutation_matrices(cert: Certificate) -> Certificate:
    return Certificate(sofic_to_hyperlinear(cert.hom), cert.claimed_defect,
                       cert.claimed_separation, cert.provenance)


@st.composite
def certificate_texts(draw) -> str:
    """The text of a valid sym, unitary (permutation matrices up to rank 12
    among them) or rank-16 random-unitary certificate, with its keys in the
    writer's order or in any order (map first among them), in the writer's
    layout, compact, on one line or with tabs; then as it is, with its
    numbers respelled, with one entry replaced or removed, with a key
    repeated in one object, or cut short."""
    cert = draw(sym_certificates() | unitary_certificates() | st.just(RANDOM_RANK_16)
                | st.builds(permutation_matrices, sym_certificates()))
    doc = certificate_to_json(cert)
    if draw(st.booleans()):
        doc = dict(draw(st.permutations(list(doc.items()))))
    damage = draw(st.sampled_from(["none", "respell", "mutate", "duplicate", "cut"]))
    mark = "\x00repeated\x00"
    if damage == "mutate":
        node = draw(st.sampled_from(objects_in(doc)))
        key = draw(st.sampled_from(sorted(node)))
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(small_values)
    elif damage == "duplicate":
        node = draw(st.sampled_from(objects_in(doc)))
        key = draw(st.sampled_from(sorted(node)))
        value = draw(st.just(node[key]) | small_values)
        items = list(node.items())
        items.insert(draw(st.integers(0, len(items))), (mark, value))
        node.clear()
        node.update(items)
    layout = draw(st.sampled_from([{"indent": 1}, {"separators": (",", ":")},
                                   {"indent": None}, {"indent": "\t"}]))
    text = json.dumps(doc, **layout) + "\n"  # indent=1 is the writer's layout
    if damage == "duplicate":
        text = text.replace(json.dumps(mark), json.dumps(key), 1)
    elif damage == "respell":
        pick = random.Random(draw(st.integers(0, 2**32 - 1))).choice
        text = _FLOAT.sub(lambda m: pick(SPELLINGS.get(float(m[0]), [m[0]])), text)
    elif damage == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def outcome(read):
    try:
        return read()
    except (MalformedCertificateError, ResourceCapError) as exc:
        return exc


def assert_same_outcome(streamed, whole) -> None:
    if isinstance(whole, Exception):
        assert type(streamed) is type(whole), (streamed, whole)
        if not (str(streamed).startswith("not valid JSON")
                and str(whole).startswith("not valid JSON")):
            assert str(streamed) == str(whole)
        return
    assert isinstance(streamed, Certificate), streamed
    a, b = streamed.hom, whole.hom
    assert (a.target_kind, a.target_n) == (b.target_kind, b.target_n)
    assert a.domain.radius == b.domain.radius
    assert a.domain.backend.descriptor() == b.domain.backend.descriptor()
    # bit patterns, so -0.0 stays apart from 0.0
    assert a.images.dtype == b.images.dtype and a.images.tobytes() == b.images.tobytes()
    claims = [(repr(c.claimed_defect), repr(c.claimed_separation), c.provenance)
              for c in (streamed, whole)]
    assert claims[0] == claims[1]


@pytest.fixture(scope="module")
def certificate_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "cert.json"


def first_value_kept(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        doc.setdefault(key, value)
    return doc


def assert_reader_matches(path, text: str) -> None:
    """The reader's outcome is that of the whole document; for a text with a
    repeated key, it is the duplicate-key error or, as the reader stops at
    its first defect, that of the document with each key's first value."""
    path.write_text(text)
    with mock.patch.dict(os.environ, SMALL_CAPS):
        streamed = outcome(lambda: load_certificate(path))
        whole = outcome(lambda: load_json(path, certificate_from_json))
        if (isinstance(whole, MalformedCertificateError)
                and str(whole).startswith("duplicate key") and str(streamed) != str(whole)):
            whole = outcome(lambda: read_json(path, lambda text: certificate_from_json(
                json.loads(text, object_pairs_hook=first_value_kept))))
            assert isinstance(whole, Exception), streamed
    assert_same_outcome(streamed, whole)


@settings(max_examples=400, deadline=None)
@given(certificate_texts())
def test_file_reader_matches_the_whole_document(certificate_file, text):
    assert_reader_matches(certificate_file, text)


HEAD = ('"schema": "sofic-cert/v1", "group": {"kind": "zpower", "dim": 1}, "ball_radius": 0, '
        '"target": {"kind": "%s", "n": %d}')
SYM_ONE = "{" + HEAD % ("sym", 1)
# images of rank 8 whose 64 texts between "]" are entries but for one: a
# string holding "]" (63 entries), or a nested entry and two bare numbers
# (65 entries); the distinct texts alone decode to 3 and 4 entries
UNITARY_EIGHT = "{" + HEAD % ("unitary", 8) + ', "map": {"": [%s]}}'
SPLIT_STRING = UNITARY_EIGHT % ",".join(['["]",0.0]'] + ["[0.0,0.0]"] * 62)
NESTED = UNITARY_EIGHT % ",".join(["[[1.0,0.0],2]", "5", "[0.0,0.0]", "5"] + ["[0.0,0.0]"] * 61)


def writer_layout(kind: str, n: int, image: str, group=None, radius: int = 0) -> str:
    """A certificate over a ball (of radius 0 in Z unless told) in the
    writer's layout, with one image, spelled `image`, for the identity."""
    head = json.dumps({"schema": "sofic-cert/v1", "group": group or {"kind": "zpower", "dim": 1},
                       "ball_radius": radius, "target": {"kind": kind, "n": n}}, indent=1)
    return head[:-2] + ',\n "map": {\n  "": ' + image + '\n },\n "provenance": ""\n}\n'


WRITER_ONE = writer_layout("sym", 1, "[\n   0\n  ]")


# a failing image or map key, then a repeated key or a syntax error, which
# json.loads reports instead: the reader stops at the first defect, and it
# checks each map key before reading the key's image
FIRST_DEFECT = {
    SYM_ONE + ', "map": {"": [1]}, "map": 2}': "image 0 is not a bijection",
    SYM_ONE + ', "map": {"": [1.5]}, "claimed_defect": nul}': "permutation entries must be JSON",
    SYM_ONE + ', "map": {"": [1], "a": [0}': "map key 'a' lies outside the ball",
}


@pytest.mark.parametrize("text", [
    '{"map": {"": [0]}, ' + HEAD % ("sym", 1) + "}",  # map first
    *FIRST_DEFECT,
    SYM_ONE + ', "map": {"": [1], "": [0]}}',  # the repeated key comes before the map closes
    SYM_ONE + ', "map": {"": [0]}} []',  # extra data
    SPLIT_STRING, NESTED, SPLIT_STRING.replace('"]"', "1.0"),
    " [1, 2] ", "\ufeff{}", '{"schema": 1,}', '{"a" 1}', '{"a": 1 "b": 2}', "", "{",
    # the writer's map with a raw tab in its key, a comma with no member
    # before or after it, or a head key or the map repeated after it:
    # json.loads refuses each
    WRITER_ONE.replace('"": [', '"\t": ['),
    WRITER_ONE.replace('"provenance": ""', '"ball_radius": 0'),
    WRITER_ONE.replace('"provenance": ""', '"map": {}'),
    WRITER_ONE.replace('\n "provenance": ""\n}', "\n}"),
    "{" + WRITER_ONE[WRITER_ONE.index(',\n "map"'):].replace('"provenance": ""', HEAD % ("sym", 1)),
])
def test_file_reader_edge_texts(certificate_file, text):
    if text in FIRST_DEFECT:
        certificate_file.write_text(text)
        with mock.patch.dict(os.environ, SMALL_CAPS), \
                pytest.raises(MalformedCertificateError, match=FIRST_DEFECT[text]):
            load_certificate(certificate_file)
    else:
        assert_reader_matches(certificate_file, text)


@contextlib.contextmanager
def no_image_read(text: str):
    """Fail on any read of an image of `text`: by numpy's digit parser, the
    permutation-matrix path, `_read_image`, or a value decoded past the
    map's opening."""
    opening = text.index('"map": {')
    value = almosthom._CertificateText.value

    def head_value(reader):
        assert reader.pos < opening, "a value past the map's opening was decoded"
        return value(reader)

    fail = mock.Mock(side_effect=AssertionError("an image was read"))
    with mock.patch.object(almosthom, "_read_image", fail), \
            mock.patch.object(almosthom, "_permutation_image", fail), \
            mock.patch.object(np, "fromstring", fail), \
            mock.patch.object(almosthom._CertificateText, "value", head_value):
        yield


def test_caps_refuse_before_any_image_is_read(tmp_path):
    """A ball cap below the ball, or a rank cap below the target's rank,
    refuses a writer's certificate right after its head."""
    z = zpower_backend(1)
    sym = folner_certificate(ball(z, 2), folner_box(z, 8))
    amplified = amplify_certificate(hyperlinear_certificate(sym), 1)
    path = tmp_path / "cert.json"
    for cert, caps, match in [(sym, {"SOFICLAB_BALL_CAP": "4"}, "ball at radius"),
                              (amplified, {"SOFICLAB_RANK_CAP": "16"}, "unitary rank 64")]:
        save_certificate(cert, path)
        with no_image_read(path.read_text()), mock.patch.dict(os.environ, caps), \
                pytest.raises(ResourceCapError, match=match):
            load_certificate(path)


def test_reader_stops_at_a_malformed_first_image(tmp_path):
    """A sym certificate whose first image holds a float is refused with that
    image's error after reading it alone: the text may end right after it."""
    h = heisenberg_backend()
    text = reference_text(folner_certificate(ball(h, 1), folner_box(h, 3)))
    start, end = image_span(text, "")
    first = "[\n   0,"
    assert text[start:end].startswith(first)
    path = tmp_path / "cert.json"
    path.write_text(text[:start] + "[\n   0.0," + text[start + len(first):end] + ",\n  ")
    with mock.patch.object(almosthom, "_read_image", wraps=almosthom._read_image) as decoded, \
            pytest.raises(MalformedCertificateError, match="permutation entries must be JSON"):
        load_certificate(path)
    assert decoded.call_count == 1


def test_verify_checks_a_map_key_before_its_image(tmp_path, capsys):
    """A key outside the ball is refused before its image is read, so the
    syntax error later in that image is not what `verify` reports."""
    path = tmp_path / "cert.json"
    path.write_text('{"schema": "sofic-cert/v1", "group": {"kind": "zpower", "dim": 1}, '
                    '"ball_radius": 0, "target": {"kind": "sym", "n": 1}, '
                    '"map": {"": [0], "a": [0}}')
    assert main(["verify", str(path), "--eps", "1", "--delta", "0"]) == 2
    assert capsys.readouterr().err == "malformed: map key 'a' lies outside the ball\n"


COMMANDS = {
    "verify": lambda cert, out: ["verify", cert, "--eps", "1e-6", "--delta", "0.5", "-o", out],
    "to-unitary": lambda cert, out: ["to-unitary", cert, "-o", out],
    "amplify": lambda cert, out: ["amplify", cert, "--times", "1", "-o", out],
    "graph": lambda cert, out: ["graph", cert, "-o", out],
}


@settings(max_examples=300, deadline=None)
@given(certificate_texts(), st.sampled_from(sorted(COMMANDS)))
def test_cli_exit_codes_on_certificate_files(certificate_file, text, command):
    """Whatever the file, a command exits 0, 1 (only `verify`, for a
    certificate that misses its thresholds) or 2, and never with a
    traceback; the caps are small, so a mutated radius or rank is refused."""
    certificate_file.write_text(text)
    out = certificate_file.with_name("out.json")
    err = io.StringIO()
    with mock.patch.dict(os.environ, SMALL_CAPS), contextlib.redirect_stderr(err):
        code = main([str(a) for a in COMMANDS[command](certificate_file, out)])
    assert code in (0, 1, 2)
    assert code != 1 or command == "verify"
    assert "Traceback" not in err.getvalue()


# Permutation-matrix images: the writer spells each row as a slice of one
# template per rank, and the reader matches that template before anything
# else, falling back at the first row that differs.

@st.composite
def permutation_certificates(draw, rank_81=True):
    """Permutation-matrix images of rank 1, 2 or up to 16 over a small ball,
    or `amplify --times 2` of such a certificate of degree 2 (rank 16) or,
    given `rank_81`, in one amplified draw of four, of degree 3 (rank 81),
    whose reference text alone takes the json encoder about 0.2 s."""
    amplified = draw(st.booleans())  # measuring separation needs two elements
    domain = ball(BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))](),
                  draw(st.integers(int(amplified), 1)))
    if amplified:
        n = 3 if rank_81 and draw(st.integers(0, 3)) == 3 else 2
    else:
        n = draw(st.sampled_from([1, 2]) | st.integers(3, 16))
    perm = st.permutations(range(n))
    rows = [list(range(n))] + [draw(perm) for _ in range(len(domain) - 1)]
    hom = sofic_to_hyperlinear(AlmostHom(domain, "sym", n, np.array(rows)))
    cert = Certificate(hom, draw(claims), draw(claims), draw(provenances))
    return amplify_certificate(cert, 2) if amplified else cert


@settings(max_examples=60, deadline=None)
@given(permutation_certificates(), st.sampled_from(["none", "-0.0", "1j"]), st.data())
def test_writer_matches_reference_permutation(tmp_path_factory, cert, twist, data):
    """The bytes are the encoder's, whether the images take the row template
    or, with one part -0.0 or one row times 1j, the distinct-entry path."""
    if twist != "none":
        images = almosthom._permutation_image(cert.hom.images)
        k = data.draw(st.integers(0, len(images) - 1))
        r = data.draw(st.integers(0, cert.hom.target_n - 1))
        if twist == "1j":
            images[k, r] *= 1j
        else:
            parts = images[k, r].view(np.float64)  # re, im of each entry of row r
            zeros = np.flatnonzero(parts == 0)
            parts[zeros[data.draw(st.integers(0, len(zeros) - 1))]] = -0.0
        cert.hom.images = images
    assert saved_text(cert, tmp_path_factory.mktemp("c")) == reference_text(cert)


def image_span(text: str, key: str) -> tuple[int, int]:
    """(start, end) of the text of the image of map key `key`."""
    start = text.index(json.dumps(key) + ": [", text.index('"map": {')) + len(json.dumps(key)) + 2
    return start, text.index("\n  ]", start) + 4


PERMUTATION_MUTATIONS = ["1", "1.00", "1e0", "-0.0", "two ones", "no one", "swap rows",
                         "separator", "cut"]
ZERO, ONE, SEP = "[\n    0.0,\n    0.0\n   ]", "[\n    1.0,\n    0.0\n   ]", ",\n   "


@settings(max_examples=200, deadline=None)
@given(permutation_certificates(rank_81=False), st.sampled_from(PERMUTATION_MUTATIONS),
       st.data())
def test_reader_on_mutated_permutation_images(certificate_file, cert, mutation, data):
    """One image of a writer's permutation certificate, respelled, given two
    1.0 or none in a row, with two rows swapped, a separator changed or cut
    inside: the outcome is still that of the whole document."""
    text = reference_text(cert)
    n = cert.hom.target_n
    start, end = image_span(text, data.draw(st.sampled_from(list(certificate_to_json(cert)["map"]))))
    entries = re.split(SEP + r"(?=\[)", text[start + 5:end - 4])  # SEP also opens an im part
    assert len(entries) == n * n and set(entries) <= {ZERO, ONE}
    seps = [SEP] * (n * n - 1)
    r = data.draw(st.integers(0, n - 1))
    row = entries[r * n:(r + 1) * n]
    one = r * n + row.index(ONE)
    if mutation in ("1", "1.00", "1e0"):
        entries[one] = ONE.replace("1.0", mutation)
    elif mutation == "-0.0":
        k = data.draw(st.integers(r * n, r * n + n - 1))
        spots = [m.start() for m in re.finditer("0.0", entries[k])]
        at = data.draw(st.sampled_from(spots))
        entries[k] = entries[k][:at] + "-" + entries[k][at:]
    elif mutation == "two ones" and n > 1:
        entries[data.draw(st.sampled_from([k for k in range(r * n, r * n + n) if k != one]))] = ONE
    elif mutation in ("two ones", "no one"):
        entries[one] = ZERO
    elif mutation == "swap rows":
        s = data.draw(st.integers(0, n - 1))
        entries[r * n:(r + 1) * n], entries[s * n:(s + 1) * n] = \
            entries[s * n:(s + 1) * n], entries[r * n:(r + 1) * n]
    elif mutation == "separator" and n > 1:
        seps[data.draw(st.integers(0, len(seps) - 1))] = data.draw(
            st.sampled_from([",", ", ", ",\n    ", " ,\n   ", "\n   ", ",,\n   ",
                             ",\n  \t", ",\r\n  ", ";\n   ", " \n   "]))  # the last four keep its length
    image = "[\n   " + "".join(e + s for e, s in zip(entries, seps + ["\n  ]"]))
    mutated = text[:start] + image + text[end:]
    if mutation == "cut":
        mutated = mutated[:data.draw(st.integers(start + 1, end - 1))]
    if mutation in ("swap rows", "separator") and n == 1:
        assert mutated == text
    assert_reader_matches(certificate_file, mutated)


def test_reader_on_a_repeated_permutation_row(certificate_file):
    """An image in the writer's row template whose 1s fall twice in one
    column is no permutation matrix: it is decoded whole, and the outcome
    is the dense check's error, as for the whole document."""
    z = zpower_backend(1)
    cert = hyperlinear_certificate(folner_certificate(ball(z, 1), folner_box(z, 3)))
    text = reference_text(cert)
    start, end = image_span(text, list(certificate_to_json(cert)["map"])[1])
    mutated = text[:start] + b"".join(almosthom._permutation_pieces([0, 0, 2])).decode() + text[end:]
    assert_reader_matches(certificate_file, mutated)
    with pytest.raises(MalformedCertificateError, match="not unitary"):
        load_certificate(certificate_file)


def test_permutation_images_take_the_row_template(tmp_path):
    """`amplify --times 2` of a rank-4 certificate (rank 256): every image
    written from the row template, and read without decoding any image."""
    z = zpower_backend(1)
    cert = amplify_certificate(
        hyperlinear_certificate(folner_certificate(ball(z, 1), folner_box(z, 4))), 2)
    assert cert.hom.target_n == 256
    path = tmp_path / "amplified.json"
    with mock.patch.object(almosthom, "_permutation_pieces",
                           wraps=almosthom._permutation_pieces) as template:
        save_certificate(cert, path)
    assert template.call_count == len(cert.hom.images)
    assert path.read_text() == reference_text(cert)
    with mock.patch.object(almosthom, "_read_image", side_effect=AssertionError("_read_image")):
        loaded = load_certificate(path)
    assert loaded.hom.images.tobytes() == cert.hom.images.tobytes()
    # any other spelling of the same images is read as before
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(path.read_text()), separators=(",", ":")))
    assert load_certificate(compact).hom.images.tobytes() == cert.hom.images.tobytes()


# Sym images: the writer spells each row from one digit table, and the
# reader parses a row with numpy when its text is exactly that spelling,
# falling back to the json module's decoder for any other text.

@st.composite
def digit_certificates(draw):
    """Random bijective rows of one, two or three digits per entry over a
    small ball."""
    domain = ball(BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))](), draw(st.integers(0, 1)))
    n = draw(st.integers(1, 12) | st.integers(95, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [np.arange(n)] + [rng.permutation(n) for _ in range(len(domain) - 1)]
    return Certificate(AlmostHom(domain, "sym", n, np.array(rows)), 0.0, 1.0, "")


SYM_MUTATIONS = ["none", "0", "+", "-0", "1e0", ".0", "space", "newline", "n", "2**31",
                 "2**64", "too many", "too few", "trailing comma", "no ]", "non-ASCII key",
                 "non-ASCII digit"]


@settings(max_examples=300, deadline=None)
@given(digit_certificates(), st.sampled_from(SYM_MUTATIONS), st.data())
def test_reader_on_mutated_sym_images(certificate_file, cert, mutation, data):
    """One token of one image of a writer's sym certificate respelled (a
    leading zero, +, -0, 1e0 or 1.0), given an extra space or newline,
    replaced by n, 2^31 or a value beyond int64, an entry added or removed,
    a trailing comma or no "]", or a non-ASCII key elsewhere in the file:
    the outcome is still that of the whole document."""
    text = reference_text(cert)
    start, end = image_span(text, data.draw(st.sampled_from(list(certificate_to_json(cert)["map"]))))
    tokens = text[start + 5:end - 4].split(",\n   ")
    assert tokens == list(map(str, json.loads(text[start:end])))
    k = data.draw(st.integers(0, len(tokens) - 1))
    seps = [",\n   "] * (len(tokens) - 1) + ["\n  "]
    respelled = {"0": "0" + tokens[k], "+": "+" + tokens[k], "-0": "-0", "1e0": tokens[k] + "e0",
                 ".0": tokens[k] + ".0", "n": str(cert.hom.target_n), "2**31": str(2**31),
                 "2**64": str(2**64 + int(tokens[k])), "non-ASCII digit": "١"}
    if mutation in respelled:
        tokens[k] = respelled[mutation]
    elif mutation in ("space", "newline"):
        at = data.draw(st.integers(0, len(seps) - 1))
        cut = data.draw(st.integers(0, len(seps[at])))
        seps[at] = seps[at][:cut] + {"space": " ", "newline": "\n"}[mutation] + seps[at][cut:]
    elif mutation == "too many":
        tokens.insert(k, tokens[k])
        seps.insert(k, ",\n   ")
    elif mutation == "too few" and len(tokens) > 1:
        del tokens[k], seps[min(k, len(seps) - 2)]
    elif mutation == "trailing comma":
        seps[-1] = "," + seps[-1]
    image = "[\n   " + "".join(t + s for t, s in zip(tokens, seps)) + "]"
    if mutation == "no ]":
        image = image[:-1]
    mutated = text[:start] + image + text[end:]
    if mutation == "non-ASCII key":
        mutated = '{\n "é☃": 0,' + mutated[1:]
    with exact_digit_rows() as parsed:
        assert_reader_matches(certificate_file, mutated)
    assert parsed.call_count >= (mutation == "none")  # a non-ASCII byte sends the file to the decoder


def spelled(row, n: int) -> str:
    return int_row_speller(n, 3)(row).decode()


@contextlib.contextmanager
def exact_digit_rows():
    """Assert that every sym image the in-place reader parses with numpy is
    spelled exactly as the writer spells its row; yields a mock called once
    per such row."""
    parse = almosthom._WriterBytes._digit_row

    def exact(reader, n):
        start = reader.pos
        row = parse(reader, n)
        assert reader.data[start:reader.pos] == spelled(row, n).encode()
        parsed(n)
        return row

    parsed = mock.Mock()
    with mock.patch.object(almosthom._WriterBytes, "_digit_row", exact):
        yield parsed


# sym images of degree 1 or 3: the writer's spelling but for one change that
# numpy alone does not see, which the reader must decode whole (from the sign
# on, json.loads refuses them or reads other values), then the writer's own
# spellings, which it must parse with numpy
DIGIT_EDGES = [
    "[\n   0,\n   1,\n   2 \n  ]",  # one byte too many
    "[\n  \t0,\n   1,\n   2\n  ]",  # other whitespace before the values
    "[\n   0,\n   1,\n   2\t  ]",  # and after them
    "[\n   0, \n  1,\n   2\n  ]",  # and in a separator
    "[\n  +0,\n   1,\n   2\n  ]",  # a sign
    "[\n   00,\n   ,\n   2\n  ]",  # numpy reads the empty entry as 0
    "[\n   0,\n   1,\n   2,\n ]",  # numpy drops a trailing comma
    "[\n    \n  ]",  # numpy reads whitespace as [0]
    "(\n   0\n  ]",  # no "["
    "[]",
    "[\n   0\n  ]",  # the writer's degree-1 spelling
    "[\n   0,\n   1,\n   2\n  ]",  # and degree-3 spelling
]


@pytest.mark.parametrize("image", DIGIT_EDGES)
def test_reader_on_sym_image_edges(certificate_file, image):
    n = 1 if image.count(",") == 0 else 3
    text = writer_layout("sym", n, image)
    with exact_digit_rows() as parsed:
        assert_reader_matches(certificate_file, text)
    assert parsed.call_count == (image == spelled(range(n), n))


def test_reader_allocates_nothing_for_a_claimed_sym_degree(certificate_file):
    """A header may claim any degree n; the reader sizes nothing by it
    before an image of n entries has been read."""
    text = writer_layout("sym", 10**15, "[\n   0\n  ]")
    with exact_digit_rows(), mock.patch.object(almosthom, "digit_table",
                                               side_effect=AssertionError("digit_table")):
        assert_reader_matches(certificate_file, text)


@pytest.mark.parametrize("kind, n", [("sym", 10000), ("unitary", 64)])
def test_readers_size_the_stack_by_the_input(certificate_file, kind, n):
    """One image under a head claiming the 4373 elements of a free ball is
    refused as not covering the ball by every reader, none of which
    allocates a stack for the images the input cannot hold (175 and 286 MB)."""
    image = (int_row_speller(n, 3)(np.arange(n)) if kind == "sym"
             else b"".join(almosthom._permutation_pieces(np.arange(n)))).decode()
    certificate_file.write_text(writer_layout(kind, n, image, {"kind": "free", "rank": 2}, 7))
    for read in (load_certificate, partial(text_mode_read_json, parse=almosthom._certificate_from_text),
                 partial(load_json, build=certificate_from_json)):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedCertificateError, match="map does not cover the whole ball"):
                read(certificate_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, read


def test_reader_hands_numpy_no_image_without_its_bracket(certificate_file):
    """A sym image with no "]" after it is decoded whole, as json.loads fails
    on it, and np.fromstring is never given the rest of the text: only the
    bytes that n values and their separators can take."""
    text = writer_layout("sym", 3, "[\n   0,\n   1,\n   2\n  }")
    with mock.patch.object(np, "fromstring", wraps=np.fromstring) as parsed:
        assert_reader_matches(certificate_file, text)
    assert parsed.call_count == 1
    assert len(parsed.call_args.args[0]) == 3 * len("2,\n   ")


def test_sym_images_take_the_digit_path(tmp_path):
    """A writer's sym certificate is read without decoding any image, and
    any other spelling of it is decoded to the same rows."""
    h = heisenberg_backend()
    cert = folner_certificate(ball(h, 1), folner_box(h, 5))
    path = tmp_path / "heisenberg.json"
    save_certificate(cert, path)
    assert path.read_text() == reference_text(cert)
    with mock.patch.object(almosthom, "_read_image", side_effect=AssertionError("_read_image")):
        assert load_certificate(path).hom.images.tobytes() == cert.hom.images.tobytes()
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(path.read_text()), separators=(",", ":")))
    with mock.patch.object(almosthom, "_read_image", wraps=almosthom._read_image) as decoded, \
            mock.patch.object(np, "fromstring", side_effect=AssertionError("np.fromstring")):
        assert load_certificate(compact).hom.images.tobytes() == cert.hom.images.tobytes()
    assert decoded.call_count == len(cert.hom.images)


def _certificate_bytes(tmp_path) -> dict:
    """The writer's bytes of a unitary (permutation-matrix) certificate over
    Z and of a sym certificate over the Heisenberg group."""
    z, h = zpower_backend(1), heisenberg_backend()
    certs = {"unitary": hyperlinear_certificate(folner_certificate(ball(z, 2), folner_box(z, 6))),
             "sym": folner_certificate(ball(h, 1), folner_box(h, 3))}
    for name, cert in certs.items():
        save_certificate(cert, tmp_path / f"{name}.json")
    return {name: (tmp_path / f"{name}.json").read_bytes() for name in certs}


def _flip_in_image(text: bytes, key: bytes, old: bytes, new: bytes) -> bytes:
    """`text` with the first `old` in the image of map key `key` spelled `new`."""
    at = text.index(old, text.index(b'"%s": [' % key))
    return text[:at] + new + text[at + len(old):]


def _rename_key(text: bytes, key: bytes, new: bytes) -> bytes:
    return text.replace(b'\n  "%s": [' % key, b'\n  "%s": [' % new, 1)


# name -> (verify's exit code, the input made from the writer's bytes)
READER_INPUTS = {
    "empty": (2, lambda c: b""),  # an empty file cannot be mapped
    "CRLF": (0, lambda c: c["unitary"].replace(b"\n", b"\r\n")),
    "lone CR": (0, lambda c: c["unitary"].replace(b"\n", b"\r")),
    "CRLF, cut": (2, lambda c: c["unitary"].replace(b"\n", b"\r\n")[:len(c["unitary"]) // 2]),
    "lone CR, a repeated key": (2, lambda c: c["unitary"].replace(b"\n", b"\r").replace(
        b'"provenance"', b'"claimed_defect"')),
    "invalid UTF-8": (2, lambda c: c["unitary"].replace(b"folner", b"fol\xffner")),
    "cut UTF-8": (2, lambda c: c["unitary"] + b"\xe2\x9c"),
    "BOM": (2, lambda c: b"\xef\xbb\xbf" + c["unitary"]),
    "FIFO": (0, lambda c: c["unitary"]),
    "FIFO, CRLF": (0, lambda c: c["unitary"].replace(b"\n", b"\r\n")),
    "Heisenberg": (0, lambda c: c["sym"]),
    "cut in an image": (2, lambda c: c["unitary"][:c["unitary"].index(b'"a": [') + 99]),
    "sym row, a flipped digit": (2, lambda c: _flip_in_image(c["sym"], b"x", b"1,", b"2,")),
    "permutation row, a flipped digit": (
        2, lambda c: _flip_in_image(c["unitary"], b"a", b"1.0", b"0.0")),
    "non-ASCII provenance": (0, lambda c: c["unitary"].replace(b'"provenance": "',
                                                                 '"provenance": "é '.encode())),
    "non-ASCII map key": (2, lambda c: c["unitary"].replace(b'"a": [', '"é": ['.encode())),
    # the writer's bytes throughout, failing a check only after them
    "non-bijective sym row": (2, lambda c: _flip_in_image(c["sym"], b"y", b"\n   80", b"\n   79")),
    "map key outside the ball": (2, lambda c: _rename_key(c["sym"], b"y", b"y y")),
    "two map keys for one element": (2, lambda c: _rename_key(c["sym"], b"y", b"x x'")),
    "repeated map key": (2, lambda c: _rename_key(c["sym"], b"y", b"x")),
    "claim not a number": (2, lambda c: c["sym"].replace(b'"claimed_defect": 0.0',
                                                          b'"claimed_defect": "0.0"')),
    "map too short for the ball": (2, lambda c: c["sym"][:c["sym"].index(b',\n  "y\'": [')]
                                   + c["sym"][c["sym"].rindex(b"\n },"):]),
    # "map" sorts before "schema": json.loads meets the repeated key first
    "sorted, a bad schema after a repeated map key": (2, lambda c: _rename_key(json.dumps(
        {**json.loads(c["sym"]), "schema": "sofic-cert/v0"}, indent=1, sort_keys=True).encode(),
        b"y", b"x")),
}
# the late failures above, with the message each ends in
CHECK_FAILURES = {
    "sym row, a flipped digit": "image 1 is not a bijection of {0,...,80}",
    "non-bijective sym row": "image 2 is not a bijection of {0,...,80}",
    "map key outside the ball": "map key 'y y' lies outside the ball",
    "two map keys for one element": "map keys '' and \"x x'\" name the same element",
    "repeated map key": "duplicate key 'x' in a JSON object",
    "claim not a number": "claimed_defect must be a JSON number, got '0.0'",
    "map too short for the ball": "map does not cover the whole ball",
}


@pytest.mark.parametrize("name", READER_INPUTS)
def test_binary_reads_match_a_text_mode_read(tmp_path, capsys, name):
    """A certificate file, a FIFO included, is mapped or read as bytes, read
    in place when the writer spelled it and otherwise decoded once with text
    mode's universal newlines: `verify` gives the exit code, report and
    `malformed:` message of a text-mode read of the same bytes."""
    code, make = READER_INPUTS[name]
    data = make(_certificate_bytes(tmp_path))
    path = tmp_path / "input.json"

    def verify_outcome():
        if name.startswith("FIFO"):
            os.mkfifo(path)
            feed = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
            feed.start()
        else:
            path.write_bytes(data)
        capsys.readouterr()
        code = main(["verify", str(path), "--eps", "1e-6", "--delta", "1"])
        if name.startswith("FIFO"):
            feed.join(10)
            path.unlink()
        return (code, *capsys.readouterr())

    got = verify_outcome()
    with mock.patch.object(almosthom, "read_json", text_mode_read_json):
        want = verify_outcome()
    assert got == want
    assert got[0] == code
    assert got[2] == "" if code < 2 else got[2].startswith("malformed: ")


def test_writer_files_are_read_in_place(tmp_path):
    """A writer's sym or unitary (permutation-matrix) certificate, a finite
    group's table in its head among them, is read without decoding the file:
    the decoded-text reader is never reached."""
    z, h = zpower_backend(1), heisenberg_backend()
    sym = folner_certificate(ball(h, 1), folner_box(h, 3))
    c5 = cyclic_backend(5)
    domain = ball(c5, 2)
    table = lef_to_sofic(domain, c5, dict(enumerate(domain.elements)))
    certs = [sym, hyperlinear_certificate(sym), measured_certificate(table),
             amplify_certificate(hyperlinear_certificate(
                 folner_certificate(ball(z, 1), folner_box(z, 4))), 2)]
    path = tmp_path / "cert.json"
    for cert in certs:
        save_certificate(cert, path)
        with mock.patch.object(almosthom, "_certificate_from_text",
                               side_effect=AssertionError("the file was decoded whole")):
            loaded = load_certificate(path)
        assert loaded.hom.images.tobytes() == cert.hom.images.tobytes()
        assert certificate_to_json(loaded) == certificate_to_json(cert)


@pytest.mark.parametrize("name", CHECK_FAILURES)
def test_writer_bytes_failing_a_check_are_read_once(tmp_path, name):
    """A file spelled by the writer that fails a check on its map or its
    claims is refused by the in-place reader itself, with the decoded-text
    reader's message: the file is not decoded and read a second time."""
    path = tmp_path / "input.json"
    path.write_bytes(READER_INPUTS[name][1](_certificate_bytes(tmp_path)))
    with mock.patch.object(almosthom, "_certificate_from_text",
                           side_effect=AssertionError("the file was decoded whole")), \
            pytest.raises(MalformedCertificateError) as refused:
        load_certificate(path)
    assert str(refused.value) == CHECK_FAILURES[name]
