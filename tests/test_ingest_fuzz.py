"""Fuzz of the certificate, group-table and graph loaders.

Whatever JSON document they are given, `finite_backend_from_json`,
`ColoredGraph.from_json` and `BipartiteGraph.from_json` either return a value
or raise MalformedCertificateError, and `certificate_from_json` may also
raise ResourceCapError; any other exception is a defect (the CLI would turn
it into a traceback or an "error:" line instead of "malformed:").  Documents
are valid ones with one entry replaced or removed, plus arbitrary JSON
values.
"""

import json

from hypothesis import example, given, settings, strategies as st

from soficlab.almosthom import certificate_from_json, certificate_to_json
from soficlab.amenability import folner_box
from soficlab.backends import finite_backend_from_json, zpower_backend
from soficlab.balls import ball
from soficlab.config import ResourceLimits
from soficlab.constructions import folner_certificate, hyperlinear_certificate
from soficlab.errors import MalformedCertificateError, ResourceCapError
from soficlab.graphs import ColoredGraph
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
SMALL_LIMITS = ResourceLimits(ball_cap=64, rank_cap=8)

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
        certificate_from_json(doc, SMALL_LIMITS)
    except (MalformedCertificateError, ResourceCapError):
        pass


def test_valid_documents_load():
    assert certificate_from_json(SYM_CERT, SMALL_LIMITS).hom.images.tolist() == [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert certificate_from_json(UNITARY_CERT, SMALL_LIMITS).hom.target_n == 3
    assert finite_backend_from_json(C3_TABLE).order == 3
    assert ColoredGraph.from_json(PARTIAL_GRAPH).successors.tolist() == [[1, 2, 0], [-1, 0, -1]]
    assert BipartiteGraph.from_json(HALL_GRAPH).adjacency == ((0, 1), (1, 2, 3))
