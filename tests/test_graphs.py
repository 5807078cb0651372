import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab.almosthom import defect, separation
from soficlab.amenability import folner_box
from soficlab.backends import free_backend, zpower_backend
from soficlab.balls import ball
from soficlab.constructions import folner_certificate, free_sofic_certificate
from soficlab.errors import BackendMismatchError
from soficlab.graphs import (
    ColoredGraph,
    cayley_ball_graph,
    cert_to_graph,
    graph_to_almosthom,
    local_match_fraction,
)


def cycle_graph(n: int) -> ColoredGraph:
    return ColoredGraph(colors=("a",), successors=[np.roll(np.arange(n), -1)])


def test_colored_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph(("a",), np.empty((1, 0), dtype=int))  # no vertex
    with pytest.raises(ValueError):
        ColoredGraph(("a", "b"), [[0, 1]])  # a row per colour
    with pytest.raises(ValueError):
        ColoredGraph(("a",), [[0, 5]])  # out of range
    with pytest.raises(ValueError):
        ColoredGraph(("a",), [[0, -2]])
    with pytest.raises(ValueError):
        ColoredGraph(("a",), [[0.0, 1.0]])  # not integers
    with pytest.raises(ValueError, match="distinct"):
        ColoredGraph(("a", "a"), [[0, 1], [1, 0]])


def test_total_and_predecessors():
    g = cycle_graph(4)
    assert g.total
    assert g.predecessors().tolist() == [[3, 0, 1, 2]]
    partial = ColoredGraph(("a",), [[1, -1, -1]])
    assert not partial.total
    assert partial.predecessors().tolist() == [[-1, 0, -1]]
    # vertex 1 has predecessors 0 and 2 under a and 1 and 2 under b: the least counts
    two = ColoredGraph(("a", "b"), [[1, 0, 1], [2, 1, 1]])
    assert not two.total
    assert two.predecessors().tolist() == [[1, 0, -1], [-1, 1, 0]]


def test_json_and_dot_round_trip():
    g = cycle_graph(3)
    back = ColoredGraph.from_json(g.to_json())
    assert np.array_equal(back.successors, g.successors)
    dot = g.to_dot()
    assert dot.startswith("digraph") and '0 -> 1 [label="a"' in dot
    partial = ColoredGraph(("a",), [[1, -1]])
    assert partial.to_json()["successors"] == {"a": [1, None]}
    back = ColoredGraph.from_json(partial.to_json())
    assert back.successors.tolist() == [[1, -1]]
    assert not back.successors.flags.writeable


def test_cayley_ball_graph_free():
    g = cayley_ball_graph(free_backend(2), 2)
    assert g.vertex_count == 17
    assert g.colors == ("a", "b")
    assert not g.total  # boundary edges leave the ball
    # identity is vertex 0; colour a sends it to the element a
    t = ball(free_backend(2), 2)
    assert g.successors[0, 0] == t.index[(1,)]


def test_cert_to_graph_and_back_exact():
    for cert in (
        free_sofic_certificate(1),
        folner_certificate(ball(zpower_backend(1), 2), folner_box(zpower_backend(1), 12)),
    ):
        graph = cert_to_graph(cert.hom)
        assert graph.total
        back = graph_to_almosthom(graph, cert.hom.domain)
        assert np.array_equal(back.images, cert.hom.images)
        assert defect(back) == 0
        assert separation(back) == 1


def test_cert_to_graph_requires_sym():
    from soficlab.constructions import sofic_to_hyperlinear

    cert = free_sofic_certificate(1)
    with pytest.raises(ValueError):
        cert_to_graph(sofic_to_hyperlinear(cert.hom))


def test_local_match_fraction_cycles():
    ref = ball(zpower_backend(1), 3)
    assert local_match_fraction(cycle_graph(100), 3, ref).fraction == 1
    rep = local_match_fraction(cycle_graph(5), 3, ref)
    assert rep.fraction == 0
    assert rep.sample_failures  # explains why vertices fail
    # in a 6-cycle the reference elements +3 and -3 land on the same vertex
    assert local_match_fraction(cycle_graph(6), 3, ref).fraction == 0


def test_local_match_fraction_validation():
    ref = ball(zpower_backend(1), 2)
    with pytest.raises(ValueError):
        local_match_fraction(cycle_graph(10), 3, ref)  # radius mismatch
    with pytest.raises(BackendMismatchError):
        local_match_fraction(
            ColoredGraph(("x",), [[1, 2, 0]]), 2, ref
        )
    with pytest.raises(ValueError):
        local_match_fraction(cycle_graph(10), 0, ref)


def test_graph_to_almosthom_fills_partial_graphs():
    ref = ball(zpower_backend(1), 1)
    partial = ColoredGraph(("a",), [[1, 2, -1, -1]])
    hom = graph_to_almosthom(partial, ref)
    gen = hom.images[ref.index[(1,)]]
    assert gen.tolist()[:2] == [1, 2]
    assert sorted(gen.tolist()) == [0, 1, 2, 3]
    bad = ColoredGraph(("a",), [[1, 1, -1]])
    with pytest.raises(ValueError, match="injective"):
        graph_to_almosthom(bad, ref)


def test_graph_to_almosthom_backend_mismatch():
    ref = ball(free_backend(2), 1)
    with pytest.raises(BackendMismatchError):
        graph_to_almosthom(cycle_graph(4), ref)


def test_graph_text_matches_the_encoder(tmp_path):
    """`json_text` and the `graph` command write exactly the encoder's
    indent=1 text, with null for each missing edge."""
    import json

    from soficlab.almosthom import save_certificate
    from soficlab.cli import main
    from soficlab.errors import load_json

    partial = {"vertexCount": 3, "colors": ["a", 'b"é☃'],
               "successors": {"a": [1, 2, 0], 'b"é☃': [None, 0, None]}}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    z = zpower_backend(1)
    graphs = [load_json(path, ColoredGraph.from_json), cycle_graph(1),
              cayley_ball_graph(free_backend(2), 2),
              cert_to_graph(folner_certificate(ball(z, 2), folner_box(z, 5)).hom)]
    for graph in graphs:
        assert graph.json_text() == json.dumps(graph.to_json(), indent=1, default=str)
    assert "null" in graphs[0].json_text() and "null" in graphs[2].json_text()

    cert, out = tmp_path / "cert.json", tmp_path / "graph.json"
    save_certificate(free_sofic_certificate(2), cert)
    assert main(["graph", str(cert), "-o", str(out)]) == 0
    graph = load_json(out, ColoredGraph.from_json)
    assert out.read_text() == json.dumps(graph.to_json(), indent=1, default=str) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12), st.data())
def test_graph_to_almosthom_over_a_free_ball_is_exact(rank, radius, n, data):
    """Any permutations of the vertices define a homomorphism of the free
    group, so the rows walked over a free ball have defect exactly 0."""
    reference = ball(free_backend(rank), radius)
    perms = [data.draw(st.permutations(range(n))) for _ in range(rank)]
    graph = ColoredGraph(reference.backend.alphabet.names, np.array(perms))
    assert defect(graph_to_almosthom(graph, reference)) == 0
