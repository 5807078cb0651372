import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import soficlab
from soficlab import matching
from soficlab.backends import free_backend, zpower_backend
from soficlab.balls import free_ball_size
from soficlab.matching import (
    BipartiteGraph,
    DeficiencyWitness,
    TwoOneMatching,
    paradox_from_matching,
    two_one_matching,
)

import oracles
from oracles import hall_condition_holds, matching_exists_bruteforce, max_flow_two_one


def random_graph(rng, max_left=6, max_right=12, density=0.5):
    na = rng.randint(1, max_left)
    nb = rng.randint(1, max_right)
    adjacency = tuple(
        tuple(b for b in range(nb) if rng.random() < density) for _ in range(na)
    )
    return BipartiteGraph(na, nb, adjacency)


def test_graph_canonicalizes_adjacency():
    g = BipartiteGraph(2, 3, ((2, 0, 2), (1,)))
    assert g.adjacency == ((0, 2), (1,))
    assert BipartiteGraph(2, 3, ((0, 0, 2), (1, 2))).adjacency == ((0, 2), (1, 2))
    assert g.neighbourhood([0, 1]) == {0, 1, 2}
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, ((5,),))
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, ((0,),))


def test_graph_json_round_trip():
    g = BipartiteGraph(2, 4, ((0, 1), (1, 2, 3)))
    assert BipartiteGraph.from_json(g.to_json()).adjacency == g.adjacency


def test_feasible_example():
    g = BipartiteGraph(2, 4, ((0, 1, 2), (1, 2, 3)))
    out = two_one_matching(g)
    assert isinstance(out, TwoOneMatching)
    assert out.check(g)


def test_matching_is_deterministic():
    g = BipartiteGraph(3, 7, ((0, 1, 4), (1, 2, 5), (2, 3, 6)))
    outs = {two_one_matching(g) for _ in range(3)}
    assert len(outs) == 1


def test_infeasible_example_with_witness():
    # three left vertices share only five right neighbours: |N(X)| = 5 < 6
    g = BipartiteGraph(3, 6, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    out = two_one_matching(g)
    assert isinstance(out, DeficiencyWitness)
    X = out.left_subset
    assert len(g.neighbourhood(X)) < 2 * len(X)
    assert out.neighbourhood_size == len(g.neighbourhood(X))


def test_isolated_left_vertex_infeasible():
    g = BipartiteGraph(2, 4, ((), (0, 1, 2, 3)))
    out = two_one_matching(g)
    assert isinstance(out, DeficiencyWitness)
    assert 0 in out.left_subset


def test_three_way_oracle_agreement():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng)
        flow = two_one_matching(g)
        feasible = isinstance(flow, TwoOneMatching)
        assert feasible == matching_exists_bruteforce(g) == hall_condition_holds(g)
        if feasible:
            assert flow.check(g)
        else:
            X = flow.left_subset
            assert X and len(g.neighbourhood(X)) < 2 * len(X)


def test_adding_edges_preserves_feasibility():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, max_left=5, max_right=10)
        if not isinstance(two_one_matching(g), TwoOneMatching):
            continue
        extra = tuple(
            tuple(set(nbrs) | {rng.randrange(g.right_count)})
            for nbrs in g.adjacency
        )
        g2 = BipartiteGraph(g.left_count, g.right_count, extra)
        assert isinstance(two_one_matching(g2), TwoOneMatching)


def test_matching_checker_rejects_bad_matchings():
    g = BipartiteGraph(2, 4, ((0, 1), (2, 3)))
    assert TwoOneMatching((0, 2), (1, 3)).check(g)
    assert not TwoOneMatching((0, 2), (1, 2)).check(g)  # images overlap
    assert not TwoOneMatching((0, 1), (2, 3)).check(g)  # j not along edges
    assert not TwoOneMatching((0,), (1,)).check(g)  # not total


def test_paradox_from_matching_free_group():
    report = paradox_from_matching(3, 2)
    assert report.feasible
    assert report.witness is None
    assert sum(report.pieces.values()) == 53  # |B_3| of the rank-2 free group
    assert report.translated_disjoint
    assert report.leakage > 0  # truncation necessarily spills over the boundary
    # piece keys are pairs of translator words of length <= spread
    for s_w, t_w in report.pieces:
        assert len(s_w.split()) <= 2 or s_w == ""
        assert len(t_w.split()) <= 2 or t_w == ""


def test_paradox_from_matching_validation():
    with pytest.raises(ValueError):
        paradox_from_matching(0, 1)
    with pytest.raises(ValueError):
        paradox_from_matching(1, 0)


@st.composite
def bipartite_graphs(draw):
    na = draw(st.integers(min_value=0, max_value=10))
    nb = draw(st.integers(min_value=0, max_value=24))
    density = draw(st.sampled_from([0.0, 0.15, 0.3, 0.6, 1.0]))
    rows = []
    for _ in range(na):
        if nb == 0 or draw(st.integers(0, 9)) == 0:
            rows.append(())  # an isolated left vertex
        else:
            rows.append(tuple(b for b in range(nb)
                              if draw(st.floats(0, 1)) < density))
    return BipartiteGraph(na, nb, tuple(rows))


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
@example(BipartiteGraph(0, 0, ()))
@example(BipartiteGraph(0, 3, ()))
@example(BipartiteGraph(2, 0, ((), ())))
@example(BipartiteGraph(3, 6, ((0, 1, 2), (1, 2, 3), (2, 3, 4))))
@example(BipartiteGraph(3, 7, ((0, 1, 4), (1, 2, 5), (2, 3, 6))))
def test_flow_replays_lowest_index_bfs(graph):
    """Same value, per-left flow sets and final reached sets as the oracle,
    so matchings and deficiency witnesses are unchanged too."""
    assert matching._max_flow_two_one(graph) == max_flow_two_one(graph)


def test_flow_oracle_sweep_covers_both_outcomes():
    rng = random.Random(400)
    outcomes = set()
    for _ in range(400):
        g = random_graph(rng, max_left=12, max_right=30, density=rng.random())
        value, flow, reached = matching._max_flow_two_one(g)
        assert (value, flow, reached) == max_flow_two_one(g)
        outcomes.add(value == 2 * g.left_count)
    assert outcomes == {True, False}


@pytest.mark.parametrize("backend,radius,spread", [
    (free_backend(2), 1, 1), (free_backend(2), 2, 1), (free_backend(2), 2, 2),
    (free_backend(2), 3, 1), (free_backend(2), 3, 2), (free_backend(3), 2, 1),
    (zpower_backend(1), 4, 1),  # amenable: infeasible, with a witness
])
def test_paradox_from_matching_matches_oracle_flow(monkeypatch, backend, radius, spread):
    report = paradox_from_matching(radius, spread, backend)
    monkeypatch.setattr(matching, "_max_flow_two_one", max_flow_two_one)
    expected = paradox_from_matching(radius, spread, backend)
    assert report == expected
    assert report.feasible == (backend.kind == "free")
    assert list(report.pieces.items()) == list(expected.pieces.items())



PARADOX_BACKENDS = {
    "free2": lambda: free_backend(2),
    "free3": lambda: free_backend(3),
    "z1": lambda: zpower_backend(1),  # amenable: infeasible, with a witness
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PARADOX_BACKENDS)), st.integers(1, 6), st.integers(1, 3))
@example("free2", 4, 2)
@example("free2", 3, 3)
@example("free3", 2, 2)
@example("z1", 6, 3)
def test_paradox_from_matching_equals_the_multiplication_route(kind, radius, spread):
    backend = PARADOX_BACKENDS[kind]()
    # the oracle multiplies per edge, so keep its ball to about a thousand elements
    assume(backend.kind != "free" or free_ball_size(backend.rank, radius + spread) <= 1500)
    report = paradox_from_matching(radius, spread, backend)
    expected = oracles.paradox_from_matching(radius, spread, backend)
    assert report == expected
    assert list(report.pieces.items()) == list(expected.pieces.items())


NO_MASKED_ARRAYS = """
import sys
from soficlab.backends import finite_backend_from_json
from soficlab.matching import paradox_from_matching
finite_backend_from_json({"table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
                          "identity": 0})
assert paradox_from_matching(3, 2).translated_disjoint
print("numpy.ma" in sys.modules)
"""


def test_table_load_and_paradox_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma, a cost paid once per process
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
