import random

import pytest

from soficlab.matching import (
    BipartiteGraph,
    DeficiencyWitness,
    TwoOneMatching,
    paradox_from_matching,
    two_one_matching,
)

from oracles import hall_condition_holds, matching_exists_bruteforce


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
