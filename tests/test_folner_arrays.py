"""The array Folner route against the set-based reference route it replaced:
Folner defects, Reiter norms, Folner certificates, canonical fills and local
match reports must be equal, not merely close."""

import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from soficlab.amenability import (
    FolnerSet,
    folner_box,
    folner_defect,
    generator_folner_defect,
    reiter_norm,
)
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.constructions import folner_to_sofic
from soficlab.errors import ResourceCapError
from soficlab.graphs import ColoredGraph, local_match_fraction
from soficlab.metrics import canonical_fill

BACKENDS = {
    "z": zpower_backend(1),
    "z2": zpower_backend(2),
    "z3": zpower_backend(3),
    "heisenberg": heisenberg_backend(),
}


def _dim(backend) -> int:
    return 3 if backend.kind == "heisenberg" else backend.dim


@st.composite
def folner_sets(draw):
    """A backend, a point list with negative coordinates and repeats (down to
    one point), and translations reaching up to 12 past the bounding box."""
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]
    d = _dim(backend)
    point = st.tuples(*[st.integers(-4, 4)] * d)
    points = draw(st.lists(point, min_size=1, max_size=25))
    points += draw(st.lists(st.sampled_from(points), max_size=5))  # repeats
    shifts = draw(st.lists(st.tuples(*[st.integers(-16, 16)] * d), min_size=1, max_size=4))
    return FolnerSet(backend, points), shifts


@settings(max_examples=300, deadline=None)
@given(folner_sets())
def test_folner_defect_and_reiter_equal_the_set_route(case):
    phi, shifts = case
    assert folner_defect(phi, shifts) == oracles.folner_defect(phi, shifts)
    for g in shifts:
        assert reiter_norm(phi, g) == oracles.reiter_norm(phi, g)
    assert generator_folner_defect(phi) == oracles.folner_defect(
        phi, [phi.backend.letter(s) for s in phi.backend.alphabet.signed_letters()])


@settings(max_examples=150, deadline=None)
@given(folner_sets(), st.integers(1, 2))
def test_folner_to_sofic_equals_the_set_route(case, radius):
    phi, _ = case
    domain = ball(phi.backend, radius)
    assert np.array_equal(folner_to_sofic(domain, phi).images,
                          oracles.folner_to_sofic(domain, phi).images)


@settings(max_examples=100, deadline=None)
@given(folner_sets())
def test_positions_index_the_sorted_distinct_points(case):
    phi, shifts = case
    elements = phi.elements
    assert list(elements) == sorted(set(elements))
    position = {x: i for i, x in enumerate(elements)}
    for g in shifts:
        for translate, mul in ((phi.left_translate, lambda x: phi.backend.multiply(g, x)),
                               (phi.right_translate, lambda x: phi.backend.multiply(x, g))):
            expected = [position.get(mul(x), -1) for x in elements]
            assert phi.positions(translate(g)).tolist() == expected


# the largest coordinate a point or translation may have
BOUND = 2**31 - 1


@st.composite
def dense_folner_sets(draw):
    """A backend, the points of a set whose columns take consecutive values,
    and translations.  The set is a box at a random offset, that box with
    random points removed (its values stay consecutive, its prefixes need
    not), an L (the box less a corner box) or one point.  Translation
    coordinates reach +-(2^31 - 1)."""
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]
    d = _dim(backend)
    sides = draw(st.tuples(*[st.integers(1, 5)] * d))
    offset = draw(st.tuples(*[st.one_of(st.integers(-8, 8), st.integers(-BOUND, BOUND - 4))] * d))
    box = np.indices(sides).reshape(d, -1).T
    shape = draw(st.sampled_from(["box", "holes", "L", "point"]))
    if shape == "holes":
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box))))
        box = box[keep] if keep.any() else box[:1]
    elif shape == "L":
        corner = np.array(draw(st.tuples(*[st.integers(1, s) for s in sides])))
        box = box[(box < corner).any(axis=1)]
    elif shape == "point":
        box = box[draw(st.integers(0, len(box) - 1))][None]
    coordinate = st.one_of(st.integers(-6, 6), st.sampled_from([-BOUND, BOUND]))
    shifts = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=4))
    return backend, box + np.array(offset), shifts


@settings(max_examples=300, deadline=None)
@given(dense_folner_sets())
def test_dense_levels_equal_the_set_route(case):
    backend, points, shifts = case
    phi = FolnerSet(backend, points)
    for g in shifts:
        for moved in (phi.left_translate(g), phi.right_translate(g)):
            assert phi.positions(moved).tolist() == oracles.positions(phi, moved.tolist())
    assert folner_defect(phi, shifts) == oracles.folner_defect(phi, shifts)
    assert generator_folner_defect(phi) == oracles.folner_defect(
        phi, [backend.letter(s) for s in backend.alphabet.signed_letters()])


@settings(max_examples=100, deadline=None)
@given(dense_folner_sets(), st.integers(1, 2))
def test_dense_folner_to_sofic_equals_the_set_route(case, radius):
    backend, points, _ = case
    phi = FolnerSet(backend, points)
    domain = ball(backend, radius)
    assert np.array_equal(folner_to_sofic(domain, phi).images,
                          oracles.folner_to_sofic(domain, phi).images)


@settings(max_examples=200, deadline=None)
@given(dense_folner_sets(), st.randoms(use_true_random=False))
def test_points_are_kept_in_order_or_sorted_and_deduplicated(case, random):
    """Strictly increasing rows are stored as given; shuffled or repeated
    rows are stored as their lexicographically sorted distinct points."""
    backend, points, _ = case
    increasing = sorted(set(map(tuple, points.tolist())))
    assert FolnerSet(backend, increasing).elements == tuple(increasing)
    mixed = increasing + random.choices(increasing, k=random.randint(0, 3))
    random.shuffle(mixed)
    assert FolnerSet(backend, mixed).elements == tuple(increasing)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_box_defects_equal_the_set_route(name):
    phi = folner_box(BACKENDS[name], 3)
    b = phi.backend
    letters = [b.letter(s) for s in b.alphabet.signed_letters()]
    assert folner_defect(phi, letters) == oracles.folner_defect(phi, letters)
    domain = ball(b, 2)
    assert np.array_equal(folner_to_sofic(domain, phi).images,
                          oracles.folner_to_sofic(domain, phi).images)


def test_heisenberg_box_defect_value():
    phi = folner_box(heisenberg_backend(), 16)
    assert len(phi) == 16**4
    assert generator_folner_defect(phi) == Fraction(737, 4096)


def test_folner_set_rejects_what_int64_cannot_hold_exactly():
    b = heisenberg_backend()
    for points in ([(2**31, 0, 0)], [(0, 0, -2**31)], [(2**70, 0, 0)], [(0.5, 0, 0)],
                   [(0, 0)], []):
        with pytest.raises(ValueError):
            FolnerSet(b, points)
    phi = FolnerSet(b, [(0, 0, 0)])
    for g in ((2**31, 0, 0), (0.5, 0, 0), (1, 0)):
        with pytest.raises(ValueError):
            folner_defect(phi, [g])
    with pytest.raises(ValueError):
        FolnerSet(free_backend(2), [(1,)])


def test_folner_box_over_the_ball_cap_allocates_nothing():
    with mock.patch.dict(os.environ, {"SOFICLAB_BALL_CAP": "1000"}):
        assert len(folner_box(zpower_backend(1), 1000)) == 1000
        with pytest.raises(ResourceCapError, match="1001 points"):
            folner_box(zpower_backend(1), 1001)
        with pytest.raises(ResourceCapError, match=str(10**20)):
            folner_box(heisenberg_backend(), 10**5)


@st.composite
def partial_rows(draw):
    """A partial injection of {0..n-1} with None holes, or occasionally a
    repeated value."""
    n = draw(st.integers(1, 12))
    row = list(draw(st.permutations(range(n))))
    holes = draw(st.lists(st.integers(0, n - 1), max_size=n))
    for i in holes:
        row[i] = None
    if n > 1 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        row[j] = row[i] if row[i] is not None else 0
    return row


@settings(max_examples=300, deadline=None)
@given(partial_rows())
def test_canonical_fill_equals_the_reference(row):
    as_array = np.array([-1 if v is None else v for v in row])
    try:
        expected = oracles.canonical_fill(row)
    except ValueError:
        with pytest.raises(ValueError, match="not injective"):
            canonical_fill(as_array)
        return
    assert canonical_fill(as_array).tolist() == expected.tolist()


REFERENCES = {
    "z": zpower_backend(1),
    "z2": zpower_backend(2),
    "heisenberg": heisenberg_backend(),
    "free": free_backend(2),
}


@st.composite
def partial_graphs(draw):
    """A reference backend and a coloured graph on its alphabet whose
    successor maps may be partial (-1) and need not be injective."""
    backend = REFERENCES[draw(st.sampled_from(sorted(REFERENCES)))]
    n = draw(st.integers(1, 14))
    succ = st.integers(-1, n - 1)
    total = draw(st.booleans())
    successors = []
    for _ in backend.alphabet.names:
        if total:
            successors.append(draw(st.permutations(range(n))))
        else:
            successors.append(draw(st.lists(succ, min_size=n, max_size=n)))
    return backend, ColoredGraph(backend.alphabet.names, np.array(successors))


def _assert_same_report(graph, radius, reference, max_failures):
    got = local_match_fraction(graph, radius, reference, max_failures=max_failures)
    want = oracles.local_match_fraction(graph, radius, reference, max_failures=max_failures)
    assert got == want
    return got


@settings(max_examples=300, deadline=None)
@given(partial_graphs(), st.integers(1, 3), st.integers(0, 4))
def test_local_match_fraction_equals_the_traversal_route(case, radius, max_failures):
    backend, graph = case
    _assert_same_report(graph, radius, ball(backend, radius), max_failures)


def _cycle(n):
    return ColoredGraph(("a",), [np.roll(np.arange(n), -1)])


def _torus(n, twist):
    """Z_n x Z_n with the b-edges of the last column shifted by `twist`."""
    a = [n * (i // n) + (i + 1) % n for i in range(n * n)]
    b = [(i + n + (twist if i % n == n - 1 else 0)) % (n * n) for i in range(n * n)]
    return ColoredGraph(("a", "b"), np.array([a, b]))


@pytest.mark.parametrize("graph, family, radius, reason", [
    (ColoredGraph(("a",), np.array([[1, 2, 3, -1, -1]])), "z", 2, "undefined traversal"),
    (_torus(6, 1), "z2", 2, "equal elements separate"),
    (_cycle(5), "z", 3, "distinct elements collide"),
])
def test_each_failure_reason_equals_the_traversal_route(graph, family, radius, reason):
    reference = ball(REFERENCES[family], radius)
    report = _assert_same_report(graph, radius, reference, max_failures=3)
    assert len(report.sample_failures) == 3
    assert any(reason in text for _, text in report.sample_failures)
    _assert_same_report(graph, radius, reference, max_failures=0)


def test_local_match_fraction_over_several_chunks(monkeypatch):
    import soficlab.graphs

    monkeypatch.setattr(soficlab.graphs, "_MATCH_CHUNK", 8)  # one vertex per chunk at radius 2
    graph = _torus(5, 2)
    _assert_same_report(graph, 2, ball(REFERENCES["z2"], 2), max_failures=7)
