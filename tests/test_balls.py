import json
import os
import resource
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import soficlab
from soficlab import balls
from soficlab.backends import (
    free_backend,
    heisenberg_backend,
    zpower_backend,
)
from soficlab.balls import ball, free_ball_size
from soficlab.errors import ResourceCapError
from soficlab.words import reduce_word

from oracles import (
    ball_contains,
    ball_inverses,
    ball_products,
    cyclic_backend,
    free_junction_product,
    sl2_finite_backend,
    spelled_ball,
    word_inverse,
)

PREFIX_BACKENDS = {
    "free": lambda: free_backend(2),
    "zpower": lambda: zpower_backend(2),
    "heisenberg": heisenberg_backend,
    "finite": lambda: sl2_finite_backend(3),  # SL(2, Z_3), order 24, saturates at radius 4
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PREFIX_BACKENDS)), st.integers(0, 3), st.integers(1, 3))
def test_smaller_ball_is_a_prefix(kind, radius, k):
    # BFS order: B_r is the first |B_r| elements of B_{r+k}, with the same
    # spellings, so membership in B_r is an index test
    backend = PREFIX_BACKENDS[kind]()
    small, big = ball(backend, radius), ball(backend, radius + k)
    size = len(small)
    assert big.elements[:size] == small.elements
    assert [big.word(i) for i in range(size)] == [small.word(i) for i in range(size)]
    assert big.lengths[:size] == small.lengths
    assert all(length > radius for length in big.lengths[size:])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["free", "zpower", "heisenberg"]), st.integers(2, 4),
       st.integers(1, 6), st.data())
def test_walk_in_blocks_gives_the_same_rows(kind, radius, chunk, data):
    table = ball(PREFIX_BACKENDS[kind](), radius)
    start = np.array(data.draw(st.lists(st.integers(0, len(table)), min_size=1, max_size=4)))
    whole = table.walk(table.succ, start)  # each level in one block
    with mock.patch.object(balls, "_PRODUCT_CHUNK", chunk):
        assert max(hi - lo for lo, hi in table.levels()) > chunk
        assert np.array_equal(table.walk(table.succ, start), whole)


def test_free_ball_sizes_match_closed_form():
    for rank in (1, 2, 3):
        b = free_backend(rank)
        for radius in range(0, 5 if rank == 1 else 4):
            assert len(ball(b, radius)) == free_ball_size(rank, radius)


def test_known_ball_sizes():
    assert len(ball(free_backend(2), 2)) == 17
    assert len(ball(free_backend(2), 8)) == 13121
    assert len(ball(zpower_backend(2), 2)) == 13  # diamond |a|+|b| <= 2
    assert len(ball(zpower_backend(1), 3)) == 7


def test_identity_first_and_lengths():
    t = ball(zpower_backend(2), 2)
    words = [t.word(i) for i in range(len(t))]
    assert t.elements[0] == (0, 0)
    assert words[0] == ()
    assert t.lengths[0] == 0
    assert all(len(w) == l for w, l in zip(words, t.lengths))
    assert max(t.lengths) == 2
    # words are genuine spellings of their elements
    b = t.backend
    assert all(b.normal_form(w) == g for w, g in zip(words, t.elements))


def test_words_are_shortlex_minimal():
    t = ball(free_backend(2), 3)
    order = {s: i for i, s in enumerate(t.backend.alphabet.signed_letters())}
    keys = [(len(w), [order[s] for s in w]) for w in map(t.word, range(len(t)))]
    assert keys == sorted(keys)


TREE_BACKENDS = {
    "free1": lambda: free_backend(1),
    "free2": lambda: free_backend(2),
    "free3": lambda: free_backend(3),
    "z1": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "z3": lambda: zpower_backend(3),
    "heisenberg": heisenberg_backend,
    "cyclic5": lambda: cyclic_backend(5),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TREE_BACKENDS)), st.integers(0, 4))
def test_tree_ball_equals_the_spelled_reference(kind, radius):
    backend = TREE_BACKENDS[kind]()
    t = ball(backend, radius)
    elements, words, lengths = spelled_ball(backend, radius)
    assert list(t.elements) == elements
    assert [t.word(i) for i in range(len(t))] == words
    assert list(t.lengths) == lengths


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6))
def test_closed_form_free_ball_equals_the_spelled_reference(rank, radius):
    t = ball(free_backend(rank), radius)
    elements, words, lengths = spelled_ball(free_backend(rank), radius)
    position = {w: i for i, w in enumerate(words)}
    assert list(t.elements) == elements
    assert [t.word(i) for i in range(len(t))] == words
    assert list(t.lengths) == lengths
    assert list(t.parents) == [-1] + [position[w[:-1]] for w in words[1:]]
    assert list(t.letters) == [0] + [w[-1] for w in words[1:]]


SUCCESSOR_BACKENDS = {**TREE_BACKENDS, "sl2_3": lambda: sl2_finite_backend(3)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SUCCESSOR_BACKENDS)), st.integers(0, 4))
def test_successor_arrays_equal_multiplication(kind, radius):
    backend = SUCCESSOR_BACKENDS[kind]()
    t = ball(backend, radius)
    letters = [backend.letter(s) for s in backend.alphabet.signed_letters()]
    sink = [-1] * len(letters)
    right = [[t.index.get(backend.multiply(g, x), -1) for x in letters] for g in t.elements]
    assert t.succ.tolist() == right + [sink]
    assert not t.succ.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10**9), st.integers(1, 5000))
def test_free_ball_cap_names_the_first_depth_over_it(rank, radius, cap):
    over = next((d for d in range(1, min(radius, cap) + 1) if free_ball_size(rank, d) > cap),
                None)
    with mock.patch.dict(os.environ, {"SOFICLAB_BALL_CAP": str(cap)}):
        if over is None:
            assert len(ball(free_backend(rank), radius)) <= cap
        else:
            with pytest.raises(ResourceCapError,
                               match=f"^ball at radius {over} exceeds cap of {cap} elements$"):
                ball(free_backend(rank), radius)


def test_free_ball_over_the_cap_allocates_nothing():
    # the default cap admits radius 11 of the rank-2 free group, not 12
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="^ball at radius 12 exceeds cap of 1000000"):
            ball(free_backend(2), 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_products_partial_table_consistent():
    t = ball(heisenberg_backend(), 2)
    b = t.backend
    for i, j, k in t.products.tolist():
        assert b.multiply(t.elements[i], t.elements[j]) == t.elements[k]
    # completeness: every in-ball product is recorded
    recorded = {(i, j) for i, j, _ in t.products.tolist()}
    for i, g in enumerate(t.elements):
        for j, h in enumerate(t.elements):
            if ball_contains(t, b.multiply(g, h)):
                assert (i, j) in recorded


PRODUCT_BACKENDS = {
    "free1": lambda: free_backend(1),
    "free2": lambda: free_backend(2),
    "free3": lambda: free_backend(3),
    "z1": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "z3": lambda: zpower_backend(3),
    "heisenberg": heisenberg_backend,
    "cyclic5": lambda: cyclic_backend(5),
    "sl2_z3": lambda: sl2_finite_backend(3),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_BACKENDS)), st.integers(0, 5), st.sampled_from([1, 7, 1 << 18]))
@example("free2", 5, 1 << 18)
@example("free3", 4, 7)
def test_products_equal_the_multiplying_loop(kind, radius, chunk):
    """Row for row, in (i, j) order, the products are the pairs the old
    multiply-and-look-up loop records; a free ball walks them a block of
    `chunk` entries at a time."""
    backend = PRODUCT_BACKENDS[kind]()
    radius = min(radius, 4) if kind == "free3" else radius  # 937 elements at radius 4
    with mock.patch.object(balls, "_PRODUCT_CHUNK", chunk):
        table = ball(backend, radius)
        rows = table.products
    want = [(i, j, k) for (i, j), k in ball_products(ball(backend, radius)).items()]
    assert rows.dtype == np.int32 and rows.shape == (len(want), 3)
    assert not rows.flags.writeable
    assert list(map(tuple, rows.tolist())) == want


def test_ball_closed_under_inversion():
    for b in (free_backend(2), zpower_backend(2), heisenberg_backend()):
        t = ball(b, 2)
        for i, k in enumerate(ball_inverses(t)):
            assert b.multiply(t.elements[i], t.elements[k]) == b.identity()


def test_finite_backend_ball_saturates():
    b = cyclic_backend(6)
    t = ball(b, 10)
    assert len(t) == 6


def test_ball_cap_enforced():
    with mock.patch.dict(os.environ, {"SOFICLAB_BALL_CAP": "50"}), \
            pytest.raises(ResourceCapError):
        ball(free_backend(2), 4)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        ball(free_backend(2), -1)


HUGE_RADIUS_CERTIFICATE = {
    "schema": "sofic-cert/v1", "group": {"kind": "zpower", "dim": 1},
    "ball_radius": 1000000000, "target": {"kind": "sym", "n": 1}, "map": {"": [0]},
}


def test_huge_radius_verify_exits_2_in_memory_linear_in_the_cap(tmp_path):
    """A ball of Z holds no word per element, so hitting the element cap
    costs memory linear in the cap: the run ends in ResourceCapError (exit
    2) well under a 1 GiB address-space limit."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_RADIUS_CERTIFICATE))
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = {**os.environ, "SOFICLAB_BALL_CAP": "100000",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           # BLAS worker threads would reserve address space of their own
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.Popen(
        [sys.executable, "-m", "soficlab.cli", "verify", str(path), "--eps", "1", "--delta", "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=limit_address_space)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 2, err
    assert "exceeds cap of 100000 elements" in err
    assert usage.ru_maxrss < 200 * 1024  # kilobytes


def test_products_walk_the_double_ball_under_the_ball_limits():
    # B_30 of Z fits a cap of 100, yet its products walk B_60 (121 elements),
    # which must be held to the same cap, not to the default one
    expected = ball(zpower_backend(1), 20).products
    with mock.patch.dict(os.environ, {"SOFICLAB_BALL_CAP": "100"}):
        table = ball(zpower_backend(1), 30)
        assert len(table) == 61
        with pytest.raises(ResourceCapError, match="exceeds cap of 100 elements"):
            table.products
        fits = ball(zpower_backend(1), 20)  # B_40 has 81 elements
        assert np.array_equal(fits.products, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_free_ball_reads_canonical_forms_off_its_tree(rank, radius, data):
    """Each element of a free ball is the reduced spelling of its tree word,
    and `multiply` of two of them is the junction-cancelling product, down
    to the identity when one is the other's inverse."""
    backend = free_backend(rank)
    t = ball(backend, radius)
    assert all(g == backend.normal_form(t.word(i)) for i, g in enumerate(t.elements))
    pick = st.integers(0, len(t) - 1)
    for _ in range(10):
        g, h = t.elements[data.draw(pick)], t.elements[data.draw(pick)]
        partial = reduce_word(word_inverse(g)[:data.draw(st.integers(0, len(g)))] + h)
        for a, b in ((g, h), (g, word_inverse(g)), (word_inverse(g), g), (g, partial)):
            assert backend.multiply(a, b) == free_junction_product(a, b)
