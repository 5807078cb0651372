import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab.backends import (
    FiniteBackend,
    backend_from_descriptor,
    finite_backend_from_json,
    free_backend,
    heisenberg_backend,
    zpower_backend,
)
from soficlab.words import reduce_word

from oracles import cyclic_backend, free_junction_product, table_is_associative, word_inverse

letters = st.integers(min_value=-2, max_value=2).filter(lambda s: s != 0)
words = st.lists(letters, max_size=12).map(tuple)


def heis_matrix(g):
    """Independent oracle: (a, b, c) as the upper unitriangular integer
    matrix [[1, b, c], [0, 1, a], [0, 0, 1]]."""
    a, b, c = g
    return np.array([[1, b, c], [0, 1, a], [0, 0, 1]], dtype=object)


def test_free_normal_form_is_reduction():
    b = free_backend(2)
    assert b.normal_form((1, -1, 2)) == (2,)
    assert b.multiply((1, 2), (-2, -1)) == ()
    assert b.identity() == ()


def test_zpower_normal_form():
    b = zpower_backend(2)
    assert b.identity() == (0, 0)
    assert b.letter(1) == (1, 0)
    assert b.letter(-2) == (0, -1)
    assert b.normal_form((1, 2, 1, -2)) == (2, 0)


@given(words, words)
def test_heisenberg_product_matches_matrix_oracle(w1, w2):
    b = heisenberg_backend()
    g, h = b.normal_form(w1), b.normal_form(w2)
    prod = b.multiply(g, h)
    assert np.array_equal(heis_matrix(prod), heis_matrix(g) @ heis_matrix(h))


@given(words)
def test_heisenberg_inverse(w):
    b = heisenberg_backend()
    g, g_inverse = b.normal_form(w), b.normal_form(word_inverse(w))
    assert b.multiply(g, g_inverse) == b.identity()
    assert b.multiply(g_inverse, g) == b.identity()


def test_heisenberg_commutator_is_central_z():
    b = heisenberg_backend()
    x, y = b.letter(1), b.letter(2)
    comm = b.normal_form((1, 2, -1, -2))
    # with the product rule (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b*a'),
    # the commutator x y (y x)^-1 is z^-1 = (0, 0, -1)
    assert comm == (0, 0, -1)
    # it is central: commutes with both generators
    for g in (x, y):
        assert b.multiply(comm, g) == b.multiply(g, comm)


def test_heisenberg_requires_rank_2():
    from soficlab.backends import HeisenbergBackend
    from soficlab.words import GeneratorAlphabet

    with pytest.raises(ValueError):
        HeisenbergBackend(GeneratorAlphabet(3))


def test_cyclic_backend():
    b = cyclic_backend(5)
    assert b.order == 5
    assert b.normal_form((1, 1, 1, 1, 1, 1)) == 1
    assert b.letter(-1) == 4


def test_finite_table_validation():
    # not a group: identity row fine but column 1 repeats entries
    with pytest.raises(ValueError):
        FiniteBackend([[0, 1], [1, 1]], 0)
    with pytest.raises(ValueError):
        FiniteBackend([[0, 1], [1, 0]], 1)  # identity index does not act neutrally
    with pytest.raises(ValueError):
        FiniteBackend([[0, 1], [1, 2]], 0)  # entry out of range
    # a non-associative quasigroup with identity: order-5 loop
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert not check_associativity_verdict(loop)  # refused, naming a failing triple


def reference_first_non_bijection(table) -> int | None:
    """The per-row/column set scan the Latin check replaced."""
    tbl = np.asarray(table)
    m = len(tbl)
    for i in range(m):
        if len(set(tbl[i].tolist())) != m or len(set(tbl[:, i].tolist())) != m:
            return i
    return None


def test_finite_table_names_the_first_bad_column():
    # Klein four-group with row 1 replaced by another bijection: every row
    # is still a bijection, but columns 2 and 3 repeat entries
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert reference_first_non_bijection(table) == 2
    with pytest.raises(ValueError, match=r"^row/column 2 is not a bijection$"):
        FiniteBackend(table, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_latin_check_names_the_reference_index(m, data):
    # Z_m with entries swapped inside rows: rows stay bijections, columns
    # break; or a row entry overwritten, which breaks a row and a column
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, k = (data.draw(st.integers(1, m - 1)) for _ in range(3))
        if data.draw(st.booleans()):
            table[i][j], table[i][k] = table[i][k], table[i][j]
        else:
            table[i][j] = data.draw(st.integers(0, m - 1))
    want = reference_first_non_bijection(table)
    if want is None:  # a Latin square again, which may or may not associate
        check_associativity_verdict(table)
    else:
        with pytest.raises(ValueError, match=rf"^row/column {want} is not a bijection$"):
            FiniteBackend(table, 0)


def check_associativity_verdict(table):
    """FiniteBackend accepts a Latin square with identity 0 exactly when
    every triple associates, and otherwise names a failing triple."""
    if table_is_associative(table):
        FiniteBackend(table, 0)
        return True
    with pytest.raises(ValueError, match="associative") as exc:
        FiniteBackend(table, 0)
    x, s, y = map(int, re.search(r"\((\d+), (\d+), (\d+)\)$", str(exc.value)).groups())
    assert table[table[x][s]][y] != table[x][table[s][y]]
    return False


def reduced_latin_squares(m: int):
    """Every m x m Latin square whose first row and column are 0..m-1, i.e.
    every loop on {0, ..., m-1} with identity 0."""
    table = [[i if j == 0 else j if i == 0 else -1 for j in range(m)] for i in range(m)]
    cells = [(i, j) for i in range(1, m) for j in range(1, m)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in table]
            return
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in range(m):
            if v not in used:
                table[i][j] = v
                yield from fill(k + 1)
        table[i][j] = -1

    return list(fill(0))


def test_light_test_agrees_with_every_triple():
    # all loops of order <= 5: the 4 of order 4 are groups, and order 5 has
    # both groups and non-associative loops
    verdicts = []
    for m in range(2, 6):
        for table in reduced_latin_squares(m):
            verdicts.append(check_associativity_verdict(table))
    assert len(verdicts) == 1 + 1 + 4 + 56
    assert set(verdicts) == {True, False}


def test_finite_backend_from_json_and_descriptor_round_trip():
    b = cyclic_backend(6)
    b2 = backend_from_descriptor(b.descriptor())
    assert b2 == b
    assert b2.normal_form((1, 1)) == 2
    with pytest.raises(ValueError):
        finite_backend_from_json({"order": 3, "table": [[0, 1], [1, 0]], "identity": 0})


def test_descriptor_round_trip_all_kinds():
    for b in (free_backend(3), zpower_backend(2), heisenberg_backend()):
        assert backend_from_descriptor(b.descriptor()) == b


@given(words, words, words)
def test_normal_form_respects_multiplication(w1, w2, w3):
    for b in (free_backend(2), zpower_backend(2), heisenberg_backend()):
        g = b.normal_form(tuple(w1))
        h = b.normal_form(tuple(w2))
        assert b.normal_form(reduce_word(tuple(w1) + tuple(w2))) == b.multiply(g, h)


@st.composite
def free_products(draw):
    """A rank 1-3 and two reduced words over it, the second often starting
    with a prefix of the first's inverse so that the junction cancels."""
    rank = draw(st.integers(min_value=1, max_value=3))
    letter = st.integers(min_value=-rank, max_value=rank).filter(lambda s: s != 0)
    g = reduce_word(draw(st.lists(letter, max_size=12)))
    tail = draw(st.lists(letter, max_size=12))
    k = draw(st.integers(min_value=0, max_value=len(g)))
    h = reduce_word(word_inverse(g)[:k] + tuple(tail))
    return rank, g, h


@settings(max_examples=300)
@given(free_products())
def test_free_multiply_is_reduced_concatenation(case):
    rank, g, h = case
    b = free_backend(rank)
    assert b.multiply(g, h) == free_junction_product(g, h) == reduce_word(g + h)
    assert b.multiply(g, word_inverse(g)) == ()
    assert b.multiply(word_inverse(g), g) == ()

