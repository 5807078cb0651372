import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab.backends import free_backend, zpower_backend
from soficlab.balls import ball
from soficlab.errors import ResourceCapError
from soficlab.sl2 import (
    distinct_matrices,
    is_prime,
    lef_witness_free,
    sl2_ball_images,
    sl2_right_translations,
)

from oracles import (
    SL2_A,
    SL2_B,
    mat_mul_mod,
    sl2_elements,
    sl2_images_injective,
    sl2_word_image,
)

_LETTER_NP = {
    1: np.array([[1, 2], [0, 1]], dtype=object),
    -1: np.array([[1, -2], [0, 1]], dtype=object),
    2: np.array([[1, 0], [2, 1]], dtype=object),
    -2: np.array([[1, 0], [-2, 1]], dtype=object),
}


def np_word_image(word, p):
    """Independent oracle: exact integer product reduced mod p at the end."""
    m = np.eye(2, dtype=object)
    for s in word:
        m = m @ _LETTER_NP[s]
    return tuple(tuple(int(x) % p for x in row) for row in m)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_word_image_matches_integer_oracle():
    words = ball(free_backend(2), 4).elements
    for p in (3, 5, 7):
        for w in words:
            assert sl2_word_image(w, p) == np_word_image(w, p)


def test_word_image_rejects_bad_input():
    with pytest.raises(ValueError):
        sl2_word_image((1,), 4)  # not prime
    with pytest.raises(ValueError):
        sl2_word_image((3,), 5)  # rank-2 only


def test_generators_have_determinant_one():
    for m in (SL2_A, SL2_B):
        (a, b), (c, d) = m
        assert a * d - b * c == 1


def test_mat_mul_mod_identity():
    i2 = ((1, 0), (0, 1))
    assert mat_mul_mod(SL2_A, i2, 97) == SL2_A
    assert mat_mul_mod(i2, SL2_B, 97) == SL2_B


def test_lef_witnesses():
    assert lef_witness_free(1) == 3
    assert lef_witness_free(2) == 5
    # re-verify injectivity at the returned primes
    assert sl2_images_injective(list(ball(free_backend(2), 1).elements), 3)
    assert sl2_images_injective(list(ball(free_backend(2), 2).elements), 5)
    # and 3 genuinely fails at radius 2, so 5 is minimal there
    assert not sl2_images_injective(list(ball(free_backend(2), 2).elements), 3)
    assert not sl2_images_injective(list(ball(free_backend(2), 1).elements), 2)


def test_lef_witnesses_to_radius_6():
    assert [lef_witness_free(r) for r in range(1, 7)] == [3, 5, 11, 11, 23, 31]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.sampled_from([2, 3, 5, 7, 11, 31, 61, 9973]))
def test_tree_images_equal_the_word_oracle(radius, p):
    domain = ball(free_backend(2), radius)
    mats = sl2_ball_images(domain, p)
    assert mats.dtype == np.int64 and mats.shape == (len(domain), 2, 2)
    assert [tuple(map(tuple, m)) for m in mats.tolist()] == [
        sl2_word_image(domain.word(i), p) for i in range(len(domain))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=12))
def test_distinct_matrices_equals_a_set_count(entries):
    mats = np.array(entries, dtype=np.int64).reshape(-1, 2, 2)
    assert distinct_matrices(mats) == (len(set(entries)) == len(entries))


def test_tree_images_need_the_rank_2_free_group():
    for backend in (free_backend(3), zpower_backend(2)):
        with pytest.raises(ValueError, match="rank-2 free group"):
            sl2_ball_images(ball(backend, 1), 5)


def test_lef_witness_respects_prime_ceiling():
    with mock.patch.dict(os.environ, {"SOFICLAB_PRIME_CEILING": "3"}), \
            pytest.raises(ResourceCapError, match="^no injective prime below ceiling 3 "):
        lef_witness_free(2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_right_translations_multiply_on_the_right(p):
    elements = sl2_elements(p)
    index = {m: i for i, m in enumerate(elements)}
    words = list(ball(free_backend(2), 2).elements) + [(1, 2, -1, -2, 1, 1, 1)]
    rows = sl2_right_translations(p, np.array([sl2_word_image(w, p) for w in words]))
    assert rows.dtype == np.int32 and rows.shape == (len(words), p * (p * p - 1))
    for word, row in zip(words, rows.tolist()):
        m = np_word_image(word, p)
        assert row == [index[mat_mul_mod(x, m, p)] for x in elements]
