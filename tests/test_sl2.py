import numpy as np
import pytest

from soficlab.backends import free_backend
from soficlab.balls import ball
from soficlab.config import ResourceLimits
from soficlab.errors import ResourceCapError
from soficlab.sl2 import (
    SL2_A,
    SL2_B,
    is_prime,
    lef_witness_free,
    mat_mul_mod,
    sl2_images_injective,
    sl2_right_translations,
    sl2_word_image,
)

from oracles import sl2_elements

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


def test_lef_witness_respects_prime_ceiling():
    with pytest.raises(ResourceCapError):
        lef_witness_free(2, ResourceLimits(prime_ceiling=3))


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
