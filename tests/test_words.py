from hypothesis import given, strategies as st
import pytest

from oracles import is_reduced
from soficlab.words import (
    GeneratorAlphabet,
    reduce_word,
    word_from_str,
    word_inverse,
    word_to_str,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda s: s != 0)
raw_words = st.lists(letters, max_size=30).map(tuple)
reduced_words = raw_words.map(reduce_word)


def test_alphabet_defaults_and_validation():
    ab = GeneratorAlphabet(3)
    assert ab.names == ("a", "b", "c")
    assert ab.letter_name(2) == "b"
    assert ab.letter_name(-2) == "b'"
    assert ab.signed_letters() == [1, 2, 3, -1, -2, -3]
    with pytest.raises(ValueError):
        GeneratorAlphabet(0)
    with pytest.raises(ValueError):
        GeneratorAlphabet(2, ("a", "a"))
    with pytest.raises(ValueError):
        GeneratorAlphabet(1, ("x'",))  # trailing quote is the inverse marker
    with pytest.raises(ValueError):
        GeneratorAlphabet(2, ("a",))


def test_check_letter_range():
    ab = GeneratorAlphabet(2)
    with pytest.raises(ValueError):
        ab.check_letter(0)
    with pytest.raises(ValueError):
        ab.check_letter(3)
    ab.check_letter(-2)


def test_reduce_examples():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 2, -2, 1)) == (1, 1)
    assert reduce_word((1, 1, -1)) == (1,)
    with pytest.raises(ValueError):
        reduce_word((1, 0, 2))
    with pytest.raises(ValueError):
        reduce_word((3,), rank=2)


@given(raw_words)
def test_reduce_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r


@given(raw_words)
def test_inverse_cancels(w):
    r = reduce_word(w)
    assert reduce_word(r + word_inverse(r)) == ()
    assert reduce_word(word_inverse(r) + r) == ()


@given(raw_words, raw_words, raw_words)
def test_concat_associative(a, b, c):
    a, b, c = reduce_word(a), reduce_word(b), reduce_word(c)
    assert reduce_word(reduce_word(a + b) + c) == reduce_word(a + reduce_word(b + c))


def test_word_str_round_trip_examples():
    ab = GeneratorAlphabet(2)
    assert word_to_str(ab, ()) == ""
    assert word_to_str(ab, (1, -2, 1)) == "a b' a"
    assert word_from_str(ab, "a b' a") == (1, -2, 1)
    assert word_from_str(ab, "") == ()
    assert word_from_str(ab, "e") == ()
    assert word_from_str(ab, "a a'") == ()  # parser reduces
    with pytest.raises(ValueError):
        word_from_str(ab, "q")


@given(reduced_words)
def test_word_str_round_trip(w):
    ab = GeneratorAlphabet(3)
    assert word_from_str(ab, word_to_str(ab, w)) == w
