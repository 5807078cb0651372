import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soficlab.amenability import (
    PARADOX_PIECES,
    FolnerSet,
    ball_expansion,
    f2_ball_expansion,
    folner_box,
    folner_defect,
    generator_folner_defect,
    paradox_verify,
    reiter_norm,
)
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball, free_ball_size

import oracles
from oracles import paradox_classify


def test_folner_set_canonicalizes():
    b = zpower_backend(1)
    phi = FolnerSet(b, ((2,), (0,), (1,), (1,)))
    assert phi.elements == ((0,), (1,), (2,))
    assert len(phi) == 3
    with pytest.raises(ValueError):
        FolnerSet(b, ())


def test_folner_box_sizes():
    assert len(folner_box(zpower_backend(1), 5)) == 5
    assert len(folner_box(zpower_backend(2), 5)) == 25
    assert len(folner_box(heisenberg_backend(), 4)) == 4 * 4 * 16
    with pytest.raises(ValueError):
        folner_box(free_backend(2), 5)
    with pytest.raises(ValueError):
        folner_box(zpower_backend(1), 0)


def test_z_box_defect_closed_form():
    """Translating [0, L) by one unit exchanges exactly two boundary points,
    so the defect is exactly 2/L."""
    b = zpower_backend(1)
    for L in (3, 10, 100):
        phi = folner_box(b, L)
        assert generator_folner_defect(phi) == Fraction(2, L)


def test_z2_box_defect_closed_form():
    b = zpower_backend(2)
    for L in (3, 8):
        phi = folner_box(b, L)
        assert generator_folner_defect(phi) == Fraction(2 * L, L * L)


def test_folner_defect_exact_type():
    phi = folner_box(zpower_backend(1), 4)
    d = folner_defect(phi, [(1,)])
    assert isinstance(d, Fraction) and d == Fraction(1, 2)


def test_reiter_equals_folner_random_instances():
    rng = random.Random(0)
    for _ in range(100):
        dim = rng.choice((1, 2))
        b = zpower_backend(dim)
        elems = {
            tuple(rng.randrange(-5, 6) for _ in range(dim))
            for _ in range(rng.randrange(1, 12))
        }
        phi = FolnerSet(b, tuple(elems))
        letters = b.alphabet.signed_letters()
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        g = b.normal_form(word)
        assert reiter_norm(phi, g) == folner_defect(phi, [g])


@pytest.mark.parametrize("backend,side", [
    (zpower_backend(2), 1), (zpower_backend(2), 6),
    (heisenberg_backend(), 1), (heisenberg_backend(), 4),
])
def test_reiter_equals_folner_on_boxes(backend, side):
    phi = folner_box(backend, side)
    rng = random.Random(side)
    letters = backend.alphabet.signed_letters()
    shifts = [backend.identity()] + [backend.letter(s) for s in letters]
    shifts += [backend.normal_form(tuple(rng.choice(letters) for _ in range(5)))
               for _ in range(6)]
    for g in shifts:
        assert reiter_norm(phi, g) == folner_defect(phi, [g])


def test_reiter_simple_value():
    phi = folner_box(zpower_backend(1), 4)
    assert reiter_norm(phi, (1,)) == Fraction(1, 2)
    assert reiter_norm(phi, (0,)) == 0


def test_paradox_classify():
    assert paradox_classify(()) == "E"
    assert paradox_classify((1, 2)) == "WA"
    assert paradox_classify((-1,)) == "WAinv"
    assert paradox_classify((2, -1)) == "WB"
    assert paradox_classify((-2, -2)) == "WBinv"
    with pytest.raises(ValueError):
        paradox_classify((1, -1))  # unreduced
    with pytest.raises(ValueError):
        paradox_classify((3,))  # rank-2 only


def test_paradox_verify_small_radius():
    report = paradox_verify(2)
    assert report.all_ok
    assert report.piece_sizes["E"] == 1
    assert sum(report.piece_sizes.values()) == free_ball_size(2, 2)
    # each of the four one-letter cones holds a quarter of the nonidentity words
    assert len({report.piece_sizes[p] for p in PARADOX_PIECES if p != "E"}) == 1
    with pytest.raises(ValueError):
        paradox_verify(0)


def test_paradox_verify_pieces_match_classify():
    words = ball(free_backend(2), 4).elements
    sizes = Counter(paradox_classify(w) for w in words)
    assert paradox_verify(4).piece_sizes == {p: sizes[p] for p in PARADOX_PIECES}


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 6))
def test_paradox_verify_equals_the_word_loop(radius):
    assert paradox_verify(radius) == oracles.paradox_verify(radius)


EXPANSION_BACKENDS = {
    "free1": lambda: free_backend(1),
    "free2": lambda: free_backend(2),
    "free3": lambda: free_backend(3),
    "z1": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "z3": lambda: zpower_backend(3),
    "heisenberg": heisenberg_backend,
    "cyclic5": lambda: oracles.cyclic_backend(5),
    "sl2_z3": lambda: oracles.sl2_finite_backend(3),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EXPANSION_BACKENDS)), st.integers(0, 5))
def test_ball_expansion_equals_the_left_translates(kind, radius):
    """Counting right successors by g^-1 gives the same minimum as counting
    the left translates g B inside B."""
    backend = EXPANSION_BACKENDS[kind]()
    assert ball_expansion(backend, radius) == oracles.ball_expansion(backend, radius)


def test_ball_expansion_contrast():
    """Free balls keep expanding (non-amenability), while Z^d balls do not."""
    free_vals = [f2_ball_expansion(r) for r in (2, 3, 4)]
    assert all(v >= Fraction(1, 2) for v in free_vals)
    z_vals = [ball_expansion(zpower_backend(1), r) for r in (2, 4, 8)]
    assert z_vals == [Fraction(2, 5), Fraction(2, 9), Fraction(2, 17)]
    assert all(a > b for a, b in zip(z_vals, z_vals[1:]))
