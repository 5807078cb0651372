import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import almosthom, metrics
from soficlab.almosthom import AlmostHom, Certificate
from soficlab.amenability import folner_box
from soficlab.backends import zpower_backend
from soficlab.balls import ball
from soficlab.constructions import amplify_certificate, folner_to_sofic, sofic_to_hyperlinear
from soficlab.metrics import (
    DEFAULT_UNITARITY_TOL,
    Permutation,
    UnitaryMatrix,
    check_gram,
    check_unitary,
    hamming,
    hs_distance,
    perm_matrix,
    phase_aligned_hs,
    random_unitaries,
    random_unitary,
    sinfty_demo,
    sinfty_transposition_distance,
)

from oracles import (
    dense_images,
    hs_distance_trace,
    is_fixed_point_free,
    normalized_trace,
    random_orthogonal,
    reference_unitary,
    value_error_text,
)


def perms(n):
    return st.permutations(range(n)).map(lambda p: Permutation(tuple(p)))


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((1, 2))
    with pytest.raises(ValueError):
        Permutation(())


def test_composition_is_left_to_right():
    s = Permutation((1, 2, 0))
    t = Permutation((0, 2, 1))
    st_ = s * t
    assert all(st_(i) == t(s(i)) for i in range(3))


def test_inverse_and_fixed_point_free():
    s = Permutation((1, 2, 0))
    assert s * s.inverse() == Permutation.identity(3)
    assert is_fixed_point_free(s)
    assert not is_fixed_point_free(Permutation((0, 2, 1)))


def test_hamming_exact_values():
    e = Permutation.identity(4)
    swap = Permutation((1, 0, 2, 3))
    assert hamming(e, swap) == Fraction(1, 2)
    assert hamming(e, e) == 0
    assert isinstance(hamming(e, swap), Fraction)


@given(perms(5), perms(5), perms(5))
def test_hamming_bi_invariant_exact(s, t, g):
    d = hamming(s, t)
    assert hamming(g * s, g * t) == d
    assert hamming(s * g, t * g) == d


@given(perms(5), perms(5), perms(5))
def test_hamming_triangle(s, t, u):
    assert hamming(s, u) <= hamming(s, t) + hamming(t, u)


def test_perm_matrix_is_homomorphism():
    for s in all_perms(4):
        for t in all_perms(4):
            left = perm_matrix(s * t).entries
            right = (perm_matrix(s) * perm_matrix(t)).entries
            assert np.max(np.abs(left - right)) < 1e-12


def test_metric_identity_hamming_vs_hs():
    for n in (3, 4):
        for s in all_perms(n):
            for t in all_perms(n):
                d = hs_distance(perm_matrix(s), perm_matrix(t))
                assert abs(float(hamming(s, t)) - d * d / 2.0) < 1e-9


def test_unitarity_rejection_not_repair():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        UnitaryMatrix(np.zeros((2, 3)))


_ZERO_ONE_SHAPES = ["P", "-0.0 for 0", "-0.0 imaginary parts", "-P", "1j*P", "two 1s in a row",
                    "empty row", "empty column", "NaN entry", "entry 1 + eps"]


def _shaped(n, dtype, shape, rng):
    """A random n x n permutation matrix of the dtype, changed as `shape` says."""
    cols = rng.permutation(n)
    if shape in ("1j*P", "-0.0 imaginary parts"):
        dtype = np.complex128
    m = np.eye(n, dtype=dtype)[cols]
    if n >= 2 and shape == "two 1s in a row":  # every column still holds one 1
        m[0, cols[1]], m[1] = 1, 0
    elif n >= 2 and shape == "empty column":  # every row still holds one 1
        m[1] = m[0]
    else:
        m = {"-0.0 for 0": np.where(m == 0, -0.0, m), "-0.0 imaginary parts": m.conj(),
             "-P": -m, "1j*P": 1j * m}.get(shape, m)
        if shape == "empty row":
            m[0] = 0
        elif shape == "NaN entry":
            m[0, 0] = math.nan
        elif shape == "entry 1 + eps":
            m[0, cols[0]] = 1 + 2.0**-52
    return m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.sampled_from([np.float64, np.complex128]),
       st.sampled_from(_ZERO_ONE_SHAPES), st.sampled_from([1e-9, 1e-17, 0.0, -1.0, math.nan]),
       st.integers(0, 2**32 - 1))
def test_check_unitary_permutation_shortcut_matches_the_dense_check(n, dtype, shape, tol, seed):
    """check_unitary is the dense check for every matrix and tolerance.  The
    permutation shortcut is AlmostHom's: it takes an image with one 1 per
    row and column, its other entries 0, without the dense check, and any
    other image (-P, 1j*P, 0/1 non-permutations, NaN) through it, with the
    dense check's verdict and message."""
    m = _shaped(n, dtype, shape, np.random.default_rng(seed))
    with mock.patch.object(metrics, "check_gram", wraps=check_gram) as dense:
        got = value_error_text(lambda: check_unitary(m, tol))
    assert got == value_error_text(lambda: check_gram(m.conj().T @ m, tol))
    assert dense.call_count == 1
    u = m.astype(np.complex128)
    images = np.array([np.eye(n), u, np.eye(n)])  # over the ball e, a, a^-1 of Z
    with mock.patch.object(metrics, "check_gram", wraps=check_gram) as dense:
        got = value_error_text(lambda: AlmostHom(ball(zpower_backend(1), 1), "unitary", n, images))
    assert got == value_error_text(lambda: check_gram(u.conj().T @ u, DEFAULT_UNITARITY_TOL))
    permutation = shape in ("P", "-0.0 for 0", "-0.0 imaginary parts") or (
        n == 1 and shape in ("two 1s in a row", "empty column"))
    assert (dense.call_count == 0) == permutation
    if shape in ("P", "-0.0 for 0", "-P", "1j*P"):
        assert got is None
    if shape in ("empty row", "NaN entry") or (n >= 2 and shape in ("two 1s in a row",
                                                                    "empty column")):
        assert got is not None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.lists(st.sampled_from(_ZERO_ONE_SHAPES), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_permutation_columns_accepts_exactly_the_unitary_zero_one_stacks(n, shapes, seed):
    """`_permutation_columns` accepts a stack exactly when every image is a
    0/1 matrix that passes the dense check_unitary, and then returns the
    int32 columns whose `_permutation_image` is the stack."""
    rng = np.random.default_rng(seed)
    stack = np.array([_shaped(n, np.complex128, shape, rng) for shape in shapes])
    columns = almosthom._permutation_columns(stack)
    zero_one = bool(((stack == 0) | (stack == 1)).all())
    unitary = all(value_error_text(lambda m=m: check_unitary(m)) is None for m in stack)
    assert (columns is not None) == (zero_one and unitary)
    if columns is not None:
        assert columns.dtype == np.int32 and columns.shape == (len(shapes), n)
        assert np.array_equal(almosthom._permutation_image(columns), stack)


def test_check_unitary_amplified_certificate_images_skip_the_dense_product():
    """The rank-256 images of amplify --times 1 are permutation matrices:
    AlmostHom takes them without a dense check.  With one of them -P or 1j*P
    the stack is not, and each of the 13 images passes the dense check."""
    backend = zpower_backend(1)
    hom = sofic_to_hyperlinear(folner_to_sofic(ball(backend, 6), folner_box(backend, 16)))
    images = dense_images(amplify_certificate(Certificate(hom, 0.0, 1.0), 1).hom)
    assert images.shape == (13, 256, 256)
    columns = almosthom._permutation_columns(images)
    assert np.array_equal(columns, images.real.argmax(axis=-1))
    for twist in (1, -1, 1j):
        twisted = images.copy()
        twisted[-1] *= twist
        with mock.patch.object(metrics, "check_gram", wraps=check_gram) as dense:
            AlmostHom(hom.domain, "unitary", 256, twisted)
        assert dense.call_count == (0 if twist == 1 else 13)


def test_unitary_entries_frozen():
    u = UnitaryMatrix.identity(2)
    with pytest.raises(ValueError):
        u.entries[0, 0] = 5


def test_random_unitary_and_orthogonal():
    rng = np.random.default_rng(0)
    u = random_unitary(4, rng)
    assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(4))) < 1e-10
    o = random_orthogonal(4, rng)
    assert np.max(np.abs(o.entries.imag)) == 0.0
    assert np.max(np.abs(o.entries.T @ o.entries - np.eye(4))) < 1e-10


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_random_unitaries_match_successive_per_matrix_draws_bit_for_bit(n, count, seed):
    """The stacked draw equals count successive one-matrix draws, each
    orthonormalized on its own by the per-column oracle, in every bit, and
    leaves the generator where they leave it."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = random_unitaries(n, count, rng)
    assert len(drawn) == count
    for u in drawn:
        expected = reference_unitary(n, reference_rng)
        assert np.array_equal(u.entries.view(np.uint64), expected.view(np.uint64))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_random_unitaries_check_each_matrix_once():
    rng = np.random.default_rng(3)
    with mock.patch.object(metrics, "check_unitary", wraps=check_unitary) as dense:
        drawn = random_unitaries(5, 7, rng)
    assert dense.call_count == 7 and all(isinstance(u, UnitaryMatrix) for u in drawn)
    reference_rng = np.random.default_rng(3)
    for _ in range(7):
        reference_unitary(5, reference_rng)
    assert np.array_equal(random_unitary(5, rng).entries, reference_unitary(5, reference_rng))


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_hs_two_paths_agree(seed, n):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(n, rng), random_unitary(n, rng)
    assert abs(hs_distance(u, v) - hs_distance_trace(u, v)) < 1e-9


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 16))
def test_hs_distance_of_equal_matrices_is_zero(seed, n):
    # the trace formula's sqrt turns rounding of 2 - 2 Re tr~(u*u) ~ 1e-16
    # into distances ~1e-8; the entrywise sum does not
    u = random_unitary(n, np.random.default_rng(seed))
    assert hs_distance(u, u) == 0.0
    assert hs_distance(u, UnitaryMatrix(u.entries.copy())) == 0.0


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_hs_bi_invariant(seed):
    rng = np.random.default_rng(seed)
    u, v, g = (random_unitary(3, rng) for _ in range(3))
    d = hs_distance(u, v)
    assert abs(hs_distance(g * u, g * v) - d) < 1e-8
    assert abs(hs_distance(u * g, v * g) - d) < 1e-8


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_hs_triangle(seed):
    rng = np.random.default_rng(seed)
    u, v, w = (random_unitary(3, rng) for _ in range(3))
    assert hs_distance(u, w) <= hs_distance(u, v) + hs_distance(v, w) + 1e-9


def test_hs_range_and_phase_alignment():
    rng = np.random.default_rng(1)
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    assert 0.0 <= hs_distance(u, v) <= 2.0
    assert phase_aligned_hs(u, v) <= hs_distance(u, v) + 1e-12
    # a pure phase is distance sqrt(2 - 2 cos(theta)) away but aligns to 0
    w = UnitaryMatrix(1j * np.eye(3))
    assert abs(hs_distance(UnitaryMatrix.identity(3), w) - math.sqrt(2)) < 1e-12
    assert phase_aligned_hs(UnitaryMatrix.identity(3), w) < 1e-12


def test_phase_aligned_equals_hs_on_permutations():
    for s in all_perms(4):
        for t in all_perms(4):
            a, b = perm_matrix(s), perm_matrix(t)
            assert abs(phase_aligned_hs(a, b) - hs_distance(a, b)) < 1e-12


def test_normalized_trace_bounded():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = random_unitary(4, rng)
        assert abs(normalized_trace(u)) <= 1.0 + 1e-12
    assert normalized_trace(UnitaryMatrix.identity(5)) == pytest.approx(1.0)


def test_rank_mismatch_rejected():
    u, v = UnitaryMatrix.identity(2), UnitaryMatrix.identity(3)
    for f in (hs_distance, phase_aligned_hs):
        with pytest.raises(ValueError):
            f(u, v)
    with pytest.raises(ValueError):
        u * v


def test_sinfty_distance_exact_dyadic():
    x = {2: 3, 3: 2}
    assert sinfty_transposition_distance(x, {}) == Fraction(1, 4) + Fraction(1, 8)
    assert sinfty_transposition_distance(x, x) == 0


def test_sinfty_demo_closed_forms():
    for k in range(2, 21):
        dx, dconj = sinfty_demo(k)
        assert dx == Fraction(3, 2 ** (k + 1))
        assert dconj == Fraction(1, 2) + Fraction(1, 2 ** (k + 1))
    with pytest.raises(ValueError):
        sinfty_demo(1)
