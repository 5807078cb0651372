from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import amplify
from soficlab.amplify import (
    SQRT2,
    amplification_report,
    amplified_distance,
    conj_kron,
    iterate_amplification,
    iterations_to_tolerance,
    tensor_square,
)
from soficlab.errors import ResourceCapError
from soficlab.metrics import (
    UnitaryMatrix,
    check_gram,
    gram_defect,
    hs_distance,
    phase_aligned_hs,
    random_unitaries,
    random_unitary,
)

from oracles import halve_embed, normalized_trace, random_orthogonal, value_error_text

# Frozen oracle orbit for d0 = 0.5 (computed independently by iterating
# d -> d*sqrt(2 - d^2/2) in extended precision).
ORBIT_FROM_HALF = [0.5, 0.6846531968814576, 0.9097454142506024]


def test_tensor_square_shape_and_unitarity():
    rng = np.random.default_rng(0)
    u = random_unitary(3, rng)
    t = tensor_square(u)
    assert t.n == 9
    assert np.max(np.abs(t.entries.conj().T @ t.entries - np.eye(9))) < 1e-10


def test_tensor_square_is_homomorphism():
    rng = np.random.default_rng(1)
    u, v = random_unitary(3, rng), random_unitary(3, rng)
    lhs = tensor_square(u * v).entries
    rhs = (tensor_square(u) * tensor_square(v)).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_tensor_square_trace_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = random_unitary(4, rng)
        assert abs(normalized_trace(tensor_square(u)) - abs(normalized_trace(u)) ** 2) < 1e-9


def test_tensor_square_kills_global_phase():
    u = UnitaryMatrix(1j * np.eye(3))
    assert np.max(np.abs(tensor_square(u).entries - np.eye(9))) < 1e-12


def _square_gram_defects(m):
    """max |S*S - I| for S = conj(m) (x) m, from the Gram law conj(G) (x) G
    with G = m*m and from the dense product."""
    square = conj_kron(m)
    eye = np.eye(square.shape[0])
    law = np.max(np.abs(conj_kron(m.conj().T @ m) - eye))
    dense = np.max(np.abs(square.conj().T @ square - eye))
    return law, dense


@given(st.integers(1, 6), st.sampled_from(["unitary", "permutation", "arbitrary"]),
       st.integers(0, 2**32 - 1))
def test_tensor_square_gram_law_matches_the_dense_check(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        m = random_unitary(n, rng).entries
    elif kind == "permutation":
        m = np.eye(n, dtype=np.complex128)[rng.permutation(n)]
    else:
        m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    law, dense = _square_gram_defects(m)
    assert abs(law - dense) <= 1e-12


def test_tensor_square_rejects_a_non_unitary_square():
    u = UnitaryMatrix._checked(np.diag([1.1, 1.0]).astype(np.complex128), 1e-9)
    with pytest.raises(ValueError, match="not unitary within tolerance 1e-08"):
        tensor_square(u)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.sampled_from(["unitary", "permutation", "perturbed"]),
       st.integers(-16, -1),
       st.one_of(st.integers(-18, -8).map(lambda k: ("tolerance", 10.0**k)),
                 st.sampled_from([0.25, 0.5, 0.999999, 1.0, 1.000001, 2.0, 4.0]).map(
                     lambda r: ("bound ratio", r))),
       st.integers(0, 2**32 - 1))
def test_tensor_square_gram_bound_matches_the_dense_check(n, kind, scale, tol_choice, seed):
    """tensor_square skips the n^4 scan of conj(G) (x) G - I only when the
    O(n^2) bound 2e + e^2 (e = max |G - I|) clears its tolerance: its outcome
    and message are always those of check_gram(conj_kron(G), tol), with the
    tolerance below, at and above the bound, and down to 1e-17."""
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        m = np.eye(n, dtype=np.complex128)[rng.permutation(n)]
    else:
        m = random_unitary(n, rng).entries.copy()
    if kind == "perturbed":
        m += 10.0**scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    gram = m.conj().T @ m
    how, value = tol_choice
    if how == "tolerance":
        tol = value
    else:
        e = gram_defect(gram)
        tol = value * (2 * e + e * e)
    u = UnitaryMatrix._checked(m, tol / 10)
    expected = value_error_text(lambda: check_gram(conj_kron(gram), 10 * u.unitarity_tolerance))
    assert value_error_text(lambda: tensor_square(u)) == expected
    if expected is None:
        assert np.array_equal(tensor_square(u).entries, conj_kron(m))


def test_tensor_square_gram_bound_takes_the_dense_check_when_it_cannot_decide():
    """A checked input needs no n^4 scan at the default tolerance; below a
    few ulps the bound cannot clear the tolerance, and the dense scan runs,
    passing an exact permutation matrix and rejecting a rounded unitary."""
    rng = np.random.default_rng(5)
    cases = [(random_unitary(4, rng).entries, 1e-9, 0, None),
             (np.eye(4, dtype=np.complex128)[[2, 0, 3, 1]], 1e-18, 1, None),
             (random_unitary(4, rng).entries, 1e-18, 1, "not unitary within tolerance 1e-17")]
    for m, tol, scans, rejected in cases:
        u = UnitaryMatrix._checked(m, tol)
        with mock.patch.object(amplify, "check_gram", wraps=check_gram) as dense:
            if rejected is None:
                assert tensor_square(u).n == 16
            else:
                with pytest.raises(ValueError, match=rejected):
                    tensor_square(u)
        assert dense.call_count == scans


def test_tensor_square_into_a_buffer_returns_a_read_only_view_of_it():
    u = random_unitary(3, np.random.default_rng(2))
    out = np.empty((9, 9), dtype=np.complex128)
    square = tensor_square(u, out)
    assert np.shares_memory(square.entries, out) and not square.entries.flags.writeable
    assert out.flags.writeable
    assert np.array_equal(square.entries.view(np.uint64), tensor_square(u).entries.view(np.uint64))


def _report_rows_oracle(pairs):
    """One fresh square per matrix and one fresh difference per pair."""
    rows = []
    for u, v in pairs:
        d_in = phase_aligned_hs(u, v)
        rows.append((d_in, amplified_distance(d_in), hs_distance(tensor_square(u), tensor_square(v))))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_amplification_report_rows_match_fresh_squares_bit_for_bit(n, count, seed):
    drawn = random_unitaries(n, 2 * count, np.random.default_rng(seed))
    pairs = list(zip(drawn[::2], drawn[1::2]))
    rows = np.array(amplification_report(pairs).pairs)
    assert np.array_equal(rows.view(np.uint64), _report_rows_oracle(pairs).view(np.uint64))


def test_amplification_report_reused_buffers_keep_the_dense_check():
    """A pair whose Gram bound cannot clear its tolerance takes the n^4 scan
    between buffered pairs, with rows bit-equal to fresh squares; a
    non-unitary input raises the fresh squares' message."""
    drawn = random_unitaries(4, 4, np.random.default_rng(6))
    exact = [UnitaryMatrix._checked(np.eye(4, dtype=np.complex128)[p], 1e-18)
             for p in ([2, 0, 3, 1], [1, 0, 3, 2])]
    pairs = [(drawn[0], drawn[1]), tuple(exact), (drawn[2], drawn[3])]
    with mock.patch.object(amplify, "check_gram", wraps=check_gram) as dense:
        rows = np.array(amplification_report(pairs).pairs)
    assert dense.call_count == 2
    assert np.array_equal(rows.view(np.uint64), _report_rows_oracle(pairs).view(np.uint64))
    bad = UnitaryMatrix._checked(np.diag([1.1, 1, 1, 1]).astype(np.complex128), 1e-9)
    pairs.insert(1, (drawn[0], bad))
    expected = value_error_text(lambda: _report_rows_oracle(pairs))
    assert expected is not None and "not unitary within tolerance 1e-08" in expected
    assert value_error_text(lambda: amplification_report(pairs)) == expected


def test_amplified_distance_fixed_points_and_range():
    assert amplified_distance(0.0) == 0.0
    assert abs(amplified_distance(SQRT2) - SQRT2) < 1e-15
    assert amplified_distance(2.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        amplified_distance(-0.1)
    with pytest.raises(ValueError):
        amplified_distance(2.1)


@given(st.floats(min_value=1e-6, max_value=2.0 - 1e-6))
def test_amplified_distance_pushes_toward_sqrt2(d):
    out = amplified_distance(d)
    assert out <= SQRT2 + 1e-12  # sqrt(2) is the global maximum of the map
    if d < SQRT2 - 1e-9:
        assert out > d
    elif d > SQRT2 + 1e-9:
        assert out < d


def test_one_step_law_exact_in_phase_aligned_distance():
    """The measured output distance equals f(d) for the phase-aligned input
    distance d -- exact for arbitrary complex unitary pairs."""
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(100):
            u, v = random_unitary(n, rng), random_unitary(n, rng)
            measured = hs_distance(tensor_square(u), tensor_square(v))
            predicted = amplified_distance(phase_aligned_hs(u, v))
            assert abs(measured - predicted) < 1e-8


def test_one_step_law_exact_in_plain_hs_for_real_traces():
    """For images with real relative trace (real orthogonal pairs here, and
    likewise permutation-matrix images), the phase-aligned distance is within
    a sign of the plain one and the recurrence governs hs itself."""
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for _ in range(100):
            u, v = random_orthogonal(n, rng), random_orthogonal(n, rng)
            measured = hs_distance(tensor_square(u), tensor_square(v))
            predicted = amplified_distance(hs_distance(u, v))
            assert abs(measured - predicted) < 1e-8


def test_one_step_law_fails_in_plain_hs_for_skewed_phases():
    """Documented limitation: the recurrence cannot be a function of the
    plain hs distance, since a global phase changes hs but not the tensor
    square.  u = I and v = i*I is the extreme case."""
    u = UnitaryMatrix.identity(3)
    v = UnitaryMatrix(1j * np.eye(3))
    measured = hs_distance(tensor_square(u), tensor_square(v))
    assert measured == pytest.approx(0.0)
    # yet the plain input distance is sqrt(2), which the map holds fixed
    assert amplified_distance(hs_distance(u, v)) == pytest.approx(SQRT2, abs=1e-9)


def test_second_step_exact_in_plain_hs_even_for_complex_pairs():
    """After one amplification the relative traces are real nonnegative, so
    from then on the plain-hs recurrence is exact."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        u1, v1 = tensor_square(u), tensor_square(v)
        measured = hs_distance(tensor_square(u1), tensor_square(v1))
        assert abs(measured - amplified_distance(hs_distance(u1, v1))) < 1e-8


def test_iterate_orbit_frozen_values():
    orbit = iterate_amplification(0.5, 3)
    assert len(orbit) == 3
    for got, want in zip(orbit, ORBIT_FROM_HALF):
        assert abs(got - want) < 1e-12


def test_iterate_rejects_degenerate_start():
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            iterate_amplification(bad, 3)
    with pytest.raises(ValueError):
        iterate_amplification(0.5, 0)


def test_iterations_to_tolerance():
    k = iterations_to_tolerance(0.3, 1e-6)
    assert 0 < k <= 40
    orbit = iterate_amplification(0.3, k + 1)
    assert abs(orbit[k] - SQRT2) < 1e-6
    assert abs(orbit[k - 1] - SQRT2) >= 1e-6
    assert iterations_to_tolerance(SQRT2, 1e-6) == 0
    with pytest.raises(ResourceCapError, match="within 200 iterations$"):
        iterations_to_tolerance(1e-9, 0.0)


def test_halve_embed_exact_scaling():
    rng = np.random.default_rng(6)
    for _ in range(100):
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        hu, hv = halve_embed(u), halve_embed(v)
        assert hu.n == 6
        assert abs(hs_distance(hu, hv) - hs_distance(u, v) / SQRT2) < 1e-9


def test_halve_embed_is_homomorphism():
    rng = np.random.default_rng(7)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    lhs = halve_embed(u * v).entries
    rhs = (halve_embed(u) * halve_embed(v)).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_amplification_report():
    rng = np.random.default_rng(8)
    pairs = [(random_unitary(3, rng), random_unitary(3, rng)) for _ in range(10)]
    report = amplification_report(pairs)
    assert report.input_rank == 3
    assert report.output_rank == 9
    assert len(report.pairs) == 10
    assert report.max_prediction_error() < 1e-8
    doc = report.to_json()
    assert len(doc["pairs"]) == 10
    assert set(doc["pairs"][0]) == {"d_in", "d_predicted", "d_measured"}
    with pytest.raises(ValueError):
        amplification_report([])
    with pytest.raises(ValueError):
        amplification_report([(UnitaryMatrix.identity(2), UnitaryMatrix.identity(3))])
