"""The array defect/separation kernels against the per-pair reference loops.

The references are the scans `defect_witness` / `separation_witness` ran
before the kernels: the distance of each pair in the ball's product order
(defect) or in row-major i < j order (separation), keeping the first extremal
pair.  For symmetric-group targets that distance is the exact `hamming`; for
unitary targets it is `hs_distance`, with products formed by
`UnitaryMatrix.__mul__`.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import almosthom
from soficlab.almosthom import (
    AlmostHom,
    Certificate,
    defect_witness,
    load_certificate,
    measured_certificate,
    save_certificate,
    separation_witness,
    verify,
)
from soficlab.amenability import folner_box
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.cli import main
from soficlab.constructions import amplify_certificate, folner_to_sofic, sofic_to_hyperlinear
from soficlab.metrics import (
    Permutation,
    UnitaryMatrix,
    hamming,
    hs_distance,
    random_unitary,
)
from soficlab.words import word_to_str

from oracles import complex_unitary_kernels, random_orthogonal, take_along_axis_kernels


def as_permutations(hom: AlmostHom) -> list:
    return [Permutation(tuple(row)) for row in hom.images.tolist()]


def as_unitaries(hom: AlmostHom) -> list:
    return [UnitaryMatrix(u) for u in hom.images]


def product_table(hom: AlmostHom) -> dict:
    """The ball's products as a dict (i, j) -> k."""
    return {(i, j): k for i, j, k in hom.domain.products.tolist()}


def reference_defect_witness(hom: AlmostHom):
    images = as_permutations(hom)
    worst, witness = Fraction(0), None
    for i, j, k in hom.domain.products.tolist():
        d = hamming(images[i] * images[j], images[k])
        if witness is None or d > worst:
            worst, witness = d, (i, j)
    return worst, witness


def reference_separation_witness(hom: AlmostHom):
    images = as_permutations(hom)
    best, witness = None, None
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d = hamming(images[i], images[j])
            if best is None or d < best:
                best, witness = d, (i, j)
    return best, witness


def reference_unitary_defect_witness(hom: AlmostHom):
    images = as_unitaries(hom)
    worst, witness = 0.0, None
    for i, j, k in hom.domain.products.tolist():
        d = hs_distance(images[i] * images[j], images[k])
        if witness is None or d > worst:
            worst, witness = d, (i, j)
    return worst, witness


def reference_unitary_separation_witness(hom: AlmostHom):
    images = as_unitaries(hom)
    best, witness = None, None
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d = hs_distance(images[i], images[j])
            if best is None or d < best:
                best, witness = d, (i, j)
    return best, witness


BACKENDS = {
    "z": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "free": lambda: free_backend(2),
    "heisenberg": heisenberg_backend,
}


@st.composite
def sym_homs(draw):
    """Random assignments on small balls; small degrees make ties common."""
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]()
    domain = ball(backend, draw(st.integers(0, 2)))
    n = draw(st.integers(1, 5))
    perm = st.permutations(range(n))
    images = [list(range(n))] + [draw(perm) for _ in range(len(domain) - 1)]
    return AlmostHom(domain=domain, target_kind="sym", target_n=n, images=np.array(images))


def assert_matches_reference(hom: AlmostHom) -> None:
    got = defect_witness(hom)
    assert got == reference_defect_witness(hom)
    assert isinstance(got[0], Fraction)
    if len(hom.domain) < 2:
        with pytest.raises(ValueError):
            separation_witness(hom)
    else:
        got = separation_witness(hom)
        assert got == reference_separation_witness(hom)
        assert isinstance(got[0], Fraction)


@settings(max_examples=60, deadline=None)
@given(sym_homs(), st.sampled_from([1, 3, 1 << 18]))
def test_kernels_match_reference_loop(hom, chunk):
    # chunk 1 and 3 force one pair / one row per block and ragged last blocks
    with mock.patch.object(almosthom, "_KERNEL_CHUNK", chunk):
        assert_matches_reference(hom)


@settings(max_examples=60, deadline=None)
@given(sym_homs(), st.booleans(), st.sampled_from([1, 3, 1 << 18]))
def test_flat_index_composition_matches_take_along_axis(hom, to_unitary, chunk):
    """Products read off the flat rows give the defect Fraction (or float)
    and witness that the earlier `take_along_axis` composition gave, for
    sym rows and for the int32 rows of permutation matrices alike."""
    if to_unitary:
        hom = sofic_to_hyperlinear(hom)
    with mock.patch.object(almosthom, "_KERNEL_CHUNK", chunk):
        got = defect_witness(hom)
        with mock.patch.object(almosthom, "_kernels", take_along_axis_kernels):
            assert got == defect_witness(hom)


def test_kernels_match_reference_on_a_folner_certificate():
    backend = heisenberg_backend()
    hom = folner_to_sofic(ball(backend, 2), folner_box(backend, 4))
    assert_matches_reference(hom)
    assert defect_witness(hom)[0] > 0
    with mock.patch.object(almosthom, "_kernels", take_along_axis_kernels):
        assert defect_witness(hom) == reference_defect_witness(hom)


def test_ties_report_the_first_extremal_pair():
    # Z ball of radius 1: elements e, a, a'.  Sending both a and a' to the
    # same 3-cycle c gives defect 1 at (a, a') and (a', a), and separation 0
    # only at (a, a'); the scan order picks (a, a') both times.
    domain = ball(zpower_backend(1), 1)
    c = [1, 2, 0]
    hom = AlmostHom(domain, "sym", 3, np.array([[0, 1, 2], c, c]))
    assert defect_witness(hom) == (Fraction(1), (1, 2))
    assert separation_witness(hom) == (Fraction(0), (1, 2))
    assert_matches_reference(hom)
    # all images equal: every pair ties at separation 0 and defect 0
    flat = AlmostHom(domain, "sym", 3, np.array([[0, 1, 2]] * 3))
    assert defect_witness(flat) == (Fraction(0), (0, 0))
    assert separation_witness(flat) == (Fraction(0), (0, 1))


def test_singleton_ball():
    # identity * identity is always defined, so the defect witness is (0, 0);
    # separation needs two elements
    hom = AlmostHom(ball(zpower_backend(1), 0), "sym", 4, np.array([[0, 1, 2, 3]]))
    assert defect_witness(hom) == (Fraction(0), (0, 0))
    with pytest.raises(ValueError, match="at least 2 elements"):
        separation_witness(hom)
    assert_matches_reference(hom)
    # a hand-built table recording no products has no defect witness at all
    hom.domain.products = np.empty((0, 3), dtype=np.int32)
    assert defect_witness(hom) == (Fraction(0), None) == reference_defect_witness(hom)


@st.composite
def unitary_homs(draw):
    """Random unitary images (identity first) on small balls."""
    backend = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]()
    domain = ball(backend, draw(st.integers(0, 2)))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = [np.eye(n)] + [random_unitary(n, rng).entries for _ in range(len(domain) - 1)]
    return AlmostHom(domain=domain, target_kind="unitary", target_n=n, images=np.array(images))


def assert_close_to_reference(got, want, distance_of) -> None:
    """Values within 1e-12 and the same witness pair, except where two pairs
    are equally extremal in exact arithmetic (tr(uv) = tr(vu) makes the
    defects of (a, a') and (a', a) equal) and rounding orders them the other
    way; the reported pair must then still be extremal within 1e-12."""
    assert isinstance(got[0], float)
    assert abs(got[0] - want[0]) <= 1e-12
    if got[1] != want[1]:
        assert abs(distance_of(got[1]) - want[0]) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(unitary_homs(), st.sampled_from([1, 3, 1 << 18]))
def test_unitary_kernels_match_reference_loop(hom, chunk):
    images, products = as_unitaries(hom), product_table(hom)
    with mock.patch.object(almosthom, "_KERNEL_CHUNK", chunk):
        assert_close_to_reference(
            defect_witness(hom), reference_unitary_defect_witness(hom),
            lambda p: hs_distance(images[p[0]] * images[p[1]], images[products[p]]))
        if len(hom.domain) < 2:
            with pytest.raises(ValueError):
                separation_witness(hom)
        else:
            assert_close_to_reference(
                separation_witness(hom), reference_unitary_separation_witness(hom),
                lambda p: hs_distance(images[p[0]], images[p[1]]))


@settings(max_examples=60, deadline=None)
@given(sym_homs(), st.sampled_from([1, 3, 1 << 18]))
def test_unitary_kernels_exact_on_permutation_matrices(hom, chunk):
    # 0/1 matrices make every trace an exact integer, so values and witness
    # pairs equal the reference loop's exactly, and hs = sqrt(2 hamming)
    # picks the same first extremal pairs as the sym kernels
    unitary = sofic_to_hyperlinear(hom)
    with mock.patch.object(almosthom, "_KERNEL_CHUNK", chunk):
        got = defect_witness(unitary)
        assert got == reference_unitary_defect_witness(unitary)
        assert got[1] == defect_witness(hom)[1]
        if len(hom.domain) >= 2:
            got = separation_witness(unitary)
            assert got == reference_unitary_separation_witness(unitary)
            sym_value, sym_pair = separation_witness(hom)
            assert got[1] == sym_pair
            assert abs(got[0] - np.sqrt(2 * float(sym_value))) <= 1e-12


@st.composite
def real_unitary_homs(draw):
    """Real unitary images: permutation matrices, their tensor squares once
    or twice (final rank <= 256; still permutation matrices), or random
    orthogonal matrices; .conj() puts -0.0 among the imaginary parts."""
    kind = draw(st.sampled_from(["permutation", "amplified", "orthogonal"]))
    if kind == "orthogonal":
        domain = ball(BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))](), draw(st.integers(0, 2)))
        n = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        images = [np.eye(n)] + [random_orthogonal(n, rng).entries for _ in range(len(domain) - 1)]
        hom = AlmostHom(domain, "unitary", n, np.array(images))
    else:
        hom = sofic_to_hyperlinear(draw(sym_homs()))
        if kind == "amplified" and len(hom.domain) >= 2:  # measuring needs a separation
            times = draw(st.sampled_from([1, 2] if hom.target_n <= 4 else [1]))
            hom = amplify_certificate(measured_certificate(hom), times).hom
    if draw(st.booleans()):
        hom = AlmostHom(hom.domain, "unitary", hom.target_n, hom.images.conj())
    return hom


def witnesses(hom: AlmostHom) -> tuple:
    separation = separation_witness(hom) if len(hom.domain) >= 2 else None
    return defect_witness(hom), separation


def oracle_witnesses(hom: AlmostHom) -> tuple:
    with mock.patch.object(almosthom, "_kernels", complex_unitary_kernels):
        return witnesses(hom)


def assert_scan_rows(hom: AlmostHom) -> None:
    """Entries exactly 0 or 1 (-0.0 included) make permutation matrices,
    scanned as int32 permutation rows; any other images as complex128 rows."""
    zero_one = ((hom.images == 0) | (hom.images == 1)).all()
    assert almosthom._kernels(hom)[0].dtype == (np.int32 if zero_one else np.complex128)


@settings(max_examples=60, deadline=None)
@given(real_unitary_homs(), st.sampled_from([1, 3, 1 << 18]))
def test_real_unitary_kernels_match_complex_oracle(hom, chunk):
    """Permutation rows give the complex scan's values and pairs exactly,
    since every arithmetic on 0/1 entries is exact; every other image is
    scanned in complex128, so it gives them exactly too."""
    assert_scan_rows(hom)
    with mock.patch.object(almosthom, "_KERNEL_CHUNK", chunk):
        assert witnesses(hom) == oracle_witnesses(hom)
        if len(hom.domain) >= 2:
            # one image times -1, unless it was -1 (a 1 x 1 orthogonal draw),
            # or times 1j is no permutation matrix: the complex path
            for twist in (-1, 1j):
                images = hom.images.copy()
                images[-1] *= twist
                twisted = AlmostHom(hom.domain, "unitary", hom.target_n, images)
                assert_scan_rows(twisted)
                assert witnesses(twisted) == oracle_witnesses(twisted)


def test_verify_checks_unitarity_once_per_image(tmp_path):
    """verify runs no dense unitarity check on a permutation certificate and
    exactly one per image once any image is -P."""
    cert, twisted = tmp_path / "z.json", tmp_path / "twisted.json"
    assert main(["certify", "--family", "z", "--folner", "10", "--radius", "2",
                 "-o", str(cert)]) == 0
    assert main(["to-unitary", str(cert), "-o", str(cert)]) == 0
    hom = load_certificate(cert).hom
    images = hom.images.copy()
    images[-1] *= -1
    save_certificate(Certificate(AlmostHom(hom.domain, "unitary", 10, images), 0.0, 0.0), twisted)
    for path, want, code in ((cert, 0, 0), (twisted, len(ball(zpower_backend(1), 2)), 1)):
        checks = []
        check_unitary = almosthom.check_unitary

        def counted(m, *args):
            checks.append(m)
            check_unitary(m, *args)

        with mock.patch.object(almosthom, "check_unitary", counted):
            assert main(["verify", str(path), "--eps", "1e-6", "--delta", "1"]) == code
        assert len(checks) == want


@pytest.mark.parametrize("to_unitary", [False, True])
def test_verify_and_measuring_derive_the_scan_rows_once(to_unitary):
    """measured_certificate and verify report the values and witness words
    of the separate defect and separation scans."""
    backend = zpower_backend(2)
    hom = folner_to_sofic(ball(backend, 2), folner_box(backend, 5))
    if to_unitary:
        hom = sofic_to_hyperlinear(hom)
    cert = measured_certificate(hom)
    report = verify(cert, 0.5, 0.5)
    (dft, dft_pair), (sep, sep_pair) = defect_witness(hom), separation_witness(hom)
    assert (cert.claimed_defect, cert.claimed_separation) == (float(dft), float(sep))
    assert (report.defect, report.separation) == (float(dft), float(sep))
    words = [word_to_str(backend.alphabet, hom.domain.word(i)) for i in dft_pair + sep_pair]
    assert report.worst_defect_pair + report.worst_separation_pair == tuple(words)


def test_permutation_columns_run_once_per_stack(tmp_path):
    """A permutation-matrix stack is tested once, when the AlmostHom is
    built; verify and the writer reuse its columns, until `images` is
    reassigned."""
    z = zpower_backend(1)
    cert = measured_certificate(sofic_to_hyperlinear(folner_to_sofic(ball(z, 2), folner_box(z, 6))))
    path = tmp_path / "z.json"
    with mock.patch.object(almosthom, "_permutation_columns",
                           wraps=almosthom._permutation_columns) as tested:
        save_certificate(cert, path)
        hom = load_certificate(path).hom
        verify(Certificate(hom, 0.0, 0.0), 1e-6, 0.5)
        save_certificate(Certificate(hom, 0.0, 0.0), path)
        assert tested.call_count == 1
        assert almosthom._kernels(hom)[0].dtype == np.int32
        hom.images = -hom.images
        assert almosthom._kernels(hom)[0].dtype == np.complex128
        assert tested.call_count == 2
