import hashlib
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab.almosthom import (
    AlmostHom,
    defect,
    defect_witness,
    save_certificate,
    separation,
    verify,
)
from soficlab.amenability import folner_box
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.cli import main
from soficlab.constructions import (
    amplify_certificate,
    folner_certificate,
    folner_to_sofic,
    free_sofic_certificate,
    hyperlinear_certificate,
    lef_to_sofic,
    regular_representation,
    sofic_to_hyperlinear,
)
from soficlab.errors import BackendMismatchError, ResourceCapError
from soficlab.metrics import Permutation, UnitaryMatrix, hamming, hs_distance
from soficlab.sl2 import sl2_ball_images, sl2_right_translations
from oracles import (
    cyclic_backend,
    dense_images,
    is_fixed_point_free,
    lef_to_sofic_refusal,
    predicted_amplified,
    sl2_elements,
    sl2_finite_backend,
    sl2_word_image,
)


def test_regular_representation_is_injective_homomorphism():
    b = cyclic_backend(6)
    rep = [Permutation(tuple(row)) for row in regular_representation(b).tolist()]
    assert len(set(rep)) == 6
    for g in range(6):
        for h in range(6):
            assert rep[g] * rep[h] == rep[b.multiply(g, h)]
    assert all(is_fixed_point_free(rep[g]) for g in range(6) if g != b.identity_index)


def test_folner_to_sofic_z_is_exact_torus_shift():
    b = zpower_backend(1)
    hom = folner_to_sofic(ball(b, 2), folner_box(b, 10))
    assert defect(hom) == 0
    assert separation(hom) == 1
    # the image of the generator is the 10-cycle
    gen = hom.images[hom.domain.index[(1,)]]
    assert gen.tolist() == [(i + 1) % 10 for i in range(10)]


def test_folner_to_sofic_z2_defect_decays():
    """In rank 2 the canonical fill wraps diagonal translations inexactly,
    so the defect is a boundary effect: nonzero but O(1/L)."""
    b = zpower_backend(2)
    domain = ball(b, 2)
    defects = []
    for L in (6, 12, 24):
        hom = folner_to_sofic(domain, folner_box(b, L))
        d = defect(hom)
        assert 0 < d <= Fraction(4, L)
        assert separation(hom) >= 1 - Fraction(4, L)
        defects.append(d)
    assert defects[0] > defects[1] > defects[2]


def test_folner_to_sofic_heisenberg_defect_bound():
    b = heisenberg_backend()
    domain = ball(b, 2)
    defects = []
    for L in (4, 6, 8):
        hom = folner_to_sofic(domain, folner_box(b, L))
        d = defect(hom)
        assert isinstance(d, Fraction)
        assert d <= Fraction(4, L)
        defects.append(d)
    assert defects[0] > defects[1] > defects[2]


def test_folner_to_sofic_backend_mismatch():
    with pytest.raises(BackendMismatchError):
        folner_to_sofic(ball(zpower_backend(1), 1), folner_box(zpower_backend(2), 4))


def test_lef_to_sofic_validation():
    b = cyclic_backend(7)
    domain = ball(zpower_backend(1), 2)
    good = {i: domain.elements[i][0] % 7 for i in range(len(domain))}
    hom = lef_to_sofic(domain, b, good)
    assert defect(hom) == 0 and separation(hom) == 1
    with pytest.raises(ValueError, match="total"):
        lef_to_sofic(domain, b, {0: 0})
    with pytest.raises(ValueError, match="injective"):
        lef_to_sofic(domain, b, {0: 0, 1: 1, 2: 1, 3: 2, 4: 3})
    with pytest.raises(ValueError, match="identity"):
        lef_to_sofic(domain, b, {0: 1, 1: 2, 2: 0, 3: 3, 4: 4})
    with pytest.raises(ValueError, match="multiplicative"):
        lef_to_sofic(domain, b, {0: 0, 1: 1, 2: 6, 3: 3, 4: 4})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["z", "free", "heisenberg"]), st.integers(1, 2), st.integers(0, 3),
       st.data())
def test_lef_to_sofic_refuses_like_the_loops(kind, radius, spoil, data):
    """Maps into a cyclic group, spoiled at up to three ball elements, are
    accepted or refused as the old loop checks did, with the same message
    naming the same pair.  Unspoiled, Z maps faithfully (n -> n mod m);
    the other balls map element i to i."""
    backend = {"z": zpower_backend(1), "free": free_backend(2),
               "heisenberg": heisenberg_backend()}[kind]
    domain = ball(backend, radius)
    target = cyclic_backend(len(domain) + 2)
    values = [g[0] % target.order if kind == "z" else i for i, g in enumerate(domain.elements)]
    for _ in range(spoil):
        values[data.draw(st.integers(0, len(domain) - 1))] = data.draw(
            st.integers(0, target.order - 1))
    local_mono = dict(enumerate(values))
    want = lef_to_sofic_refusal(domain, target, local_mono)
    if want is None:
        assert defect(lef_to_sofic(domain, target, local_mono)) == 0
    else:
        with pytest.raises(ValueError) as caught:
            lef_to_sofic(domain, target, local_mono)
        assert str(caught.value) == want


def test_lef_to_sofic_refuses_images_outside_the_target():
    domain = ball(zpower_backend(1), 1)
    for bad in (-1, 7, 1.0):
        with pytest.raises(ValueError, match="index the 7 target elements"):
            lef_to_sofic(domain, cyclic_backend(7), {0: 0, 1: 1, 2: bad})


def test_sl2_finite_backend_orders():
    for p in (3, 5):
        b = sl2_finite_backend(p)
        assert b.order == p * (p * p - 1)
        assert len(sl2_elements(p)) == b.order


def test_free_sofic_certificate_exact():
    cert = free_sofic_certificate(1)
    assert cert.hom.target_n == 24  # |SL(2, Z_3)|
    assert cert.claimed_defect == 0.0
    assert cert.claimed_separation == 1.0
    assert defect(cert.hom) == 0
    assert separation(cert.hom) == 1
    assert verify(cert, eps=1e-9, delta=1.0).passed
    assert "p=3" in cert.provenance


def test_free_sofic_certificate_radius_2():
    cert = free_sofic_certificate(2)
    assert cert.hom.target_n == 120  # |SL(2, Z_5)|
    assert defect(cert.hom) == 0
    assert separation(cert.hom) == 1


# sha256 of save_certificate(free_sofic_certificate(r)), as written when the
# certificate indexed the regular representation of a full SL(2, Z_p) table
FREE_CERTIFICATE_SHA256 = {
    1: "6837f0170a32650792578dc22b883b04652582d3c14d0e89d8fc6b73b3ca5bb1",
    2: "d3fff13c17316b92373d6622bea5b1e95536fb7f8af3079212255333547041b7",
    3: "078a8a21000432091c0722a31b046d351c87ed899ee41656d922afda14b1889e",
    4: "973e80c41c7d73394741d1285d211334b0e4a9f4974e9cc9d64a02bb9374368d",
}


@pytest.mark.parametrize("radius", sorted(FREE_CERTIFICATE_SHA256))
def test_free_sofic_certificate_bytes_are_stable(tmp_path, radius):
    path = tmp_path / "free.json"
    save_certificate(free_sofic_certificate(radius), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FREE_CERTIFICATE_SHA256[radius]


@pytest.mark.parametrize("radius, p", [(1, 3), (2, 5)])
def test_free_sofic_certificate_equals_the_table_route(radius, p):
    cert = free_sofic_certificate(radius)
    domain = cert.hom.domain
    index = {m: i for i, m in enumerate(sl2_elements(p))}
    local_mono = {i: index[sl2_word_image(domain.word(i), p)] for i in range(len(domain))}
    reference = lef_to_sofic(domain, sl2_finite_backend(p), local_mono)
    assert np.array_equal(cert.hom.images, reference.images)


def test_free_sofic_certificate_refuses_a_non_injective_prime():
    # mod 3 identifies two words of the radius-2 ball: defect 0, separation 0
    with mock.patch("soficlab.sl2.lef_witness_free", return_value=3):
        with pytest.raises(ValueError, match="not a local monomorphism"):
            free_sofic_certificate(2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_walked_letter_rows_equal_the_translations_at_any_prime(radius, p):
    """The route of `free_sofic_certificate` at any prime, injective or not:
    the four letter rows walked over the free ball are each element's own
    right translation, and they restrict a homomorphism, so defect 0."""
    domain = ball(free_backend(2), radius)
    mats = sl2_ball_images(domain, p)
    letters = sl2_right_translations(p, mats[domain.succ[0]])  # A, B, A^-1, B^-1
    rows = domain.walk(letters.T, np.arange(letters.shape[1]))
    assert np.array_equal(rows, sl2_right_translations(p, mats))
    hom = AlmostHom(domain, "sym", rows.shape[1], rows)
    assert defect_witness(hom) == (Fraction(0), (0, 0))


def test_free_sofic_certificate_leaves_the_products_unbuilt():
    assert "products" not in vars(free_sofic_certificate(3).hom.domain)


def test_certify_free_radius_3_verifies(tmp_path):
    cert = tmp_path / "free_r3.json"
    assert main(["certify", "--family", "free", "--radius", "3", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "--eps", "1e-9", "--delta", "1"]) == 0


def test_sofic_to_hyperlinear_distance_transform():
    cert = folner_certificate(ball(zpower_backend(1), 2), folner_box(zpower_backend(1), 8))
    uhom = sofic_to_hyperlinear(cert.hom)
    assert uhom.target_kind == "unitary"
    for i in range(len(uhom.images)):
        for j in range(i + 1, len(uhom.images)):
            dh = float(hamming(Permutation(tuple(cert.hom.images[i])),
                               Permutation(tuple(cert.hom.images[j]))))
            du = hs_distance(*(UnitaryMatrix(u) for u in dense_images(uhom)[[i, j]]))
            assert abs(dh - du * du / 2.0) < 1e-9
    with pytest.raises(ValueError):
        sofic_to_hyperlinear(uhom)


def test_hyperlinear_certificate_separation():
    cert = folner_certificate(ball(zpower_backend(1), 2), folner_box(zpower_backend(1), 8))
    ucert = hyperlinear_certificate(cert)
    assert ucert.claimed_defect == 0.0
    # separation 1 in hamming becomes sqrt(2) in hs
    assert abs(ucert.claimed_separation - 2.0 ** 0.5) < 1e-9


def test_amplify_certificate_matches_prediction():
    base = folner_certificate(ball(zpower_backend(1), 1), folner_box(zpower_backend(1), 4))
    ucert = hyperlinear_certificate(base)
    amped = amplify_certificate(ucert, 1)
    assert amped.hom.target_n == 16
    images, amplified = dense_images(ucert.hom), dense_images(amped.hom)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            want = predicted_amplified(
                hs_distance(UnitaryMatrix(images[i]), UnitaryMatrix(images[j])), 1)
            got = hs_distance(UnitaryMatrix(amplified[i]), UnitaryMatrix(amplified[j]))
            assert abs(want - got) < 1e-7
    with pytest.raises(ResourceCapError):
        amplify_certificate(ucert, 3)  # 4^8 = 65536 > 256
    with pytest.raises(ValueError):
        amplify_certificate(base, 1)  # sym target
    with pytest.raises(ValueError):
        amplify_certificate(ucert, 0)


def test_amplify_certificate_refuses_before_squaring():
    """Over the iteration cap, or at the first square over the rank cap, the
    refusal comes before any image is squared: n^(2^times) is never formed,
    so --times 40 at rank 4 and 10^9 steps at rank 1 are refused at once."""
    z = zpower_backend(1)
    rank4 = hyperlinear_certificate(folner_certificate(ball(z, 1), folner_box(z, 4)))
    rank1 = hyperlinear_certificate(folner_certificate(ball(z, 1), folner_box(z, 1)))
    small = {"SOFICLAB_RANK_CAP": "16"}
    with mock.patch("soficlab.amplify.conj_kron", side_effect=AssertionError("squared")):
        with mock.patch.dict(os.environ, small), \
                pytest.raises(ResourceCapError, match="^amplified rank 256 exceeds cap 16$"):
            amplify_certificate(rank4, 2)
        with pytest.raises(ResourceCapError, match="^amplified rank 65536 exceeds cap 256$"):
            amplify_certificate(rank4, 40)
        with pytest.raises(ResourceCapError, match="^201 amplification steps exceed cap 200$"):
            amplify_certificate(rank1, 201)
        with pytest.raises(ResourceCapError, match="^1000000000 amplification steps exceed"):
            amplify_certificate(rank1, 10**9)
    with mock.patch.dict(os.environ, small):
        assert amplify_certificate(rank4, 1).hom.target_n == 16
    assert amplify_certificate(rank1, 200).hom.target_n == 1
