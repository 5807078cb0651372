import copy
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from soficlab.almosthom import (
    EXIT_FAIL,
    EXIT_MALFORMED,
    EXIT_PASS,
    AlmostHom,
    certificate_from_json,
    certificate_to_json,
    defect,
    defect_witness,
    load_certificate,
    measured_certificate,
    save_certificate,
    separation,
    separation_witness,
    verify,
)
from soficlab.amenability import folner_box
from soficlab.backends import heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.constructions import (
    folner_certificate,
    free_sofic_certificate,
    lef_to_sofic,
    sofic_to_hyperlinear,
)
from soficlab.errors import MalformedCertificateError
from soficlab.metrics import Permutation

from oracles import sl2_finite_backend


def cyclic_shift_hom(m: int, radius: int) -> AlmostHom:
    """Exact homomorphism Z -> Z_m by translation; defect 0."""
    domain = ball(zpower_backend(1), radius)
    images = np.array([[(i + k) % m for i in range(m)] for (k,) in domain.elements])
    return AlmostHom(domain=domain, target_kind="sym", target_n=m, images=images)


def test_almosthom_validation():
    domain = ball(zpower_backend(1), 1)
    ident = [0, 1, 2]
    swap = [1, 0, 2]
    with pytest.raises(ValueError):
        AlmostHom(domain, "sym", 3, np.array([ident, swap]))  # not total
    with pytest.raises(ValueError):
        AlmostHom(domain, "sym", 3, np.array([swap, ident, ident]))  # identity image wrong
    with pytest.raises(ValueError):
        AlmostHom(domain, "perm", 3, np.array([ident, swap, swap]))  # unknown kind
    with pytest.raises(ValueError, match="float64"):  # columns must be integers
        AlmostHom(domain, "unitary", 3, np.array([ident, swap, swap], dtype=float))
    with pytest.raises(ValueError, match="image 2 is not a bijection"):
        AlmostHom(domain, "unitary", 3, np.array([ident, swap, [0, 0, 2]]))
    with pytest.raises(ValueError, match="float64"):
        AlmostHom(domain, "sym", 3, np.array([ident, swap, [1.7, 0, 2]]))  # not truncated
    with pytest.raises(ValueError, match="degree"):
        AlmostHom(domain, "sym", 4, np.array([ident, swap, swap]))
    with pytest.raises(ValueError, match="image 2 is not a bijection"):
        AlmostHom(domain, "sym", 3, np.array([ident, swap, [0, 0, 2]]))
    with pytest.raises(ValueError):  # per-element objects are not images
        AlmostHom(domain, "sym", 3, (Permutation.identity(3),) * 3)
    hom = AlmostHom(domain, "sym", 3, np.array([ident, swap, swap]))
    assert hom.images.dtype == np.int32 and not hom.images.flags.writeable
    # permutation matrices are held as the int32 columns of their 1s
    hom = AlmostHom(domain, "unitary", 3, np.eye(3)[[ident, swap, swap]])
    assert hom.images.tolist() == [ident, swap, swap] and not hom.images.flags.writeable
    # any other complex128 input is kept, not copied, and the caller's array stays writable
    unitary = np.array([np.eye(2), 1j * np.eye(2), np.eye(2)], dtype=np.complex128)
    hom = AlmostHom(domain, "unitary", 2, unitary)
    assert np.shares_memory(hom.images, unitary) and unitary.flags.writeable
    with pytest.raises(ValueError, match="not unitary"):
        AlmostHom(domain, "unitary", 2, np.array([np.eye(2), 1.001 * np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="identity"):
        AlmostHom(domain, "unitary", 2, np.array([-np.eye(2), np.eye(2), np.eye(2)]))


def test_bijection_check_runs_in_row_chunks():
    # 63 cyclic shifts of 2^16 points over the radius-31 ball of Z
    n = 1 << 16
    images = np.array([np.roll(np.arange(n, dtype=np.int32), k) for k in range(63)])
    domain = ball(zpower_backend(1), 31)
    tracemalloc.start()
    try:
        AlmostHom(domain, "sym", n, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 4
    images[[40, 50], 7] = 0  # the first bad image lies past the first chunk
    with pytest.raises(ValueError, match="image 40 is not a bijection"):
        AlmostHom(domain, "sym", n, images)


def test_defect_and_separation_exact_on_shift():
    hom = cyclic_shift_hom(7, 2)
    assert defect(hom) == 0
    assert separation(hom) == 1
    assert isinstance(defect(hom), Fraction)


def test_defect_witness_on_a_corrupted_shift():
    hom = cyclic_shift_hom(7, 2)
    images = hom.images.copy()
    # corrupt the image of the element at index 1 on a single point pair
    images[1, [0, 1]] = images[1, [1, 0]]
    bad = AlmostHom(hom.domain, "sym", 7, images)
    d, pair = defect_witness(bad)
    assert d > 0
    assert 1 in pair
    s, spair = separation_witness(bad)
    assert 0 < s <= 1


def test_verify_pass_and_fail():
    hom = cyclic_shift_hom(11, 2)
    cert = measured_certificate(hom, provenance="test shift")
    report = verify(cert, eps=1e-9, delta=1.0)
    assert report.passed and report.exit_code == EXIT_PASS
    report = verify(cert, eps=1e-9, delta=1.0001)  # unattainable separation
    assert not report.passed and report.exit_code == EXIT_FAIL
    assert report.worst_separation_pair is not None
    # NaN or infinite thresholds are malformed, not a pass or a fail
    for eps, delta in [(0.0, 1.0), (1e-9, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                       (-math.inf, 1.0), (1e-9, math.nan), (1e-9, math.inf)]:
        with pytest.raises(ValueError, match="eps" if delta == 1.0 else "delta"):
            verify(cert, eps=eps, delta=delta)


def test_certificate_json_round_trip_sym_byte_identical():
    cert = measured_certificate(cyclic_shift_hom(5, 2), provenance="shift")
    doc = certificate_to_json(cert)
    assert doc["schema"] == "sofic-cert/v1"
    back = certificate_from_json(json.loads(json.dumps(doc)))
    assert json.dumps(certificate_to_json(back), sort_keys=True) == json.dumps(
        doc, sort_keys=True
    )
    assert np.array_equal(back.hom.images, cert.hom.images)


def test_certificate_json_round_trip_unitary():
    cert = measured_certificate(
        sofic_to_hyperlinear(cyclic_shift_hom(4, 1)), provenance="unitary shift"
    )
    back = certificate_from_json(certificate_to_json(cert))
    assert back.hom.target_kind == "unitary"
    for a, b in zip(back.hom.images, cert.hom.images):
        assert np.max(np.abs(a - b)) < 1e-12


def test_save_load_round_trip(tmp_path):
    cert = free_sofic_certificate(1)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    back = load_certificate(path)
    assert np.array_equal(back.hom.images, cert.hom.images)
    assert back.claimed_separation == 1.0


@pytest.mark.parametrize("kind", ["free", "zpower", "heisenberg", "finite"])
def test_save_load_round_trip_every_backend_kind(tmp_path, kind):
    """A certificate over any backend reads back over the same backend, its
    generator names included, so every map key it wrote parses."""
    if kind == "free":
        cert = free_sofic_certificate(2)
    elif kind == "finite":
        backend = sl2_finite_backend(3)
        domain = ball(backend, 2)
        cert = measured_certificate(lef_to_sofic(domain, backend, dict(enumerate(domain.elements))))
    else:
        backend = zpower_backend(2) if kind == "zpower" else heisenberg_backend()
        cert = folner_certificate(ball(backend, 1), folner_box(backend, 3))
    save_certificate(cert, tmp_path / "cert.json")
    back = load_certificate(tmp_path / "cert.json")
    assert back.hom.domain.backend == cert.hom.domain.backend
    assert back.hom.domain.backend.alphabet == cert.hom.domain.backend.alphabet
    assert np.array_equal(back.hom.images, cert.hom.images)


def test_malformed_certificates(tmp_path):
    cert = measured_certificate(cyclic_shift_hom(5, 1))
    doc = certificate_to_json(cert)

    def expect_malformed(mutate):
        bad = copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises(MalformedCertificateError):
            certificate_from_json(bad)

    expect_malformed(lambda d: d.update(schema="nope/v0"))
    expect_malformed(lambda d: d.pop("group"))
    expect_malformed(lambda d: d.pop("map"))
    expect_malformed(lambda d: d["map"].pop("a"))  # incomplete map
    expect_malformed(lambda d: d["map"].update({"a a a": [0, 1, 2, 3, 4]}))  # outside ball
    expect_malformed(lambda d: d["map"].update({"q": [0, 1, 2, 3, 4]}))  # bad word
    expect_malformed(lambda d: d["map"].update(a=[0, 0, 1, 2, 3]))  # not a bijection
    expect_malformed(lambda d: d["map"].update(a=[0, 1, 2]))  # wrong length
    expect_malformed(lambda d: d["target"].update(kind="frobnicate"))

    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(MalformedCertificateError):
        load_certificate(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(MalformedCertificateError):
        load_certificate(path)


def test_map_keys_are_canonical_words():
    cert = measured_certificate(cyclic_shift_hom(5, 2))
    doc = certificate_to_json(cert)
    assert "" in doc["map"]  # the identity
    assert "a" in doc["map"] and "a'" in doc["map"]
    assert "a a" in doc["map"] and "a' a'" in doc["map"]
    assert len(doc["map"]) == 5


def test_exit_code_constants():
    assert (EXIT_PASS, EXIT_FAIL, EXIT_MALFORMED) == (0, 1, 2)
