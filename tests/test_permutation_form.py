"""The paper's identities as oracles for the permutation form of unitary
certificates.

The permutation-matrix embedding S_n -> U(n) turns a normalised Hamming
distance h into the Hilbert-Schmidt distance sqrt(2h), and the tensor square
takes a permutation s to s x s on n^2 points, whose pairs disagree on a
share 1 - (1 - h)^2 of the points.  A sym certificate (random rows, or a
Folner or finite-table certificate) pushed through `to-unitary` and
`amplify`, in memory and through files, must meet both identities with the
sym scan's witnesses, and its squared columns must be the bits of
`conj_kron` on the dense matrices.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from soficlab.almosthom import (
    AlmostHom,
    Certificate,
    _permutation_image,
    certificate_to_json,
    defect_witness,
    load_certificate,
    measured_certificate,
    save_certificate,
    separation_witness,
)
from soficlab.amenability import folner_box
from soficlab.amplify import conj_kron
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.cli import main
from soficlab.constructions import (
    amplify_certificate,
    folner_to_sofic,
    lef_to_sofic,
    sofic_to_hyperlinear,
)

from oracles import cyclic_backend, dense_images

BACKENDS = {
    "z": lambda: zpower_backend(1),
    "z2": lambda: zpower_backend(2),
    "free": lambda: free_backend(2),
    "heisenberg": heisenberg_backend,
}


@st.composite
def sym_certificates(draw, max_n=16):
    """Random permutation images (identity first) on balls of at least two
    elements, of degree n <= 16 so that the square stays within rank 256."""
    domain = ball(BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))](), draw(st.integers(1, 2)))
    n = draw(st.integers(1, max_n))
    rows = [list(range(n))] + [draw(st.permutations(range(n))) for _ in range(len(domain) - 1)]
    return measured_certificate(AlmostHom(domain, "sym", n, np.array(rows)))


FOLNER_SIDES = {"z": 16, "z2": 4, "heisenberg": 2}  # boxes of at most 16 points


@st.composite
def route_certificates(draw):
    """A Folner certificate (z, z2, heisenberg) or a finite one (a cyclic
    table's regular representation) of degree n <= 16, so that its square
    fits the rank cap, with two points of one image swapped at times so
    that its defect is not 0."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(FOLNER_SIDES)))
        backend = BACKENDS[family]()
        hom = folner_to_sofic(ball(backend, draw(st.integers(1, 2))),
                              folner_box(backend, draw(st.integers(1, FOLNER_SIDES[family]))))
    else:
        backend = cyclic_backend(draw(st.integers(2, 16)))
        domain = ball(backend, draw(st.integers(1, 3)))
        hom = lef_to_sofic(domain, backend, dict(enumerate(domain.elements)))
    images = hom.images.copy()
    if draw(st.booleans()) and hom.target_n > 1 and len(images) > 1:
        k = draw(st.integers(1, len(images) - 1))
        a, b = draw(st.lists(st.integers(0, hom.target_n - 1), min_size=2, max_size=2,
                             unique=True))
        images[k, [a, b]] = images[k, [b, a]]
    return measured_certificate(AlmostHom(hom.domain, "sym", hom.target_n, images))


def pipeline(cert: Certificate, tmp_path) -> list:
    """[(sym, unitary, amplified)] homs, in memory and read back from the
    files that `to-unitary` and `amplify` write."""
    unitary = sofic_to_hyperlinear(cert.hom)
    memory = (cert.hom, unitary, amplify_certificate(measured_certificate(unitary), 1).hom)
    paths = [tmp_path / name for name in ("sym.json", "unitary.json", "amplified.json")]
    save_certificate(cert, paths[0])
    assert main(["to-unitary", str(paths[0]), "-o", str(paths[1])]) == 0
    assert main(["amplify", str(paths[1]), "--times", "1", "-o", str(paths[2])]) == 0
    return [memory, tuple(load_certificate(path).hom for path in paths)]


@settings(max_examples=60, deadline=None)
@given(sym_certificates())
def test_permutation_square_is_the_bits_of_conj_kron(tmp_path_factory, cert):
    for sym, unitary, amplified in pipeline(cert, tmp_path_factory.mktemp("c")):
        assert unitary.images.dtype == amplified.images.dtype == np.int32
        assert np.array_equal(unitary.images, sym.images)
        square = conj_kron(_permutation_image(unitary.images))
        assert not np.signbit(square.view(np.float64)).any()
        assert _permutation_image(amplified.images).tobytes() == square.tobytes()


def moved_points(hom: AlmostHom) -> np.ndarray:
    """The points moved apart by each pair i < j of permutation rows, then by
    each product g_i g_j of the ball against g_k."""
    rows = hom.images
    i, j = np.triu_indices(len(rows), 1)
    p, q, r = hom.domain.products.T
    product = np.take_along_axis(rows[q], rows[p], axis=1)  # (s * t)(x) = t(s(x))
    return np.concatenate([(rows[i] != rows[j]).sum(axis=1), (product != rows[r]).sum(axis=1)])


@settings(max_examples=80, deadline=None)
@given(sym_certificates() | route_certificates())
def test_hamming_to_hilbert_schmidt_and_the_square(tmp_path_factory, cert):
    """hs = sqrt(2h) after `to-unitary` and sqrt(2(1 - (1 - h)^2)) after
    `amplify`, both strictly increasing in h: the values are those of the
    exact h, and the witnesses are the sym scan's.  Pointwise, the square
    moves n^2 - (n - k)^2 points apart wherever the sym rows move k, for
    every pair of images and every product of the ball."""
    n = cert.hom.target_n
    for sym, unitary, amplified in pipeline(cert, tmp_path_factory.mktemp("c")):
        k = moved_points(sym)
        assert np.array_equal(moved_points(unitary), k)
        assert np.array_equal(moved_points(amplified), n * n - (n - k) ** 2)
        for scan in (defect_witness, separation_witness):
            h, pair = scan(sym)
            assert scan(unitary) == (math.sqrt(2 * float(h)), pair)
            assert scan(amplified) == (math.sqrt(2 * float(1 - (1 - h) ** 2)), pair)


@settings(max_examples=30, deadline=None)
@given(sym_certificates())
def test_to_unitary_reports_against_the_sym_verify(tmp_path_factory, cert):
    tmp_path = tmp_path_factory.mktemp("c")
    paths = [tmp_path / name for name in ("sym.json", "unitary.json")]
    save_certificate(cert, paths[0])
    assert main(["to-unitary", str(paths[0]), "-o", str(paths[1])]) == 0
    reports = []
    for path in paths:
        main(["verify", str(path), "--eps", "1", "--delta", "0", "-o", str(path) + ".report"])
        reports.append(json.loads(open(str(path) + ".report").read()))
    sym, unitary = reports
    assert unitary["defect"] == math.sqrt(2 * sym["defect"])
    assert unitary["separation"] == math.sqrt(2 * sym["separation"])
    for key in ("worst_defect_pair", "worst_separation_pair"):
        assert unitary[key] == sym[key]


@settings(max_examples=30, deadline=None)
@given(sym_certificates(max_n=6), st.data())  # dense scans of the square take n^6
def test_a_signed_zero_keeps_the_stack_dense(tmp_path_factory, cert, data):
    """One -0.0 part keeps every image a dense matrix; amplify squares it
    with conj_kron, and the writer spells what json.dump spells, as it did
    for every stack before permutation matrices were held as columns."""
    images = _permutation_image(cert.hom.images)
    parts = images.view(np.float64)
    zeros = np.flatnonzero(parts.ravel() == 0)
    if not zeros.size:  # n = 1: every entry is 1 + 0j
        return
    parts.ravel()[data.draw(st.sampled_from(zeros.tolist()))] = -0.0
    hom = AlmostHom(cert.hom.domain, "unitary", cert.hom.target_n, images)
    assert hom.images.dtype == np.complex128 and np.signbit(hom.images.view(np.float64)).any()
    amplified = amplify_certificate(Certificate(hom, 0.0, 0.0), 1)
    assert dense_images(amplified.hom).tobytes() == conj_kron(images).tobytes()
    tmp_path = tmp_path_factory.mktemp("c")
    for out in (Certificate(hom, 0.0, 0.0), amplified):
        save_certificate(out, tmp_path / "out.json")
        want = json.dumps(certificate_to_json(out), indent=1) + "\n"
        assert (tmp_path / "out.json").read_text() == want
        assert load_certificate(tmp_path / "out.json").hom.images.tobytes() == out.hom.images.tobytes()

