"""The bi-invariance of the Hamming metric as an oracle for the certificate
scans.

Relabelling the n points by a permutation p (every image s -> p s p^-1) and
the direct sum s -> s + s on 2n points both preserve, for every product and
every pair of images, the share of points moved apart.  So the exact defect
and separation of a certificate, and the first pairs that attain them, must
survive either change, in memory and read back from the file that
`save_certificate` writes.  Certificates are drawn from the Folner route
(z, z2, heisenberg), the free route (SL(2, Z_p) at radius 1-2) and the
finite route (cyclic tables and SL(2, Z_5)), each optionally tampered so
that its defect is not 0.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from soficlab.almosthom import (
    AlmostHom,
    Certificate,
    defect_witness,
    load_certificate,
    save_certificate,
    separation_witness,
)
from soficlab.amenability import folner_box
from soficlab.backends import heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.constructions import folner_to_sofic, free_sofic_certificate, lef_to_sofic

from oracles import cyclic_backend, sl2_finite_backend

FOLNER = {  # backend and the largest box side drawn
    "z": (lambda: zpower_backend(1), 12),
    "z2": (lambda: zpower_backend(2), 6),
    "heisenberg": (heisenberg_backend, 3),
}


@lru_cache(maxsize=None)
def sl2_5():
    return sl2_finite_backend(5)


def finite_hom(backend, radius: int) -> AlmostHom:
    """`certify --family finite`: the ball's own elements in the regular
    representation of the table."""
    domain = ball(backend, radius)
    return lef_to_sofic(domain, backend, dict(enumerate(domain.elements)))


@st.composite
def homs(draw) -> AlmostHom:
    route = draw(st.sampled_from(["folner", "free", "cyclic", "sl2"]))
    if route == "folner":
        make, side = FOLNER[draw(st.sampled_from(sorted(FOLNER)))]
        backend = make()
        hom = folner_to_sofic(ball(backend, draw(st.integers(1, 2))),
                              folner_box(backend, draw(st.integers(1, side))))
    elif route == "free":
        hom = free_sofic_certificate(draw(st.integers(1, 2))).hom
    elif route == "cyclic":
        hom = finite_hom(cyclic_backend(draw(st.integers(2, 12))), draw(st.integers(1, 3)))
    else:
        hom = finite_hom(sl2_5(), draw(st.integers(1, 2)))
    images = hom.images.copy()
    if draw(st.booleans()) and hom.target_n > 1:  # swap two points of one non-identity image
        k = draw(st.integers(1, len(images) - 1))
        a, b = draw(st.lists(st.integers(0, hom.target_n - 1), min_size=2, max_size=2,
                             unique=True))
        images[k, [a, b]] = images[k, [b, a]]
    return AlmostHom(hom.domain, "sym", hom.target_n, images)


def scans(hom: AlmostHom) -> tuple:
    return defect_witness(hom), separation_witness(hom)


def assert_scans_kept(hom: AlmostHom, images: np.ndarray, tmp_path) -> None:
    """`images` on the same ball scan to `hom`'s Fractions and witness pairs,
    in memory and after a save and a load."""
    changed = AlmostHom(hom.domain, "sym", images.shape[1], images)
    expected = scans(hom)
    assert scans(changed) == expected
    path = tmp_path / "changed.json"
    save_certificate(Certificate(changed, 0.0, 0.0), path)
    assert scans(load_certificate(path).hom) == expected


@settings(max_examples=60, deadline=None)
@given(homs(), st.data())
def test_relabelling_the_points_keeps_defect_separation_and_witnesses(
        tmp_path_factory, hom, data):
    p = np.array(data.draw(st.permutations(range(hom.target_n))))
    relabelled = p[hom.images[:, np.argsort(p)]]  # x -> p(s(p^-1(x)))
    assert_scans_kept(hom, relabelled, tmp_path_factory.mktemp("c"))


@settings(max_examples=60, deadline=None)
@given(homs())
def test_the_direct_sum_keeps_defect_separation_and_witnesses(tmp_path_factory, hom):
    doubled = np.concatenate([hom.images, hom.images + hom.target_n], axis=1)
    assert_scans_kept(hom, doubled, tmp_path_factory.mktemp("c"))
