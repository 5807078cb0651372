"""Certificate constructions: Folner sets to symmetric-group certificates,
local monomorphisms through regular representations, free-group certificates
via mod-p matrix images, the sofic-to-hyperlinear conversion and certificate
amplification.
"""

from typing import TYPE_CHECKING

import numpy as np

from .almosthom import AlmostHom, Certificate, _tensor_square, measured_certificate
from .backends import FiniteBackend, free_backend
from .balls import BallTable, ball
from .config import ITERATION_CAP, default_limits
from .errors import BackendMismatchError, ResourceCapError
from .words import word_to_str

if TYPE_CHECKING:  # amplify, amenability and sl2 load only where they are used
    from .amenability import FolnerSet


def regular_representation(backend: FiniteBackend) -> np.ndarray:
    """Right-translation action of a finite group on itself, as an (m, m)
    array whose row g is the permutation i -> index(element_i * g).  An
    injective homomorphism under the left-to-right permutation product,
    with every non-identity image fixed-point-free."""
    return np.ascontiguousarray(backend.table.T, dtype=np.int32)


def folner_to_sofic(domain: BallTable, phi: "FolnerSet") -> AlmostHom:
    """Extend, for each ball element g, the partial right-translation
    x -> x*g on phi to a self-bijection of phi.

    Unmatched domain points are paired with unmatched codomain points in
    canonical element order.  For Z intervals this fill reconstitutes exact
    cyclic shifts, so those certificates have defect 0; in higher rank the
    fill is still deterministic but boundary wrapping is inexact, leaving a
    defect on the order of the box's surface-to-volume ratio.
    """
    from .metrics import canonical_fill

    if domain.backend != phi.backend:
        raise BackendMismatchError("ball and Folner set use different backends")
    images = np.empty((len(domain), len(phi)), dtype=np.int32)
    for k, g in enumerate(domain.elements):
        images[k] = canonical_fill(phi.positions(phi.right_translate(g)))
    return AlmostHom(domain=domain, target_kind="sym", target_n=len(phi), images=images)


def folner_certificate(domain: BallTable, phi: "FolnerSet") -> Certificate:
    hom = folner_to_sofic(domain, phi)
    return measured_certificate(
        hom,
        provenance=f"folner: backend={domain.backend.kind} |phi|={len(phi)} "
        f"radius={domain.radius}",
    )


def lef_to_sofic(domain: BallTable, target: FiniteBackend,
                 local_mono: dict[int, int]) -> AlmostHom:
    """Compose a local monomorphism (ball index -> finite-group index) with
    the regular representation of the target.

    The map must be injective and multiplicative on all products defined in
    the ball; violations are rejected with a counterexample pair.  The result
    has defect exactly 0 and separation exactly 1.
    """
    n = len(domain)
    if set(local_mono) != set(range(n)):
        raise ValueError("local monomorphism must be total on the ball")
    values = np.array([local_mono[i] for i in range(n)])
    if values.dtype.kind not in "iu" or not ((values >= 0) & (values < target.order)).all():
        raise ValueError(f"images must index the {target.order} target elements")
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    first = first[inverse]  # the first ball element with the same image
    i = np.argmax(first != np.arange(n))  # the first repeated image, else 0
    if i:
        raise ValueError(f"not injective: ball elements {first[i]} and {i} share image {values[i]}")
    if values[0] != target.identity_index:
        raise ValueError("ball identity must map to the target identity")
    i, j, k = domain.products.T
    bad = np.flatnonzero(target.table[values[i], values[j]] != values[k])
    if bad.size:
        alphabet = domain.backend.alphabet
        raise ValueError(
            "not partially multiplicative at pair "
            f"({word_to_str(alphabet, domain.word(i[bad[0]]))!r}, "
            f"{word_to_str(alphabet, domain.word(j[bad[0]]))!r})"
        )
    return AlmostHom(domain=domain, target_kind="sym", target_n=target.order,
                     images=regular_representation(target)[values])


def free_sofic_certificate(radius: int) -> Certificate:
    """Exact sofic certificate for the rank-2 free group: map the ball into
    SL(2, Z_p) for the least injective prime p, then act by right
    translations.

    Only the four letters' translations are computed; every other row is
    walked from its parent's along its last letter.  The letter rows are
    mutually inverse and the ball is free, so the rows restrict a
    homomorphism: defect exactly 0 for every p.  Right translations by
    distinct matrices move every point apart, so the separation is exactly 1
    iff the 2 x 2 images are pairwise distinct, which is checked before any
    row is built; ValueError unless it holds."""
    from .sl2 import distinct_matrices, lef_witness_free, sl2_ball_images, sl2_right_translations

    ball_cap = default_limits().ball_cap
    p = lef_witness_free(radius)
    order = p * (p * p - 1)
    if order > ball_cap:
        raise ResourceCapError(f"|SL(2,Z_{p})| = {order} exceeds the cap")
    domain = ball(free_backend(2), radius)
    mats = sl2_ball_images(domain, p)
    if not distinct_matrices(mats):
        raise ValueError(f"mod-{p} images are not a local monomorphism: "
                         "two ball elements share an image")
    letters = sl2_right_translations(p, mats[domain.succ[0]])  # A, B, A^-1, B^-1
    hom = AlmostHom(domain=domain, target_kind="sym", target_n=order,
                    images=domain.walk(letters.T, np.arange(order)))
    return Certificate(hom=hom, claimed_defect=0.0, claimed_separation=1.0,
                       provenance=f"free_sofic: p={p} order={order} radius={radius}")


def sofic_to_hyperlinear(hom: AlmostHom) -> AlmostHom:
    """Push a symmetric-group certificate through the permutation-matrix
    embedding, a change of kind.  Pairwise distances obey hamming = (1/2) hs^2,
    so a separation s becomes sqrt(2 s) and a defect d becomes sqrt(2 d).
    A degree above the rank cap raises ResourceCapError."""
    if hom.target_kind != "sym":
        raise ValueError("sym target required")
    n, rank_cap = hom.target_n, default_limits().rank_cap
    if n > rank_cap:
        raise ResourceCapError(f"unitary rank {n} exceeds cap {rank_cap}")
    return AlmostHom(domain=hom.domain, target_kind="unitary", target_n=n, images=hom.images)


def hyperlinear_certificate(cert: Certificate) -> Certificate:
    hom = sofic_to_hyperlinear(cert.hom)
    return measured_certificate(
        hom, provenance=cert.provenance + " | to-unitary"
    )


def amplify_certificate(cert: Certificate, times: int) -> Certificate:
    """Pass every image through the tensor square `times` times.  Pairwise
    separations follow the iterated distance map.  `times` is held to the
    iteration cap and the rank, n^(2^times), to the rank cap, both before
    any image is squared."""
    if times < 1:
        raise ValueError("times must be >= 1")
    hom = cert.hom
    if hom.target_kind != "unitary":
        raise ValueError("unitary target required")
    rank_cap = default_limits().rank_cap
    if times > ITERATION_CAP:
        raise ResourceCapError(f"{times} amplification steps exceed cap {ITERATION_CAP}")
    rank = hom.target_n
    for _ in range(times):  # stepwise: no rank past the first one over the cap is formed
        rank *= rank
        if rank > rank_cap:
            raise ResourceCapError(f"amplified rank {rank} exceeds cap {rank_cap}")
    images = hom.images
    for _ in range(times):
        images = _tensor_square(images)
    out = AlmostHom(domain=hom.domain, target_kind="unitary",
                    target_n=rank, images=images)
    return measured_certificate(
        out, provenance=cert.provenance + f" | amplified x{times}"
    )

