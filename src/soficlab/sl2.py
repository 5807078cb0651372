"""Mod-p images of free-group words via the classical SL(2, Z) generators.

Letter 1 evaluates to A = [[1,2],[0,1]] and letter 2 to B = [[1,0],[2,1]];
these matrices generate a free subgroup of SL(2, Z), and reduction mod p
yields injective local monomorphisms on word-metric balls for suitable p.
"""

import numpy as np

from .balls import BallTable, ball
from .backends import FreeBackend, free_backend
from .config import default_limits
from .errors import ResourceCapError

# I, A, B, B^-1, A^-1: the image of signed letter s is entry s
_LETTER_MATRICES = np.array([[[1, 0], [0, 1]], [[1, 2], [0, 1]], [[1, 0], [2, 1]],
                             [[1, 0], [-2, 1]], [[1, -2], [0, 1]]])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def sl2_ball_images(domain: BallTable, p: int) -> np.ndarray:
    """The mod-p images of the elements of a rank-2 free ball, as an int64
    (|B|, 2, 2) array with entries in [0, p): each element's image is its
    parent's times the image of its last letter, one batched 2 x 2 product
    per depth."""
    if not (isinstance(domain.backend, FreeBackend) and domain.backend.rank == 2):
        raise ValueError("SL(2) images need a ball of the rank-2 free group")
    parents, letters = np.asarray(domain.parents), np.asarray(domain.letters)
    mats = _LETTER_MATRICES[letters] % p  # the identity's letter is 0
    for lo, hi in domain.levels():
        mats[lo:hi] = mats[parents[lo:hi]] @ mats[lo:hi] % p
    return mats


def distinct_matrices(mats: np.ndarray) -> bool:
    """Whether the matrices of an (m, 2, 2) array are pairwise distinct:
    equal ones are neighbours in lexicographic order."""
    rows = mats.reshape(len(mats), 4)
    rows = rows[np.lexsort(rows.T)]
    return not (rows[1:] == rows[:-1]).all(axis=1).any()


def _sl2_codes(p: int) -> np.ndarray:
    """Base-p codes ((a p + b) p + c) p + d of the matrices [[a, b], [c, d]]
    of SL(2, Z_p), ascending, i.e. in lexicographic entry order."""
    abc = np.arange(p**3)  # the code of (a, b, c)
    a, b, c = np.unravel_index(abc, (p, p, p))
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    d = (1 + b * c) * inverse[a] % p  # the one solution of ad - bc = 1 when a != 0
    free = (a == 0) & (b * c % p == p - 1)  # a = 0 needs bc = -1, and then any d
    zero_a = (abc[free] * p)[:, None] + np.arange(p)
    return np.concatenate([zero_a, abc[a != 0] * p + d[a != 0]], axis=None)  # both ascending


def sl2_right_translations(p: int, mats: np.ndarray) -> np.ndarray:
    """Right translations of SL(2, Z_p) by matrices M_k with entries in
    [0, p), given as an (m, 2, 2) array: an int32 (m, p(p^2 - 1)) array
    whose row k is the permutation x -> index(x M_k), with the group indexed
    in lexicographic entry order.  Positions are found by binary search on
    the ascending codes, so no p^4 lookup array is built."""
    codes = _sl2_codes(p)
    top, bottom = np.divmod(codes, p * p)  # codes a p + b and c p + d of the two rows
    a, b = np.divmod(np.arange(p * p), p)  # every row vector (a, b)
    rows = np.empty((len(mats), len(codes)), dtype=np.int32)
    for k, ((e, f), (g, h)) in enumerate(np.asarray(mats).tolist()):
        moved = (a * e + b * g) % p * p + (a * f + b * h) % p  # code of (a, b) M_k
        rows[k] = np.searchsorted(codes, moved[top] * p * p + moved[bottom])
    return rows


def lef_witness_free(radius: int) -> int:
    """Smallest prime p for which evaluation mod p is injective on the
    radius-N ball of the rank-2 free group, among the p whose SL(2, Z_p),
    of order p(p^2 - 1), fits the ball cap: ResourceCapError if none does.

    The restriction of a homomorphism is automatically multiplicative on
    defined products, so injectivity makes it a partial monomorphism.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    ball_cap = default_limits().ball_cap
    domain = ball(free_backend(2), radius)
    p = 2
    while p * (p * p - 1) < len(domain):  # too few matrices to tell the ball apart
        p += 1
    while p * (p * p - 1) <= ball_cap:
        if is_prime(p) and distinct_matrices(sl2_ball_images(domain, p)):
            return p
        p += 1
    raise ResourceCapError(f"no prime p with |SL(2,Z_p)| = p(p^2 - 1) within the ball cap "
                           f"{ball_cap} is injective on the radius-{radius} ball")
