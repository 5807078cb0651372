"""Mod-p images of free-group words via the classical SL(2, Z) generators.

Letter 1 evaluates to A = [[1,2],[0,1]] and letter 2 to B = [[1,0],[2,1]];
these matrices generate a free subgroup of SL(2, Z), and reduction mod p
yields injective local monomorphisms on word-metric balls for suitable p.
"""

import numpy as np

from .balls import ball
from .backends import free_backend
from .config import ResourceLimits, default_limits
from .errors import ResourceCapError
from .words import Word

Mat2 = tuple[tuple[int, int], tuple[int, int]]

SL2_A: Mat2 = ((1, 2), (0, 1))
SL2_B: Mat2 = ((1, 0), (2, 1))
SL2_A_INV: Mat2 = ((1, -2), (0, 1))
SL2_B_INV: Mat2 = ((1, 0), (-2, 1))

_LETTER_MATRICES = {1: SL2_A, -1: SL2_A_INV, 2: SL2_B, -2: SL2_B_INV}


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


def mat_mul_mod(m1: Mat2, m2: Mat2, p: int) -> Mat2:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return (
        ((a * e + b * g) % p, (a * f + b * h) % p),
        ((c * e + d * g) % p, (c * f + d * h) % p),
    )


def mat_identity(p: int) -> Mat2:
    return ((1 % p, 0), (0, 1 % p))


def sl2_word_image(word: Word, p: int) -> Mat2:
    """Evaluate a rank-2 word into SL(2, Z_p) by reducing entries mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    result = mat_identity(p)
    for s in word:
        if s == 0 or abs(s) > 2:
            raise ValueError(f"letter {s} requires a rank-2 alphabet")
        result = mat_mul_mod(result, tuple(tuple(x % p for x in row) for row in _LETTER_MATRICES[s]), p)
    return result


def sl2_images_injective(words: list[Word], p: int) -> bool:
    images = [sl2_word_image(w, p) for w in words]
    return len(set(images)) == len(images)


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


def lef_witness_free(radius: int, limits: ResourceLimits | None = None) -> int:
    """Smallest prime p for which word evaluation mod p is injective on the
    radius-N ball of the rank-2 free group.

    The restriction of a homomorphism is automatically multiplicative on
    defined products, so injectivity makes it a partial monomorphism.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    limits = limits or default_limits()
    words = list(ball(free_backend(2), radius, limits).elements)
    p = 2
    while p <= limits.prime_ceiling:
        if is_prime(p) and sl2_images_injective(words, p):
            return p
        p += 1
    raise ResourceCapError(
        f"no injective prime below ceiling {limits.prime_ceiling} for radius {radius}"
    )
