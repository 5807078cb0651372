"""Tensor-square amplification of unitaries.

The conjugation action of U(n) on the matrix space M_n(C), taken in the
row-major basis E_ij (output index i*n+j), yields a unitary embedding
U(n) -> U(n^2) realized as u -> conj(u) (x) u.  It transforms pairwise
Hilbert-Schmidt distances by d -> d*sqrt(2 - d^2/2), whose only fixed points
in [0, 2] are 0, sqrt(2) and the collapse f(2) = 0; iterating drives every
separation in (0, 2) toward sqrt(2).

The block-diagonal embedding u -> diag(u, I_n) scales all distances by
exactly 1/sqrt(2), shrinking any diameter-2 configuration strictly below 2
so that the amplification recurrence applies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ITERATION_CAP
from .errors import ResourceCapError
from .metrics import UnitaryMatrix, check_gram, gram_defect, hs_distance, phase_aligned_hs

SQRT2 = math.sqrt(2.0)
# The dense square check's rounding of conj(a) * b - delta and of its
# modulus, and the bound's own, in units of (1 + e)^2: 16 ulps where a few do
_SQUARE_SLACK = 16 * float(np.finfo(np.float64).eps)


def conj_kron(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """conj(u) (x) u, entry [i*n + k, j*n + l] = conj(u[i, j]) * u[k, l], for
    one (n, n) matrix or for each matrix of an (..., n, n) stack; written
    into out (C-contiguous complex128, the result's shape) when given."""
    n = u.shape[-1]
    out = None if out is None else out.reshape(*u.shape[:-2], n, n, n, n)
    out = np.multiply(u.conj()[..., :, None, :, None], u[..., None, :, None, :], out=out)
    return out.reshape(*u.shape[:-2], n * n, n * n)


def tensor_square(u: UnitaryMatrix, out: np.ndarray | None = None) -> UnitaryMatrix:
    """Amplify one step: rank n -> n^2, normalized trace -> |trace|^2.

    The square is checked for unitarity within 10x u's tolerance from the
    Gram matrix G = u*u: (conj(u) (x) u)*(conj(u) (x) u) = conj(G) (x) G for
    any matrix u, so the dense check is max |conj(G) (x) G - I| <= tol, n^4
    operations where the product of the square with itself takes n^6.  With
    E = G - I and e = max |E|, each entry of conj(G) (x) G - I is
    conj(E_ij) E_kl + conj(E_ij) delta_kl + delta_ij E_kl, of modulus at
    most 2e + e^2.  When that bound clears tol by more than the dense check's
    own rounding (_SQUARE_SLACK), the dense check would pass, and the O(n^2)
    bound replaces it; otherwise (a NaN e included) the dense check runs.
    Either way the verdict and every error message are the dense check's.
    With out, conj_kron writes the square there, and the result is a
    read-only view of out, valid until out is written again."""
    tol = 10 * u.unitarity_tolerance
    gram = u.entries.conj().T @ u.entries
    e = gram_defect(gram)
    if not (2 * e + e * e) * (1 + _SQUARE_SLACK) + _SQUARE_SLACK * (1 + e) * (1 + e) <= tol:
        check_gram(conj_kron(gram), tol)
    return UnitaryMatrix._checked(conj_kron(u.entries, out), tol)


def amplified_distance(d: float) -> float:
    """One-step distance transform d * sqrt(2 - d^2/2) on [0, 2]."""
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"distance {d} outside [0, 2]")
    return d * math.sqrt(2.0 - d * d / 2.0)


def iterate_amplification(d0: float, k: int) -> list[float]:
    """The k-term orbit [d0, f(d0), f(f(d0)), ...] of the distance map.

    The endpoints are rejected: 0 is a fixed point and 2 collapses to 0 in
    one step, so neither can converge to sqrt(2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d0 <= 0.0 or d0 >= 2.0:
        raise ValueError(
            f"d0 = {d0} is degenerate: 0 is a fixed point and 2 collapses to 0"
        )
    orbit = [d0]
    for _ in range(k - 1):
        orbit.append(amplified_distance(orbit[-1]))
    return orbit


def iterations_to_tolerance(d0: float, tol: float) -> int:
    """First index k (0-based along the orbit) with |orbit_k - sqrt(2)| < tol."""
    d = d0
    for k in range(ITERATION_CAP + 1):
        if abs(d - SQRT2) < tol:
            return k
        d = amplified_distance(d)
    raise ResourceCapError(
        f"orbit from {d0} did not reach tolerance {tol} within "
        f"{ITERATION_CAP} iterations"
    )


@dataclass(frozen=True)
class AmplificationReport:
    """Measured vs predicted distances for one amplification step.

    d_in is the phase-aligned input distance: the tensor square kills global
    phases, and d_measured = amplified_distance(d_in) is an exact identity in
    that quantity.  For images with real nonnegative relative traces
    (permutation matrices, real orthogonal matrices, and every image produced
    by a previous amplification step) the phase-aligned distance coincides
    with the plain Hilbert-Schmidt distance, so there the recurrence governs
    hs itself.
    """

    input_rank: int
    output_rank: int
    pairs: tuple[tuple[float, float, float], ...]  # (d_in, d_predicted, d_measured)

    def max_prediction_error(self) -> float:
        return max((abs(p - m) for _, p, m in self.pairs), default=0.0)

    def to_json(self) -> dict:
        return {
            "input_rank": self.input_rank,
            "output_rank": self.output_rank,
            "pairs": [
                {"d_in": d, "d_predicted": p, "d_measured": m}
                for d, p, m in self.pairs
            ],
        }


def amplification_report(pairs: list[tuple[UnitaryMatrix, UnitaryMatrix]]) -> AmplificationReport:
    """Amplify each pair once and compare the measured output distance with
    the closed-form prediction.  Both squares and their difference are
    written into three rank-n^2 buffers allocated once for all pairs."""
    if not pairs:
        raise ValueError("at least one pair required")
    n = pairs[0][0].n
    square_u, square_v, diff = np.empty((3, n * n, n * n), dtype=np.complex128)
    rows = []
    for u, v in pairs:
        if u.n != n or v.n != n:
            raise ValueError("all pairs must share one rank")
        d_in = phase_aligned_hs(u, v)
        measured = hs_distance(tensor_square(u, square_u), tensor_square(v, square_v), diff)
        rows.append((d_in, amplified_distance(d_in), measured))
    return AmplificationReport(input_rank=n, output_rank=n * n, pairs=tuple(rows))
