"""Target metric groups: permutations under the normalized Hamming distance
and finite-rank unitaries under the normalized Hilbert-Schmidt distance.

Permutation products compose left-to-right: (s * t)(i) = t(s(i)).  With the
matrix convention a[i, s(i)] = 1 this makes the permutation-matrix embedding
a group homomorphism, and it matches the edge-coloured-graph reading where
following a colour sequence applies the corresponding permutations in order.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image array."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(n)):
            raise ValueError("images must be a bijection of {0,...,n-1}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


def canonical_fill(partial: np.ndarray) -> np.ndarray:
    """Extend a partial injection of {0, ..., n-1}, given as a length-n
    integer array with -1 where it is undefined, to a permutation row: the
    undefined points, in increasing order, take the unused values in
    increasing order."""
    row = partial.astype(np.int64)
    n = len(row)
    undefined = row < 0
    counts = np.bincount(row[~undefined], minlength=n)
    if counts.max(initial=0) > 1:
        raise ValueError("partial map is not injective")
    if len(counts) > n:
        raise ValueError("partial map leaves {0, ..., n-1}")
    row[undefined] = np.flatnonzero(counts == 0)
    return row


def hamming(s: Permutation, t: Permutation) -> Fraction:
    """Normalized Hamming distance: the fraction of moved points, exact."""
    if s.n != t.n:
        raise ValueError("degree mismatch")
    moved = sum(1 for a, b in zip(s.images, t.images) if a != b)
    return Fraction(moved, s.n)


def check_unitary(m: np.ndarray, tol: float = DEFAULT_UNITARITY_TOL) -> None:
    """Raise ValueError unless m is a nonempty square matrix with
    max |m*m - I| <= tol; the one unitarity check of single matrices and of
    certificate images that are not permutation matrices."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("entries must be a nonempty square matrix")
    check_gram(m.conj().T @ m, tol)


def gram_defect(gram: np.ndarray) -> float:
    """max |gram - I|, the value check_gram holds to its tolerance; NaN
    when an entry is NaN."""
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def check_gram(gram: np.ndarray, tol: float) -> None:
    """Raise check_unitary's ValueError unless max |gram - I| <= tol, for
    the Gram matrix gram = m*m of a square matrix m."""
    defect = gram_defect(gram)
    if not defect <= tol:  # also rejects NaN entries
        raise ValueError(f"matrix is not unitary within tolerance {tol:g} (defect {defect:.3e})")


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A finite-rank unitary with a hard unitarity check on construction.

    Violations are rejected rather than repaired; silent re-orthonormalization
    would corrupt certificate verification semantics.
    """

    entries: np.ndarray
    unitarity_tolerance: float = DEFAULT_UNITARITY_TOL

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.complex128)
        check_unitary(m, self.unitarity_tolerance)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "UnitaryMatrix":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def _checked(cls, entries: np.ndarray, tol: float) -> "UnitaryMatrix":
        """Wrap complex128 entries whose unitarity within tol the caller has
        already checked, without checking again."""
        u = object.__new__(cls)
        entries.setflags(write=False)
        object.__setattr__(u, "entries", entries)
        object.__setattr__(u, "unitarity_tolerance", tol)
        return u

    def __mul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        tol = max(self.unitarity_tolerance, other.unitarity_tolerance)
        return UnitaryMatrix(self.entries @ other.entries, 10 * tol)


def hs_distance(u: UnitaryMatrix, v: UnitaryMatrix, out: np.ndarray | None = None) -> float:
    """Normalized Hilbert-Schmidt distance sqrt((1/n) sum |u - v|^2) in
    [0, 2]; exactly 0 for equal matrices, exact for 0/1 matrices.  u - v is
    written into out when given."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    diff = np.subtract(u.entries, v.entries, out=out)
    return float(np.sqrt(np.vdot(diff, diff).real / u.n))


def phase_aligned_hs(u: UnitaryMatrix, v: UnitaryMatrix) -> float:
    """min over unit phases c of hs(u, c*v), i.e. sqrt(2 - 2|tr~(u*v)|).

    Coincides with hs_distance exactly when the relative normalized trace
    tr~(u*v) is real and nonnegative -- in particular for permutation
    matrices, whose relative trace is the fraction of agreeing points.  The
    tensor-square amplification is insensitive to global phase, and its
    one-step distance law is exact in this quantity.
    """
    if u.n != v.n:
        raise ValueError("rank mismatch")
    t = abs(np.trace(u.entries.conj().T @ v.entries) / u.n)
    return float(np.sqrt(max(2.0 - 2.0 * t, 0.0)))


def perm_matrix(s: Permutation) -> UnitaryMatrix:
    """0/1 unitary with a[i, s(i)] = 1; a group monomorphism satisfying
    hamming(s, t) = (1/2) * hs(perm_matrix(s), perm_matrix(t))^2."""
    return UnitaryMatrix(np.eye(s.n, dtype=np.complex128)[list(s.images)])


def random_unitaries(n: int, count: int, rng: "np.random.Generator") -> list[UnitaryMatrix]:
    """count random unitaries, each a complex Gaussian matrix (real parts,
    then imaginary parts) orthonormalized column by column by modified
    Gram-Schmidt, drawn and orthonormalized as one stack.  Bit-identical to
    count per-matrix draws: each coefficient is a stacked (1, n) @ (n, 1)
    product, the per-vector BLAS dot, and each norm is sqrt(re.re + im.im)
    over the strided real and imaginary views, as np.linalg.norm computes it."""
    g = rng.normal(size=(count, 2, n, n))
    q = g[:, 0] + 1j * g[:, 1]
    for k in range(n):
        v = q[:, :, k].copy()
        for j in range(k):
            v -= (q[:, None, :, j].conj() @ v[:, :, None])[:, 0] * q[:, :, j]
        re, im = v.real, v.imag
        q[:, :, k] = v / np.sqrt(re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0]
    return [UnitaryMatrix(m) for m in q]


def random_unitary(n: int, rng: "np.random.Generator") -> UnitaryMatrix:
    """One draw of random_unitaries."""
    return random_unitaries(n, 1, rng)[0]


def sinfty_transposition_distance(a: dict[int, int], b: dict[int, int]) -> Fraction:
    """Left-invariant (non-normalized) distance sum(2^-i over i with
    a(i) != b(i)), for finitely supported bijections of {1, 2, ...}."""
    points = set(a) | set(b)
    total = Fraction(0)
    for i in points:
        if a.get(i, i) != b.get(i, i):
            total += Fraction(1, 2**i)
    return total


def _transposition(i: int, j: int) -> dict[int, int]:
    return {i: j, j: i}


def sinfty_demo(k: int) -> tuple[Fraction, Fraction]:
    """Distances witnessing the non-normality of the small-displacement
    subgroup of S_infinity under its left-invariant metric.

    Returns (d(x_k, e), d(y_k^-1 x_k y_k, e)) for x_k = (k, k+1) and
    y_k = (1, k); the first tends to 0 while the second stays >= 1/2.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    x = _transposition(k, k + 1)
    y = _transposition(1, k)

    def apply(f: dict[int, int], i: int) -> int:
        return f.get(i, i)

    # y is an involution, so the conjugate is i -> y(x(y(i)))
    points = set(x) | set(y)
    conj = {i: apply(y, apply(x, apply(y, i))) for i in points}
    conj = {i: j for i, j in conj.items() if i != j}
    identity: dict[int, int] = {}
    return (
        sinfty_transposition_distance(x, identity),
        sinfty_transposition_distance(conj, identity),
    )
