"""Folner sets, Reiter vectors, and the rank-2 free group's paradoxical
decomposition at ball scale."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .backends import Canon, GroupBackend, HeisenbergBackend, ZPowerBackend, free_backend
from .config import default_limits
from .errors import ResourceCapError


# Points and translations stay within (-2^31, 2^31), so every translated
# coordinate, c + c' + b a' at most, fits in int64 without wrapping.
_COORD_BOUND = 2**31


@dataclass(frozen=True, eq=False)
class FolnerSet:
    """A finite candidate Folner set over Z^d or the Heisenberg group, stored
    as one int64 array of shape (n, d): its distinct points in lexicographic
    order.  `coords` may be given as any array-like of canonical forms."""

    backend: GroupBackend
    coords: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.backend, ZPowerBackend):
            dim = self.backend.dim
        elif isinstance(self.backend, HeisenbergBackend):
            dim = 3
        else:
            raise ValueError(f"no Folner sets for backend kind {self.backend.kind!r}")
        points = np.asarray(self.coords)
        if not points.size:
            raise ValueError("Folner set must be nonempty")
        if points.shape[1:] != (dim,):
            raise ValueError(f"Folner set points must be {dim}-tuples")
        points = _int_coords(points, "Folner set coordinates")
        later = np.zeros(len(points) - 1, dtype=bool)  # rows given strictly increasing stay
        for column in points.T[::-1]:  # row i + 1 after row i, from the last column on
            later = (column[1:] > column[:-1]) | ((column[1:] == column[:-1]) & later)
        if not later.all():
            points = points[np.lexsort(points.T[::-1])]
            points = points[np.r_[True, (points[1:] != points[:-1]).any(axis=1)]]
        points.setflags(write=False)
        object.__setattr__(self, "coords", points)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def elements(self) -> tuple:
        """The points as canonical-form tuples, in order; built on each call."""
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def _levels(self) -> list:
        """Per column: its distinct values, and the distinct codes of the
        points' prefixes up to that column, where a prefix code is the rank
        of the previous prefix times the number of values plus the rank of
        the value.  Codes stay below n^2, and since the points are sorted,
        so are their prefix codes."""
        code, found = np.zeros(len(self), dtype=np.int64), np.ones(len(self), dtype=bool)
        levels = []
        for column in self.coords.T:
            values = _distinct(np.sort(column))
            code = code * len(values) + _find(values, column, found)
            prefixes = _distinct(code)
            code = _find(prefixes, code, found)
            levels.append((values, prefixes))
        return levels

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Index into `coords` of each row of an (m, d) int64 array, or -1
        where the row is not a point of the set: a row misses as soon as one
        of its values or prefixes is absent."""
        hit = np.ones(len(rows), dtype=bool)
        code = np.zeros(len(rows), dtype=np.int64)
        for column, (values, prefixes) in zip(rows.T, self._levels):
            code = _find(prefixes, code * len(values) + _find(values, column, hit), hit)
        return np.where(hit, code, -1)

    def _shift(self, g: Canon) -> np.ndarray:
        shift = np.asarray(g)
        if shift.shape != self.coords.shape[1:]:
            raise ValueError(f"translation {g!r} is not a {self.backend.kind} element")
        return _int_coords(shift, "translation coordinates")

    def left_translate(self, g: Canon) -> np.ndarray:
        """The points g x as an (n, d) array, in the order of `coords`."""
        shift = self._shift(g)
        moved = self.coords + shift
        if isinstance(self.backend, HeisenbergBackend):  # c' + c + b' a
            moved[:, 2] += shift[1] * self.coords[:, 0]
        return moved

    def right_translate(self, g: Canon) -> np.ndarray:
        """The points x g as an (n, d) array, in the order of `coords`."""
        shift = self._shift(g)
        moved = self.coords + shift
        if isinstance(self.backend, HeisenbergBackend):  # c + c' + b a'
            moved[:, 2] += self.coords[:, 1] * shift[0]
        return moved


def _int_coords(values: np.ndarray, what: str) -> np.ndarray:
    if (values.dtype.kind not in "iu" or values.min() <= -_COORD_BOUND
            or values.max() >= _COORD_BOUND):
        raise ValueError(f"{what} must be integers in (-2^31, 2^31)")
    return values.astype(np.int64)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    keep = np.ones(len(ascending), dtype=bool)
    keep[1:] = ascending[1:] != ascending[:-1]
    return ascending[keep]


def _find(table: np.ndarray, keys: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Rank of each key in the sorted distinct `table`, by subtraction when it
    is a run of consecutive integers, clearing `hit` where the key is absent.
    Every rank is below len(table), so codes built from ranks stay small."""
    if table[-1] - table[0] == len(table) - 1:
        rank = keys - table[0]
        hit &= rank.view(np.uint64) < len(table)
        return np.clip(rank, 0, len(table) - 1, out=rank)
    rank = np.searchsorted(table, keys)
    rank[rank == len(table)] = 0
    hit &= table[rank] == keys
    return rank


def _overlap(phi: FolnerSet, g: Canon) -> int:
    """|g phi intersect phi|: the points x with g x in phi."""
    return int(np.count_nonzero(phi.positions(phi.left_translate(g)) >= 0))


def folner_defect(phi: FolnerSet, test_set: list[Canon]) -> Fraction:
    """max over g in the test set of |g phi symdiff phi| / |phi|, exact.
    Translation is injective, so the symmetric difference has
    2 (|phi| - |g phi intersect phi|) points."""
    n = len(phi)
    return max((Fraction(2 * (n - _overlap(phi, g)), n) for g in test_set),
               default=Fraction(0))


def generator_folner_defect(phi: FolnerSet) -> Fraction:
    """Folner defect against the backend's signed generators, from the positive
    ones: g^-1 phi symdiff phi = g^-1 (phi symdiff g phi), so g^-1 and g agree."""
    b = phi.backend
    return folner_defect(phi, [b.letter(s) for s in range(1, b.rank + 1)])


def folner_box(backend: GroupBackend, side: int) -> FolnerSet:
    """Standard box witnesses: [0, L)^d for Z^d; a, b in [0, L) and
    c in [0, L^2) for the Heisenberg group.  Free and finite backends are
    rejected (finite groups use the whole group as their Folner set).  A box
    of more points than the ball cap raises ResourceCapError before
    anything is allocated."""
    if side < 1:
        raise ValueError("side must be >= 1")
    if isinstance(backend, ZPowerBackend):
        shape = (side,) * backend.dim
    elif isinstance(backend, HeisenbergBackend):
        shape = (side, side, side * side)
    else:
        raise ValueError(f"no box construction for backend kind {backend.kind!r}")
    cap = default_limits().ball_cap
    size = math.prod(shape)
    if size > cap:
        raise ResourceCapError(f"Folner box of {size} points exceeds cap of {cap} elements")
    return FolnerSet(backend, np.indices(shape).reshape(len(shape), -1).T)


def reiter_norm(phi: FolnerSet, g: Canon) -> Fraction:
    """l1 distance ||f - (g)f||_1 for f = indicator(phi)/|phi|, where
    ((g)f)(x) = f(g^-1 x).  Both take the value 1/|phi| on their supports,
    so the norm is 1/|phi| times the number of points of the union support
    where exactly one is nonzero; equals folner_defect(phi, [g]) identically."""
    return folner_defect(phi, [g])


PARADOX_PIECES = ("E", "WA", "WAinv", "WB", "WBinv")
_PIECE_OF_FIRST_LETTER = {1: "WA", -1: "WAinv", 2: "WB", -2: "WBinv"}


@dataclass(frozen=True)
class ParadoxReport:
    radius: int
    piece_sizes: dict[str, int]
    a_identity_holds: bool
    b_identity_holds: bool
    partition_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.a_identity_holds and self.b_identity_holds and self.partition_ok


def paradox_verify(radius: int) -> ParadoxReport:
    """Check, over the free ball B_N, the two translation identities behind
    the paradoxical decomposition of the rank-2 free group: every nonempty
    word lies in exactly one of {w(a), a*w(a^-1)} and exactly one of
    {w(b), b*w(b^-1)}.

    A ball element is its reduced word, and x^-1 w is w without its first
    letter when that letter is x, else x^-1 followed by w.  So with every
    word's first and second letters carried down the tree (0 where there is
    none), both identities are array comparisons."""
    from .balls import ball

    if radius < 1:
        raise ValueError("radius must be >= 1")
    table = ball(free_backend(2), radius)
    parents, letters = np.asarray(table.parents), np.asarray(table.letters)
    first, second = np.zeros_like(letters), np.zeros_like(letters)
    for depth, (lo, hi) in enumerate(table.levels(), 1):
        up = parents[lo:hi]
        first[lo:hi] = letters[lo:hi] if depth == 1 else first[up]
        second[lo:hi] = letters[lo:hi] if depth == 2 else second[up]
    sizes = {piece: int(np.count_nonzero(first == s))  # in PARADOX_PIECES order
             for s, piece in {0: "E", **_PIECE_OF_FIRST_LETTER}.items()}
    first, second = first[1:], second[1:]  # the nonempty words

    def identity_holds(x: int) -> bool:
        shifted_first = np.where(first == x, second, -x)  # first letter of x^-1 w
        return not np.any((first == x) == (shifted_first == -x))

    return ParadoxReport(
        radius=radius,
        piece_sizes=sizes,
        a_identity_holds=identity_holds(1),
        b_identity_holds=identity_holds(2),
        partition_ok=sum(sizes.values()) == len(table),
    )


def ball_expansion(backend: GroupBackend, radius: int) -> Fraction:
    """min over signed generators g of |g B_N symdiff B_N| / |B_N|.  The
    ball is symmetric, so b -> b^-1 maps {b : g b in B_N} onto
    {c : c g^-1 in B_N}, and |g B_N intersect B_N| is the count of defined
    right successors by g^-1; the minimum runs over both.

    For free groups this stays bounded away from 0 as N grows; for Z^d it
    decays to 0, the amenable contrast case."""
    from .balls import ball

    table = ball(backend, radius)
    n = len(table)
    inside = np.count_nonzero(table.succ[:-1] >= 0, axis=0).tolist()
    return min(Fraction(2 * (n - k), n) for k in inside)


def f2_ball_expansion(radius: int) -> Fraction:
    return ball_expansion(free_backend(2), radius)
