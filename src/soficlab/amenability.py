"""Folner sets, Reiter vectors, and the rank-2 free group's paradoxical
decomposition at ball scale."""

from dataclasses import dataclass
from fractions import Fraction

from .backends import Canon, GroupBackend, HeisenbergBackend, ZPowerBackend, free_backend
from .balls import ball
from .config import ResourceLimits
from .words import Word, is_reduced


@dataclass(frozen=True, eq=False)
class FolnerSet:
    """A finite candidate Folner set, stored in canonical sorted order."""

    backend: GroupBackend
    elements: tuple

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("Folner set must be nonempty")
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    def __len__(self) -> int:
        return len(self.elements)


def folner_defect(phi: FolnerSet, test_set: list[Canon]) -> Fraction:
    """max over g in the test set of |g phi symdiff phi| / |phi|, exact."""
    base = set(phi.elements)
    worst = Fraction(0)
    for g in test_set:
        shifted = {phi.backend.multiply(g, x) for x in phi.elements}
        worst = max(worst, Fraction(len(shifted ^ base), len(base)))
    return worst


def generator_folner_defect(phi: FolnerSet) -> Fraction:
    """Folner defect against the backend's signed generators."""
    b = phi.backend
    return folner_defect(phi, [b.letter(s) for s in b.alphabet.signed_letters()])


def folner_box(backend: GroupBackend, side: int) -> FolnerSet:
    """Standard box witnesses: [0, L)^d for Z^d; a, b in [0, L) and
    c in [0, L^2) for the Heisenberg group.  Free and finite backends are
    rejected (finite groups use the whole group as their Folner set)."""
    if side < 1:
        raise ValueError("side must be >= 1")
    if isinstance(backend, ZPowerBackend):
        elems = [()]
        for _ in range(backend.dim):
            elems = [prefix + (v,) for prefix in elems for v in range(side)]
        return FolnerSet(backend, tuple(elems))
    if isinstance(backend, HeisenbergBackend):
        elems = [
            (a, b, c)
            for a in range(side)
            for b in range(side)
            for c in range(side * side)
        ]
        return FolnerSet(backend, tuple(elems))
    raise ValueError(f"no box construction for backend kind {backend.kind!r}")


def reiter_norm(phi: FolnerSet, g: Canon) -> Fraction:
    """l1 distance ||f - (g)f||_1 for f = indicator(phi)/|phi|, where
    ((g)f)(x) = f(g^-1 x).  Both take the value 1/|phi| on their supports,
    so the norm is 1/|phi| times the number of points of the union support
    where exactly one is nonzero; equals folner_defect(phi, [g]) identically."""
    support = set(phi.elements)
    shifted = {phi.backend.multiply(g, x) for x in phi.elements}
    differ = sum((x in support) != (x in shifted) for x in support | shifted)
    return Fraction(differ, len(support))


PARADOX_PIECES = ("E", "WA", "WAinv", "WB", "WBinv")
_PIECE_OF_FIRST_LETTER = {1: "WA", -1: "WAinv", 2: "WB", -2: "WBinv"}


def paradox_classify(word: Word) -> str:
    """Classify a reduced rank-2 word by its first letter into the pieces of
    the paradoxical decomposition: identity, or words starting with a, a^-1,
    b, b^-1."""
    if not is_reduced(word):
        raise ValueError("word must be freely reduced")
    if not word:
        return "E"
    first = word[0]
    if abs(first) > 2:
        raise ValueError("rank-2 alphabet required")
    return _PIECE_OF_FIRST_LETTER[first]


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


def paradox_verify(radius: int, limits: ResourceLimits | None = None) -> ParadoxReport:
    """Check, word by word over the free ball B_N, the two translation
    identities behind the paradoxical decomposition of the rank-2 free group:
    every nonempty word lies in exactly one of {w(a), a*w(a^-1)} and exactly
    one of {w(b), b*w(b^-1)}."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    backend = free_backend(2)
    elements = ball(backend, radius, limits).elements
    sizes = {piece: 0 for piece in PARADOX_PIECES}
    a_ok = b_ok = True
    for w in elements:  # reduced rank-2 words, as the ball built them
        if not w:
            sizes["E"] += 1
            continue
        sizes[_PIECE_OF_FIRST_LETTER[w[0]]] += 1
        in_wa = w[0] == 1
        shifted_a = backend.multiply((-1,), w)  # a^-1 w
        in_shifted_wainv = bool(shifted_a) and shifted_a[0] == -1
        if in_wa == in_shifted_wainv:
            a_ok = False
        in_wb = w[0] == 2
        shifted_b = backend.multiply((-2,), w)  # b^-1 w
        in_shifted_wbinv = bool(shifted_b) and shifted_b[0] == -2
        if in_wb == in_shifted_wbinv:
            b_ok = False
    return ParadoxReport(
        radius=radius,
        piece_sizes=sizes,
        a_identity_holds=a_ok,
        b_identity_holds=b_ok,
        partition_ok=sum(sizes.values()) == len(elements),
    )


def ball_expansion(backend: GroupBackend, radius: int,
                   limits: ResourceLimits | None = None) -> Fraction:
    """min over signed generators g of |g B_N symdiff B_N| / |B_N|.

    For free groups this stays bounded away from 0 as N grows; for Z^d it
    decays to 0, the amenable contrast case."""
    table = ball(backend, radius, limits)
    phi = FolnerSet(backend, table.elements)
    return min(
        folner_defect(phi, [backend.letter(s)])
        for s in backend.alphabet.signed_letters()
    )


def f2_ball_expansion(radius: int, limits: ResourceLimits | None = None) -> Fraction:
    return ball_expansion(free_backend(2), radius, limits)
