"""Word-metric balls with partial multiplication tables.

A ball B_N collects every canonical form reachable by a word of length <= N,
enumerated breadth-first in shortlex order over the signed alphabet
(generators before inverses, lower index first).  The identity is always
element 0, and each element carries the shortlex-least word spelling it.
"""

from dataclasses import dataclass
from functools import cached_property

from .backends import Canon, GroupBackend
from .config import ResourceLimits, default_limits
from .errors import ResourceCapError
from .words import Word


@dataclass(eq=False)
class BallTable:
    backend: GroupBackend
    radius: int
    elements: tuple  # canonical forms, identity first
    words: tuple  # shortlex-least word per element
    lengths: tuple  # word length per element

    @cached_property
    def index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def products(self) -> dict[tuple[int, int], int]:
        """Partial multiplication table: (i, j) -> k exactly when the
        product of elements i and j stays inside the ball."""
        table = {}
        mul = self.backend.multiply
        idx = self.index
        for i, g in enumerate(self.elements):
            for j, h in enumerate(self.elements):
                k = idx.get(mul(g, h))
                if k is not None:
                    table[(i, j)] = k
        return table


def ball(backend: GroupBackend, radius: int, limits: ResourceLimits | None = None) -> BallTable:
    """Enumerate the radius-N ball around the identity.

    For finite-table backends the radius may exceed the diameter, in which
    case the ball saturates at the whole group.  Raises ResourceCapError if
    the element count would exceed the configured cap.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    limits = limits or default_limits()
    cap = limits.ball_cap
    letters = [(s, backend.letter(s)) for s in backend.alphabet.signed_letters()]
    identity = backend.identity()
    elements: list[Canon] = [identity]
    spellings: list[Word] = [()]
    lengths: list[int] = [0]
    seen = {identity: 0}
    frontier = [0]
    for depth in range(1, radius + 1):
        next_frontier: list[int] = []
        for i in frontier:
            g = elements[i]
            w = spellings[i]
            for s, letter in letters:
                h = backend.multiply(g, letter)
                if h in seen:
                    continue
                if len(elements) >= cap:
                    raise ResourceCapError(
                        f"ball at radius {depth} exceeds cap of {cap} elements"
                    )
                spelling = w + (s,)
                if spelling == h:  # always so for free groups: store the word once
                    spelling = h
                seen[h] = len(elements)
                elements.append(h)
                spellings.append(spelling)
                lengths.append(depth)
                next_frontier.append(seen[h])
        if not next_frontier:
            break
        frontier = next_frontier
    return BallTable(
        backend=backend,
        radius=radius,
        elements=tuple(elements),
        words=tuple(spellings),
        lengths=tuple(lengths),
    )


def free_ball_size(rank: int, radius: int) -> int:
    """Closed-form element count of a free-group ball:
    1 + 2r*((2r-1)^N - 1)/(2r-2), with the rank-1 degeneration 2N+1."""
    if radius == 0:
        return 1
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)
