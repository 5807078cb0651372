"""Word-metric balls with partial multiplication tables.

A ball B_N collects every canonical form reachable by a word of length <= N,
enumerated breadth-first in shortlex order over the signed alphabet
(generators before inverses, lower index first).  The identity is always
element 0.  Each element records its BFS parent, one letter shorter, and
that letter, so its shortlex-least word is read off the tree on demand.
"""

from array import array
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
    index: dict  # canonical form -> its position in elements
    lengths: array  # word length per element
    parents: array  # index of the parent element; -1 at the identity
    letters: array  # signed letter from the parent to the element; 0 at the identity

    def __len__(self) -> int:
        return len(self.elements)

    def word(self, i: int) -> Word:
        """The shortlex-least word spelling element i."""
        letters = []
        while i > 0:
            letters.append(self.letters[i])
            i = self.parents[i]
        return tuple(reversed(letters))

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
    index = {identity: 0}
    lengths, parents = array("i", [0]), array("i", [-1])
    steps = array("b" if backend.rank < 128 else "i", [0])
    start, end = 0, 1  # the elements of the previous depth
    for depth in range(1, radius + 1):
        for i in range(start, end):
            g = elements[i]
            for s, letter in letters:
                h = backend.multiply(g, letter)
                if h in index:
                    continue
                if len(elements) >= cap:
                    raise ResourceCapError(
                        f"ball at radius {depth} exceeds cap of {cap} elements"
                    )
                index[h] = len(elements)
                elements.append(h)
                lengths.append(depth)
                parents.append(i)
                steps.append(s)
        if len(elements) == end:
            break
        start, end = end, len(elements)
    return BallTable(
        backend=backend,
        radius=radius,
        elements=tuple(elements),
        index=index,
        lengths=lengths,
        parents=parents,
        letters=steps,
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
