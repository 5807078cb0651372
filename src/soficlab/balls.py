"""Word-metric balls with successor arrays and partial multiplication tables.

A ball B_N collects every canonical form reachable by a word of length <= N,
enumerated breadth-first in shortlex order over the signed alphabet
(generators before inverses, lower index first).  The identity is always
element 0.  Each element records its BFS parent, one letter shorter, and
that letter, so its shortlex-least word is read off the tree on demand.
Right multiplication by each signed letter is an index array (`succ`), and
the partial multiplication table is one array of (i, j, k) rows, found by
walking every word through successors.  A free ball is built in closed form
from those arrays alone, and its canonical forms, the reduced words, only on
request.
"""

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backends import Canon, FreeBackend, GroupBackend
from .config import default_limits
from .errors import ResourceCapError
from .words import Word

_PRODUCT_CHUNK = 1 << 18  # entries gathered at once by `walk`, and rows i x j per product block


@dataclass(eq=False)
class BallTable:
    """The BFS tree of a ball and its right-successor array.

    `succ` is a read-only int32 array of shape (|B| + 1, 2 rank): succ[i, c]
    is the index of element i times the c-th signed letter (columns in
    `signed_letters` order), or -1 outside the ball.  Its last row is all
    -1, so a gather through -1 stays at -1."""

    backend: GroupBackend
    radius: int
    lengths: array  # word length per element
    parents: array  # index of the parent element; -1 at the identity
    letters: array  # signed letter from the parent to the element; 0 at the identity
    succ: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def word(self, i: int) -> Word:
        """The shortlex-least word spelling element i."""
        letters = []
        while i > 0:
            letters.append(self.letters[i])
            i = self.parents[i]
        return tuple(reversed(letters))

    def levels(self) -> list[tuple[int, int]]:
        """(start, stop) of the elements at each depth 1, 2, ... in turn."""
        bounds = np.searchsorted(self.lengths, np.arange(1, self.lengths[-1] + 2)).tolist()
        return list(zip(bounds, bounds[1:]))

    def walk(self, table: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Follow every element's word through a successor table laid out
        like `succ`, one gather per depth: row 0 is `start`, a 1-D array of
        table rows, and row i is row parent(i) stepped along i's last letter.
        A level is gathered in blocks of about `_PRODUCT_CHUNK` entries."""
        parents = np.asarray(self.parents)
        columns = _columns(np.asarray(self.letters), self.backend.rank)[:, None]
        out = np.empty((len(self), len(start)), dtype=table.dtype)
        out[0] = start
        step = max(1, _PRODUCT_CHUNK // len(start))
        for lo, hi in self.levels():
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                out[a:b] = table[out[parents[a:b]], columns[a:b]]
        return out

    @cached_property
    def elements(self) -> tuple:
        """Canonical forms, identity first.  The generic enumeration keeps the
        ones it built; a free ball, on first use (only certificate ingest asks),
        spells each reduced word as its parent's word and its last letter."""
        out = [()]
        for parent, s in zip(self.parents[1:], self.letters[1:]):
            out.append(out[parent] + (s,))
        return tuple(out)

    @cached_property
    def index(self) -> dict:
        """Canonical form -> its position in `elements`."""
        return {g: i for i, g in enumerate(self.elements)}

    def product_blocks(self):
        """The rows of `products`, yielded a block of rows i at a time.  Each
        word g_j is walked from every g_i, one `succ` gather per depth.  A
        free ball walks its own `succ`, exact because g g_p lies in the ball
        whenever g g_p x does in a free group.  Any other ball walks the
        `succ` of B_2N, held to the ball cap in force: every prefix product
        g_i g_p has length <= 2N, and BFS order makes B_N a prefix of B_2N,
        so an index >= |B_N| lies outside the ball."""
        n = len(self)
        succ = (self.succ if isinstance(self.backend, FreeBackend)
                else ball(self.backend, 2 * self.radius).succ)
        step = max(1, _PRODUCT_CHUNK // n)
        for lo in range(0, n, step):
            block = self.walk(succ, np.arange(lo, min(lo + step, n))).T  # block[i - lo, j] = k
            i, j = np.nonzero((block >= 0) & (block < n))
            yield np.column_stack([i + lo, j, block[i, j]]).astype(np.int32)

    @cached_property
    def products(self) -> np.ndarray:
        """Partial multiplication table: a read-only int32 array with a row
        (i, j, k) for each product g_i g_j = g_k inside the ball, in (i, j)
        order."""
        rows = np.concatenate(list(self.product_blocks()))
        rows.setflags(write=False)
        return rows


def ball(backend: GroupBackend, radius: int) -> BallTable:
    """Enumerate the radius-N ball around the identity.

    For finite-table backends the radius may exceed the diameter, in which
    case the ball saturates at the whole group.  Raises ResourceCapError if
    the element count would exceed the ball cap, read from the environment
    at each call; a free ball is checked against it before anything is
    allocated.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = default_limits().ball_cap
    if isinstance(backend, FreeBackend):
        return _free_ball(backend, radius, cap)
    letters = [(s, backend.letter(s)) for s in backend.alphabet.signed_letters()]
    identity = backend.identity()
    elements: list[Canon] = [identity]
    index = {identity: 0}
    lengths, parents = array("i", [0]), array("i", [-1])
    steps = array("b" if backend.rank < 128 else "i", [0])
    succ = array("i")
    for i, g in enumerate(elements):  # the list grows as the loop runs
        depth = lengths[i] + 1
        for s, letter in letters:
            h = backend.multiply(g, letter)
            j = index.get(h, -1)
            if j < 0 and depth <= radius:
                if len(elements) >= cap:
                    raise ResourceCapError(f"ball at radius {depth} exceeds cap of {cap} elements")
                j = index[h] = len(elements)
                elements.append(h)
                lengths.append(depth)
                parents.append(i)
                steps.append(s)
            succ.append(j)
    succ.extend([-1] * len(letters))
    succ = np.array(succ, dtype=np.int32).reshape(-1, len(letters))
    succ.setflags(write=False)
    table = BallTable(backend, radius, lengths, parents, steps, succ)
    vars(table).update(elements=tuple(elements), index=index)  # seed the cached properties
    return table


def _free_ball(backend: FreeBackend, radius: int, cap: int) -> BallTable:
    """The free ball in closed form: depth k + 1 lists each depth-k element
    once per signed letter, in signed order, skipping the inverse of its
    last letter, which steps back to its parent."""
    rank = backend.rank
    for depth in range(1, radius + 1):  # up to the first depth over the cap
        if free_ball_size(rank, depth) > cap:
            raise ResourceCapError(f"ball at radius {depth} exceeds cap of {cap} elements")
    signed = np.array(backend.alphabet.signed_letters(), dtype=np.int32)
    parents, letters, start = [np.array([-1])], [np.array([0], dtype=np.int32)], 0
    for _ in range(radius):
        k, c = np.nonzero(signed != -letters[-1][:, None])
        parents.append(start + k)
        letters.append(signed[c])
        start += len(letters[-2])
    lengths = np.repeat(np.arange(radius + 1, dtype=np.int32), list(map(len, parents)))
    parents, letters = np.concatenate(parents).astype(np.int32), np.concatenate(letters)
    n, column = len(parents), _columns(letters, rank)
    succ = np.full((n + 1, 2 * rank), -1, dtype=np.int32)
    succ[parents[1:], column[1:]] = np.arange(1, n)  # parent times letter
    succ[np.arange(1, n), (column[1:] + rank) % (2 * rank)] = parents[1:]  # times its inverse
    succ.setflags(write=False)
    return BallTable(backend, radius, array("i", lengths.tobytes()), array("i", parents.tobytes()),
                     array("b", letters.astype(np.int8).tobytes()) if rank < 128
                     else array("i", letters.tobytes()), succ)


def _columns(letters: np.ndarray, rank: int) -> np.ndarray:
    """The `succ` column of each signed letter: s - 1 for a generator s,
    rank - 1 - s for an inverse."""
    letters = letters.astype(np.intp)
    return np.where(letters > 0, letters - 1, rank - 1 - letters)


def free_ball_size(rank: int, radius: int) -> int:
    """Closed-form element count of a free-group ball:
    1 + 2r*((2r-1)^N - 1)/(2r-2), with the rank-1 degeneration 2N+1."""
    if radius == 0:
        return 1
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)
