"""Edge-coloured graph formulation of soficity.

A coloured graph stores, per positive generator (colour), a successor map on
its vertices: edge m -> k with colour v iff successor_v(m) = k.  Inverse
colours are implicit as reversed edges.  Cayley balls give partial successor
maps at the boundary; graphs built from symmetric-group certificates carry
full permutations.

Local correctness at a vertex is decided by word traversal rather than
generic graph isomorphism: per-colour out-degree at most 1 makes rooted
coloured balls rigid, so a vertex m has a correct N-ball exactly when
following every reduced word of length <= N from m is defined and collides
precisely as the reference group elements do.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .balls import BallTable, ball
from .backends import free_backend
from .errors import (
    BackendMismatchError,
    MalformedCertificateError,
    int_row_speller,
    json_fields,
    json_int,
    json_ints,
    spliced_json,
)

if TYPE_CHECKING:  # almosthom loads only where a certificate is built
    from .almosthom import AlmostHom


@dataclass(eq=False)
class ColoredGraph:
    """Distinct colour names and a read-only int64 successor array of shape
    (len(colors), vertex_count): row c maps each vertex to its colour-c
    successor, or to -1 where that edge is missing."""

    colors: tuple[str, ...]
    successors: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("colour names must be distinct")
        succ = np.asarray(self.successors)
        if (succ.dtype.kind not in "iu" or succ.ndim != 2 or len(succ) != len(self.colors)
                or succ.shape[1] < 1):
            raise ValueError("successors must be a nonempty integer array, a row per colour")
        bad = ((succ < -1) | (succ >= succ.shape[1])).any(axis=1)
        if bad.any():  # before the int64 cast, which would wrap large entries
            raise ValueError(f"colour {self.colors[bad.argmax()]!r} successor out of range")
        succ = succ.astype(np.int64)
        succ.setflags(write=False)
        self.successors = succ

    @property
    def vertex_count(self) -> int:
        return self.successors.shape[1]

    @property
    def total(self) -> bool:
        """Whether every colour's successor map is a permutation."""
        return bool((np.sort(self.successors, axis=1) == np.arange(self.vertex_count)).all())

    def predecessors(self) -> np.ndarray:
        """Per colour, each vertex's least predecessor (the least vertex with
        an edge of that colour into it), -1 where it has none."""
        n = self.vertex_count
        color, source = np.nonzero(self.successors >= 0)  # sources ascend per colour
        heads, first = np.unique(color * n + self.successors[color, source], return_index=True)
        pred = np.full(self.successors.size, -1, dtype=np.int64)
        pred[heads] = source[first]
        return pred.reshape(self.successors.shape)

    def to_json(self) -> dict:
        return {
            "vertexCount": self.vertex_count,
            "colors": list(self.colors),
            "successors": {
                c: [None if v < 0 else v for v in succ]
                for c, succ in zip(self.colors, self.successors.tolist())
            },
        }

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=1)``, from `int_row_speller`."""
        texts = map(int_row_speller(self.vertex_count, 3), self.successors)
        rows = ",\n  ".join(json.dumps(c) + ": " + t.decode() for c, t in zip(self.colors, texts))
        doc = {"vertexCount": self.vertex_count, "colors": list(self.colors), "successors": 0}
        return spliced_json(doc, "successors", "{\n  " + rows + "\n }" if rows else "{}")

    @classmethod
    def from_json(cls, doc: dict) -> "ColoredGraph":
        """Parse `to_json` output; successor entries are JSON integers or
        null, and every rejection raises MalformedCertificateError."""
        count, colors, successors = json_fields(
            doc, "coloured graph", "vertexCount", "colors", "successors")
        json_int(count, "vertexCount", 1)
        if type(colors) is not list or not all(type(c) is str for c in colors):
            raise MalformedCertificateError("colors must be a JSON array of names")
        if not isinstance(successors, dict) or set(successors) != set(colors):
            raise MalformedCertificateError(
                "successors must be a JSON object keyed by exactly the colours")
        rows = []
        for color in colors:
            succ = successors[color]
            # null marks a missing edge, so a -1 in the document is out of range
            if type(succ) is not list or len(succ) != count or -1 in succ:
                raise MalformedCertificateError(
                    f"colour {color!r} successors must be {count} vertices or nulls")
            rows.append(json_ints([-1 if v is None else v for v in succ],
                                  f"colour {color!r} successors"))
        try:
            return cls(tuple(colors), np.array(rows, dtype=np.int64).reshape(len(colors), count))
        except (OverflowError, ValueError) as exc:  # OverflowError: an entry beyond int64
            raise MalformedCertificateError(f"bad coloured graph: {exc}") from exc

    def to_dot(self) -> str:
        palette = ["red", "blue", "green", "orange", "purple", "brown"]
        lines = ["digraph colored {"]
        for ci, (color, succ) in enumerate(zip(self.colors, self.successors.tolist())):
            tint = palette[ci % len(palette)]
            for m, k in enumerate(succ):
                if k >= 0:
                    lines.append(f'  {m} -> {k} [label="{color}", color={tint}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LocalMatchReport:
    radius: int
    matched_count: int
    total_count: int
    sample_failures: tuple[tuple[int, str], ...]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.matched_count, self.total_count)


def cayley_ball_graph(backend, radius: int) -> ColoredGraph:
    """Coloured Cayley ball: vertices are ball elements, a colour-v edge
    g -> gv whenever both endpoints lie in the ball (right multiplication)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    table = ball(backend, radius)
    return ColoredGraph(backend.alphabet.names, table.succ[:-1, :backend.rank].T)


def cert_to_graph(hom: "AlmostHom") -> ColoredGraph:
    """Finite clone of the group from a symmetric-group certificate: vertices
    {0,...,n-1} and successor_v = the image permutation of generator v."""
    if hom.target_kind != "sym":
        raise ValueError("sym target required")
    backend = hom.domain.backend
    if hom.domain.radius < 1:
        raise ValueError("ball must contain the generators (radius >= 1)")
    return ColoredGraph(backend.alphabet.names, hom.images[hom.domain.succ[0, :backend.rank]])


# landing entries (words x vertices) held at once by local_match_fraction
_MATCH_CHUNK = 1 << 16


def local_match_fraction(graph: ColoredGraph, radius: int,
                         reference: BallTable,
                         max_failures: int = 10) -> LocalMatchReport:
    """Fraction of vertices whose N-ball is colour-isomorphic to the
    reference Cayley ball.

    A vertex matches iff every reduced word of length <= N can be followed
    from it (inverse colours traverse edges backward) and two words land on
    the same vertex exactly when they are equal as reference elements.
    Words are followed from all vertices at once, each one letter on from
    its parent word.  A failing vertex reports its first word that is
    undefined or lands apart from an earlier word for the same element, or
    else a collision of distinct elements.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    backend = reference.backend
    if tuple(backend.alphabet.names) != tuple(graph.colors):
        raise BackendMismatchError("graph colours do not match the reference alphabet")
    if reference.radius != radius:
        raise ValueError("reference ball radius must equal the requested radius")
    free = ball(free_backend(backend.rank), radius)
    # the reference element of each free word: no prefix of a word of length
    # <= N leaves B_N
    element = free.walk(reference.succ, np.zeros(1, dtype=np.int32))[:, 0]
    _, first, inverse = np.unique(element, return_index=True, return_inverse=True)
    first = first[inverse]  # each word's first word for the same element
    met = first != np.arange(len(free))  # words for an element met before
    repeats, distinct = np.flatnonzero(met), np.flatnonzero(~met)
    # vertex times signed letter: successors, least predecessors for inverse
    # colours, -1 where undefined; the extra last row keeps -1 at -1
    steps = np.full((graph.vertex_count + 1, 2 * backend.rank), -1)
    steps[:-1] = np.concatenate([graph.successors, graph.predecessors()]).T
    matched = 0
    failures: list[tuple[int, str]] = []
    chunk = max(1, _MATCH_CHUNK // len(free))
    for lo in range(0, graph.vertex_count, chunk):
        landing = free.walk(steps, np.arange(lo, min(lo + chunk, graph.vertex_count)))
        bad = landing < 0
        bad[repeats] |= landing[repeats] != landing[first[repeats]]
        first_bad = bad.argmax(axis=0)
        ends = landing[distinct]
        ends.sort(axis=0)
        failed = bad.any(axis=0) | (ends[1:] == ends[:-1]).any(axis=0)
        matched += int(np.count_nonzero(~failed))
        for m in np.flatnonzero(failed)[:max(0, max_failures - len(failures))].tolist():
            k = first_bad[m]
            if not bad[k, m]:
                reason = "distinct elements collide"
            elif landing[k, m] < 0:
                reason = f"undefined traversal for word {free.word(k)}"
            else:
                reason = f"equal elements separate at word {free.word(k)}"
            failures.append((lo + m, reason))
    return LocalMatchReport(
        radius=radius,
        matched_count=matched,
        total_count=graph.vertex_count,
        sample_failures=tuple(failures),
    )


def graph_to_almosthom(graph: ColoredGraph, reference: BallTable) -> "AlmostHom":
    """Extract a symmetric-group assignment from a coloured graph: each
    reference element acts by composing successor permutations along its
    canonical word.

    Partial successor maps are extended to permutations by canonical-order
    fill (unmatched vertices paired in increasing order); extraction from a
    certificate-grade (total) graph is exact.
    """
    from .almosthom import AlmostHom
    from .metrics import canonical_fill

    backend = reference.backend
    if tuple(backend.alphabet.names) != tuple(graph.colors):
        raise BackendMismatchError("graph colours do not match the reference alphabet")
    steps = []  # per colour its permutation row, then their inverses
    for color, succ in zip(graph.colors, graph.successors):
        try:
            steps.append(canonical_fill(succ))
        except ValueError as exc:
            raise ValueError(f"colour {color!r} successor map is not injective") from exc
    steps += [np.argsort(step) for step in steps]
    # perm * step applies perm, then step: the row step[perm]
    images = reference.walk(np.column_stack(steps).astype(np.int32), np.arange(graph.vertex_count))
    return AlmostHom(domain=reference, target_kind="sym", target_n=graph.vertex_count,
                     images=images)
