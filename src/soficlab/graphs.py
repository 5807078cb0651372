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

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .almosthom import AlmostHom
from .balls import BallTable, ball
from .backends import free_backend
from .config import ResourceLimits
from .errors import (
    BackendMismatchError,
    MalformedCertificateError,
    json_fields,
    json_int,
    json_ints,
)
from .metrics import canonical_fill


@dataclass(eq=False)
class ColoredGraph:
    """vertex_count vertices; per colour a successor list (entry None where
    the edge is missing).  total is False for externally loaded partial
    graphs."""

    vertex_count: int
    colors: tuple[str, ...]
    successors: dict[str, tuple[int | None, ...]]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if set(self.successors) != set(self.colors):
            raise ValueError("successor map must cover exactly the colours")
        for color, succ in self.successors.items():
            if len(succ) != self.vertex_count:
                raise ValueError(f"colour {color!r} successor list has wrong length")
            for v in succ:
                if v is not None and not (0 <= v < self.vertex_count):
                    raise ValueError(f"colour {color!r} successor out of range")

    @property
    def total(self) -> bool:
        return all(
            None not in succ and len(set(succ)) == self.vertex_count
            for succ in self.successors.values()
        )

    def predecessors(self, color: str) -> tuple[int | None, ...]:
        pred: list[int | None] = [None] * self.vertex_count
        for m, k in enumerate(self.successors[color]):
            if k is not None:
                pred[k] = m if pred[k] is None else pred[k]
        return tuple(pred)

    def to_json(self) -> dict:
        return {
            "vertexCount": self.vertex_count,
            "colors": list(self.colors),
            "successors": {
                c: [v for v in succ] for c, succ in self.successors.items()
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ColoredGraph":
        """Parse `to_json` output; successor entries are JSON integers or
        null, and every rejection raises MalformedCertificateError."""
        count, colors, successors = json_fields(
            doc, "coloured graph", "vertexCount", "colors", "successors")
        json_int(count, "vertexCount", 1)
        if type(colors) is not list or not all(type(c) is str for c in colors):
            raise MalformedCertificateError("colors must be a JSON array of names")
        if not isinstance(successors, dict):
            raise MalformedCertificateError("successors must be a JSON object keyed by colour")
        for color, succ in successors.items():
            if type(succ) is not list:
                raise MalformedCertificateError(f"colour {color!r} successors must be a JSON array")
            json_ints([v for v in succ if v is not None], f"colour {color!r} successors")
        try:
            return cls(count, tuple(colors), {c: tuple(succ) for c, succ in successors.items()})
        except ValueError as exc:
            raise MalformedCertificateError(str(exc)) from exc

    def to_dot(self) -> str:
        palette = ["red", "blue", "green", "orange", "purple", "brown"]
        lines = ["digraph colored {"]
        for ci, color in enumerate(self.colors):
            tint = palette[ci % len(palette)]
            for m, k in enumerate(self.successors[color]):
                if k is not None:
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


def cayley_ball_graph(backend, radius: int,
                      limits: ResourceLimits | None = None) -> ColoredGraph:
    """Coloured Cayley ball: vertices are ball elements, a colour-v edge
    g -> gv whenever both endpoints lie in the ball (right multiplication)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    table = ball(backend, radius, limits)
    colors = tuple(backend.alphabet.names)
    successors = {}
    for s in range(1, backend.rank + 1):
        gen = backend.letter(s)
        succ = tuple(
            table.index.get(backend.multiply(g, gen)) for g in table.elements
        )
        successors[colors[s - 1]] = succ
    return ColoredGraph(vertex_count=len(table), colors=colors, successors=successors)


def cert_to_graph(hom: AlmostHom) -> ColoredGraph:
    """Finite clone of the group from a symmetric-group certificate: vertices
    {0,...,n-1} and successor_v = the image permutation of generator v."""
    if hom.target_kind != "sym":
        raise ValueError("sym target required")
    backend = hom.domain.backend
    if hom.domain.radius < 1:
        raise ValueError("ball must contain the generators (radius >= 1)")
    colors = tuple(backend.alphabet.names)
    successors = {}
    for s in range(1, backend.rank + 1):
        idx = hom.domain.index[backend.letter(s)]
        successors[colors[s - 1]] = tuple(hom.images[idx].tolist())
    return ColoredGraph(vertex_count=hom.target_n, colors=colors, successors=successors)


# landing entries (words x vertices) held at once by local_match_fraction
_MATCH_CHUNK = 1 << 16


def _steps(graph: ColoredGraph) -> dict[int, np.ndarray]:
    """Per signed letter, the vertex each vertex moves to (inverse colours
    go to the least predecessor), -1 where undefined, followed by one more
    -1 so that stepping from -1 stays at -1."""
    steps = {}
    for v, color in enumerate(graph.colors, 1):
        succ = np.array([-1 if k is None else k for k in graph.successors[color]] + [-1])
        sources = np.flatnonzero(succ >= 0)
        targets, first = np.unique(succ[sources], return_index=True)
        pred = np.full_like(succ, -1)
        pred[targets] = sources[first]
        steps[v], steps[-v] = succ, pred
    return steps


def local_match_fraction(graph: ColoredGraph, radius: int,
                         reference: BallTable,
                         limits: ResourceLimits | None = None,
                         max_failures: int = 10) -> LocalMatchReport:
    """Fraction of vertices whose N-ball is colour-isomorphic to the
    reference Cayley ball.

    A vertex matches iff every reduced word of length <= N can be followed
    from it (inverse colours traverse edges backward) and two words land on
    the same vertex exactly when they are equal as reference elements.
    Words are followed from all vertices at once, in the free ball's order,
    each one letter on from its parent word.  A failing vertex reports its
    first word that is undefined or lands apart from an earlier word for the
    same element, or else a collision of distinct elements.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    backend = reference.backend
    if tuple(backend.alphabet.names) != tuple(graph.colors):
        raise BackendMismatchError("graph colours do not match the reference alphabet")
    if reference.radius != radius:
        raise ValueError("reference ball radius must equal the requested radius")
    free = ball(free_backend(backend.rank), radius, limits)
    words = free.elements
    parents = [free.index[w[:-1]] for w in words[1:]]
    first_of: dict = {}  # element -> its first word
    first = np.array([first_of.setdefault(backend.normal_form(w), k)
                      for k, w in enumerate(words)])
    met = first != np.arange(len(words))  # words for an element met before
    repeats, distinct = np.flatnonzero(met), np.flatnonzero(~met)
    steps = _steps(graph)
    matched = 0
    failures: list[tuple[int, str]] = []
    chunk = max(1, _MATCH_CHUNK // len(words))
    for lo in range(0, graph.vertex_count, chunk):
        landing = np.empty((len(words), min(chunk, graph.vertex_count - lo)), dtype=np.intp)
        landing[0] = np.arange(lo, lo + landing.shape[1])
        for k, (w, parent) in enumerate(zip(words[1:], parents), 1):
            landing[k] = steps[w[-1]][landing[parent]]
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
                reason = f"undefined traversal for word {words[k]}"
            else:
                reason = f"equal elements separate at word {words[k]}"
            failures.append((lo + m, reason))
    return LocalMatchReport(
        radius=radius,
        matched_count=matched,
        total_count=graph.vertex_count,
        sample_failures=tuple(failures),
    )


def graph_to_almosthom(graph: ColoredGraph, reference: BallTable) -> AlmostHom:
    """Extract a symmetric-group assignment from a coloured graph: each
    reference element acts by composing successor permutations along its
    canonical word.

    Partial successor maps are extended to permutations by canonical-order
    fill (unmatched vertices paired in increasing order); extraction from a
    certificate-grade (total) graph is exact.
    """
    backend = reference.backend
    if tuple(backend.alphabet.names) != tuple(graph.colors):
        raise BackendMismatchError("graph colours do not match the reference alphabet")
    steps = {}  # signed letter -> permutation row
    for v, color in enumerate(graph.colors, 1):
        try:
            steps[v] = canonical_fill(graph.successors[color])
        except ValueError as exc:
            raise ValueError(f"colour {color!r} successor map is not injective") from exc
        steps[-v] = np.argsort(steps[v])
    # perm * step applies perm, then step: the row step[perm]
    images = [reduce(lambda perm, s: steps[s][perm], word, np.arange(graph.vertex_count))
              for word in reference.words]
    return AlmostHom(domain=reference, target_kind="sym", target_n=graph.vertex_count,
                     images=np.array(images))
