"""Hall (2,1)-matchings on finite bipartite graphs via max flow, and the
truncated matching-based paradox construction on group balls.

The matching exists iff every left subset X satisfies |N(X)| >= 2|X|.  The
decision is made by max flow (source->a capacity 2, a->b capacity 1,
b->sink capacity 1; feasible iff max flow = 2|A|), with a deficiency witness
extracted from the min cut on failure.

Determinism rests on one invariant of the augmentation order.  Each
augmenting path is the first one found by a BFS whose queue holds the live
sources (left vertices with residual source capacity) in ascending index
order, followed by the left vertices reached back through matched right
vertices, in the order they are discovered; each left vertex scans its
neighbours in ascending order, and the search stops at the first free right
vertex.  Any implementation that keeps this order yields the same sequence
of paths, hence the same flow, matching, deficiency witness and paradox
pieces.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import lt

import numpy as np

from .backends import GroupBackend, free_backend
from .balls import ball
from .errors import MalformedCertificateError, json_fields, json_int, json_ints
from .words import word_to_str


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Left vertices 0..|A|-1, right vertices 0..|B|-1, adjacency stored as a
    sorted deduplicated neighbour list per left vertex."""

    left_count: int
    right_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        if len(self.adjacency) != self.left_count:
            raise ValueError("adjacency must list every left vertex")
        cleaned = []
        for nbrs in self.adjacency:  # rows given strictly increasing stay
            uniq = tuple(nbrs) if all(map(lt, nbrs, nbrs[1:])) else tuple(sorted(set(nbrs)))
            if uniq and (uniq[0] < 0 or uniq[-1] >= self.right_count):
                raise ValueError("neighbour index out of range")
            cleaned.append(uniq)
        object.__setattr__(self, "adjacency", tuple(cleaned))

    def neighbourhood(self, xs) -> set[int]:
        out: set[int] = set()
        for a in xs:
            out.update(self.adjacency[a])
        return out

    def to_json(self) -> dict:
        return {
            "left_count": self.left_count,
            "right_count": self.right_count,
            "adjacency": [list(nbrs) for nbrs in self.adjacency],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BipartiteGraph":
        """Parse `to_json` output; counts and neighbours are JSON integers,
        and every rejection raises MalformedCertificateError."""
        left, right, adjacency = json_fields(
            doc, "bipartite graph", "left_count", "right_count", "adjacency")
        if type(adjacency) is not list:
            raise MalformedCertificateError("adjacency must be a JSON array of neighbour lists")
        rows = tuple(tuple(json_ints(nbrs, "adjacency")) for nbrs in adjacency)
        try:
            return cls(json_int(left, "left_count"), json_int(right, "right_count"), rows)
        except ValueError as exc:
            raise MalformedCertificateError(str(exc)) from exc


@dataclass(frozen=True)
class TwoOneMatching:
    """Two edge-respecting injections with disjoint images."""

    i: tuple[int, ...]
    j: tuple[int, ...]

    def check(self, graph: BipartiteGraph) -> bool:
        n = graph.left_count
        if len(self.i) != n or len(self.j) != n:
            return False
        used = set(self.i) | set(self.j)
        if len(used) != 2 * n:
            return False
        return all(
            self.i[a] in graph.adjacency[a] and self.j[a] in graph.adjacency[a]
            for a in range(n)
        )


@dataclass(frozen=True)
class DeficiencyWitness:
    """A left subset X with |N(X)| < 2|X|, refuting the Hall condition."""

    left_subset: tuple[int, ...]
    neighbourhood_size: int


def _max_flow_two_one(graph: BipartiteGraph):
    """Unit-capacity flow specialised to the (2,1) reduction.

    Returns (flow_value, left_to_right flow as per-left set, reachable set of
    the final residual graph split into (left, right) parts).

    Each search replays the lowest-index BFS described in the module
    docstring at the cost of the vertices it actually visits: the live
    sources are kept as an ascending list, scanned lazily, and visits are
    marked with the search's epoch instead of fresh parent arrays.
    """
    na, adjacency = graph.left_count, graph.adjacency
    nb = max((nbrs[-1] + 1 for nbrs in adjacency if nbrs), default=0)  # no other b is reached
    source_residual = [2] * na  # remaining capacity source -> a
    live = list(range(na))  # ascending: the a with source_residual[a] > 0
    matched_to = [-1] * nb  # which a feeds b (b -> sink saturated iff != -1)
    seen_a = [0] * na  # epoch in which a was reached through a matched b
    via_b = [0] * na  # that b, valid while seen_a[a] == epoch
    seen_b = [0] * nb  # epoch in which b was reached
    parent_b = [0] * nb  # the a that reached b, valid while seen_b[b] == epoch
    epoch = 0
    value = 0
    while True:
        epoch += 1
        reached: list[int] = []  # left vertices reached through matched b
        free_b = -1
        for a in chain(live, reached):  # the BFS queue; reached grows as it runs
            for b in adjacency[a]:
                if seen_b[b] == epoch or matched_to[b] == a:
                    continue  # visited, or the edge a -> b is saturated
                seen_b[b] = epoch
                parent_b[b] = a
                a2 = matched_to[b]
                if a2 < 0:
                    free_b = b
                    break
                if source_residual[a2] == 0 and seen_a[a2] != epoch:
                    seen_a[a2] = epoch
                    via_b[a2] = b
                    reached.append(a2)
            if free_b >= 0:
                break
        if free_b < 0:
            flow = [set() for _ in range(na)]
            for b, a in enumerate(matched_to):
                if a >= 0:
                    flow[a].add(b)
            right_reached = {b for b in range(nb) if seen_b[b] == epoch}
            return value, flow, (set(live) | set(reached), right_reached)
        # augment along the BFS tree back to its live source
        b = free_b
        while True:
            a = parent_b[b]
            matched_to[b] = a
            if source_residual[a] > 0:
                source_residual[a] -= 1
                if source_residual[a] == 0:
                    del live[bisect_left(live, a)]
                break
            # a gave up its flow to via_b[a], which now needs a new feeder
            b = via_b[a]
        value += 1


def two_one_matching(graph: BipartiteGraph):
    """Return a TwoOneMatching when the Hall condition |N(X)| >= 2|X| holds
    for every left subset, else a DeficiencyWitness violating it."""
    value, flow, (left_reached, right_reached) = _max_flow_two_one(graph)
    if value == 2 * graph.left_count:
        i = []
        j = []
        for a in range(graph.left_count):
            targets = sorted(flow[a])
            i.append(targets[0])
            j.append(targets[1])
        return TwoOneMatching(tuple(i), tuple(j))
    witness = tuple(sorted(left_reached))
    return DeficiencyWitness(
        left_subset=witness,
        neighbourhood_size=len(graph.neighbourhood(witness)),
    )


@dataclass(frozen=True)
class MatchingParadoxReport:
    """Outcome of the truncated matching-based paradox construction."""

    radius: int
    spread: int  # k: right side is the (radius + k)-ball, edges use B_k
    feasible: bool
    witness: DeficiencyWitness | None
    pieces: dict[tuple[str, str], int]  # (s word, t word) -> |Omega_{s,t}|
    translated_disjoint: bool
    leakage: int  # matched targets outside the radius-N ball


def paradox_from_matching(radius: int, spread: int,
                          backend: GroupBackend | None = None) -> MatchingParadoxReport:
    """Build the bipartite graph A = B_N, B = B_{N+k} with an edge (g, xg)
    for every x in B_k, run the (2,1)-matching, and on success derive the
    finite pieces Omega_{s,t} = {g : i(g) = sg, j(g) = tg}.

    Truncation to balls introduces boundary effects; matched targets that
    leave B_N are counted as leakage rather than silently discarded.
    """
    if radius < 1 or spread < 1:
        raise ValueError("radius and spread must be >= 1")
    backend = backend or free_backend(2)
    # BFS order makes B_N and B_k prefixes of B_{N+k}: an element lies in
    # B_r exactly when its index is below |B_r|
    outer, inner = ball(backend, radius + spread), ball(backend, radius)
    inner_size, translators = len(inner), bisect_right(outer.lengths, spread)
    # targets[x, g] is the index of x g, walked from x along g's word; every
    # prefix product x p has |x p| <= N + k, so none is -1
    targets = inner.walk(outer.succ, np.arange(translators)).T
    # distinct translators move g to distinct elements, so no edge repeats
    adjacency = tuple(map(tuple, np.sort(targets, axis=0).T.tolist()))
    graph = BipartiteGraph(inner_size, len(outer), adjacency)
    outcome = two_one_matching(graph)
    if isinstance(outcome, DeficiencyWitness):
        return MatchingParadoxReport(
            radius=radius, spread=spread, feasible=False, witness=outcome,
            pieces={}, translated_disjoint=False, leakage=0,
        )
    i, j = np.array(outcome.i), np.array(outcome.j)
    # the translators s and t with i(g) = s g and j(g) = t g, spelled once each
    s_of, t_of = (targets == i).argmax(axis=0), (targets == j).argmax(axis=0)
    names = [word_to_str(backend.alphabet, outer.word(x)) for x in range(translators)]
    keys, first, sizes = np.unique(s_of * translators + t_of, return_index=True,
                                   return_counts=True)
    order = np.argsort(first)  # pieces in the order their first member appears
    pieces = {(names[k // translators], names[k % translators]): size
              for k, size in zip(keys[order].tolist(), sizes[order].tolist())}
    # the translated pieces s*Omega_{s,t} and t*Omega_{s,t} are the i- and
    # j-images grouped by piece; verify their global disjointness by sorting
    images = np.sort(np.concatenate([i, j]))
    return MatchingParadoxReport(
        radius=radius, spread=spread, feasible=True, witness=None, pieces=pieces,
        translated_disjoint=not np.any(images[1:] == images[:-1]),
        leakage=int(np.count_nonzero(images >= inner_size)),
    )
