"""Hall (2,1)-matchings on finite bipartite graphs via max flow, and the
truncated matching-based paradox construction on group balls.

The matching exists iff every left subset X satisfies |N(X)| >= 2|X|.  The
decision is made by max flow (source->a capacity 2, a->b capacity 1,
b->sink capacity 1; feasible iff max flow = 2|A|), with a deficiency witness
extracted from the min cut on failure.  Augmenting paths are found by
lowest-index BFS, which makes the returned matching deterministic.
"""

from dataclasses import dataclass

from .backends import GroupBackend, free_backend
from .balls import ball
from .config import ResourceLimits
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
        for nbrs in self.adjacency:
            uniq = tuple(sorted(set(nbrs)))
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
    """
    na, nb = graph.left_count, graph.right_count
    source_residual = [2] * na  # remaining capacity source -> a
    flow = [set() for _ in range(na)]  # saturated a -> b edges
    matched_to = [-1] * nb  # which a feeds b (b -> sink saturated iff != -1)
    value = 0
    while True:
        # lowest-index BFS over the residual graph
        parent_a = [None] * na
        parent_b = [None] * nb
        queue = [a for a in range(na) if source_residual[a] > 0]
        for a in queue:
            parent_a[a] = ("s",)
        reached_b_free = None
        qi = 0
        while qi < len(queue) and reached_b_free is None:
            a = queue[qi]
            qi += 1
            for b in graph.adjacency[a]:
                if parent_b[b] is not None or b in flow[a]:
                    continue
                parent_b[b] = a
                if matched_to[b] == -1:
                    reached_b_free = b
                    break
                a2 = matched_to[b]
                if parent_a[a2] is None:
                    parent_a[a2] = ("b", b)
                    queue.append(a2)
        if reached_b_free is None:
            # compute residual reachability for the min-cut witness
            left_reached = {a for a in range(na) if parent_a[a] is not None}
            right_reached = {b for b in range(nb) if parent_b[b] is not None}
            return value, flow, (left_reached, right_reached)
        # augment along the BFS tree
        b = reached_b_free
        while True:
            a = parent_b[b]
            flow[a].add(b)
            matched_to[b] = a
            tag = parent_a[a]
            if tag == ("s",):
                source_residual[a] -= 1
                break
            prev_b = tag[1]
            flow[a].discard(prev_b)
            b = prev_b
            # prev_b now needs a new feeder, found one step up the tree
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
                          backend: GroupBackend | None = None,
                          limits: ResourceLimits | None = None) -> MatchingParadoxReport:
    """Build the bipartite graph A = B_N, B = B_{N+k} with an edge (g, xg)
    for every x in B_k, run the (2,1)-matching, and on success derive the
    finite pieces Omega_{s,t} = {g : i(g) = sg, j(g) = tg}.

    Truncation to balls introduces boundary effects; matched targets that
    leave B_N are counted as leakage rather than silently discarded.
    """
    if radius < 1 or spread < 1:
        raise ValueError("radius and spread must be >= 1")
    backend = backend or free_backend(2)
    inner = ball(backend, radius, limits)
    outer = ball(backend, radius + spread, limits)
    translators = ball(backend, spread, limits)
    adjacency = []
    for g in inner.elements:
        nbrs = {outer.index[backend.multiply(x, g)] for x in translators.elements}
        adjacency.append(tuple(sorted(nbrs)))
    graph = BipartiteGraph(len(inner), len(outer), tuple(adjacency))
    outcome = two_one_matching(graph)
    alphabet = backend.alphabet
    if isinstance(outcome, DeficiencyWitness):
        return MatchingParadoxReport(
            radius=radius, spread=spread, feasible=False, witness=outcome,
            pieces={}, translated_disjoint=False, leakage=0,
        )
    pieces: dict[tuple[str, str], list[int]] = {}
    leakage = 0
    for a, g in enumerate(inner.elements):
        ig = outer.elements[outcome.i[a]]
        jg = outer.elements[outcome.j[a]]
        s = backend.multiply(ig, backend.inverse(g))
        t = backend.multiply(jg, backend.inverse(g))
        key = (
            word_to_str(alphabet, translators.words[translators.index[s]]),
            word_to_str(alphabet, translators.words[translators.index[t]]),
        )
        pieces.setdefault(key, []).append(a)
        leakage += sum(1 for h in (ig, jg) if h not in inner.index)
    # translated pieces s*Omega_{s,t} are exactly the i-images grouped by key,
    # and t*Omega_{s,t} the j-images; verify global disjointness by counting
    translated: list[int] = []
    for (s_w, t_w), members in pieces.items():
        translated.extend(outcome.i[a] for a in members)
        translated.extend(outcome.j[a] for a in members)
    disjoint = len(translated) == len(set(translated))
    return MatchingParadoxReport(
        radius=radius, spread=spread, feasible=True, witness=None,
        pieces={key: len(members) for key, members in pieces.items()},
        translated_disjoint=disjoint, leakage=leakage,
    )
