"""Slow reference computations the tests compare the library against.

They are exhaustive or closed-form and only meant for small inputs, so they
live with the tests rather than in the package.
"""

from fractions import Fraction

import numpy as np

from soficlab.almosthom import AlmostHom
from soficlab.amenability import FolnerSet
from soficlab.amplify import amplified_distance
from soficlab.backends import FiniteBackend, free_backend
from soficlab.balls import BallTable, ball
from soficlab.config import ResourceLimits
from soficlab.errors import BackendMismatchError
from soficlab.graphs import ColoredGraph, LocalMatchReport
from soficlab.matching import BipartiteGraph
from soficlab.metrics import UnitaryMatrix
from soficlab.sl2 import mat_mul_mod, sl2_word_image


def predicted_amplified(d: float, times: int) -> float:
    """The pairwise distance after `times` tensor squares, by iterating the
    one-step distance map."""
    for _ in range(times):
        d = amplified_distance(d)
    return d


def hs_distance_trace(u: UnitaryMatrix, v: UnitaryMatrix) -> float:
    """Normalized Hilbert-Schmidt distance by the trace formula
    sqrt(2 - 2 Re tr~(u*v)); an independent path, but its absolute error
    near 0 is ~1e-8."""
    cross = np.vdot(u.entries, v.entries).real / u.n  # Re tr~(u*v)
    return float(np.sqrt(max(2.0 - 2.0 * cross, 0.0)))


def hall_condition_holds(graph: BipartiteGraph) -> bool:
    """Enumerate all left subsets; exponential, for oracle use on small graphs."""
    n = graph.left_count
    for mask in range(1, 1 << n):
        xs = [a for a in range(n) if mask >> a & 1]
        if len(graph.neighbourhood(xs)) < 2 * len(xs):
            return False
    return True


def matching_exists_bruteforce(graph: BipartiteGraph) -> bool:
    """Backtracking search for a (2,1)-matching; oracle for small graphs."""
    n = graph.left_count

    def place(a: int, used: set[int]) -> bool:
        if a == n:
            return True
        nbrs = [b for b in graph.adjacency[a] if b not in used]
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                used.add(nbrs[x])
                used.add(nbrs[y])
                if place(a + 1, used):
                    return True
                used.discard(nbrs[x])
                used.discard(nbrs[y])
        return False

    return place(0, set())


# The library's earlier max flow: one full lowest-index BFS per augmenting
# path, with the source queue and parent arrays rebuilt every time.  The
# per-path version in soficlab.matching must replay it exactly.
def max_flow_two_one(graph: BipartiteGraph):
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


def cyclic_backend(m: int) -> FiniteBackend:
    """Z_m as an explicit table, generated by the class of 1."""
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteBackend(table, 0, generators=[1] if m > 1 else None)


def sl2_elements(p: int) -> list:
    """All of SL(2, Z_p) in lexicographic entry order; p(p^2 - 1) matrices."""
    return [
        ((a, b), (c, d))
        for a in range(p) for b in range(p) for c in range(p) for d in range(p)
        if (a * d - b * c) % p == 1
    ]


# The library's earlier free-group target: SL(2, Z_p) as a full, validated
# multiplication table, whose regular representation free_sofic_certificate
# indexed before it computed right translations directly.
def sl2_finite_backend(p: int) -> FiniteBackend:
    """SL(2, Z_p) as an explicit table of order p(p^2 - 1), with the mod-p
    word-evaluation generators marked."""
    elements = sl2_elements(p)
    index = {m: i for i, m in enumerate(elements)}
    table = [[index[mat_mul_mod(x, y, p)] for y in elements] for x in elements]
    gen_a = index[sl2_word_image((1,), p)]
    gen_b = index[sl2_word_image((2,), p)]
    return FiniteBackend(table, index[((1 % p, 0), (0, 1 % p))],
                         generators=[gen_a, gen_b], names=("A", "B"))


# The library's earlier ball: one spelled word per element, each built by
# concatenating a letter onto its parent's word.  soficlab.balls keeps the
# BFS tree instead and must give the same elements, words and lengths.
def spelled_ball(backend, radius: int) -> tuple[list, list, list]:
    """(elements, words, lengths) of the radius-N ball, breadth-first in
    shortlex order over the signed alphabet, with the shortlex-least word
    spelling each element."""
    letters = [(s, backend.letter(s)) for s in backend.alphabet.signed_letters()]
    elements, words, lengths = [backend.identity()], [()], [0]
    seen = {elements[0]}
    frontier = [0]
    for depth in range(1, radius + 1):
        next_frontier = []
        for i in frontier:
            for s, letter in letters:
                h = backend.multiply(elements[i], letter)
                if h not in seen:
                    seen.add(h)
                    next_frontier.append(len(elements))
                    elements.append(h)
                    words.append(words[i] + (s,))
                    lengths.append(depth)
        frontier = next_frontier
    return elements, words, lengths


def ball_inverses(table: BallTable) -> tuple[int, ...]:
    """Index of each element's inverse; balls are closed under inversion
    since a word and its formal inverse have equal length."""
    return tuple(table.index[table.backend.inverse(g)] for g in table.elements)


def ball_contains(table: BallTable, g) -> bool:
    return g in table.index


# The library's earlier Folner route: one canonical-form tuple per point, a
# backend multiplication per point and translation, and set algebra.  The
# array route in soficlab.amenability, soficlab.constructions and
# soficlab.graphs must reproduce it exactly.
def folner_defect(phi: FolnerSet, test_set: list) -> Fraction:
    """max over g in the test set of |g phi symdiff phi| / |phi|, exact."""
    base = set(phi.elements)
    worst = Fraction(0)
    for g in test_set:
        shifted = {phi.backend.multiply(g, x) for x in phi.elements}
        worst = max(worst, Fraction(len(shifted ^ base), len(base)))
    return worst


def reiter_norm(phi: FolnerSet, g) -> Fraction:
    """l1 distance ||f - (g)f||_1 for f = indicator(phi)/|phi|, where
    ((g)f)(x) = f(g^-1 x).  Both take the value 1/|phi| on their supports,
    so the norm is 1/|phi| times the number of points of the union support
    where exactly one is nonzero; equals folner_defect(phi, [g]) identically."""
    support = set(phi.elements)
    shifted = {phi.backend.multiply(g, x) for x in phi.elements}
    differ = sum((x in support) != (x in shifted) for x in support | shifted)
    return Fraction(differ, len(support))


def canonical_fill(partial) -> np.ndarray:
    """Extend a partial injection of {0, ..., n-1}, given as a length-n
    sequence with None where it is undefined, to a permutation row: the
    undefined points, in increasing order, take the unused values in
    increasing order."""
    defined = [v for v in partial if v is not None]
    used = set(defined)
    if len(used) != len(defined):
        raise ValueError("partial map is not injective")
    free = iter(v for v in range(len(partial)) if v not in used)
    return np.array([next(free) if v is None else v for v in partial])


def folner_to_sofic(domain: BallTable, phi: FolnerSet) -> AlmostHom:
    """Extend, for each ball element g, the partial right-translation
    x -> x*g on phi to a self-bijection of phi.

    Unmatched domain points are paired with unmatched codomain points in
    canonical element order.  For Z intervals this fill reconstitutes exact
    cyclic shifts, so those certificates have defect 0; in higher rank the
    fill is still deterministic but boundary wrapping is inexact, leaving a
    defect on the order of the box's surface-to-volume ratio.
    """
    if domain.backend != phi.backend:
        raise BackendMismatchError("ball and Folner set use different backends")
    backend = phi.backend
    n = len(phi.elements)
    position = {x: i for i, x in enumerate(phi.elements)}
    images = np.empty((len(domain), n), dtype=np.int32)
    for k, g in enumerate(domain.elements):
        images[k] = canonical_fill([position.get(backend.multiply(x, g)) for x in phi.elements])
    return AlmostHom(domain=domain, target_kind="sym", target_n=n, images=images)


def _step_rows(graph: ColoredGraph) -> list:
    """Per colour its successor row, followed by per colour its row of least
    predecessors; -1 where a step is undefined."""
    rows = graph.successors.tolist()
    for row in graph.successors.tolist():
        pred = [-1] * len(row)
        for m, k in enumerate(row):
            if k >= 0 and pred[k] < 0:
                pred[k] = m
        rows.append(pred)
    return rows


def _traverse(rows: list, start: int, word):
    v = start
    for s in word:
        v = rows[s - 1 if s > 0 else len(rows) // 2 - s - 1][v]
        if v < 0:
            return None
    return v


def local_match_fraction(graph: ColoredGraph, radius: int,
                         reference: BallTable,
                         limits: ResourceLimits | None = None,
                         max_failures: int = 10) -> LocalMatchReport:
    """Fraction of vertices whose N-ball is colour-isomorphic to the
    reference Cayley ball.

    A vertex matches iff every reduced word of length <= N can be followed
    from it (inverse colours traverse edges backward) and two words land on
    the same vertex exactly when they are equal as reference elements.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    backend = reference.backend
    if tuple(backend.alphabet.names) != tuple(graph.colors):
        raise BackendMismatchError("graph colours do not match the reference alphabet")
    if reference.radius != radius:
        raise ValueError("reference ball radius must equal the requested radius")
    free_words = ball(free_backend(backend.rank), radius, limits).elements
    targets = [backend.normal_form(w) for w in free_words]
    rows = _step_rows(graph)
    matched = 0
    failures: list[tuple[int, str]] = []
    for m in range(graph.vertex_count):
        landing: dict = {}
        reason = None
        for w, elem in zip(free_words, targets):
            v = _traverse(rows, m, w)
            if v is None:
                reason = f"undefined traversal for word {w}"
                break
            if elem in landing:
                if landing[elem] != v:
                    reason = f"equal elements separate at word {w}"
                    break
            else:
                landing[elem] = v
        if reason is None and len(set(landing.values())) != len(landing):
            reason = "distinct elements collide"
        if reason is None:
            matched += 1
        elif len(failures) < max_failures:
            failures.append((m, reason))
    return LocalMatchReport(
        radius=radius,
        matched_count=matched,
        total_count=graph.vertex_count,
        sample_failures=tuple(failures),
    )
