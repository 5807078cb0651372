"""Slow reference computations the tests compare the library against.

They are exhaustive or closed-form and only meant for small inputs, so they
live with the tests rather than in the package.
"""

import numpy as np

from soficlab.amplify import amplified_distance
from soficlab.backends import FiniteBackend
from soficlab.balls import BallTable
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


def ball_inverses(table: BallTable) -> tuple[int, ...]:
    """Index of each element's inverse; balls are closed under inversion
    since a word and its formal inverse have equal length."""
    return tuple(table.index[table.backend.inverse(g)] for g in table.elements)


def ball_contains(table: BallTable, g) -> bool:
    return g in table.index
