"""Slow reference computations the tests compare the library against.

They are exhaustive or closed-form and only meant for small inputs, so they
live with the tests rather than in the package.
"""

from soficlab.amplify import amplified_distance
from soficlab.matching import BipartiteGraph


def predicted_amplified(d: float, times: int) -> float:
    """The pairwise distance after `times` tensor squares, by iterating the
    one-step distance map."""
    for _ in range(times):
        d = amplified_distance(d)
    return d


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
