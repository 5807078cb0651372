"""Slow reference computations the tests compare the library against.

They are exhaustive or closed-form and only meant for small inputs, so they
live with the tests rather than in the package.
"""

import json
from fractions import Fraction

import numpy as np

from soficlab.almosthom import AlmostHom, _kernels, _permutation_image
from soficlab.amenability import PARADOX_PIECES, FolnerSet, ParadoxReport
from soficlab.amplify import amplified_distance
from soficlab.backends import FiniteBackend, free_backend
from soficlab.balls import BallTable, ball
from soficlab.errors import BackendMismatchError, MalformedCertificateError
from soficlab.graphs import ColoredGraph, LocalMatchReport
from soficlab.matching import (
    BipartiteGraph,
    DeficiencyWitness,
    MatchingParadoxReport,
    two_one_matching,
)
from soficlab.metrics import Permutation, UnitaryMatrix
from soficlab.sl2 import is_prime
from soficlab.words import Word, word_to_str


def text_mode_read_json(path, parse, in_place=None):
    """`errors.read_json` with the file read by a text-mode
    ``open(path, encoding="utf-8").read()``: universal newlines, strict
    UTF-8, and the same errors as MalformedCertificateError.  The in-place
    reader is never tried: every file is decoded whole."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedCertificateError(f"not valid JSON: {exc}") from exc


def word_inverse(word: Word) -> Word:
    """The formal inverse: letters negated, in reverse order."""
    return tuple(-s for s in reversed(word))


def free_junction_product(g: Word, h: Word) -> Word:
    """The product of two freely reduced words, cancelling only the letters
    at the junction: the library's earlier `FreeBackend.multiply`."""
    if not (g and h) or g[-1] != -h[0]:
        return g + h
    k = 1
    n = min(len(g), len(h))
    while k < n and g[-1 - k] == -h[k]:
        k += 1
    return g[:len(g) - k] + h[k:]


def is_reduced(letters) -> bool:
    return all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))


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


def gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of z in order (modified Gram-Schmidt), one
    matrix and one column pair at a time: the reference that the stacked
    `metrics.random_unitaries` must match bit for bit."""
    q = np.zeros_like(z)
    for k in range(z.shape[1]):
        v = z[:, k].copy()
        for j in range(k):
            v -= (q[:, j].conj() @ v) * q[:, j]
        q[:, k] = v / np.linalg.norm(v)
    return q


def reference_unitary(n: int, rng: "np.random.Generator") -> np.ndarray:
    """One random unitary drawn as `metrics.random_unitary` once drew it: real
    then imaginary Gaussian parts, then gram_schmidt."""
    return gram_schmidt(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_orthogonal(n: int, rng: "np.random.Generator") -> UnitaryMatrix:
    """Random real orthogonal matrix; a unitary whose relative traces with
    other real matrices are real, so the amplification recurrence applies to
    the plain Hilbert-Schmidt distance."""
    return UnitaryMatrix(gram_schmidt(rng.normal(size=(n, n))).astype(np.complex128))


def value_error_text(check) -> str | None:
    """None when check() returns, else the text of the ValueError it raises:
    a shortcut and the dense check it stands for compare in one assert."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def dense_images(hom: AlmostHom) -> np.ndarray:
    """The complex128 (|B|, n, n) matrices of a unitary AlmostHom, whether
    it holds them dense or as the int32 columns of permutation matrices."""
    return hom.images if hom.images.ndim == 3 else _permutation_image(hom.images)


def complex_unitary_kernels(hom: AlmostHom):
    """The unitary `almosthom._kernels` with complex128 arithmetic for every
    certificate, real or not: patched over `_kernels`, it runs the library's
    defect/separation scans (order, chunks, witness rule) on complex rows."""
    n = hom.target_n
    images = dense_images(hom).reshape(len(hom.images), -1)

    def compose(images, i, j):
        return (images[i].reshape(-1, n, n) @ images[j].reshape(-1, n, n)).reshape(len(i), -1)

    def distance(a, b):
        parts = (a - b).view(np.float64)  # re, im of every entry
        return np.sqrt(np.einsum("...k,...k->...", parts, parts) / n)

    return images, compose, distance, float


def take_along_axis_kernels(hom: AlmostHom):
    """`almosthom._kernels` with the library's earlier permutation-row
    composition: rows i and j gathered into two copies, then composed by
    `take_along_axis`.  The flat-index composition must match it exactly."""
    images, compose, distance, value = _kernels(hom)
    if images.dtype == np.int32:
        def compose(images, i, j):  # (s * t)(x) = t(s(x))
            return np.take_along_axis(images[j], images[i], axis=1)
    return images, compose, distance, value


def is_fixed_point_free(s: Permutation) -> bool:
    return all(s.images[i] != i for i in range(s.n))


def normalized_trace(u: UnitaryMatrix) -> complex:
    """(1/n) * trace; modulus at most 1 for unitary input."""
    return complex(np.trace(u.entries) / u.n)


def halve_embed(u: UnitaryMatrix) -> UnitaryMatrix:
    """Block-diagonal embedding u -> diag(u, I_n); a homomorphism scaling
    all Hilbert-Schmidt distances by exactly 1/sqrt(2)."""
    n = u.n
    out = np.eye(2 * n, dtype=np.complex128)
    out[:n, :n] = u.entries
    return UnitaryMatrix(out, u.unitarity_tolerance)


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


# The library's earlier mod-p evaluator: one 2 x 2 tuple product per letter
# of every word.  soficlab.sl2.sl2_ball_images multiplies along the ball's
# BFS tree instead and must give the same matrices.
Mat2 = tuple[tuple[int, int], tuple[int, int]]

SL2_A: Mat2 = ((1, 2), (0, 1))
SL2_B: Mat2 = ((1, 0), (2, 1))
SL2_A_INV: Mat2 = ((1, -2), (0, 1))
SL2_B_INV: Mat2 = ((1, 0), (-2, 1))

_LETTER_MATRICES = {1: SL2_A, -1: SL2_A_INV, 2: SL2_B, -2: SL2_B_INV}


def mat_mul_mod(m1: Mat2, m2: Mat2, p: int) -> Mat2:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return (
        ((a * e + b * g) % p, (a * f + b * h) % p),
        ((c * e + d * g) % p, (c * f + d * h) % p),
    )


def mat_identity(p: int) -> Mat2:
    return ((1 % p, 0), (0, 1 % p))


def sl2_word_image(word: Word, p: int) -> Mat2:
    """Evaluate a rank-2 word into SL(2, Z_p) by reducing entries mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    result = mat_identity(p)
    for s in word:
        if s == 0 or abs(s) > 2:
            raise ValueError(f"letter {s} requires a rank-2 alphabet")
        result = mat_mul_mod(result, tuple(tuple(x % p for x in row) for row in _LETTER_MATRICES[s]), p)
    return result


def sl2_images_injective(words: list[Word], p: int) -> bool:
    images = [sl2_word_image(w, p) for w in words]
    return len(set(images)) == len(images)


# The library's earlier partial product table: every pair of canonical forms
# multiplied and looked up, kept as a dict.  BallTable.products must list the
# same (i, j) -> k in the same order.
def ball_products(table: BallTable) -> dict[tuple[int, int], int]:
    """(i, j) -> k exactly when the product of elements i and j is element k
    of the ball; free words are multiplied by `free_junction_product`."""
    products = {}
    mul = free_junction_product if table.backend.kind == "free" else table.backend.multiply
    idx = table.index
    for i, g in enumerate(table.elements):
        for j, h in enumerate(table.elements):
            k = idx.get(mul(g, h))
            if k is not None:
                products[(i, j)] = k
    return products


# The expansion of a ball by its left translates, each product multiplied
# and looked up.  soficlab.amenability.ball_expansion counts right successors
# instead and must give the same Fraction.
def ball_expansion(backend, radius: int) -> Fraction:
    """min over signed generators g of |g B symdiff B| / |B|, with
    |g B intersect B| counted by multiplying g into every element."""
    table = ball(backend, radius)
    n = len(table)
    inside = [sum(ball_contains(table, backend.multiply(backend.letter(s), h))
                  for h in table.elements)
              for s in backend.alphabet.signed_letters()]
    return min(Fraction(2 * (n - k), n) for k in inside)


# The library's earlier checks in lef_to_sofic: a loop over the images for
# the first repeated one, then one over the product table in (i, j) order.
# soficlab.constructions.lef_to_sofic checks with arrays and must refuse the
# same maps with the same messages.
def lef_to_sofic_refusal(domain: BallTable, target: FiniteBackend, local_mono: dict) -> str | None:
    """The ValueError message lef_to_sofic gives for a total map of ball
    indices to target indices, or None when it accepts the map."""
    values = [local_mono[i] for i in range(len(domain))]
    first: dict[int, int] = {}
    for i, v in enumerate(values):
        if first.setdefault(v, i) != i:
            return f"not injective: ball elements {first[v]} and {i} share image {v}"
    if values[0] != target.identity_index:
        return "ball identity must map to the target identity"
    for (i, j), k in ball_products(domain).items():
        if target.multiply(values[i], values[j]) != values[k]:
            alphabet = domain.backend.alphabet
            return ("not partially multiplicative at pair "
                    f"({word_to_str(alphabet, domain.word(i))!r}, "
                    f"{word_to_str(alphabet, domain.word(j))!r})")
    return None


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
                         generators=[gen_a, gen_b])


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
    return tuple(table.index[table.backend.normal_form(word_inverse(table.word(i)))]
                 for i in range(len(table)))


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


def positions(phi: FolnerSet, points: list) -> list:
    """Index of each point in the sorted distinct points of phi, or -1 where
    the point is not in phi."""
    position = {x: i for i, x in enumerate(sorted(set(phi.elements)))}
    return [position.get(tuple(x), -1) for x in points]


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
    free_words = ball(free_backend(backend.rank), radius).elements
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


def table_is_associative(table) -> bool:
    """(x y) z == x (y z) for all m^3 triples, one row x at a time."""
    tbl = np.asarray(table)
    return all(np.array_equal(tbl[tbl[x]], tbl[x][tbl]) for x in range(len(tbl)))


# The library's earlier paradox checks: word by word over the ball's
# canonical forms, with a backend multiplication per word or edge and index
# lookups.  soficlab.amenability and soficlab.matching read the ball's
# successor arrays instead and must give equal reports.
_PIECE_OF_FIRST_LETTER = {1: "WA", -1: "WAinv", 2: "WB", -2: "WBinv"}


def paradox_classify(word: Word) -> str:
    """Classify a reduced rank-2 word by its first letter into the pieces of
    the paradoxical decomposition: identity, or words starting with a, a^-1,
    b, b^-1."""
    if not is_reduced(word):
        raise ValueError("word must be freely reduced")
    if not word:
        return "E"
    first = word[0]
    if abs(first) > 2:
        raise ValueError("rank-2 alphabet required")
    return _PIECE_OF_FIRST_LETTER[first]


def paradox_verify(radius: int) -> ParadoxReport:
    """Check, word by word over the free ball B_N, the two translation
    identities behind the paradoxical decomposition of the rank-2 free group:
    every nonempty word lies in exactly one of {w(a), a*w(a^-1)} and exactly
    one of {w(b), b*w(b^-1)}."""
    backend = free_backend(2)
    elements = ball(backend, radius).elements
    sizes = {piece: 0 for piece in PARADOX_PIECES}
    a_ok = b_ok = True
    for w in elements:
        if not w:
            sizes["E"] += 1
            continue
        sizes[_PIECE_OF_FIRST_LETTER[w[0]]] += 1
        shifted_a = backend.multiply((-1,), w)  # a^-1 w
        if (w[0] == 1) == (bool(shifted_a) and shifted_a[0] == -1):
            a_ok = False
        shifted_b = backend.multiply((-2,), w)  # b^-1 w
        if (w[0] == 2) == (bool(shifted_b) and shifted_b[0] == -2):
            b_ok = False
    return ParadoxReport(radius=radius, piece_sizes=sizes, a_identity_holds=a_ok,
                         b_identity_holds=b_ok, partition_ok=sum(sizes.values()) == len(elements))


def paradox_from_matching(radius: int, spread: int, backend) -> MatchingParadoxReport:
    """The (2,1)-matching paradox on A = B_N, B = B_{N+k} with an edge
    (g, xg) per x in B_k; each piece's translators s = i(g) g^-1 and
    t = j(g) g^-1 are multiplied out and looked up in the ball."""
    outer = ball(backend, radius + spread)
    inner_size = sum(length <= radius for length in outer.lengths)
    translators = outer.elements[:sum(length <= spread for length in outer.lengths)]
    adjacency = []
    for g in outer.elements[:inner_size]:
        adjacency.append(tuple(sorted({outer.index[backend.multiply(x, g)]
                                       for x in translators})))
    outcome = two_one_matching(BipartiteGraph(inner_size, len(outer), tuple(adjacency)))
    if isinstance(outcome, DeficiencyWitness):
        return MatchingParadoxReport(radius=radius, spread=spread, feasible=False,
                                     witness=outcome, pieces={}, translated_disjoint=False,
                                     leakage=0)
    pieces: dict = {}
    leakage = 0
    for a, g in enumerate(outer.elements[:inner_size]):
        ig, jg = outer.elements[outcome.i[a]], outer.elements[outcome.j[a]]
        g_inverse = backend.normal_form(word_inverse(outer.word(a)))
        s = backend.multiply(ig, g_inverse)
        t = backend.multiply(jg, g_inverse)
        key = (word_to_str(backend.alphabet, outer.word(outer.index[s])),
               word_to_str(backend.alphabet, outer.word(outer.index[t])))
        pieces.setdefault(key, []).append(a)
        leakage += (outcome.i[a] >= inner_size) + (outcome.j[a] >= inner_size)
    translated = [image for members in pieces.values()
                  for image in [outcome.i[a] for a in members] + [outcome.j[a] for a in members]]
    return MatchingParadoxReport(
        radius=radius, spread=spread, feasible=True, witness=None,
        pieces={key: len(members) for key, members in pieces.items()},
        translated_disjoint=len(translated) == len(set(translated)), leakage=leakage,
    )
