"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion reports PASSED
or FAILED on its own line.  All numeric claims are recomputed here, never
read back from certificate files.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from soficlab.amenability import FolnerSet, folner_defect, folner_box, paradox_verify, reiter_norm
from soficlab.almosthom import defect, separation, verify
from soficlab.amplify import (
    SQRT2,
    amplified_distance,
    iterate_amplification,
    tensor_square,
)
from soficlab.backends import free_backend, heisenberg_backend, zpower_backend
from soficlab.balls import ball
from soficlab.constructions import folner_certificate, free_sofic_certificate
from soficlab.graphs import ColoredGraph, cert_to_graph, graph_to_almosthom, local_match_fraction
from soficlab.matching import (
    BipartiteGraph,
    TwoOneMatching,
    two_one_matching,
)
from soficlab.metrics import (
    Permutation,
    hamming,
    hs_distance,
    perm_matrix,
    phase_aligned_hs,
    random_unitary,
    sinfty_demo,
)
from soficlab.sl2 import is_prime, lef_witness_free

from oracles import (
    hall_condition_holds,
    halve_embed,
    matching_exists_bruteforce,
    normalized_trace,
    sl2_images_injective,
    sl2_word_image,
)


def report(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS: {text}")


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


def test_criterion_01_metric_identity():
    """hamming = (1/2) hs^2 under the permutation-matrix embedding,
    exhaustively over S_3 and S_4."""
    checked = 0
    for n in (3, 4):
        mats = {s: perm_matrix(s) for s in all_perms(n)}
        for s, t in itertools.product(mats, repeat=2):
            d = hs_distance(mats[s], mats[t])
            assert abs(float(hamming(s, t)) - d * d / 2.0) < 1e-9
            checked += 1
    assert checked == 36 + 576
    report(1, f"hamming = hs^2/2 on {checked} pairs within 1e-9")


def test_criterion_02_amplification_recurrence():
    """Measured tensor-square distances follow d -> d*sqrt(2 - d^2/2), with d
    the phase-aligned Hilbert-Schmidt distance (the quantity the tensor
    square actually sees: a global phase changes plain hs but not the
    amplified pair), and the iterated orbit from 0.3 converges to sqrt(2)."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3):
        for _ in range(100):
            u, v = random_unitary(n, rng), random_unitary(n, rng)
            measured = hs_distance(tensor_square(u), tensor_square(v))
            predicted = amplified_distance(phase_aligned_hs(u, v))
            worst = max(worst, abs(measured - predicted))
    assert worst < 1e-8
    orbit = iterate_amplification(0.3, 41)
    hit = next(k for k, d in enumerate(orbit) if abs(d - SQRT2) < 1e-6)
    assert hit <= 40
    report(2, f"recurrence error {worst:.2e} over 200 pairs; orbit hits sqrt(2) at step {hit}")


def test_criterion_03_trace_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        u = random_unitary(4, rng)
        worst = max(worst, abs(normalized_trace(tensor_square(u)) - abs(normalized_trace(u)) ** 2))
    assert worst < 1e-9
    report(3, f"normalized trace of tensor square = |trace|^2, error {worst:.2e}")


def test_criterion_04_block_diagonal_scaling():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        worst = max(
            worst,
            abs(hs_distance(halve_embed(u), halve_embed(v)) - hs_distance(u, v) / SQRT2),
        )
    assert worst < 1e-9
    report(4, f"diag(u, I) scales hs by exactly 1/sqrt(2), error {worst:.2e}")


def test_criterion_05_exact_sofic_certificates():
    free_cert = free_sofic_certificate(1)
    assert free_cert.hom.target_n == 24
    assert defect(free_cert.hom) == 0
    assert separation(free_cert.hom) == 1
    assert verify(free_cert, eps=1e-9, delta=1.0).passed

    b = zpower_backend(1)
    z_cert = folner_certificate(ball(b, 2), folner_box(b, 100))
    assert defect(z_cert.hom) == 0
    assert separation(z_cert.hom) == 1
    assert verify(z_cert, eps=1e-9, delta=1.0).passed
    report(5, "free ball-1 cert into S_24 and Z box cert (L=100) both exact")


def test_criterion_06_amenable_defect_decay():
    b = heisenberg_backend()
    domain = ball(b, 2)
    defects = []
    for L in (4, 6, 8):
        cert = folner_certificate(domain, folner_box(b, L))
        d = defect(cert.hom)
        assert isinstance(d, Fraction)
        assert d <= Fraction(4, L)
        defects.append(d)
    assert defects[0] > defects[1] > defects[2]
    report(6, "heisenberg defects " + " > ".join(str(d) for d in defects) + ", all <= 4/L")


def test_criterion_07_reiter_equals_folner():
    rng = random.Random(7)
    for trial in range(200):
        dim = 1 if trial % 2 == 0 else 2
        b = zpower_backend(dim)
        elems = {
            tuple(rng.randrange(-6, 7) for _ in range(dim))
            for _ in range(rng.randrange(1, 15))
        }
        phi = FolnerSet(b, tuple(elems))
        word = tuple(
            rng.choice(b.alphabet.signed_letters()) for _ in range(rng.randrange(0, 5))
        )
        g = b.normal_form(word)
        assert reiter_norm(phi, g) == folner_defect(phi, [g])
    report(7, "reiter_norm = folner_defect exactly on 200 random (phi, g) over Z and Z^2")


def test_criterion_08_matching_three_way_oracle():
    rng = random.Random(8)
    feasible_count = 0
    for _ in range(500):
        na, nb = rng.randint(1, 6), rng.randint(1, 12)
        adjacency = tuple(
            tuple(b for b in range(nb) if rng.random() < 0.5) for _ in range(na)
        )
        g = BipartiteGraph(na, nb, adjacency)
        out = two_one_matching(g)
        flow = isinstance(out, TwoOneMatching)
        assert flow == matching_exists_bruteforce(g) == hall_condition_holds(g)
        if flow:
            assert out.check(g)
            feasible_count += 1
        else:
            X = out.left_subset
            assert X and len(g.neighbourhood(X)) < 2 * len(X)
    report(8, f"flow = brute force = Hall on 500 graphs ({feasible_count} feasible)")


def test_criterion_09_paradoxical_decomposition():
    rep = paradox_verify(8)
    assert rep.all_ok
    assert sum(rep.piece_sizes.values()) == 13121
    assert rep.piece_sizes["WA"] == rep.piece_sizes["WB"]
    report(9, f"both identities hold on all 13121 words of B_8; |WA| = |WB| = {rep.piece_sizes['WA']}")


def test_criterion_10_gromov_round_trips():
    for cert in (
        free_sofic_certificate(1),
        folner_certificate(ball(zpower_backend(1), 2), folner_box(zpower_backend(1), 20)),
    ):
        graph = cert_to_graph(cert.hom)
        back = graph_to_almosthom(graph, cert.hom.domain)
        assert np.array_equal(back.images, cert.hom.images)
        assert defect(back) == 0

    def cycle(n):
        return ColoredGraph(("a",), [np.roll(np.arange(n), -1)])

    ref = ball(zpower_backend(1), 3)
    assert local_match_fraction(cycle(100), 3, ref).fraction == 1
    assert local_match_fraction(cycle(5), 3, ref).fraction == 0
    report(10, "graph round trips exact; 100-cycle fraction 1, 5-cycle fraction 0 at N=3")


def test_criterion_11_sinfty_non_normality():
    for k in range(2, 21):
        dx, dconj = sinfty_demo(k)
        assert dx == Fraction(3, 2 ** (k + 1))
        assert dconj >= Fraction(1, 2)
    report(11, "d(x_k, e) = 3/2^(k+1) and conjugate distance >= 1/2 for k = 2..20")


def test_criterion_12_lef_witness():
    assert lef_witness_free(1) == 3
    # brute-force confirmation: p = 2 fails, p = 3 injective, by exhaustive
    # pairwise comparison of mod-p images over the radius-1 ball
    words = list(ball(free_backend(2), 1).elements)
    for p in (2, 3):
        images = [sl2_word_image(w, p) for w in words]
        collision = any(
            images[i] == images[j]
            for i in range(len(words))
            for j in range(i + 1, len(words))
        )
        assert collision == (p == 2)
        assert is_prime(p)
    # injectivity at the returned prime re-verified for N = 1, 2
    assert sl2_images_injective(words, 3)
    assert sl2_images_injective(list(ball(free_backend(2), 2).elements), lef_witness_free(2))
    report(12, "lef_witness_free(1) = 3 confirmed by brute force; injectivity at N = 1, 2")
