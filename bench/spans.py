"""Span recorders installed around soficlab's public functions, from outside.

``install(recorder)`` wraps every public module-level function of each
soficlab layer, plus the few methods that do a layer's work
(``FiniteBackend.__init__`` validates a group table, ``BallTable.products``
builds the partial product table, the ``__post_init__`` checks of
``UnitaryMatrix`` and ``Permutation``, ``ColoredGraph.from_json``), and
rebinds every module-level name that referred to the original, so calls
made through ``from .x import f`` are traced too.  Nothing under ``src/``
changes.

Each wrapped callable belongs to a stage named ``<layer>.<stage>``.  A
span's self time is its duration minus the durations of the spans opened
inside it, so the self times of one pass add up to the duration of the
outermost spans (one ``cli.main`` call per command).  With ``memory=True``
each span also tracks the tracemalloc high-water mark reached while it was
open, relative to the traced memory at entry.
"""

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("words", "backends", "balls", "sl2", "constructions", "almosthom",
          "metrics", "amplify", "amenability", "matching", "graphs", "cli")

# Public functions left without a span: per-element and per-pair kernels
# called from inner loops (up to millions of times per command), whose
# per-call cost is at or below a span's.  Their time is part of the stage
# that calls them, e.g. the exact Hamming distance is defect/separation work.
LEAVES = {
    "words": {"reduce_word", "is_reduced", "word_inverse", "word_concat"},
    "sl2": {"mat_mul_mod", "mat_identity", "is_prime"},
    "metrics": {"hamming", "hs_distance", "hs_distance_direct", "phase_aligned_hs",
                "normalized_trace", "uniform_distance"},
    "amenability": {"paradox_classify"},
}

# Stages whose self time is reported on its own; every other span counts
# only towards its layer's total.  Keys are (module, qualified name).
STAGES = {
    ("balls", "ball"): "balls.ball",
    ("balls", "BallTable.products"): "balls.products",
    ("backends", "FiniteBackend.__init__"): "backends.finite_table",
    ("constructions", "sl2_finite_backend"): "backends.finite_table",
    ("sl2", "lef_witness_free"): "sl2.witness",
    ("sl2", "sl2_images_injective"): "sl2.witness",
    ("sl2", "sl2_word_image"): "sl2.witness",
    ("constructions", "folner_to_sofic"): "constructions.folner_fill",
    ("constructions", "folner_certificate"): "constructions.folner_fill",
    ("constructions", "lef_to_sofic"): "constructions.lef",
    ("constructions", "regular_representation"): "constructions.lef",
    ("constructions", "free_sofic_certificate"): "constructions.lef",
    ("constructions", "sofic_to_hyperlinear"): "constructions.to_unitary",
    ("constructions", "hyperlinear_certificate"): "constructions.to_unitary",
    ("metrics", "perm_matrix"): "constructions.to_unitary",
    ("constructions", "amplify_certificate"): "constructions.amplify",
    ("almosthom", "defect_witness"): "almosthom.defect",
    ("almosthom", "defect"): "almosthom.defect",
    ("almosthom", "separation_witness"): "almosthom.separation",
    ("almosthom", "separation"): "almosthom.separation",
    ("almosthom", "save_certificate"): "almosthom.emit",
    ("almosthom", "certificate_to_json"): "almosthom.emit",
    ("almosthom", "load_certificate"): "almosthom.parse",
    ("almosthom", "certificate_from_json"): "almosthom.parse",
    ("metrics", "UnitaryMatrix.__post_init__"): "metrics.unitary_check",
    ("amplify", "tensor_square"): "amplify.tensor_square",
    ("amenability", "folner_box"): "amenability.folner_box",
    ("amenability", "folner_defect"): "amenability.folner_defect",
    ("amenability", "generator_folner_defect"): "amenability.folner_defect",
    ("amenability", "reiter_norm"): "amenability.folner_defect",
    ("amenability", "paradox_verify"): "amenability.paradox_verify",
    ("graphs", "cert_to_graph"): "graphs.cert_to_graph",
    ("graphs", "local_match_fraction"): "graphs.match_fraction",
    ("matching", "two_one_matching"): "matching.two_one",
    ("matching", "paradox_from_matching"): "matching.paradox_build",
}

REPORTED_STAGES = sorted(set(STAGES.values()))


class Recorder:
    """In-memory spans aggregated per stage, plus counters."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stack: list[list] = []  # [stage, start, child_s, mem_base, mem_hi]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, stage: str) -> None:
        base = hi = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][4] = max(self.stack[-1][4], peak)
            tracemalloc.reset_peak()
            hi = base
        self.stack.append([stage, time.perf_counter(), 0.0, base, hi])

    def exit(self) -> None:
        end = time.perf_counter()
        stage, start, child_s, base, hi = self.stack.pop()
        duration = end - start
        self.self_s[stage] += duration - child_s
        self.calls[stage] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if self.memory:
            hi = max(hi, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[stage] = max(self.peak_bytes[stage], hi - base)
            if self.stack:
                self.stack[-1][4] = max(self.stack[-1][4], hi)
            tracemalloc.reset_peak()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def high(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts[name], n)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _hooks():
    """Counters computed from the public objects a call takes or returns:
    (module, qualified name) -> hook(recorder, fn, args, kwargs, result)."""
    from soficlab.balls import free_ball_size

    def traversals(rec, fn, a, k, res):
        graph, radius = _arg(fn, a, k, "graph"), _arg(fn, a, k, "radius")
        rank = _arg(fn, a, k, "reference").backend.rank
        rec.add("graphs.vertices", graph.vertex_count)
        rec.add("graphs.traversals", graph.vertex_count * free_ball_size(rank, radius))

    def matching(rec, fn, a, k, res):
        rec.add("matching.edges", sum(len(adj) for adj in _arg(fn, a, k, "graph").adjacency))
        rec.add("matching.flow_value", 2 * len(getattr(res, "i", ())))

    def separation_pairs(rec, fn, a, k, res):
        n = len(_arg(fn, a, k, "hom").domain)
        rec.add("almosthom.separation_pairs", n * (n - 1) // 2)

    return {
        ("balls", "ball"): lambda rec, fn, a, k, res: rec.add("balls.elements", len(res)),
        ("balls", "BallTable.products"):
            lambda rec, fn, a, k, res: rec.add("balls.products_defined", len(res)),
        ("backends", "FiniteBackend.__init__"):
            lambda rec, fn, a, k, res: rec.high("backends.table_order", a[0].order),
        ("sl2", "lef_witness_free"): lambda rec, fn, a, k, res: rec.high("sl2.prime", res),
        ("almosthom", "defect_witness"): lambda rec, fn, a, k, res: rec.add(
            "almosthom.defect_pairs", len(_arg(fn, a, k, "hom").domain.products)),
        ("almosthom", "separation_witness"): separation_pairs,
        ("almosthom", "save_certificate"): lambda rec, fn, a, k, res: rec.add(
            "almosthom.json_bytes", _file_size(_arg(fn, a, k, "path"))),
        ("almosthom", "load_certificate"): lambda rec, fn, a, k, res: rec.add(
            "almosthom.json_bytes", _file_size(_arg(fn, a, k, "path"))),
        ("metrics", "UnitaryMatrix.__post_init__"):
            lambda rec, fn, a, k, res: rec.add("metrics.unitary_checks", 1),
        ("amplify", "tensor_square"):
            lambda rec, fn, a, k, res: rec.high("amplify.output_rank", res.n),
        ("graphs", "local_match_fraction"): traversals,
        ("matching", "two_one_matching"): matching,
    }


def _spanned(rec: Recorder, stage: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(stage)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, fn, args, kwargs, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap soficlab's public functions and layer methods with spans."""
    import importlib

    modules = {layer: importlib.import_module(f"soficlab.{layer}") for layer in LAYERS}
    hooks = _hooks()

    def stage_of(layer: str, qualname: str) -> str:
        return STAGES.get((layer, qualname), f"{layer}.{qualname}")

    replaced = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in LEAVES.get(layer, ())):
                replaced[obj] = _spanned(rec, stage_of(layer, name), obj,
                                         hooks.get((layer, name)))
    for mod in [m for n, m in sys.modules.items() if n == "soficlab" or n.startswith("soficlab.")]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])

    def method(layer: str, cls, attr: str) -> None:
        key = (layer, f"{cls.__name__}.{attr}")
        setattr(cls, attr, _spanned(rec, stage_of(*key), vars(cls)[attr], hooks.get(key)))

    backends, balls, metrics, graphs = (modules[m] for m in ("backends", "balls", "metrics", "graphs"))
    method("backends", backends.FiniteBackend, "__init__")
    method("metrics", metrics.UnitaryMatrix, "__post_init__")
    metrics.Permutation.__post_init__ = _counted(
        rec, "metrics.permutations_built", vars(metrics.Permutation)["__post_init__"])
    products = functools.cached_property(_spanned(
        rec, "balls.products", vars(balls.BallTable)["products"].func,
        hooks[("balls", "BallTable.products")]))
    products.__set_name__(balls.BallTable, "products")
    balls.BallTable.products = products
    from_json = vars(graphs.ColoredGraph)["from_json"].__func__
    graphs.ColoredGraph.from_json = classmethod(
        _spanned(rec, stage_of("graphs", "ColoredGraph.from_json"), from_json))
