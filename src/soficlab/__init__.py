"""soficlab: finite metric approximations of countable groups.

Constructs, transforms, and verifies sofic certificates (maps into finite
symmetric groups with the normalized Hamming distance) and hyperlinear
certificates (maps into finite-rank unitary groups with the normalized
Hilbert-Schmidt distance), together with Folner/Reiter amenability
machinery, Hall (2,1)-matchings and paradoxical decompositions, and the
edge-coloured-graph soficity criterion.

The exported names load lazily (PEP 562): `import soficlab` imports no
submodule, and the first use of a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports from the package
_EXPORTS = {
    "almosthom": "AlmostHom Certificate VerificationReport certificate_from_json "
                 "certificate_to_json defect load_certificate measured_certificate "
                 "save_certificate separation verify",
    "amenability": "FolnerSet ball_expansion f2_ball_expansion folner_box folner_defect "
                   "paradox_verify reiter_norm",
    "amplify": "AmplificationReport amplification_report amplified_distance "
               "iterate_amplification iterations_to_tolerance tensor_square",
    "backends": "FiniteBackend FreeBackend GroupBackend HeisenbergBackend ZPowerBackend "
                "backend_from_descriptor finite_backend_from_json free_backend "
                "heisenberg_backend zpower_backend",
    "balls": "BallTable ball free_ball_size",
    "config": "ResourceLimits default_limits",
    "constructions": "amplify_certificate folner_certificate folner_to_sofic "
                     "free_sofic_certificate hyperlinear_certificate lef_to_sofic "
                     "regular_representation sofic_to_hyperlinear",
    "errors": "BackendMismatchError MalformedCertificateError ResourceCapError SoficlabError",
    "graphs": "ColoredGraph LocalMatchReport cayley_ball_graph cert_to_graph "
              "graph_to_almosthom local_match_fraction",
    "matching": "BipartiteGraph DeficiencyWitness TwoOneMatching paradox_from_matching "
                "two_one_matching",
    "metrics": "Permutation UnitaryMatrix hamming hs_distance perm_matrix "
               "phase_aligned_hs random_unitaries random_unitary sinfty_demo",
    "sl2": "lef_witness_free sl2_ball_images",
    "words": "GeneratorAlphabet reduce_word word_from_str word_to_str",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
