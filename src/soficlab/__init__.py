"""soficlab: finite metric approximations of countable groups.

Constructs, transforms, and verifies sofic certificates (maps into finite
symmetric groups with the normalized Hamming distance) and hyperlinear
certificates (maps into finite-rank unitary groups with the normalized
Hilbert-Schmidt distance), together with Folner/Reiter amenability
machinery, Hall (2,1)-matchings and paradoxical decompositions, and the
edge-coloured-graph soficity criterion.
"""

__version__ = "0.1.0"

from .almosthom import (
    AlmostHom,
    Certificate,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
    defect,
    load_certificate,
    measured_certificate,
    save_certificate,
    separation,
    verify,
)
from .amenability import (
    FolnerSet,
    ball_expansion,
    f2_ball_expansion,
    folner_box,
    folner_defect,
    paradox_classify,
    paradox_verify,
    reiter_norm,
)
from .amplify import (
    AmplificationReport,
    amplification_report,
    amplified_distance,
    halve_embed,
    iterate_amplification,
    iterations_to_tolerance,
    tensor_square,
)
from .backends import (
    FiniteBackend,
    FreeBackend,
    GroupBackend,
    HeisenbergBackend,
    ZPowerBackend,
    backend_from_descriptor,
    finite_backend_from_json,
    free_backend,
    heisenberg_backend,
    zpower_backend,
)
from .balls import BallTable, ball, free_ball_size
from .config import ResourceLimits, default_limits
from .constructions import (
    ApproximationSequence,
    amplify_certificate,
    check_sequence,
    folner_certificate,
    folner_to_sofic,
    free_sofic_certificate,
    hyperlinear_certificate,
    lef_to_sofic,
    regular_representation,
    sofic_to_hyperlinear,
)
from .errors import (
    BackendMismatchError,
    MalformedCertificateError,
    ResourceCapError,
    SoficlabError,
)
from .graphs import (
    ColoredGraph,
    LocalMatchReport,
    cayley_ball_graph,
    cert_to_graph,
    graph_to_almosthom,
    local_match_fraction,
)
from .matching import (
    BipartiteGraph,
    DeficiencyWitness,
    TwoOneMatching,
    paradox_from_matching,
    two_one_matching,
)
from .metrics import (
    Permutation,
    UnitaryMatrix,
    hamming,
    hs_distance,
    normalized_trace,
    perm_matrix,
    phase_aligned_hs,
    random_orthogonal,
    random_unitary,
    sinfty_demo,
)
from .sl2 import lef_witness_free, sl2_ball_images
from .words import GeneratorAlphabet, reduce_word, word_from_str, word_to_str
