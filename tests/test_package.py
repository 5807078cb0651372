"""The package surface: the names `from soficlab import *` binds, the objects
behind them, and the submodules reachable from a bare `import soficlab`."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import soficlab

EXPORTS = {
    'AlmostHom', 'AmplificationReport', 'BackendMismatchError',
    'BallTable', 'BipartiteGraph', 'Certificate', 'ColoredGraph', 'DeficiencyWitness',
    'FiniteBackend', 'FolnerSet', 'FreeBackend', 'GeneratorAlphabet', 'GroupBackend',
    'HeisenbergBackend', 'LocalMatchReport', 'MalformedCertificateError', 'Permutation',
    'ResourceCapError', 'ResourceLimits', 'SoficlabError', 'TwoOneMatching',
    'UnitaryMatrix', 'VerificationReport', 'ZPowerBackend', 'amplification_report',
    'amplified_distance', 'amplify_certificate', 'backend_from_descriptor', 'ball',
    'ball_expansion', 'cayley_ball_graph', 'cert_to_graph', 'certificate_from_json',
    'certificate_to_json', 'default_limits', 'defect',
    'f2_ball_expansion', 'finite_backend_from_json', 'folner_box', 'folner_certificate',
    'folner_defect', 'folner_to_sofic', 'free_backend', 'free_ball_size',
    'free_sofic_certificate', 'graph_to_almosthom', 'hamming',
    'heisenberg_backend', 'hs_distance', 'hyperlinear_certificate',
    'iterate_amplification', 'iterations_to_tolerance', 'lef_to_sofic',
    'lef_witness_free', 'load_certificate', 'local_match_fraction',
    'measured_certificate',
    'paradox_from_matching', 'paradox_verify', 'perm_matrix', 'phase_aligned_hs',
    'random_unitaries', 'random_unitary', 'reduce_word', 'regular_representation',
    'reiter_norm', 'save_certificate', 'separation', 'sinfty_demo', 'sl2_ball_images',
    'sofic_to_hyperlinear', 'tensor_square', 'two_one_matching', 'verify',
    'word_from_str', 'word_to_str', 'zpower_backend',
}

SUBMODULES = {
    'almosthom', 'amenability', 'amplify', 'backends', 'balls', 'config',
    'constructions', 'errors', 'graphs', 'matching', 'metrics', 'sl2', 'words',
}


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from soficlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS


def test_each_export_is_its_defining_modules_object():
    listed = set(dir(soficlab))
    for name in sorted(EXPORTS):
        obj = getattr(soficlab, name)
        module = obj.__module__
        assert module.split(".")[0] == "soficlab" and module != "soficlab", name
        assert getattr(importlib.import_module(module), name) is obj, name
        assert name in listed, name


def test_bare_import_loads_no_submodule_and_reaches_each():
    """In a fresh interpreter: `import soficlab` imports no submodule, and
    each one is then an attribute of the package."""
    probe = (
        "import json, sys, soficlab\n"
        "before = sorted(m for m in sys.modules if m.startswith('soficlab.'))\n"
        f"reached = [getattr(soficlab, m).__name__ for m in {sorted(SUBMODULES)!r}]\n"
        "print(json.dumps([before, reached]))\n"
    )
    src = os.path.dirname(os.path.dirname(soficlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, reached = json.loads(proc.stdout)
    assert before == []
    assert reached == [f"soficlab.{m}" for m in sorted(SUBMODULES)]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        soficlab.no_such_name
    with pytest.raises(ImportError):
        from soficlab import no_such_name  # noqa: F401
