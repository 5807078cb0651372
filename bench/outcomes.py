"""The output gate: summarise a command's product and compare it with the
summary recorded at the seed commit.

A summary is a JSON-able value.  ``exact`` products are summarised by their
sha256.  ``unitary`` products keep their JSON structure with every float
kept as a number, so floats can be compared within ``FLOAT_TOL``; the n*n
matrix of each certificate image is folded into a fingerprint (entry count,
plain sum and a sine-weighted sum), and the extremal pairs of a verification
report keep only their shape, because on the unitary side many pairs tie up
to rounding and which of them is reported is not part of the result.
``amplify-law`` products are seed-dependent and are checked against their
own law instead of a recording.
"""

import hashlib
import json
import math

import numpy as np

FLOAT_TOL = 1e-9

_PAIR_KEYS = ("worst_defect_pair", "worst_separation_pair")


def _weights(n: int) -> np.ndarray:
    return np.sin(np.arange(n) * 2.399963229728653)


def _fingerprint(raw) -> dict:
    x = np.asarray(raw, dtype=np.float64).ravel()
    return {"count": int(x.size), "sum": float(x.sum()), "wsum": float(_weights(x.size) @ x)}


def _unitary_summary(doc):
    if not isinstance(doc, dict):
        return doc
    out = dict(doc)
    if isinstance(doc.get("map"), dict):
        out["map"] = {key: _fingerprint(raw) for key, raw in doc["map"].items()}
    for key in _PAIR_KEYS:
        pair = doc.get(key)
        if isinstance(pair, list):
            out[key] = [isinstance(w, str) for w in pair]
    return out


def amplify_law_error(doc) -> str | None:
    """None when a `demo amplify` report obeys its one-step law."""
    try:
        pairs = doc["pairs"]
        if doc["output_rank"] != doc["input_rank"] ** 2 or not pairs:
            return "bad ranks or no pairs"
        for p in pairs:
            if not 0.0 <= p["d_in"] <= 2.0:
                return f"d_in {p['d_in']} outside [0, 2]"
            if not abs(p["d_predicted"] - p["d_measured"]) <= FLOAT_TOL:
                return f"law broken: {p['d_predicted']} vs {p['d_measured']}"
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return None


def summarise(check: str, data: bytes):
    if check == "exact":
        return {"sha256": hashlib.sha256(data).hexdigest()}
    doc = json.loads(data)
    if check == "unitary":
        return _unitary_summary(doc)
    if check == "amplify-law":
        return {"law": amplify_law_error(doc)}
    raise ValueError(f"unknown check {check!r}")


def _float_tolerance(path: str, expected: dict | None) -> float:
    if path.endswith(".sum") and expected is not None:
        return FLOAT_TOL * expected["count"]
    if path.endswith(".wsum") and expected is not None:
        return FLOAT_TOL * float(np.abs(_weights(expected["count"])).sum())
    return FLOAT_TOL


def difference(expected, actual, path: str = "$", parent: dict | None = None) -> str | None:
    """None when `actual` matches `expected`, else where and how it differs."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return None if expected is actual else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            return None if expected == actual else f"{path}: {actual} != {expected}"
        tol = _float_tolerance(path, parent)
        if math.isfinite(actual) and abs(actual - expected) <= tol:
            return None
        return f"{path}: {actual!r} differs from {expected!r} by more than {tol:g}"
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            diff = difference(expected[key], actual[key], f"{path}.{key}", expected)
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = difference(e, a, f"{path}[{i}]", parent)
            if diff:
                return diff
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


def mismatch(expected: dict, exit_code: int, check: str, data: bytes | None) -> str | None:
    """None when a command's exit code and product match the recording."""
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    if data is None:
        return "no output"
    try:
        actual = summarise(check, data)
    except (ValueError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}"
    return difference(expected["summary"], actual)
