"""Exception types and exit codes shared across the library, the one reader
of JSON input documents, the checks that reject untrusted JSON with
MalformedCertificateError, and the pieces from which the writers spell
large arrays in the json module's indent=1 layout."""

import contextlib
import gc
import json
import os
import stat
from functools import lru_cache

import numpy as np

# Process exit codes: pass, verification failure, malformed input or usage.
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2


class SoficlabError(Exception):
    """Base class for library-specific failures."""


class ResourceCapError(SoficlabError):
    """A construction would exceed a configured resource cap."""


class MalformedCertificateError(SoficlabError, ValueError):
    """An input document (a certificate, a group table or a graph) violates
    its structural invariants.

    Distinct from verification failure: a malformed certificate cannot even
    be measured (non-bijective permutation, non-unitary matrix, missing
    assignments), while a failing one is well-formed but misses its claims.
    It is also a ValueError: a malformed document is a bad value, and code
    that catches ValueError from a loader catches every rejection.
    """


class BackendMismatchError(SoficlabError):
    """Two objects built over incompatible group backends were combined."""


def unique_keys(pairs) -> dict:
    """The JSON object of `pairs`; the object_pairs_hook of every input."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise MalformedCertificateError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def read_json(path, parse, in_place=None):
    """`parse(text)` of the file at `path`, unless `in_place(data)` of its
    bytes gives a value; every JSON input is read here.

    A nonempty regular file is mapped, anything else read once, and `parse`
    gets the text of a text-mode read.  A repeated key in any object
    (`unique_keys`), invalid or too deeply nested JSON and text that is not
    UTF-8 raise MalformedCertificateError.  The cyclic collector is paused
    meanwhile: JSON values hold no reference cycle, yet parsing allocates
    enough lists (a graph's rows, the entries of a certificate image) to
    trigger full collections that rescan all of them.  It is left as the
    caller had it, never enabled if it was off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh, _mapped(fh) as data:
            found = in_place and in_place(data)
            if found is not None:
                return found
            text = str(data, "utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return parse(text)  # the text is parse's alone, so it can drop it
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedCertificateError(f"not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _mapped(fh):
    """A read-only map of the binary file `fh`, or the bytes of a pipe or an empty file."""
    info = os.fstat(fh.fileno())
    if not (stat.S_ISREG(info.st_mode) and info.st_size):
        return contextlib.nullcontext(fh.read())
    import mmap  # a shared library, loaded only by the commands that read a file

    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def load_json(path, build):
    """`build(doc)` of the JSON document in the file at `path`, parsed whole."""
    def parse(text):
        doc = json.loads(text, object_pairs_hook=unique_keys)
        del text  # so that `build` allocates in the memory the text held
        return build(doc)

    return read_json(path, parse)


def int_row_speller(n: int, depth: int):
    """row -> the indent=1 bytes of a nonempty row of ints in [-1, n) at `depth`,
    in one join of `digit_table(n)`; -1, a coloured graph's missing edge, is
    null.  The one spelling of every int row the library writes."""
    digits = digit_table(n)
    pad = b"\n" + b" " * depth
    return lambda row: b"[" + pad + (b"," + pad).join(digits[row].tolist()) + pad[:-1] + b"]"


@lru_cache(maxsize=1)  # a process reads and writes rows of one n: a certificate, then its graph
def digit_table(n: int) -> np.ndarray:
    """The ASCII bytes of every v < n, then b"null", as one object array."""
    return np.array([*(b"%d" % v for v in range(n)), b"null"], dtype=object)


def spliced_json(doc: dict, key: str, text: str) -> str:
    """``json.dumps(doc, indent=1)`` with `text`, the indent=1 text of a
    value at its depth, in place of the placeholder 0 that the first member
    named `key` holds in `doc`; a string cannot hold that member's text, as
    the encoder escapes its quotes."""
    name = json.dumps(key)
    return json.dumps(doc, indent=1).replace(f"{name}: 0", f"{name}: {text}", 1)


def json_fields(doc, what: str, *keys: str) -> list:
    """The values of `keys` in `doc`, which must be a JSON object holding
    all of them; `what` names the document in the error."""
    if not isinstance(doc, dict):
        raise MalformedCertificateError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise MalformedCertificateError(f"{what} lacks {', '.join(map(repr, missing))}")
    return [doc[key] for key in keys]


def json_ints(values, what: str) -> list:
    """`values` if it is a JSON array of integers; a bool or a float is not
    an integer here, so nothing is silently truncated.  The structures built
    from the array check its range."""
    # type() rather than isinstance(): bool is an int subclass
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise MalformedCertificateError(f"{what} must be JSON integers, got {values!r:.60}")
    return values


def json_int(value, what: str, minimum: int = 0) -> int:
    """`value` if it is one JSON integer >= minimum."""
    if type(value) is not int or value < minimum:
        raise MalformedCertificateError(
            f"{what} must be a JSON integer >= {minimum}, got {value!r:.60}")
    return value
