"""Exception types shared across the library, and the checks that reject
untrusted JSON input with MalformedCertificateError."""


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
