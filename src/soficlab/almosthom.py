"""(F, eps)-almost homomorphisms, their defect/separation functionals, and
serializable certificates.

The defect of an assignment j on a ball is the worst multiplicativity
violation max d(j(g)j(h), j(gh)) over pairs whose product stays in the ball;
the separation is the least target distance between images of distinct ball
elements (uniform injectivity).  Both are exact rationals for symmetric-group
targets and floats for unitary targets.  Claims stored in a certificate are
advisory and always recomputed on verification.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .backends import backend_from_descriptor
from .balls import BallTable, ball
from .config import default_limits
from .errors import (
    EXIT_FAIL,
    EXIT_MALFORMED,
    EXIT_PASS,
    DuplicateKeyError,
    MalformedCertificateError,
    ResourceCapError,
    int_row_speller,
    json_int,
    json_ints,
    read_json,
    spliced_json,
    unique_keys,
)
from .words import word_from_str, word_to_str

CERT_SCHEMA = "sofic-cert/v1"

# Elements per temporary array in the defect/separation kernels (4 MiB at
# complex128), so their working memory stays a few MB whatever the degree n.
_KERNEL_CHUNK = 1 << 18


def _permutation_columns(images: np.ndarray) -> np.ndarray | None:
    """The int32 (m, n) columns of the 1s of a complex128 (m, n, n) stack
    when every image is a permutation matrix, else None: real parts exactly
    0 or 1 (-0.0 counts as 0), one 1 per row and per column, imaginary parts
    zero.  The one test of whether unitary images are permutation matrices."""
    ones = images == 1
    if not ((ones | (images == 0)).all() and (ones.sum(axis=-1) == 1).all()
            and (ones.sum(axis=-2) == 1).all()):
        return None
    return ones.argmax(axis=-1).astype(np.int32)


@dataclass(eq=False)
class AlmostHom:
    """A total assignment of target elements to the elements of a ball: row k
    of the read-only images array is the image of ball element k: int32 (|B|, n)
    permutation rows for "sym"; for "unitary", int32 (|B|, n) columns of the 1s
    of permutation matrices spelled with +0.0 and 1.0 only, else complex128
    (|B|, n, n) matrices.  Validated once, here; floats are never truncated."""

    domain: BallTable
    target_kind: str  # "sym" | "unitary"
    target_n: int
    images: np.ndarray

    def __post_init__(self) -> None:
        n = self.target_n
        if self.target_kind not in ("sym", "unitary"):
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        images = np.asarray(self.images)
        rows = self.target_kind == "sym" or images.ndim == 2  # permutation rows or columns
        if images.dtype.kind not in ("iu" if rows else "iufc"):
            raise ValueError(f"{images.dtype} images do not fit a {self.target_kind!r} target")
        if images.shape[:1] != (len(self.domain),):
            raise ValueError("assignment must be total on the ball")
        if images.shape[1:] != ((n,) if rows else (n, n)):
            raise ValueError("image degree/rank mismatch")
        identity = np.arange(n) if rows else np.eye(n)
        if rows:  # before the int32 cast, which would wrap large entries
            step = max(1, _KERNEL_CHUNK // n)
            for lo in range(0, len(images), step):
                bad = np.flatnonzero((np.sort(images[lo:lo + step], axis=1) != identity).any(axis=1))
                if bad.size:
                    raise ValueError(
                        f"image {lo + bad[0]} is not a bijection of {{0,...,{n - 1}}}")
        images = np.ascontiguousarray(images, dtype=np.int32 if rows else np.complex128).view()
        columns = None if rows else _permutation_columns(images)
        if not rows and columns is None:  # else its Gram matrix is exactly I
            from .metrics import check_unitary

            for image in images:
                check_unitary(image)
        if np.max(np.abs(images[0] - identity)) > 1e-9:
            raise ValueError("ball identity must map to the identity")
        if columns is not None and not np.signbit(images.view(np.float64)).any():
            images = columns
        images.setflags(write=False)
        self.images = images


def _compose_rows(images, i, j):  # (s * t)(x) = t(s(x)), read off the flat rows
    return images.ravel().take(images[i] + j.astype(np.intp)[:, None] * images.shape[1])


def _moved_points(a, b):
    return (a != b).sum(axis=-1, dtype=np.int32)


def _kernels(hom: AlmostHom):
    """(images, compose, distance, value) for the defect/separation scans:
    the images as rows of one (|B|, w) array; compose(images, i, j), the
    products of rows i by rows j; distance(a, b), per row the moved-point
    count (sym and permutation columns) or sqrt(sum |a - b|^2 / n) (dense
    unitary images); and value, which turns a row distance into an exact
    Fraction (sym) or a float (unitary): hs = sqrt(2k / n) for permutation
    matrices that move k points apart.  Products are never stored or
    returned, so unlike images they are not checked for unitarity."""
    n = hom.target_n
    if hom.images.ndim == 2:
        if hom.target_kind == "sym":
            from fractions import Fraction

            return hom.images, _compose_rows, _moved_points, lambda k: Fraction(int(k), n)
        # P_s - P_t has 2k entries +-1 for the k points s and t send apart, so
        # the dense scan's sum of squares is exactly 2k and its floats and pairs are these
        return hom.images, _compose_rows, _moved_points, lambda k: math.sqrt(2 * int(k) / n)
    images = hom.images.reshape(len(hom.images), -1)

    def compose(images, i, j):
        return (images[i].reshape(-1, n, n) @ images[j].reshape(-1, n, n)).reshape(len(i), -1)

    def distance(a, b):
        parts = (a - b).view(np.float64)  # re, im of every entry
        return np.sqrt(np.einsum("...k,...k->...", parts, parts) / n)

    return images, compose, distance, float


def defect_witness(hom: AlmostHom):
    """(defect, (g_index, h_index)) for the first worst-violated product pair
    in the ball's product order; the witness is None only when the ball
    records no products, which a ball from `ball()` never does.  Pairs are
    scanned in chunks that keep each temporary under _KERNEL_CHUNK elements."""
    images, compose, distance, value = _kernels(hom)
    products = hom.domain.products
    step = max(1, _KERNEL_CHUNK // images.shape[1])
    worst, witness = 0, None
    for lo in range(0, len(products), step):
        i, j, k = products[lo:lo + step].T
        # holding `product` until the next chunk replaces it keeps malloc from
        # trimming and re-faulting the heap every chunk (1.5x at n = 3600)
        product = compose(images, i, j)
        d = distance(product, images[k])
        a = int(d.argmax())
        if witness is None or d[a] > worst:
            worst, witness = d[a], (int(i[a]), int(j[a]))
    return value(worst), witness


def defect(hom: AlmostHom):
    return defect_witness(hom)[0]


def separation_witness(hom: AlmostHom):
    """(separation, (g_index, h_index)) for the first closest pair of images,
    scanning pairs i < j in row-major order: each image against blocks of
    later ones."""
    if len(hom.domain) < 2:
        raise ValueError("separation requires a ball with at least 2 elements")
    images, _, distance, value = _kernels(hom)
    m = len(images)
    rows = max(1, _KERNEL_CHUNK // images.shape[1])
    best, witness = None, None
    for i in range(m - 1):
        for lo in range(i + 1, m, rows):
            d = distance(images[lo:lo + rows], images[i])
            a = int(d.argmin())
            if witness is None or d[a] < best:
                best, witness = d[a], (i, lo + a)
    return value(best), witness


def separation(hom: AlmostHom):
    return separation_witness(hom)[0]


@dataclass(eq=False)
class Certificate:
    """An almost homomorphism together with its (advisory) measured claims."""

    hom: AlmostHom
    claimed_defect: float
    claimed_separation: float
    provenance: str = ""


def measured_certificate(hom: AlmostHom, provenance: str = "") -> Certificate:
    return Certificate(
        hom=hom,
        claimed_defect=float(defect(hom)),
        claimed_separation=float(separation(hom)),
        provenance=provenance,
    )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    defect: float
    separation: float
    eps: float
    delta: float
    worst_defect_pair: tuple[str, str] | None
    worst_separation_pair: tuple[str, str] | None

    @property
    def exit_code(self) -> int:
        return EXIT_PASS if self.passed else EXIT_FAIL

    def to_json(self) -> dict:
        """The fields in declaration order, a witness pair as a list."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values}


def check_thresholds(eps: float, delta: float) -> None:
    """ValueError unless eps is finite and > 0 and delta finite and >= 0: a
    NaN or infinite threshold is malformed input, not a failed check."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


def verify(cert: Certificate, eps: float, delta: float) -> VerificationReport:
    """Recompute defect and separation; pass iff defect < eps and
    separation >= delta.  Claims inside the certificate are ignored, and
    the thresholds must pass `check_thresholds`."""
    check_thresholds(eps, delta)
    hom = cert.hom
    dft, dft_pair = defect_witness(hom)
    sep, sep_pair = separation_witness(hom)
    alphabet = hom.domain.backend.alphabet

    def pair_words(pair):
        if pair is None:
            return None
        return tuple(word_to_str(alphabet, hom.domain.word(i)) for i in pair)

    return VerificationReport(
        passed=bool(dft < eps and sep >= delta),
        defect=float(dft),
        separation=float(sep),
        eps=eps,
        delta=delta,
        worst_defect_pair=pair_words(dft_pair),
        worst_separation_pair=pair_words(sep_pair),
    )


def _head_json(cert: Certificate) -> dict:
    hom = cert.hom
    return {
        "schema": CERT_SCHEMA,
        "group": hom.domain.backend.descriptor(),
        "ball_radius": hom.domain.radius,
        "target": {"kind": hom.target_kind, "n": hom.target_n},
    }


def _tail_json(cert: Certificate) -> dict:
    return {
        "claimed_defect": cert.claimed_defect,
        "claimed_separation": cert.claimed_separation,
        "provenance": cert.provenance,
    }


def certificate_to_json(cert: Certificate) -> dict:
    """The certificate document; `save_certificate` writes exactly
    ``json.dumps(certificate_to_json(cert), indent=1) + "\n"``."""
    hom = cert.hom
    alphabet = hom.domain.backend.alphabet
    images = hom.images
    if hom.target_kind == "unitary":  # one [re, im] pair per entry
        images = images if images.ndim == 3 else _permutation_image(images)
        images = images.view(np.float64).reshape(len(images), -1, 2)
    mapping = {word_to_str(alphabet, hom.domain.word(k)): image
               for k, image in enumerate(images.tolist())}
    return {**_head_json(cert), "map": mapping, **_tail_json(cert)}


# The streaming writer reproduces the json.dump(..., indent=1) layout: the
# map sits at depth 1, its keys at depth 2, image entries at depth 3 and the
# [re, im] parts of a unitary entry at depth 4; in the head, the rows of a
# finite group's table sit at depth 3 and their entries at depth 4.
def _head_text(cert: Certificate) -> str:
    head = _head_json(cert)
    table = head["group"].get("table")
    if table is None:
        return json.dumps(head, indent=1)
    # a finite group's table is most of the head; only "group" has a "table" key
    head["group"]["table"] = 0
    rows = ",\n   ".join(map(int_row_speller(len(table), 4), table))
    return spliced_json(head, "table", "[\n   " + rows + "\n  ]")


_ZERO, _ONE = "[\n    0.0,\n    0.0\n   ]", "[\n    1.0,\n    0.0\n   ]"  # the entries 0 and 1
_SEP, _OPEN, _CLOSE = ",\n   ", "[\n   ", "\n  ]"  # between, before and after entries
_STRIDE = len(_ZERO) + len(_SEP)


@lru_cache(maxsize=1)  # a process writes or reads permutation images of one rank at a time
def _row_texts(n: int) -> np.ndarray:
    """The text of each row of a rank-n permutation matrix and the separator
    after it, indexed by the column of its 1: _ZERO and _ONE have one length,
    so each is a slice of one template."""
    template = _SEP.join([_ZERO] * (n - 1) + [_ONE] + [_ZERO] * n)
    starts = range((n - 1) * _STRIDE, -1, -_STRIDE)  # of the rows with their 1 at 0, 1, ...
    return np.array([template[s:s + n * _STRIDE] for s in starts], dtype=object)


def _permutation_pieces(columns) -> list:
    """The writer's text of `_permutation_image(columns)`, as json.dump spells it, by rows."""
    rows = _row_texts(len(columns))[columns].tolist()
    rows[-1] = rows[-1][:-len(_SEP)]  # no separator after the last entry
    return [_OPEN, *rows, _CLOSE]


def _unitary_image_pieces(u: np.ndarray) -> list:
    # one C-encoder call spells every part exactly as json.dump does
    # (repr, NaN, Infinity, -0.0)
    tokens = json.dumps(u.view(np.float64).ravel().tolist())[1:-1].split(", ")
    return [_OPEN, _SEP.join([f"[\n    {re},\n    {im}\n   ]"
                              for re, im in zip(tokens[0::2], tokens[1::2])]), _CLOSE]


def save_certificate(cert: Certificate, path) -> None:
    """Write the certificate one image at a time, byte-identical to
    ``json.dump(certificate_to_json(cert), fh, indent=1)`` plus a newline,
    without building that document or running the pure-Python encoder."""
    hom = cert.hom
    alphabet = hom.domain.backend.alphabet
    if hom.target_kind == "sym":  # one piece per image
        pieces = zip(map(int_row_speller(hom.target_n, 3), hom.images))
    else:
        pieces = map(_permutation_pieces if hom.images.ndim == 2 else _unitary_image_pieces,
                     hom.images)
    head = _head_text(cert)
    tail = json.dumps(_tail_json(cert), indent=1)
    # an image is written in pieces, not as one string: at rank 256 each
    # image-sized temporary (1.8 MB) can be a fresh mmap that faults in 450
    # pages, and the 1 MiB buffer gathers the pieces into few writes
    with open(path, "w", buffering=1 << 20) as fh:
        fh.write(head[:-2] + ',\n "map": {')
        sep = "\n  "
        for word, image in zip(map(hom.domain.word, range(len(hom.images))), pieces):
            fh.write(sep + json.dumps(word_to_str(alphabet, word)) + ": ")
            fh.writelines(image)
            sep = ",\n  "
        fh.write("\n }," + tail[1:] + "\n")


def _read_image(kind: str, n: int, raw) -> np.ndarray:
    """The checked int32 (n,) or complex128 (n, n) row of a JSON image that
    lists its entries in `raw`."""
    width = n if kind == "sym" else n * n
    if type(raw) is not list or len(raw) != width:
        raise MalformedCertificateError(f"every image must list {width} entries")
    if kind == "sym":
        flat, dest = json_ints(raw, "permutation entries"), np.empty(n, np.int32)
    else:
        # a str or dict entry of length 2 fails the type test through its
        # characters or keys; one flat list converts far faster than nested ones
        try:
            is_pairs = set(map(len, raw)) == {2}
        except TypeError:  # an entry without a length, such as a bare number
            is_pairs = False
        flat = list(chain.from_iterable(raw)) if is_pairs else []
        if not is_pairs or not set(map(type, flat)) <= {int, float}:
            raise MalformedCertificateError(
                "unitary entries must be [re, im] pairs of JSON numbers")
        dest = np.empty(len(flat))  # re, im of every entry
    try:
        dest[:] = flat
    except OverflowError as exc:  # an integer beyond int32 or beyond the float range
        raise MalformedCertificateError(f"bad {kind} image: {exc}") from exc
    if not np.isfinite(dest).all():
        raise MalformedCertificateError("unitary entries must be finite")
    if kind == "sym":
        return dest
    return dest.view(np.complex128).reshape(n, n)


def _permutation_image(columns) -> np.ndarray:
    """The complex128 permutation matrix whose row r holds its 1 at columns[r],
    or the stack of them for an (m, n) array of columns."""
    return np.eye(np.shape(columns)[-1], dtype=np.complex128)[columns]


def _tensor_square(images) -> np.ndarray:
    """conj(u) (x) u of each image of a unitary stack, in the stack's form:
    columns square as the permutation sigma x sigma (row i*n + k goes to
    sigma(i)*n + sigma(k)), the bits conj_kron gives on +0.0/1.0 permutation
    matrices, and a dense stack through conj_kron."""
    if images.ndim == 3:
        from .amplify import conj_kron

        return conj_kron(images)
    n = images.shape[1]
    return (images[:, :, None] * n + images[:, None, :]).reshape(len(images), n * n)


def _claim(doc: dict, key: str) -> float:
    value = doc.get(key, 0.0)
    if type(value) not in (int, float):
        raise MalformedCertificateError(f"{key} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise MalformedCertificateError(f"{key} out of range: {exc}") from exc


def _almost_hom(doc: dict, entries=None) -> AlmostHom:
    """The checked AlmostHom of a certificate document whose map is a dict,
    or is read as `entries(kind, n)`: (key, read) per entry, read() giving
    its checked row.  The rows are stacked once every key is read, so nothing
    is allocated for images that the input lacks."""
    rank_cap = default_limits().rank_cap
    try:
        if doc.get("schema") != CERT_SCHEMA:
            raise MalformedCertificateError(f"unknown schema {doc.get('schema')!r}")
        backend = backend_from_descriptor(doc["group"])
        radius = json_int(doc["ball_radius"], "ball_radius")
        target = doc["target"]
        kind, n = target["kind"], json_int(target["n"], "target n", 1)
        mapping = doc["map"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"bad certificate structure: {exc}") from exc
    if kind not in ("sym", "unitary"):
        raise MalformedCertificateError(f"unknown target kind {kind!r}")
    if kind == "unitary" and n > rank_cap:
        raise ResourceCapError(f"unitary rank {n} exceeds cap {rank_cap}")
    if entries is None and not isinstance(mapping, dict):
        raise MalformedCertificateError("map must be a JSON object keyed by words")
    pairs = entries(kind, n) if entries else (
        (key, partial(_read_image, kind, n, raw)) for key, raw in mapping.items())
    domain = ball(backend, radius)
    rows: list = [None] * len(domain)
    keys: list = [None] * len(domain)
    alphabet = backend.alphabet
    for key, read in pairs:
        try:
            elem = backend.normal_form(word_from_str(alphabet, key))
        except ValueError as exc:
            raise MalformedCertificateError(f"bad map key {key!r}: {exc}") from exc
        idx = domain.index.get(elem)
        if idx is None:
            raise MalformedCertificateError(f"map key {key!r} lies outside the ball")
        if keys[idx] is not None:
            raise MalformedCertificateError(
                f"map keys {keys[idx]!r} and {key!r} name the same element")
        keys[idx] = key
        rows[idx] = read()
    if None in keys:
        raise MalformedCertificateError("map does not cover the whole ball")
    # permutation columns stay columns unless another image is a dense matrix
    shape = max((row.shape for row in rows), key=len)
    images = np.empty((len(rows), *shape), np.int32 if len(shape) == 1 else np.complex128)
    for k, row in enumerate(rows):  # free each row once copied, never holding both whole
        images[k], rows[k] = row if row.ndim == len(shape) else _permutation_image(row), None
    try:
        return AlmostHom(domain=domain, target_kind=kind, target_n=n, images=images)
    except ValueError as exc:
        raise MalformedCertificateError(str(exc)) from exc


def _certificate(hom: AlmostHom, doc: dict) -> Certificate:
    return Certificate(
        hom=hom,
        claimed_defect=_claim(doc, "claimed_defect"),
        claimed_separation=_claim(doc, "claimed_separation"),
        provenance=str(doc.get("provenance", "")),
    )


def certificate_from_json(doc: dict) -> Certificate:
    """Parse and structurally validate a certificate document.

    Raises MalformedCertificateError on any structural violation; this is a
    different failure mode than verification failure.  A unitary rank above
    the rank cap raises ResourceCapError before any image is read.
    """
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate document must be a JSON object")
    return _certificate(_almost_hom(doc), doc)


_skip = json.decoder.WHITESPACE.match


class _CertificateText:
    """A cursor over a certificate's JSON text, moved one value at a time by
    the json module's scanners: a malformed text fails as in json.loads."""

    def __init__(self, text: str):
        self.text, self.pos, self.spell = text, _skip(text, 0).end(), None
        decoder = json.JSONDecoder(object_pairs_hook=unique_keys)
        self.decode, self.decode_at = decoder.decode, decoder.raw_decode

    def value(self):
        value, self.pos = self.decode_at(self.text, self.pos)
        return value

    def members(self):
        """Yield each key of the object at the cursor, leaving the cursor at
        its value for the caller to read; a repeated key fails at once."""
        text, keys = self.text, set()
        pos = _skip(text, self.pos + 1).end()
        while keys or not text.startswith("}", pos):
            if not text.startswith('"', pos):
                raise json.JSONDecodeError("Expecting property name", text, pos)
            key, pos = json.decoder.scanstring(text, pos + 1)
            if key in keys:
                raise DuplicateKeyError(key)
            pos = _skip(text, pos).end()
            if not text.startswith(":", pos):
                raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
            self.pos = _skip(text, pos + 1).end()
            keys.add(key)
            yield key
            pos = _skip(text, self.pos).end()
            if not text.startswith(",", pos):
                break
            pos = _skip(text, pos + 1).end()
        if not text.startswith("}", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        self.pos = pos + 1

    def images(self, kind: str, n: int):
        """(key, read) per key of the map at the cursor, read() moving the
        cursor past the key's value and giving its checked row, so a key is
        checked before its image is read: `_digit_row` or `_permutation_rows`
        reads an image in the writer's spelling, and any other is decoded
        whole."""
        spelled = self._digit_row if kind == "sym" else self._permutation_rows

        def read():
            fast = spelled(n)
            return fast() if fast else _read_image(kind, n, self.value())

        for key in self.members():
            yield key, read

    def _spelled(self, pieces, read):
        """`read` if the text at the cursor is `pieces`, joined, moving the
        cursor past it; else None, leaving the cursor in place."""
        pos = self.pos
        for piece in pieces:
            if not self.text.startswith(piece, pos):
                return None
            pos += len(piece)
        self.pos = pos
        return read

    def _digit_row(self, n: int):
        """read() of the sym image at the cursor if its text is the writer's
        spelling of the row np.fromstring reads from it up to the first "]",
        n values in [0, n), else None: numpy also reads `01`, `+1` or a
        trailing comma.  The speller is built at the first such row, never
        for a claimed n alone."""
        text, pos = self.text, self.pos
        end = text.find("]", pos) if text.startswith(_OPEN, pos) else -1
        if end < 0:
            return None
        try:  # the image alone, never the rest of the text
            row = np.fromstring(text[pos + 1:end].encode("ascii"), dtype=np.int64, sep=",")
        except ValueError:  # UnicodeEncodeError, or text numpy cannot read
            return None
        if len(row) != n or not ((row >= 0).all() and (row < n).all()):
            return None
        self.spell = self.spell or int_row_speller(n, 3)
        return self._spelled([self.spell(row)], partial(np.asarray, row, np.int32))

    def _permutation_rows(self, n: int):
        """read() of the unitary image at the cursor, as columns, if it is
        `_permutation_pieces` of the columns of its rows' first "1"s, else None,
        found at the first row whose "1" is out of place; such bytes pass `_read_image`."""
        text, start, columns = self.text, self.pos + len(_OPEN) + _ONE.index("1"), []
        for lo in range(start, start + n * n * _STRIDE, n * _STRIDE):  # a row's first "1" spot
            c, off = divmod(text.find("1", lo, lo + n * _STRIDE) - lo, _STRIDE)
            if off or c < 0:
                return None
            columns.append(c)
        if len(set(columns)) < n:  # no permutation: decoded whole, for check_unitary's error
            return None
        return self._spelled(_permutation_pieces(columns), partial(np.asarray, columns, np.int32))


def _certificate_from_text(text: str) -> Certificate:
    """json.loads then `certificate_from_json`, in outcome, when json.loads
    accepts `text`.  A map after schema, group, radius and target is read an
    image at a time, and any other text fails at its first defect: a JSON error
    or repeated key where it occurs, a check once its value or the map is read."""
    reader = _CertificateText(text)
    if not text.startswith("{", reader.pos):
        return certificate_from_json(reader.decode(text))
    head, hom = {}, None
    for key in reader.members():
        if (key == "map" and text.startswith("{", reader.pos)
                and {"schema", "group", "ball_radius", "target"} <= head.keys()):
            hom = _almost_hom({**head, "map": None}, reader.images)
        else:
            head[key] = reader.value()
    end = _skip(text, reader.pos).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return _certificate(hom, head) if hom else certificate_from_json(head)


def load_certificate(path) -> Certificate:
    """The certificate in the JSON file at `path`: as `certificate_from_json`
    on a document that json.loads accepts, else refused at the text's first
    defect, so a cap refuses right after the head."""
    default_limits()  # a malformed cap in the environment fails before the file is opened
    return read_json(path, _certificate_from_text)
