"""Group backends with solvable normal forms.

Each backend turns words over its generator alphabet into canonical forms
(hashable values) with decidable equality:

* free(r)        -- the reduced word itself
* zpower(d)      -- exponent vector in Z^d
* heisenberg     -- integer triple (a, b, c) for x^a y^b z^c with the
                    product rule (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b*a')
* finite table   -- index into an explicit multiplication table (checked to
                    be a group table on load)

All backends are immutable and all operations pure.
"""

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from .errors import MalformedCertificateError, json_fields, json_int, json_ints
from .words import GeneratorAlphabet, Word, reduce_word, word_inverse

Canon = Any  # backend-specific canonical form; always hashable


class GroupBackend:
    kind: str
    alphabet: GeneratorAlphabet

    @property
    def rank(self) -> int:
        return self.alphabet.rank

    def identity(self) -> Canon:
        raise NotImplementedError

    def letter(self, s: int) -> Canon:
        """Canonical form of a signed generator."""
        raise NotImplementedError

    def multiply(self, g: Canon, h: Canon) -> Canon:
        raise NotImplementedError

    def inverse(self, g: Canon) -> Canon:
        raise NotImplementedError

    def normal_form(self, word: Word) -> Canon:
        """Evaluate a word letter by letter; two words map to equal canonical
        forms iff they represent the same group element."""
        g = self.identity()
        for s in word:
            self.alphabet.check_letter(s)
            g = self.multiply(g, self.letter(s))
        return g

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupBackend) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(json.dumps(self.descriptor(), sort_keys=True))


@dataclass(frozen=True, eq=False)
class FreeBackend(GroupBackend):
    """Free group of finite rank; canonical forms are reduced words."""

    alphabet: GeneratorAlphabet
    kind: str = field(default="free", init=False)

    def identity(self) -> Word:
        return ()

    def letter(self, s: int) -> Word:
        self.alphabet.check_letter(s)
        return (s,)

    def multiply(self, g: Word, h: Word) -> Word:
        """Product of two canonical (freely reduced) words: only letters at
        the junction can cancel.  Unreduced or untrusted spellings go through
        normal_form first."""
        if not (g and h) or g[-1] != -h[0]:
            return g + h
        k = 1
        n = min(len(g), len(h))
        while k < n and g[-1 - k] == -h[k]:
            k += 1
        return g[:len(g) - k] + h[k:]

    def inverse(self, g: Word) -> Word:
        return word_inverse(g)

    def normal_form(self, word: Word) -> Word:
        return reduce_word(word, rank=self.rank)

    def descriptor(self) -> dict:
        return {"kind": "free", "rank": self.rank}


@dataclass(frozen=True, eq=False)
class ZPowerBackend(GroupBackend):
    """Z^d; canonical forms are integer exponent tuples."""

    alphabet: GeneratorAlphabet
    kind: str = field(default="zpower", init=False)

    @property
    def dim(self) -> int:
        return self.rank

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def letter(self, s: int) -> tuple[int, ...]:
        self.alphabet.check_letter(s)
        v = [0] * self.dim
        v[abs(s) - 1] = 1 if s > 0 else -1
        return tuple(v)

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def descriptor(self) -> dict:
        return {"kind": "zpower", "dim": self.dim}


@dataclass(frozen=True, eq=False)
class HeisenbergBackend(GroupBackend):
    """Discrete Heisenberg group on generators x, y with central z = [x, y].

    Canonical form (a, b, c) stands for x^a y^b z^c; the product rule is
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b*a').
    """

    alphabet: GeneratorAlphabet
    kind: str = field(default="heisenberg", init=False)

    def __post_init__(self) -> None:
        if self.alphabet.rank != 2:
            raise ValueError("heisenberg backend requires a rank-2 alphabet")

    def identity(self) -> tuple[int, int, int]:
        return (0, 0, 0)

    def letter(self, s: int) -> tuple[int, int, int]:
        self.alphabet.check_letter(s)
        sign = 1 if s > 0 else -1
        if abs(s) == 1:
            return (sign, 0, 0)
        return (0, sign, 0)

    def multiply(self, g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + b * a2)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def descriptor(self) -> dict:
        return {"kind": "heisenberg"}


class FiniteBackend(GroupBackend):
    """An explicit finite group given by its multiplication table.

    The table is verified to be a group table on construction: entries in
    range, identity behaving neutrally, rows and columns bijective, and
    associativity (Light's test over a generating set).  Canonical forms
    are table indices.
    """

    kind = "finite"

    def __init__(self, table, identity_index: int, generators: list[int] | None = None):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise ValueError("multiplication table must be square")
        m = tbl.shape[0]
        if m < 1:
            raise ValueError("empty multiplication table")
        if not (0 <= identity_index < m):
            raise ValueError("identity index out of range")
        if tbl.min() < 0 or tbl.max() >= m:
            raise ValueError("table entries out of range")
        e = identity_index
        if not (np.array_equal(tbl[e], np.arange(m)) and np.array_equal(tbl[:, e], np.arange(m))):
            raise ValueError("identity index does not act neutrally")
        # entries lie in range: a row or column is a bijection iff it sorts to 0..m-1
        span = np.arange(m)
        bad = (np.sort(tbl, axis=1) != span).any(axis=1)
        bad |= (np.sort(tbl, axis=0).T != span).any(axis=1)
        if bad.any():
            raise ValueError(f"row/column {bad.argmax()} is not a bijection")
        # Light's test: the a with (x a) y = x (a y) for all x, y contain e
        # and are closed under products, so checking a generating set suffices
        for s in _right_generators(tbl, e):
            bad = tbl[tbl[:, s]] != tbl[:, tbl[s]]  # (x s) y against x (s y)
            if bad.any():
                x, y = np.argwhere(bad)[0].tolist()
                raise ValueError(f"table not associative: (x*s)*y != x*(s*y) "
                                 f"at (x, s, y) = ({x}, {s}, {y})")
        self.table = tbl
        self.table.setflags(write=False)
        self.order = m
        self.identity_index = e
        if generators is None:
            generators = [i for i in range(m) if i != e]
        for g in generators:
            if not (0 <= g < m) or g == e:
                raise ValueError(f"invalid generator index {g}")
        self.generators = tuple(generators)
        self._inverses = tuple(np.nonzero(tbl == e)[1].tolist())  # row i holds e at inv(i)
        names = tuple(f"g{i}" for i in self.generators)
        self.alphabet = GeneratorAlphabet(len(names), names)

    def identity(self) -> int:
        return self.identity_index

    def letter(self, s: int) -> int:
        self.alphabet.check_letter(s)
        g = self.generators[abs(s) - 1]
        return g if s > 0 else self._inverses[g]

    def multiply(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inverse(self, g: int) -> int:
        return self._inverses[g]

    def descriptor(self) -> dict:
        return {
            "kind": "finite",
            "order": self.order,
            "table": self.table.tolist(),
            "identity": self.identity_index,
            "generators": list(self.generators),
        }


def _right_generators(table: np.ndarray, e: int) -> list[int]:
    """A set S whose right-multiplication closure from e is the whole table:
    the least element the closure misses joins S, greedily, until none is
    missed."""
    reached = np.zeros(len(table), dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(reached.argmin()))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            grown = reached.copy()
            grown[table[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(grown ^ reached)
            reached = grown
    return gens


def free_backend(rank: int = 2) -> FreeBackend:
    return FreeBackend(GeneratorAlphabet(rank))


def zpower_backend(dim: int = 1) -> ZPowerBackend:
    return ZPowerBackend(GeneratorAlphabet(dim))


def heisenberg_backend() -> HeisenbergBackend:
    return HeisenbergBackend(GeneratorAlphabet(2, ("x", "y")))


def finite_backend_from_json(doc: dict) -> FiniteBackend:
    """Load a finite group table from its JSON document:
    {"table": m x m indices, "identity": index}, optionally with "order": m
    and "generators": [indices].  Counts, indices and entries must be JSON
    integers; every rejection raises MalformedCertificateError."""
    table, identity = json_fields(doc, "group table document", "table", "identity")
    if type(table) is not list or not all(type(row) is list for row in table):
        raise MalformedCertificateError("table must be a JSON array of rows")
    json_ints(list(chain.from_iterable(table)), "table entries")
    if "order" in doc and json_int(doc["order"], "order") != len(table):
        raise MalformedCertificateError("declared order does not match table size")
    generators = doc.get("generators")
    if generators is not None:
        json_ints(generators, "generators")
    try:
        return FiniteBackend(table, json_int(identity, "identity"), generators)
    except (ValueError, OverflowError) as exc:  # not a group table, or entries beyond int64
        raise MalformedCertificateError(f"bad group table: {exc}") from exc


def backend_from_descriptor(desc: dict) -> GroupBackend:
    kind = desc["kind"]
    if kind == "free":
        return free_backend(json_int(desc["rank"], "rank", 1))
    if kind == "zpower":
        return zpower_backend(json_int(desc["dim"], "dim", 1))
    if kind == "heisenberg":
        return heisenberg_backend()
    if kind == "finite":
        return finite_backend_from_json(desc)
    raise ValueError(f"unknown backend kind {kind!r}")
