"""Freely reduced words over a finite symmetric generator alphabet.

A word is a tuple of nonzero signed integers: ``+i`` is the i-th generator
(1-based), ``-i`` its formal inverse.  All public functions keep words freely
reduced, i.e. no adjacent pair ``(s, -s)`` survives.
"""

from dataclasses import dataclass
from typing import Iterable

Word = tuple[int, ...]

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GeneratorAlphabet:
    """A finite generating alphabet; the working symmetric set is each
    generator together with its formal inverse, identity excluded."""

    rank: int
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        names = self.names
        if not names:
            if self.rank > len(_DEFAULT_NAMES):
                raise ValueError("explicit names required for rank > 26")
            names = tuple(_DEFAULT_NAMES[: self.rank])
            object.__setattr__(self, "names", names)
        if len(names) != self.rank:
            raise ValueError("names length must equal rank")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be pairwise distinct")
        for name in names:
            if not name or not name.isprintable() or " " in name or name.endswith("'"):
                raise ValueError(f"invalid generator name: {name!r}")

    def letter_name(self, letter: int) -> str:
        """Printable form of a signed letter; inverses carry a trailing '."""
        self.check_letter(letter)
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name + "'"

    def check_letter(self, letter: int) -> None:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter!r} outside alphabet of rank {self.rank}")

    def signed_letters(self) -> list[int]:
        """All signed letters in canonical order: generators first (by index),
        then inverses.  This order fixes all downstream determinism."""
        return list(range(1, self.rank + 1)) + list(range(-1, -self.rank - 1, -1))


def reduce_word(letters: Iterable[int], rank: int | None = None) -> Word:
    """Freely reduce a spelling; idempotent, length-minimal among
    equivalent unreduced spellings of the same free-group element."""
    stack: list[int] = []
    for s in letters:
        if not isinstance(s, int) or s == 0:
            raise ValueError(f"invalid letter {s!r}")
        if rank is not None and abs(s) > rank:
            raise ValueError(f"letter {s} outside alphabet of rank {rank}")
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def word_inverse(word: Word) -> Word:
    return tuple(-s for s in reversed(word))


def word_to_str(alphabet: GeneratorAlphabet, word: Word) -> str:
    """Space-separated canonical syntax; the empty word renders as ''."""
    return " ".join(alphabet.letter_name(s) for s in word)


def word_from_str(alphabet: GeneratorAlphabet, text: str) -> Word:
    """Parse the canonical word syntax: letters as names, inverses as
    name + \"'\"; 'e' and the empty string denote the identity."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for token in text.split():
        sign = 1
        if token.endswith("'"):
            sign = -1
            token = token[:-1]
        try:
            idx = alphabet.names.index(token) + 1
        except ValueError:
            raise ValueError(f"unknown generator name {token!r}") from None
        letters.append(sign * idx)
    return reduce_word(letters)
