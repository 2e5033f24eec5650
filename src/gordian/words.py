"""Positive braid words, their closures, and unknotting-number accounting.

A positive braid word on ``n`` strands is a finite sequence of generators
``σ_1, …, σ_{n-1}``, stored here as 1-based integer letters together with an
explicit strand count.  The strand count is part of the data: the same letter
sequence on more strands closes to a different link (extra strands close to
split unknot components).

Closing a braid joins the top of strand ``i`` to the bottom of strand ``i``.
The number of link components of the closure equals the number of cycles of
the word's permutation (each ``σ_i`` acting as the transposition ``(i i+1)``).

For a *knot* (one component) the closure of a positive braid word realizes its
genus by Bennequin, and genus equals unknotting number for positive braid
knots, giving the exact accounting used throughout this package::

    u(closure) = (length - strands + 1) / 2

The torus family: ``torus_braid(p, q)`` is ``(σ_{p-1} σ_{p-2} ⋯ σ_1)^q`` on
``p`` strands, whose closure is the torus link T(p, q) — a knot exactly when
gcd(p, q) = 1, with ``u(T(p,q)) = (p-1)(q-1)/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, ParseError

__all__ = [
    "BraidWord",
    "TorusParams",
    "ClosureInfo",
    "parse_word",
    "format_word",
    "torus_braid",
    "closure_info",
    "is_knot",
    "unknotting_number",
    "descending_run",
    "ascending_run",
]


@dataclass(frozen=True)
class BraidWord:
    """An immutable positive braid word: a strand count and 1-based letters."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.strands, int) or self.strands < 1:
            raise DomainError(f"strand count must be a positive integer, got {self.strands!r}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for pos, letter in enumerate(letters):
            if not isinstance(letter, int) or not (1 <= letter <= self.strands - 1):
                raise DomainError(
                    f"letter {letter!r} at position {pos} is outside 1..{self.strands - 1}"
                )

    @classmethod
    def _trusted(cls, strands: int, letters: tuple[int, ...]) -> BraidWord:
        """Build a word without re-checking its letters.

        Only for letters inside ``1..strands-1`` by construction: the
        rewriting rules keep them there, the census walk draws them from
        that range, and :func:`parse_word` has checked their least and
        greatest; checking again would cost O(length) per word.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "strands", strands)
        object.__setattr__(word, "letters", letters)
        return word

    @property
    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class TorusParams:
    """Parameters (p, q) of a torus-family braid: ``(σ_{p-1}⋯σ_1)^q`` on p strands."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise DomainError(f"torus parameters must be >= 1, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class ClosureInfo:
    """Closure data of a braid word.

    ``permutation`` maps strand ``i`` (1-based, at index ``i-1``) to its image
    under the word read left to right.  ``cycles`` lists the permutation's
    cycles (including fixed points), each rotated to start at its minimum and
    sorted by that minimum — the closure's components.
    """

    permutation: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    components: int = field(init=False)
    is_knot: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "components", len(self.cycles))
        object.__setattr__(self, "is_knot", len(self.cycles) == 1)


def format_word(word: BraidWord) -> str:
    """Render a word as ``"n: i1 i2 …"`` (the empty word renders as ``"n:"``)."""
    if not word.letters:
        return f"{word.strands}:"
    return f"{word.strands}: " + " ".join(str(k) for k in word.letters)


def parse_word(text: str) -> BraidWord:
    """Parse ``"n: i1 i2 …"`` into a :class:`BraidWord`.

    Raises :class:`ParseError` on malformed text or out-of-range letters,
    with the messages of the :class:`BraidWord` constructor, which checks a
    word that fails the range check of its least and greatest letter.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"expected 'n: letters', got {text!r}")
    try:
        strands = int(head.strip())
    except ValueError:
        raise ParseError(f"strand count {head.strip()!r} is not an integer") from None
    try:
        letters = tuple(map(int, tail.split()))
    except ValueError:
        raise ParseError(f"letters must be integers, got {tail.strip()!r}") from None
    if strands >= 1 and (not letters or 1 <= min(letters) and max(letters) < strands):
        return BraidWord._trusted(strands, letters)
    try:
        return BraidWord(strands, letters)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def descending_run(m: int) -> tuple[int, ...]:
    """The descending run ``σ_m σ_{m-1} ⋯ σ_1`` (empty for m = 0)."""
    return tuple(range(m, 0, -1))


def ascending_run(m: int) -> tuple[int, ...]:
    """The ascending run ``σ_1 σ_2 ⋯ σ_m`` (empty for m = 0)."""
    return tuple(range(1, m + 1))


def torus_braid(p: int, q: int) -> BraidWord:
    """The torus-family word ``(σ_{p-1}⋯σ_1)^q`` on ``p`` strands.

    ``p = 1`` gives the empty word on one strand (the unknot) for any q.
    """
    params = TorusParams(p, q)
    return BraidWord(params.p, descending_run(params.p - 1) * params.q)


def closure_info(word: BraidWord) -> ClosureInfo:
    """Permutation, cycles, and component count of the word's closure."""
    perm = list(range(1, word.strands + 1))
    for letter in word.letters:
        perm[letter - 1], perm[letter] = perm[letter], perm[letter - 1]
    # perm was built by tracking positions; read off images strand by strand.
    image = [0] * word.strands
    for position, strand in enumerate(perm, start=1):
        image[strand - 1] = position
    cycles = []
    seen = [False] * word.strands
    for start in range(1, word.strands + 1):
        if seen[start - 1]:
            continue
        cycle = []
        current = start
        while not seen[current - 1]:
            seen[current - 1] = True
            cycle.append(current)
            current = image[current - 1]
        cycles.append(tuple(cycle))
    return ClosureInfo(permutation=tuple(image), cycles=tuple(cycles))


def is_knot(word: BraidWord) -> bool:
    """True when the closure has exactly one component.

    Tracks positions as :func:`closure_info` does, then walks only the cycle
    through strand 1: the closure is a knot when that cycle has every strand.
    """
    strands = word.strands
    perm = list(range(strands))
    for letter in word.letters:
        perm[letter - 1], perm[letter] = perm[letter], perm[letter - 1]
    cycle = 1
    current = perm[0]
    while current:
        current = perm[current]
        cycle += 1
    return cycle == strands


def unknotting_number(word: BraidWord) -> int:
    """``(length - strands + 1) / 2`` for a knot closure.

    Rejects links, and (defensively) any word where the count fails to be a
    non-negative even integer — which cannot happen for knots, since each
    letter is a transposition and a one-cycle permutation forces
    ``length ≡ strands - 1 (mod 2)``.
    """
    if not is_knot(word):
        raise DomainError("unknotting number is defined here only for knot closures")
    twice = word.length - word.strands + 1
    if twice < 0 or twice % 2 != 0:
        raise DomainError(f"inconsistent accounting: length {word.length} on {word.strands} strands")
    return twice // 2

