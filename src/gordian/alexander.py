"""Alexander polynomials of braid closures, with exact integer arithmetic.

Two independent routes are provided and cross-checked in the tests:

* ``alexander(word)`` evaluates the reduced Burau representation ρ(w) of the
  word one letter at a time: σ_i changes only three columns of ρ, so each
  letter costs O(strands) polynomial additions, never a matrix product.  It
  then applies the determinant formula

      det(I - ρ(w)) · (1 - t) = Δ(t) · (1 - t^n)

  solving for Δ with exact division by 1 - t^n.  A positive word needs only
  Z[t], and each polynomial is held as one integer, its value at t = 2^b
  (Kronecker substitution), so sums, shifts by t and products run in
  CPython's integer code.  The value is exact; reading the coefficients back
  is exact while every coefficient lies below 2^(b-1) in absolute value.  A
  letter at most doubles the largest L1 norm of an entry of ρ, so a bound
  that doubles per letter says when to unpack, measure the exact norms and,
  if needed, widen the slots; the determinant's slot width comes from a
  bound on the coefficients of det(I - ρ).

* ``torus_alexander(p, q)`` evaluates the closed form for torus knots,

      Δ(T(p,q)) = (1 - t^{pq})(1 - t) / ((1 - t^p)(1 - t^q)),

  dividing by 1 - t^p and then by 1 - t^q.

Inside the module a polynomial is a list of coefficients indexed by
exponent, and both routes share one exact division by 1 - t^m: any nonzero
remainder raises :class:`DomainError`, never rounded away.  Both return a
:class:`LaurentPoly`, *normalized*: multiplied by ±t^k so that the lowest
exponent is 0 and the lowest coefficient is positive.  Alexander polynomials
are only ever defined up to such units, so normalized equality is the right
comparison.

Everything here is integer-exact; no floating point is involved anywhere.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .errors import DomainError
from .words import BraidWord

__all__ = [
    "LaurentPoly",
    "alexander",
    "torus_alexander",
]


@dataclass(frozen=True)
class LaurentPoly:
    """A normalized Alexander polynomial, compared and hashed as a value.

    ``terms`` are the (exponent, coefficient) pairs with nonzero coefficient,
    sorted by exponent; the lowest exponent is 0 and its coefficient is
    positive, and the zero polynomial has no terms.
    """

    terms: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for e, c in self.terms:
            magnitude = abs(c)
            if e == 0:
                body = str(magnitude)
            else:
                power = "t" if e == 1 else f"t^{e}"
                body = power if magnitude == 1 else f"{magnitude}*{power}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def _normalized(coeffs: list[int]) -> LaurentPoly:
    """The polynomial with these coefficients (index = exponent) times ±t^-k,
    so that its lowest exponent is 0 and its lowest coefficient positive."""
    terms = [(e, c) for e, c in enumerate(coeffs) if c]
    if not terms:
        return LaurentPoly(())
    low, sign = terms[0][0], (1 if terms[0][1] > 0 else -1)
    return LaurentPoly(tuple((e - low, sign * c) for e, c in terms))


def _divide(coeffs: list[int], m: int) -> list[int]:
    """Coefficients of the exact quotient of this polynomial by 1 - t^m.

    Dividing from the constant term up leaves the quotient in the low
    coefficients; the top m must come out zero, or :class:`DomainError`.
    """
    quotient = list(coeffs)
    for e in range(m, len(quotient)):
        quotient[e] += quotient[e - m]
    split = max(len(quotient) - m, 0)
    if any(quotient[split:]):
        raise DomainError("polynomial division left a remainder")
    return quotient[:split]


# Slot width of the Burau pass before any widening.  Every width is a
# multiple of 8, so each slot is whole bytes of the integer.
_START_BITS = 64


def _halves(slots: int, width: int) -> int:
    """The integer with a top bit alone in each of ``slots`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(coeffs: list[int], bits: int) -> int:
    """Value at t = 2^bits of the polynomial with these coefficients.

    Each slot is first written in two's complement; flipping its top bit adds
    2^(bits-1) to the slot and removes the borrows, and subtracting the
    halves takes that offset off again.  Linear time in the number of slots.
    """
    width = bits // 8
    raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    half = _halves(len(coeffs), width)
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, bits: int) -> list[int]:
    """Inverse of :func:`_pack`, trailing zeros trimmed.

    Exact when every coefficient has absolute value below 2^(bits-1): adding
    the halves makes every slot a digit in [0, 2^bits), flipping the top bit
    of each slot turns it into the coefficient's two's complement.  With the
    top coefficient nonzero, |value| > 2^(bits·(k-1) - 1) for k slots, so
    bit_length // bits + 1 slots always suffice.
    """
    if not value:
        return []
    width = bits // 8
    slots = value.bit_length() // bits + 1
    half = _halves(slots, width)
    raw = ((value + half) ^ half).to_bytes(slots * width, "little")
    if width == 8:  # the common width, read by struct in one call
        coeffs = list(struct.unpack(f"<{slots}q", raw))
    else:
        coeffs = [int.from_bytes(raw[i:i + width], "little", signed=True)
                  for i in range(0, len(raw), width)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _determinant(matrix: tuple[list[list[int]], int]) -> list[int]:
    """Coefficients of the determinant of a matrix of values at t = 2^bits.

    ``matrix`` is (rows, bits), with ``bits`` wide enough for every
    coefficient of the determinant.  The cofactor expansion is memoized over
    column subsets: row ``r`` is expanded only under masks of ``size - r``
    columns, so the memo holds one entry per column subset reachable from
    the full set, up to 2^size entries, each built from at most ``size``
    products.
    """
    rows, bits = matrix
    size = len(rows)
    memo: dict[int, int] = {}

    def minor(row: int, mask: int) -> int:
        if row == size:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        negate = False
        for c in range(size):
            bit = 1 << c
            if not mask & bit:
                continue
            entry = rows[row][c]
            if entry:
                term = entry * minor(row + 1, mask ^ bit)
                total = total - term if negate else total + term
            negate = not negate
        memo[mask] = total
        return total

    return _unpack(minor(0, (1 << size) - 1), bits)


def _remeasure(rho: list[list[int]], bits: int) -> tuple[int, int]:
    """Unpack every entry, widen the slots if needed, return (bits, exact bound).

    The slots double once the largest L1 norm passes bits/4 bits, which
    leaves room for about 3·bits/4 more letters before the next unpack.
    """
    coeffs = [[_unpack(x, bits) for x in row] for row in rho]
    bound = max(sum(map(abs, entry)) for row in coeffs for entry in row)
    wide = bits
    while bound.bit_length() > wide // 4:
        wide *= 2
    if wide != bits:
        for row, entries in zip(rho, coeffs):
            row[:] = [_pack(entry, wide) for entry in entries]
    return wide, bound


def _cofactor_matrix(rho: list[list[int]], bits: int, bound: int) -> tuple[list[list[int]], int]:
    """I - ρ at a slot width wide enough for every coefficient of det(I - ρ).

    Every entry of ρ has L1 norm at most ``bound`` < 2^(bits-1), so every
    entry of I - ρ at most bound + 1, and each of the (n-1)! products of the
    determinant expansion at most (bound + 1)^(n-1).  That test needs no
    unpack, which keeps short words fast.  When it does not fit ``bits``, ρ
    is unpacked instead: the product of the exact row L1 norms of
    I - ρ bounds the sum over all permutations, and I - ρ is repacked at the
    width it needs unless ``bits`` already holds it.
    """
    size = len(rho)
    matrix = [[(r == c) - x for c, x in enumerate(row)] for r, row in enumerate(rho)]
    if math.factorial(size) * (bound + 1) ** size < 1 << (bits - 1):
        return matrix, bits
    rows = [[[-a for a in _unpack(x, bits)] for x in row] for row in rho]
    for r, row in enumerate(rows):
        entry = row[r] or [0]
        row[r] = [entry[0] + 1, *entry[1:]]
    # A zero row counts as 1, so the product also bounds every entry's
    # coefficients and the repacking cannot overflow a slot.
    product = math.prod(max(sum(sum(map(abs, entry)) for entry in row), 1) for row in rows)
    wide = -(-(product.bit_length() + 1) // 8) * 8
    if wide <= bits:
        return matrix, bits
    return [[_pack(entry, wide) for entry in row] for row in rows], wide


def alexander(word: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the word's closure via reduced Burau.

    Each entry of ρ(w) is held as its value at t = 2^bits (a positive word has
    no negative powers of t).  Right-multiplying by σ_i changes only columns
    r - 1, r, r + 1 (r = i - 1) of each row: with x = row[r], row[r-1] += t·x,
    row[r+1] += x and row[r] = -t·x.  Such a letter at most doubles the
    largest L1 norm of an entry, so ``bound`` doubles per letter; before it can
    reach 2^(bits-1) every entry is unpacked, which that bound makes exact,
    and the bound restarts from the exact norms.
    """
    size = word.strands - 1
    bits = _START_BITS
    rho = [[int(r == c) for c in range(size)] for r in range(size)]
    bound = 1
    for letter in word.letters:
        if bound >= 1 << (bits - 2):
            bits, bound = _remeasure(rho, bits)
        bound <<= 1
        r = letter - 1
        for row in rho:
            x = row[r]
            if not x:
                continue
            shifted = x << bits
            if r > 0:
                row[r - 1] += shifted
            if r + 1 < size:
                row[r + 1] += x
            row[r] = -shifted
    det = _determinant(_cofactor_matrix(rho, bits, bound))
    # det(I - ρ) · (1 - t) = Δ · (1 - t^n).
    return _normalized(_divide([a - b for a, b in zip(det + [0], [0] + det)], word.strands))


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Closed-form normalized Alexander polynomial of the torus knot T(p, q)."""
    if p < 1 or q < 1:
        raise DomainError(f"torus parameters must be >= 1, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise DomainError(f"T({p}, {q}) is a link, not a knot")
    # (1 - t^pq)(1 - t), as a product: for pq = 1 the two factors overlap.
    top = [1] + [0] * (p * q - 1) + [-1]
    numerator = [a - b for a, b in zip(top + [0], [0] + top)]
    return _normalized(_divide(_divide(numerator, p), q))
