"""Alexander polynomials of braid closures, with exact integer arithmetic.

Two independent routes are provided and cross-checked in the tests:

* ``alexander(word)`` evaluates the reduced Burau representation ρ(w) of the
  word (a positive word needs only Z[t], held as dense coefficient lists)
  one letter at a time: σ_i changes only three columns of ρ, so each letter
  costs O(strands) polynomial additions, never a matrix product.  It then
  applies the determinant formula

      det(I - ρ(w)) = Δ(t) · (1 - t^n) / (1 - t)

  solving for Δ with exact polynomial division.

* ``torus_alexander(p, q)`` evaluates the closed form for torus knots,

      Δ(T(p,q)) = (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

  again by exact division — any nonzero remainder is a bug, never rounded away.

Both return a *normalized* Laurent polynomial: multiplied by ±t^k so that the
lowest exponent is 0 and the lowest coefficient is positive.  Alexander
polynomials are only ever defined up to such units, so normalized equality is
the right comparison.

Everything here is integer-exact; no floating point is involved anywhere.
"""

from __future__ import annotations

import math
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
    """An integer Laurent polynomial, stored as sorted (exponent, coefficient) pairs."""

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(coeffs: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "LaurentPoly":
        if coefficient == 0:
            return LaurentPoly(())
        return LaurentPoly(((exponent, coefficient),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly.from_dict(coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(coeffs)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

    @property
    def min_exponent(self) -> int:
        if self.is_zero:
            raise DomainError("the zero polynomial has no exponents")
        return self.terms[0][0]

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises :class:`DomainError` on a nonzero remainder."""
        if divisor.is_zero:
            raise DomainError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        shift = self.min_exponent - divisor.min_exponent
        remainder = dict(self.shifted(-self.min_exponent).terms)
        div_terms = divisor.shifted(-divisor.min_exponent).terms
        lead_exp, lead_coeff = div_terms[-1]
        quotient: dict[int, int] = {}
        while remainder:
            rem_exp = max(remainder)
            rem_coeff = remainder[rem_exp]
            if rem_exp < lead_exp or rem_coeff % lead_coeff != 0:
                raise DomainError("polynomial division left a remainder")
            factor = rem_coeff // lead_coeff
            at = rem_exp - lead_exp
            quotient[at] = factor
            for e, c in div_terms:
                key = e + at
                value = remainder.get(key, 0) - factor * c
                if value:
                    remainder[key] = value
                else:
                    remainder.pop(key, None)
        return LaurentPoly.from_dict(quotient).shifted(shift)

    def normalized(self) -> "LaurentPoly":
        """Multiply by ±t^k so the lowest exponent is 0 with positive coefficient."""
        if self.is_zero:
            return self
        shifted = self.shifted(-self.min_exponent)
        if shifted.terms[0][1] < 0:
            shifted = -shifted
        return shifted

    def __str__(self) -> str:
        if self.is_zero:
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


def _add_into(acc: list[int], poly: list[int], shift: int = 0) -> None:
    """``acc += t^shift · poly`` on dense coefficient lists, trailing zeros trimmed."""
    need = len(poly) + shift
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for e, c in enumerate(poly, shift):
        acc[e] += c
    while acc and not acc[-1]:
        acc.pop()


def _determinant(matrix: list[list[list[int]]]) -> list[int]:
    """Cofactor expansion on dense coefficient lists, memoized over column subsets.

    Row ``r`` is expanded only under masks of ``size - r`` columns, so the memo
    holds one entry per column subset reachable from the full set: up to
    2^size entries, each built from at most ``size`` products.
    """
    size = len(matrix)
    memo: dict[int, list[int]] = {}

    def minor(row: int, mask: int) -> list[int]:
        if row == size:
            return [1]
        cached = memo.get(mask)
        if cached is not None:
            return cached
        total: list[int] = []
        sign = 1
        for c in range(size):
            bit = 1 << c
            if not mask & bit:
                continue
            entry = matrix[row][c]
            sub = minor(row + 1, mask & ~bit) if entry else None
            if sub:
                need = len(entry) + len(sub) - 1
                if len(total) < need:
                    total.extend([0] * (need - len(total)))
                for e, a in enumerate(entry):
                    if a:
                        a *= sign
                        for f, b in enumerate(sub, e):
                            total[f] += a * b
            sign = -sign
        while total and not total[-1]:
            total.pop()
        memo[mask] = total
        return total

    return minor(0, (1 << size) - 1)


def alexander(word: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the word's closure via reduced Burau.

    ρ(w) is kept as rows of dense coefficient lists indexed by exponent (a
    positive word has no negative powers of t).  Right-multiplying by σ_i
    changes only columns r - 1, r, r + 1 (r = i - 1) of each row: with
    x = row[r], row[r-1] += t·x, row[r+1] += x and row[r] = -t·x.
    """
    if word.strands == 1:
        return LaurentPoly.one()
    size = word.strands - 1
    rho = [[[1] if r == c else [] for c in range(size)] for r in range(size)]
    for letter in word.letters:
        r = letter - 1
        for row in rho:
            x = row[r]
            if not x:
                continue
            if r > 0:
                _add_into(row[r - 1], x, 1)
            if r + 1 < size:
                _add_into(row[r + 1], x)
            row[r] = [0] + [-c for c in x]
    i_minus_rho = [[[-c for c in entry] for entry in row] for row in rho]
    for r in range(size):
        _add_into(i_minus_rho[r][r], [1])
    det = _determinant(i_minus_rho)
    # det(I - ρ) · (1 - t) = Δ · (1 - t^n).  Dividing from the constant term
    # up leaves Δ in the low coefficients; the top n must come out zero.
    n = word.strands
    quotient = [a - b for a, b in zip(det + [0], [0] + det)]
    for e in range(n, len(quotient)):
        quotient[e] += quotient[e - n]
    split = max(len(quotient) - n, 0)
    if any(quotient[split:]):
        raise DomainError("polynomial division left a remainder")
    return LaurentPoly.from_dict(dict(enumerate(quotient[:split]))).normalized()


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Closed-form normalized Alexander polynomial of the torus knot T(p, q)."""
    if p < 1 or q < 1:
        raise DomainError(f"torus parameters must be >= 1, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise DomainError(f"T({p}, {q}) is a link, not a knot")
    one = LaurentPoly.one()
    numerator = (LaurentPoly.monomial(p * q) - one) * (LaurentPoly.monomial(1) - one)
    denominator = (LaurentPoly.monomial(p) - one) * (LaurentPoly.monomial(q) - one)
    return numerator.divide_exact(denominator).normalized()
