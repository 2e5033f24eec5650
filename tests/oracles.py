"""Brute-force oracles: the census on plain letter tuples, and the Alexander
polynomial from full reduced Burau matrices with their own polynomial
arithmetic, sharing no code with ``gordian.alexander``."""

from gordian import BraidWord, LaurentPoly


def swap_orbit(letters: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every word reached from ``letters`` by any rotation and by any swap of
    two neighbouring letters whose indices differ by at least two."""
    orbit = {letters}
    stack = [letters]
    while stack:
        word = stack.pop()
        reached = [word[r:] + word[:r] for r in range(1, len(word))]
        reached += [
            word[:q] + (word[q + 1], word[q]) + word[q + 2 :]
            for q in range(len(word) - 1)
            if abs(word[q] - word[q + 1]) >= 2
        ]
        for other in reached:
            if other not in orbit:
                orbit.add(other)
                stack.append(other)
    return orbit


class OrbitLeast(dict):
    """Maps letters to the least word of their :func:`swap_orbit`, closing
    each orbit once for all its members."""

    def __missing__(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        orbit = swap_orbit(letters)
        least = min(orbit)
        self.update(dict.fromkeys(orbit, least))
        return least


# A polynomial in t is a dict {exponent: coefficient} of its nonzero terms.
Poly = dict[int, int]


def poly_add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    """a + sign·b."""
    total = dict(a)
    for e, c in b.items():
        total[e] = total.get(e, 0) + sign * c
    return {e: c for e, c in total.items() if c}


def poly_mul(a: Poly, b: Poly) -> Poly:
    product: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in product.items() if c}


def poly_divide(numerator: Poly, divisor: Poly) -> Poly:
    """Exact quotient, by long division from the top term; asserts that no
    remainder is left."""
    top = max(divisor)
    remainder, quotient = dict(numerator), {}
    while remainder:
        e = max(remainder)
        factor, rest = divmod(remainder[e], divisor[top])
        assert e >= top and not rest, "polynomial division left a remainder"
        quotient[e - top] = factor
        remainder = poly_add(remainder, poly_mul(divisor, {e - top: factor}), -1)
    return quotient


def normalized(poly: Poly) -> LaurentPoly:
    """The :class:`LaurentPoly` of ``poly`` times ±t^k: lowest exponent 0,
    lowest coefficient positive."""
    if not poly:
        return LaurentPoly(())
    low = min(poly)
    sign = 1 if poly[low] > 0 else -1
    return LaurentPoly(tuple(sorted((e - low, sign * c) for e, c in poly.items())))


def _reduced_burau_generator(index: int, strands: int) -> list[list[Poly]]:
    """Matrix of σ_index in the reduced Burau representation (columns are images)."""
    size = strands - 1
    matrix = [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]
    i = index  # 1-based generator index; basis vectors e_1 … e_{size}
    if i > 1:
        matrix[i - 1][i - 2] = {1: 1}
    matrix[i - 1][i - 1] = {1: -1}
    if i < size:
        matrix[i - 1][i] = {0: 1}
    return matrix


def _matmul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    size = len(a)
    result: list[list[Poly]] = [[{} for _ in range(size)] for _ in range(size)]
    for r in range(size):
        for k in range(size):
            if a[r][k]:
                for c in range(size):
                    if b[k][c]:
                        result[r][c] = poly_add(result[r][c], poly_mul(a[r][k], b[k][c]))
    return result


def _determinant(matrix: list[list[Poly]]) -> Poly:
    """Cofactor expansion with memoization over column subsets."""
    size = len(matrix)
    memo: dict[int, Poly] = {}

    def minor(row: int, mask: int) -> Poly:
        if row == size:
            return {0: 1}
        if mask not in memo:
            total: Poly = {}
            sign = 1
            for c in range(size):
                bit = 1 << c
                if not mask & bit:
                    continue
                if matrix[row][c]:
                    part = poly_mul(matrix[row][c], minor(row + 1, mask & ~bit))
                    total = poly_add(total, part, sign)
                sign = -sign
            memo[mask] = total
        return memo[mask]

    return minor(0, (1 << size) - 1)


def burau_product_alexander(word: BraidWord) -> LaurentPoly:
    """Oracle: multiply full reduced Burau matrices letter by letter, then
    solve det(I - ρ) · (1 - t) = Δ · (1 - t^n) by long division."""
    if word.strands == 1:
        return LaurentPoly(((0, 1),))
    size = word.strands - 1
    rho = [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]
    for letter in word.letters:
        rho = _matmul(rho, _reduced_burau_generator(letter, word.strands))
    i_minus_rho = [
        [poly_add({0: 1} if r == c else {}, rho[r][c], -1) for c in range(size)]
        for r in range(size)
    ]
    numerator = poly_mul(_determinant(i_minus_rho), {0: 1, 1: -1})
    return normalized(poly_divide(numerator, {0: 1, word.strands: -1}))
