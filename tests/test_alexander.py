"""Normalized polynomial values and the Alexander oracle."""

import importlib
import math

import pytest

from gordian import (
    BraidWord,
    DomainError,
    LaurentPoly,
    CONJUGATE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteStep,
    alexander,
    apply_step,
    torus_alexander,
    torus_braid,
)
from oracles import normalized, poly_mul


alexander_module = importlib.import_module("gordian.alexander")


class TestLaurentPoly:
    # The module computes on coefficient lists indexed by exponent:
    # _divide is its one exact division and _normalized the one way a list
    # becomes a LaurentPoly.
    def test_negative_exponents(self):
        assert str(LaurentPoly(((-2, 3),))) == "3*t^-2"

    def test_divide_exact(self):
        # (1 + t)(1 - t^2) / (1 - t^2) = 1 + t, and (1 - t^2) / (1 - t) = 1 + t
        assert alexander_module._divide([1, 1, -1, -1], 2) == [1, 1]
        assert alexander_module._divide([1, 0, -1], 1) == [1, 1]
        assert alexander_module._divide([], 3) == []

    def test_divide_exact_rejects_remainder(self):
        for coeffs, m in (([1, 1], 1), ([1], 2), ([0, 0, 1], 2)):
            with pytest.raises(DomainError, match="polynomial division left a remainder"):
                alexander_module._divide(coeffs, m)

    def test_normalized_form(self):
        # -t + t^2 - t^3 is a unit times 1 - t + t^2
        assert alexander_module._normalized([0, -1, 1, -1]).terms == ((0, 1), (1, -1), (2, 1))
        assert alexander_module._normalized([0, 0]).terms == ()

    def test_str_is_stable(self):
        assert str(LaurentPoly(((0, 1), (1, -1), (2, 1)))) == "1 - t + t^2"
        assert str(LaurentPoly(())) == "0"


class TestAlexander:
    def test_unknot_is_one(self):
        assert str(alexander(BraidWord(1, ()))) == "1"
        assert str(alexander(BraidWord(2, (1,)))) == "1"

    def test_trefoil(self):
        assert str(alexander(torus_braid(2, 3))) == "1 - t + t^2"

    def test_matches_torus_closed_form(self):
        for p in range(2, 6):
            for q in range(p + 1, 10):
                if math.gcd(p, q) != 1:
                    continue
                assert alexander(torus_braid(p, q)) == torus_alexander(p, q), (p, q)

    @pytest.mark.parametrize("p, q", [
        (2, 301), (3, 200), (4, 101), (5, 76), (9, 13), (2, 999), (3, 1000), (4, 257),
        (24, 25), (30, 31), (40, 41),
    ])
    def test_long_torus_words_match_closed_form(self, p, q):
        assert alexander(torus_braid(p, q)) == torus_alexander(p, q)

    def test_determinant_width_counts_the_diagonal(self):
        # ρ = (-127) fits 8-bit slots, but det(I - ρ) = 128 does not: the
        # width must bound the entries of I - ρ, not those of ρ.
        matrix = alexander_module._cofactor_matrix([[-127]], 8, 127)
        assert alexander_module._determinant(matrix) == [128]

    def test_short_words_read_back_only_the_determinant(self, monkeypatch):
        # (n-1)!(bound+1)^(n-1) fits 64-bit slots on a short word, so the
        # determinant width needs no unpack of ρ, which keeps census-size
        # words fast: the only unpack is that of det(I - ρ) itself.
        unpack = alexander_module._unpack
        widths = []

        def recording(value, bits):
            widths.append(bits)
            return unpack(value, bits)

        monkeypatch.setattr(alexander_module, "_unpack", recording)
        assert alexander(BraidWord(4, (1, 2, 3) * 5)) == torus_alexander(4, 5)
        assert widths == [64]

    def test_division_remainder_raises(self, monkeypatch):
        # det(I - ρ)(1 - t) is always divisible by 1 - t^n; a determinant
        # that is not must raise instead of being rounded into a polynomial.
        monkeypatch.setattr(alexander_module, "_determinant", lambda matrix: [1])
        with pytest.raises(DomainError, match="remainder"):
            alexander(BraidWord(3, (1, 2)))

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 7), (7, 1)])
    def test_torus_closed_form_of_an_unknot_is_one(self, p, q):
        # For T(1, 1) the numerator (1 - t)^2 has overlapping factors.
        assert str(torus_alexander(p, q)) == "1"

    def test_torus_closed_form_rejects_links(self):
        with pytest.raises(DomainError):
            torus_alexander(2, 4)

    def test_invariant_under_each_isotopy_rule(self):
        word = torus_braid(3, 5)
        base = alexander(word)
        assert alexander(apply_step(word, RewriteStep(CONJUGATE, amount=3))) == base
        braided = apply_step(word, RewriteStep(NEIGHBOR_BRAID, 1))
        assert alexander(braided) == base
        # distant swap needs a 4-strand example
        word4 = BraidWord(4, (1, 3, 2, 1, 3, 2, 1, 3, 2))
        assert alexander(apply_step(word4, RewriteStep(DISTANT_SWAP, 0))) == alexander(word4)

    def test_invariant_under_destabilize(self):
        word = BraidWord(3, (1, 1, 1, 2))
        assert alexander(apply_step(word, RewriteStep(DESTABILIZE))) == alexander(word)

    def test_granny_is_trefoil_squared(self):
        granny = BraidWord(3, (1, 1, 1, 2, 2, 2))
        trefoil = dict(alexander(torus_braid(2, 3)).terms)
        assert alexander(granny) == normalized(poly_mul(trefoil, trefoil))
        assert str(alexander(granny)) == "1 - 2*t + 3*t^2 - 2*t^3 + t^4"

