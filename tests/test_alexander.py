"""Laurent polynomial arithmetic and the Alexander oracle."""

import importlib
import math

import pytest

from gordian import (
    BraidWord,
    DomainError,
    LaurentPoly,
    alexander,
    apply_conjugate,
    apply_destabilize,
    apply_distant_swap,
    apply_neighbor_braid,
    torus_alexander,
    torus_braid,
)


class TestLaurentPoly:
    def test_addition_cancels(self):
        p = LaurentPoly.monomial(2) + LaurentPoly.monomial(2, -1)
        assert p.is_zero

    def test_multiplication(self):
        # (t - 1)(t + 1) = t^2 - 1
        t = LaurentPoly.monomial(1)
        one = LaurentPoly.one()
        assert (t - one) * (t + one) == LaurentPoly.from_dict({2: 1, 0: -1})

    def test_negative_exponents(self):
        p = LaurentPoly.monomial(-2, 3)
        assert p.min_exponent == -2
        assert str(p) == "3*t^-2"

    def test_divide_exact(self):
        # (t^2 - 1) / (t - 1) = t + 1
        t = LaurentPoly.monomial(1)
        one = LaurentPoly.one()
        quotient = ((t * t) - one).divide_exact(t - one)
        assert quotient == t + one

    def test_divide_exact_rejects_remainder(self):
        t = LaurentPoly.monomial(1)
        one = LaurentPoly.one()
        with pytest.raises(DomainError):
            (t + one).divide_exact(t - one)

    def test_normalized_form(self):
        p = LaurentPoly.from_dict({-1: -1, 0: 1, 1: -1}).normalized()
        assert p.min_exponent == 0
        assert p.terms[0][1] > 0

    def test_str_is_stable(self):
        p = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
        assert str(p) == "1 - t + t^2"


class TestAlexander:
    def test_unknot_is_one(self):
        assert alexander(BraidWord(1, ())) == LaurentPoly.one()
        assert alexander(BraidWord(2, (1,))) == LaurentPoly.one()

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
    ])
    def test_long_torus_words_match_closed_form(self, p, q):
        assert alexander(torus_braid(p, q)) == torus_alexander(p, q)

    def test_determinant_width_counts_the_diagonal(self):
        # ρ = (-127) fits 8-bit slots, but det(I - ρ) = 128 does not: the
        # width must bound the entries of I - ρ, not those of ρ.
        module = importlib.import_module("gordian.alexander")
        assert module._determinant(module._cofactor_matrix([[-127]], 8, 127)) == [128]

    def test_short_words_read_back_only_the_determinant(self, monkeypatch):
        # (n-1)!(bound+1)^(n-1) fits 64-bit slots on a short word, so the
        # determinant width needs no unpack of ρ, which keeps census-size
        # words fast: the only unpack is that of det(I - ρ) itself.
        module = importlib.import_module("gordian.alexander")
        unpack = module._unpack
        widths = []

        def recording(value, bits):
            widths.append(bits)
            return unpack(value, bits)

        monkeypatch.setattr(module, "_unpack", recording)
        assert alexander(BraidWord(4, (1, 2, 3) * 5)) == torus_alexander(4, 5)
        assert widths == [64]

    def test_division_remainder_raises(self, monkeypatch):
        # det(I - ρ)(1 - t) is always divisible by 1 - t^n; a determinant
        # that is not must raise instead of being rounded into a polynomial.
        module = importlib.import_module("gordian.alexander")
        monkeypatch.setattr(module, "_determinant", lambda matrix: [1])
        with pytest.raises(DomainError, match="remainder"):
            alexander(BraidWord(3, (1, 2)))

    def test_torus_closed_form_rejects_links(self):
        with pytest.raises(DomainError):
            torus_alexander(2, 4)

    def test_invariant_under_each_isotopy_rule(self):
        word = torus_braid(3, 5)
        base = alexander(word)
        assert alexander(apply_conjugate(word, 3)) == base
        braided = apply_neighbor_braid(word, 1)
        assert alexander(braided) == base
        # distant swap needs a 4-strand example
        word4 = BraidWord(4, (1, 3, 2, 1, 3, 2, 1, 3, 2))
        assert alexander(apply_distant_swap(word4, 0)) == alexander(word4)

    def test_invariant_under_destabilize(self):
        word = BraidWord(3, (1, 1, 1, 2))
        assert alexander(apply_destabilize(word)) == alexander(word)

    def test_granny_is_trefoil_squared(self):
        granny = BraidWord(3, (1, 1, 1, 2, 2, 2))
        trefoil = alexander(torus_braid(2, 3))
        assert alexander(granny) == (trefoil * trefoil).normalized()

