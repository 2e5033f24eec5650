"""Core word and closure behavior."""

import pytest

from gordian import (
    BraidWord,
    DomainError,
    ParseError,
    TorusParams,
    parse_word,
    torus_braid,
    unknotting_number,
)
from gordian.words import ClosureInfo, ascending_run, closure_info, descending_run, format_word, is_knot


class TestBraidWord:
    def test_valid_word(self):
        word = BraidWord(3, (1, 2, 1))
        assert word.strands == 3
        assert word.length == 3

    def test_empty_word_on_one_strand(self):
        word = BraidWord(1, ())
        assert word.length == 0

    def test_letters_must_fit_strand_count(self):
        with pytest.raises(DomainError):
            BraidWord(2, (2,))

    def test_letters_must_be_positive(self):
        with pytest.raises(DomainError):
            BraidWord(3, (0,))

    def test_strands_must_be_positive(self):
        with pytest.raises(DomainError):
            BraidWord(0, ())

    def test_equality_includes_strands(self):
        assert BraidWord(2, (1,)) != BraidWord(3, (1,))


class TestFormatParse:
    def test_round_trip(self):
        word = BraidWord(4, (3, 2, 1, 3))
        assert parse_word(format_word(word)) == word

    def test_empty_round_trip(self):
        word = BraidWord(1, ())
        assert format_word(word) == "1:"
        assert parse_word("1:") == word

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_word("no colon here")

    def test_parse_rejects_bad_letters(self):
        with pytest.raises((ParseError, DomainError)):
            parse_word("2: 5")


class TestRuns:
    def test_descending_run(self):
        assert descending_run(3) == (3, 2, 1)
        assert descending_run(0) == ()

    def test_ascending_run(self):
        assert ascending_run(3) == (1, 2, 3)
        assert ascending_run(0) == ()


class TestTorusBraid:
    def test_trefoil(self):
        assert torus_braid(2, 3) == BraidWord(2, (1, 1, 1))

    def test_general_shape(self):
        word = torus_braid(3, 4)
        assert word.strands == 3
        assert word.letters == (2, 1) * 4

    def test_one_strand(self):
        assert torus_braid(1, 5) == BraidWord(1, ())

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            torus_braid(0, 3)


class TestClosure:
    def test_trefoil_is_knot(self):
        info = closure_info(torus_braid(2, 3))
        assert isinstance(info, ClosureInfo)
        assert info.components == 1
        assert info.is_knot

    def test_torus_link_components(self):
        # T(2,4) closes to a 2-component link
        assert closure_info(BraidWord(2, (1, 1, 1, 1))).components == 2
        assert not is_knot(BraidWord(2, (1, 1, 1, 1)))

    def test_identity_word_components(self):
        assert closure_info(BraidWord(3, ())).components == 3

    def test_permutation_of_single_generator(self):
        info = closure_info(BraidWord(3, (1,)))
        assert info.permutation == (2, 1, 3)

    def test_cycles_sorted_by_minimum(self):
        info = closure_info(BraidWord(4, (3,)))
        assert info.cycles[0][0] == 1


class TestUnknottingNumber:
    def test_formula(self):
        # u = (length - strands + 1) / 2
        assert unknotting_number(torus_braid(2, 3)) == 1
        assert unknotting_number(torus_braid(3, 4)) == 3
        assert unknotting_number(BraidWord(1, ())) == 0

    def test_rejects_links(self):
        with pytest.raises(DomainError):
            unknotting_number(BraidWord(2, (1, 1)))

    def test_agreement_on_torus_words(self):
        import math

        for p in range(2, 6):
            for q in range(p + 1, 8):
                if math.gcd(p, q) != 1:
                    continue
                assert unknotting_number(torus_braid(p, q)) == (p - 1) * (q - 1) // 2
