"""Reduction to the trivial word and its crossing-change accounting."""

import math

import pytest

from gordian import (
    BlockedByFreeStrand,
    BraidWord,
    DomainError,
    NoSingleGenerator,
    delete_link_subword,
    generator_support_check,
    reduce_single_generator,
    replay,
    torus_braid,
    unknot,
    unknotting_number,
    unknotting_sequence,
)
from gordian.unknotting import reduce_subword


class TestReduceSubword:
    def test_region_left_with_at_most_one_top_letter(self):
        word = BraidWord(3, (2, 1, 2, 1, 2, 1))
        trace = reduce_subword(word, 0, word.length, 2)
        final = replay(trace)
        assert final.letters.count(2) <= 1

    def test_steps_stay_inside_region(self):
        word = BraidWord(3, (2, 2, 1, 1, 2, 2))
        trace = reduce_subword(word, 0, 2, 2)
        final = replay(trace)
        assert final.letters[-4:] == (1, 1, 2, 2)
        assert trace.crossing_changes == 1

    def test_zero_level_region_untouched(self):
        word = BraidWord(3, (1, 2, 1))
        trace = reduce_subword(word, 1, 0, 0)
        assert not trace.steps

    def test_rejects_region_out_of_bounds(self):
        word = BraidWord(3, (1, 2, 1))
        with pytest.raises(DomainError):
            reduce_subword(word, 2, 5, 2)

    def test_rejects_letters_above_level(self):
        word = BraidWord(3, (1, 2, 1))
        with pytest.raises(DomainError):
            reduce_subword(word, 0, 3, 1)

    def test_costs_one_change_per_adjacent_pair(self):
        word = BraidWord(2, (1,) * 7)
        trace = reduce_subword(word, 0, 7, 1)
        assert trace.crossing_changes == 3
        assert replay(trace).letters == (1,)

    def test_braid_relation_merges_separated_pair_for_free(self):
        # σ2 σ1 σ2 has a single σ1 between the pair: no crossing change
        word = BraidWord(3, (2, 1, 2))
        trace = reduce_subword(word, 0, 3, 2)
        assert trace.crossing_changes == 0
        assert replay(trace).letters.count(2) == 1


class TestUnknot:
    def test_trefoil(self):
        trace = unknot(torus_braid(2, 3))
        assert replay(trace).length == 0
        assert trace.crossing_changes == 1

    def test_empty_word_trivial_trace(self):
        trace = unknot(BraidWord(1, ()))
        assert not trace.steps

    def test_torus_grid_costs_exactly_the_unknotting_number(self):
        for p in range(2, 6):
            for q in range(p + 1, 10):
                if math.gcd(p, q) != 1:
                    continue
                word = torus_braid(p, q)
                trace = unknot(word)
                assert replay(trace).length == 0, (p, q)
                assert trace.crossing_changes == (p - 1) * (q - 1) // 2, (p, q)

    def test_generic_knot_word(self):
        word = BraidWord(3, (1, 1, 2, 1, 2, 2, 1, 1))
        trace = unknot(word)
        assert replay(trace).length == 0
        assert trace.crossing_changes == unknotting_number(word)

    def test_split_link_blocked(self):
        # σ1 once on 3 strands: strand 3 is free and can never be shed
        with pytest.raises(BlockedByFreeStrand):
            unknot(BraidWord(3, (1,)))

    def test_cancelling_link_allowed(self):
        trace = unknot(BraidWord(2, (1, 1)))
        assert replay(trace).length == 0
        assert trace.crossing_changes == 1


class TestLongWords:
    """The reducer loops over a region instead of recursing per letter, so
    words far past the interpreter's recursion limit still reduce."""

    def test_t2_5001(self):
        trace = unknot(torus_braid(2, 5001))
        assert trace.crossing_changes == 2500
        assert replay(trace) == BraidWord(1, ())

    def test_t3_2500(self):
        word = torus_braid(3, 2500)
        assert word.length == 5000
        trace = unknot(word)
        assert trace.crossing_changes == 2499
        assert replay(trace) == BraidWord(1, ())

    def test_delete_long_identity_tail(self):
        tail = BraidWord(3, (1, 2) * 1250 + (2, 1) * 1250)
        cert = delete_link_subword(BraidWord(3, (1, 2, 1, 2)), tail)
        assert cert.claimed_cc == 2500
        assert replay(cert.trace) == BraidWord(3, (1, 2, 1, 2))


class TestUnknottingSequence:
    def test_lists_word_after_each_change(self):
        word = torus_braid(2, 5)
        trace = unknot(word)
        seq = unknotting_sequence(trace)
        assert seq[0] == word
        assert len(seq) == trace.crossing_changes + 1
        # successive entries drop in length by exactly 2
        for before, after in zip(seq, seq[1:]):
            assert before.length - after.length == 2

    def test_rejects_link_initial_word(self):
        trace = unknot(BraidWord(2, (1, 1)))
        with pytest.raises(DomainError):
            unknotting_sequence(trace)


class TestReduceSingleGenerator:
    def test_removes_and_shifts(self):
        word = BraidWord(4, (1, 3, 1, 2, 2))
        out = reduce_single_generator(word)
        assert out == BraidWord(3, (1, 1, 2, 2))

    def test_prefers_largest_index(self):
        # both σ1 and σ3 occur once; the top one goes first
        word = BraidWord(4, (1, 3, 2, 2))
        out = reduce_single_generator(word)
        assert out == BraidWord(3, (1, 2, 2))

    def test_interior_single_generator(self):
        word = BraidWord(3, (2, 1, 2, 2))
        out = reduce_single_generator(word)
        assert out == BraidWord(2, (1, 1, 1))

    def test_rejects_when_all_repeat(self):
        with pytest.raises(NoSingleGenerator):
            reduce_single_generator(BraidWord(3, (1, 1, 2, 2)))


class TestGeneratorSupport:
    def test_full_support(self):
        assert generator_support_check(BraidWord(3, (1, 2)))
        assert generator_support_check(BraidWord(1, ()))

    def test_missing_generator(self):
        assert not generator_support_check(BraidWord(3, (1, 1)))
        assert not generator_support_check(BraidWord(2, ()))
