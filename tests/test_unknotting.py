"""Reduction to the trivial word and its crossing-change accounting."""

import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gordian import (
    BlockedByFreeStrand,
    BraidWord,
    DomainError,
    NoSingleGenerator,
    TraceBuilder,
    alexander,
    delete_link_subword,
    parse_word,
    reduce_single_generator,
    replay,
    torus_braid,
    unknot,
    unknotting_number,
    unknotting_sequence,
)
from gordian import unknotting
from gordian.unknotting import _reduce
from gordian.words import ascending_run, descending_run, is_knot
from test_adjacency import step_lines


def reduce_recursive(tb: TraceBuilder, start: int, length: int, n: int) -> int:
    """Oracle: the same reduction written recursively, one Python call per
    level; ``_reduce`` must emit the same steps in the same order."""
    if n == 0:
        return length
    end = start + length
    letters = tb.letters
    for s in range(end - 2, start - 1, -1):
        if letters[s] != n:
            continue
        second = None
        for q in range(s + 1, end):
            if letters[q] == n:
                second = q
                break
        if second is None:
            continue
        gamma_len = second - (s + 1)
        new_gamma_len = reduce_recursive(tb, s + 1, gamma_len, n - 1)
        end -= gamma_len - new_gamma_len
        second = s + 1 + new_gamma_len
        r = None
        for q in range(s + 1, second):
            if letters[q] == n - 1:
                r = q
                break
        if r is None:
            for q in range(s, second - 1):
                tb.distant_swap(q)
            tb.crossing_change(second - 1)
            end -= 2
            continue
        for q in range(s, r - 1):
            tb.distant_swap(q)
        for q in range(second - 1, r, -1):
            tb.distant_swap(q)
        tb.neighbor_braid(r - 1)
    return end - start


def reduce_region(word: BraidWord, start: int, length: int, level: int, reduce=_reduce):
    """Reduce ``word[start : start+length]`` at ``level``; the trace and the
    region's new length."""
    tb = TraceBuilder(word)
    new_length = reduce(tb, start, length, level)
    return tb.snapshot(), new_length


@st.composite
def words(draw, max_strands=7, max_length=24):
    strands = draw(st.integers(2, max_strands))
    letters = draw(st.lists(st.integers(1, strands - 1), max_size=max_length))
    return BraidWord(strands, tuple(letters))


class TestReduceSubword:
    def test_region_left_with_at_most_one_top_letter(self):
        word = BraidWord(3, (2, 1, 2, 1, 2, 1))
        trace, _ = reduce_region(word, 0, word.length, 2)
        final = replay(trace)
        assert final.letters.count(2) <= 1

    def test_steps_stay_inside_region(self):
        word = BraidWord(3, (2, 2, 1, 1, 2, 2))
        trace, new_length = reduce_region(word, 0, 2, 2)
        final = replay(trace)
        assert final.letters[-4:] == (1, 1, 2, 2)
        assert new_length == 0
        assert trace.crossing_changes == 1

    def test_zero_level_region_untouched(self):
        word = BraidWord(3, (1, 2, 1))
        trace, new_length = reduce_region(word, 1, 0, 0)
        assert not trace.steps
        assert new_length == 0

    def test_costs_one_change_per_adjacent_pair(self):
        word = BraidWord(2, (1,) * 7)
        trace, _ = reduce_region(word, 0, 7, 1)
        assert trace.crossing_changes == 3
        assert replay(trace).letters == (1,)

    def test_braid_relation_merges_separated_pair_for_free(self):
        # σ2 σ1 σ2 has a single σ1 between the pair: no crossing change
        word = BraidWord(3, (2, 1, 2))
        trace, _ = reduce_region(word, 0, 3, 2)
        assert trace.crossing_changes == 0
        assert replay(trace).letters.count(2) == 1


class TestExplicitStack:
    """The reducer keeps its levels on a list; the recursive reduction is
    the oracle for every step it emits."""

    @settings(max_examples=300, deadline=None)
    @given(words(), st.data())
    def test_region_steps_match_the_recursive_reducer(self, word, data):
        start = data.draw(st.integers(0, word.length))
        length = data.draw(st.integers(0, word.length - start))
        region = word.letters[start : start + length]
        level = data.draw(st.integers(max(region, default=0), word.strands - 1))
        got = reduce_region(word, start, length, level)
        assert got == reduce_region(word, start, length, level, reduce_recursive)

    @settings(max_examples=100, deadline=None)
    @given(words().filter(is_knot))
    def test_unknot_trace_matches_the_recursive_reducer(self, word):
        trace = unknot(word)
        with mock.patch.object(unknotting, "_reduce", reduce_recursive):
            assert unknot(word) == trace

    def test_knot_word_on_1201_strands(self):
        # σ_m R_m A_m R_{m-1}: its reduction nests m levels deep
        m = 1200
        word = BraidWord(m + 1, (m,) + descending_run(m) + ascending_run(m) + descending_run(m - 1))
        trace = unknot(word)
        assert len(trace.steps) == 2 * m
        assert trace.crossing_changes == m == unknotting_number(word)
        assert replay(trace) == BraidWord(1, ())


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


# The torus words of the knots benchmark, then T(3,2500).
FROZEN_TORUS = (
    (2, 11), (2, 301), (3, 7), (3, 20), (3, 200), (4, 9), (4, 15), (4, 101), (5, 6),
    (5, 12), (5, 76), (6, 7), (6, 37), (7, 8), (7, 22), (8, 17), (9, 10), (9, 13), (3, 2500),
)


def seeded_knot_words() -> list[BraidWord]:
    """Uniform random knot words of 3–9 strands and 8–301 letters, each the
    first draw of its slot whose closure is a knot."""
    rng = random.Random(2019)
    found = []
    for strands in range(3, 10):
        for length in (8, 21, 40, 101, 300):
            length += (length - strands + 1) % 2  # a knot needs this parity
            while True:
                word = BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))
                if is_knot(word):
                    found.append(word)
                    break
    return found


class TestFrozenSteps:
    def test_unknot_expands_to_its_frozen_steps(self):
        """Pin the steps ``unknot`` takes, apart from how the text writes
        them: the SHA-256 of their version-3 step lines, concatenated."""
        words = [torus_braid(p, q) for p, q in FROZEN_TORUS] + seeded_knot_words()
        digest = hashlib.sha256()
        count = 0
        for word in words:
            trace = unknot(word)
            digest.update(step_lines(trace))
            count += trace.step_count
        assert (len(words), count, digest.hexdigest()) == (
            54,
            21271,
            "42ba8cc1da6b8a4c0ca6b0548b41608a9dcfdbffd8cea0a2aca33c187b95b877",
        )


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

    def test_middle_generator_keeps_the_knot(self):
        # σ2 occurs once, with σ1 and σ3 letters on both sides: deleting it in
        # place would make them neighbours and turn the granny knot into
        # T(2,5).  Rotated last, with the σ1s moved before the σ3s, it joins
        # the two trefoils of a connected sum.
        word = parse_word("4: 1 1 2 3 1 3 3")
        out = reduce_single_generator(word)
        assert out == parse_word("3: 1 1 1 2 2 2")
        assert alexander(out) == alexander(word)

    @settings(max_examples=200, deadline=None)
    @given(words(max_strands=5, max_length=14), st.data())
    def test_alexander_is_preserved(self, word, data):
        index = data.draw(st.integers(1, word.strands - 1))
        letters = [x for x in word.letters if x != index]
        letters.insert(data.draw(st.integers(0, len(letters))), index)
        word = BraidWord(word.strands, tuple(letters))
        assume(is_knot(word))
        out = reduce_single_generator(word)
        assert out.strands == word.strands - 1
        assert is_knot(out)
        assert alexander(out) == alexander(word)

