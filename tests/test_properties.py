"""Randomized invariants of the five rules, the oracle, and the text formats."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gordian import (
    BraidWord,
    alexander,
    apply_conjugate,
    apply_crossing_change,
    apply_destabilize,
    apply_distant_swap,
    apply_neighbor_braid,
    canonical_form,
    closure_info,
    parse_trace,
    parse_word,
    format_word,
    is_knot,
    serialize_trace,
    unknot,
    verify_positive_path,
)
from gordian.rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    TraceBuilder,
)
from gordian.enumeration import _commutation_least


@st.composite
def braid_words(draw, max_strands=5, max_length=12):
    strands = draw(st.integers(1, max_strands))
    if strands == 1:
        return BraidWord(1, ())
    length = draw(st.integers(0, max_length))
    letters = tuple(draw(st.integers(1, strands - 1)) for _ in range(length))
    return BraidWord(strands, letters)


def legal_steps(word: BraidWord):
    """Every legal (kind, apply) pair available on ``word``."""
    steps = []
    letters = word.letters
    for pos in range(word.length - 1):
        if abs(letters[pos] - letters[pos + 1]) >= 2:
            steps.append((DISTANT_SWAP, lambda w, p=pos: apply_distant_swap(w, p)))
        if letters[pos] == letters[pos + 1]:
            steps.append((CROSSING_CHANGE, lambda w, p=pos: apply_crossing_change(w, p)))
    for pos in range(word.length - 2):
        a, b, c = letters[pos : pos + 3]
        if a == c and abs(a - b) == 1:
            steps.append((NEIGHBOR_BRAID, lambda w, p=pos: apply_neighbor_braid(w, p)))
    for amount in range(1, word.length):
        steps.append((CONJUGATE, lambda w, a=amount: apply_conjugate(w, a)))
    if (
        word.strands > 1
        and letters
        and max(letters) == word.strands - 1
        and letters.count(word.strands - 1) == 1
    ):
        steps.append((DESTABILIZE, apply_destabilize))
    return steps


ACCOUNTING = {
    DISTANT_SWAP: (0, 0),
    NEIGHBOR_BRAID: (0, 0),
    CONJUGATE: (0, 0),
    DESTABILIZE: (-1, -1),
    CROSSING_CHANGE: (-2, 0),
}


class TestRuleInvariants:
    @given(braid_words(), st.data())
    @settings(max_examples=300)
    def test_components_and_accounting(self, word, data):
        steps = legal_steps(word)
        if not steps:
            return
        kind, apply_fn = data.draw(st.sampled_from(steps))
        after = apply_fn(word)
        d_len, d_strands = ACCOUNTING[kind]
        assert after.length - word.length == d_len
        assert after.strands - word.strands == d_strands
        if kind == CROSSING_CHANGE:
            # deleting σ_i σ_i leaves the permutation untouched
            assert closure_info(after).permutation == closure_info(word).permutation
        else:
            assert closure_info(after).components == closure_info(word).components

    @given(braid_words(), st.data())
    @settings(max_examples=200)
    def test_alexander_invariant_under_isotopy(self, word, data):
        steps = [s for s in legal_steps(word) if s[0] != CROSSING_CHANGE]
        if not steps:
            return
        _kind, apply_fn = data.draw(st.sampled_from(steps))
        assert alexander(apply_fn(word)) == alexander(word)


class TestCanonicalFormProperties:
    @given(braid_words(max_strands=4, max_length=8), st.integers(0, 7))
    @settings(max_examples=200)
    def test_rotation_invariance(self, word, shift):
        if word.length == 0:
            return
        r = shift % word.length
        rotated = BraidWord(word.strands, word.letters[r:] + word.letters[:r])
        assert canonical_form(rotated) == canonical_form(word)

    @given(braid_words(max_strands=4, max_length=8))
    @settings(max_examples=200)
    def test_idempotent(self, word):
        once = canonical_form(word)
        assert canonical_form(once) == once


def greedy_commutation_least(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle: pick the smallest letter that commutes past everything before it."""
    remaining = list(letters)
    out: list[int] = []
    while remaining:
        best = None
        for idx, letter in enumerate(remaining):
            if best is not None and letter >= remaining[best]:
                continue
            if all(abs(prev - letter) >= 2 for prev in remaining[:idx]):
                best = idx
        out.append(remaining.pop(best))
    return tuple(out)


class TestKernelsMatchOracles:
    @given(braid_words(max_strands=9, max_length=30))
    @example(BraidWord(1, ()))
    @settings(max_examples=500)
    def test_is_knot_matches_closure_cycles(self, word):
        assert is_knot(word) == closure_info(word).is_knot

    @given(braid_words(max_strands=9, max_length=30))
    @example(BraidWord(1, ()))
    @settings(max_examples=500)
    def test_commutation_least_matches_greedy_scan(self, word):
        assert _commutation_least(word.letters) == greedy_commutation_least(word.letters)


class TestFormatRoundTrips:
    @given(braid_words())
    @settings(max_examples=200)
    def test_word_text_round_trip(self, word):
        assert parse_word(format_word(word)) == word

    @given(braid_words(max_strands=4, max_length=10), st.data())
    @settings(max_examples=100)
    def test_trace_text_round_trip(self, word, data):
        tb = TraceBuilder(word)
        for _ in range(data.draw(st.integers(0, 6))):
            steps = legal_steps(tb.word)
            if not steps:
                break
            kind, _ = data.draw(st.sampled_from(steps))
            if kind == DISTANT_SWAP:
                positions = [
                    p
                    for p in range(tb.word.length - 1)
                    if abs(tb.word.letters[p] - tb.word.letters[p + 1]) >= 2
                ]
                tb.distant_swap(data.draw(st.sampled_from(positions)))
            elif kind == NEIGHBOR_BRAID:
                positions = [
                    p
                    for p in range(tb.word.length - 2)
                    if tb.word.letters[p] == tb.word.letters[p + 2]
                    and abs(tb.word.letters[p] - tb.word.letters[p + 1]) == 1
                ]
                tb.neighbor_braid(data.draw(st.sampled_from(positions)))
            elif kind == CONJUGATE:
                tb.conjugate(data.draw(st.integers(1, tb.word.length - 1)))
            elif kind == DESTABILIZE:
                tb.destabilize()
            else:
                positions = [
                    p
                    for p in range(tb.word.length - 1)
                    if tb.word.letters[p] == tb.word.letters[p + 1]
                ]
                tb.crossing_change(data.draw(st.sampled_from(positions)))
        trace = tb.snapshot()
        assert parse_trace(serialize_trace(trace)) == trace


class TestUnknotPathProperty:
    @given(braid_words(max_strands=4, max_length=10))
    @settings(max_examples=60, deadline=None)
    def test_every_knot_word_unknots_along_a_positive_path(self, word):
        if not closure_info(word).is_knot:
            return
        assert verify_positive_path(unknot(word))
