"""Randomized invariants of the five rules, the oracle, the text formats and the CLI."""

import contextlib
import importlib
import io
import random
import re
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gordian import (
    BraidWord,
    IllegalStep,
    ParseError,
    RewriteStep,
    RewriteTrace,
    TraceCorrupt,
    adjacency_ci,
    alexander,
    enumerate_positive_knots,
    parse_certificate,
    parse_trace,
    parse_word,
    legal_moves,
    minimize_word,
    replay,
    serialize_certificate,
    serialize_trace,
    torus_braid,
    unknot,
    unknotting_number,
    verify_certificate,
    verify_positive_path,
)
from gordian import rules
from gordian.cli import main
from gordian.errors import DomainError
from gordian.rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    TraceBuilder,
    apply_step,
)
from gordian.enumeration import _census_words, _least_rotation, _swap_orbit
from gordian.moves import full_twist_letters, move_z_prog
from gordian.words import closure_info, format_word, is_knot
from oracles import OrbitLeast, burau_product_alexander, swap_orbit


@st.composite
def braid_words(draw, max_strands=5, max_length=12):
    strands = draw(st.integers(1, max_strands))
    if strands == 1:
        return BraidWord(1, ())
    length = draw(st.integers(0, max_length))
    letters = tuple(draw(st.integers(1, strands - 1)) for _ in range(length))
    return BraidWord(strands, letters)


def legal_steps(word: BraidWord) -> list[tuple[RewriteStep, ...]]:
    """Every recipe of ``legal_moves`` on ``word``, plus every rotation."""
    recipes = [recipe for recipe, _, _ in legal_moves(word.strands, word.letters)]
    recipes += [(RewriteStep(CONJUGATE, amount=amount),) for amount in range(1, word.length)]
    return recipes


def apply_recipe(word: BraidWord, recipe) -> BraidWord:
    for step in recipe:
        word = apply_step(word, step)
    return word


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
        recipes = legal_steps(word)
        if not recipes:
            return
        *rotation, step = data.draw(st.sampled_from(recipes))
        word = apply_recipe(word, rotation)
        after = apply_step(word, step)
        d_len, d_strands = ACCOUNTING[step.kind]
        assert after.length - word.length == d_len
        assert after.strands - word.strands == d_strands
        if step.kind == CROSSING_CHANGE:
            # deleting σ_i σ_i leaves the permutation untouched
            assert closure_info(after).permutation == closure_info(word).permutation
        else:
            assert closure_info(after).components == closure_info(word).components

    @given(braid_words(), st.data())
    @settings(max_examples=200)
    def test_alexander_invariant_under_isotopy(self, word, data):
        recipes = [r for r in legal_steps(word) if r[-1].kind != CROSSING_CHANGE]
        if not recipes:
            return
        recipe = data.draw(st.sampled_from(recipes))
        assert alexander(apply_recipe(word, recipe)) == alexander(word)


def reference_step(strands: int, letters: tuple[int, ...], step) -> tuple[int, tuple[int, ...]]:
    """Reference: the five rules as the ``rules`` module docstring defines
    them, on tuples; an illegal step raises IllegalStep."""
    kind, position, amount = step
    length = len(letters)
    # Each rule takes only its own parameters; any other one makes the step illegal.
    stray = {
        DISTANT_SWAP: (amount,),
        NEIGHBOR_BRAID: (amount,),
        CONJUGATE: (position,),
        DESTABILIZE: (position, amount),
        CROSSING_CHANGE: (amount,),
    }.get(kind, ())
    if any(value is not None for value in stray):
        raise IllegalStep("a parameter the rule does not take")

    def at(width: int) -> int:
        if type(position) is not int or not 0 <= position <= length - width:
            raise IllegalStep(f"no {width} letters at {position!r}")
        return position

    if kind == DISTANT_SWAP:
        q = at(2)
        i, j = letters[q : q + 2]
        if abs(i - j) < 2:
            raise IllegalStep("not distant")
        return strands, letters[:q] + (j, i) + letters[q + 2 :]
    if kind == NEIGHBOR_BRAID:
        q = at(3)
        i = letters[q]
        if letters[q : q + 3] == (i, i + 1, i):
            new = (i + 1, i, i + 1)
        elif letters[q : q + 3] == (i, i - 1, i):
            new = (i - 1, i, i - 1)
        else:
            raise IllegalStep("no braid pattern")
        return strands, letters[:q] + new + letters[q + 3 :]
    if kind == CONJUGATE:
        if type(amount) is not int or (not letters and amount):
            raise IllegalStep("no rotation")
        amount = amount % length if letters else 0
        return strands, letters[amount:] + letters[:amount]
    if kind == DESTABILIZE:
        top = strands - 1
        if top < 1 or max(letters, default=0) != top or letters.count(top) != 1:
            raise IllegalStep("no unique top letter")
        q = letters.index(top)
        return top, letters[:q] + letters[q + 1 :]
    if kind == CROSSING_CHANGE:
        q = at(2)
        if letters[q] != letters[q + 1]:
            raise IllegalStep("not an equal pair")
        return strands, letters[:q] + letters[q + 2 :]
    raise IllegalStep(f"unknown kind {kind!r}")


# Any step at all: every kind and an unknown one, positions out of range,
# None or bool, amounts that are None or bool.
any_steps = st.builds(
    RewriteStep,
    st.sampled_from([DISTANT_SWAP, NEIGHBOR_BRAID, CONJUGATE, DESTABILIZE, CROSSING_CHANGE, "untie"]),
    st.one_of(st.integers(-2, 12), st.sampled_from([None, True, False])),
    st.one_of(st.integers(-14, 14), st.sampled_from([None, True, False])),
)


def outcome(apply):
    try:
        return apply()
    except IllegalStep:
        return "illegal"


class TestKernelMatchesReference:
    @given(braid_words(max_strands=6, max_length=10), st.data())
    @settings(max_examples=400, deadline=None)
    def test_steps_agree_with_the_five_rules(self, word, data):
        """apply_step and TraceBuilder.apply agree with the reference on legal
        and illegal steps alike, and replay fails at the first illegal one."""
        strands, letters = word.strands, word.letters
        tb = TraceBuilder(word)
        steps, first_illegal = [], None
        for index in range(data.draw(st.integers(1, 6))):
            legal = legal_steps(BraidWord(strands, letters))
            if legal and data.draw(st.booleans()):
                step = data.draw(st.sampled_from(legal))[0]
            else:
                step = data.draw(any_steps)
            steps.append(step)
            expected = outcome(lambda: reference_step(strands, letters, step))
            after = outcome(lambda: apply_step(BraidWord(strands, letters), step))
            assert (after if after == "illegal" else (after.strands, after.letters)) == expected, step
            built = outcome(lambda: tb.apply(step))
            assert (built if built == "illegal" else (tb.strands, tuple(tb.letters))) == expected, step
            if expected == "illegal":
                assert (tb.strands, tuple(tb.letters)) == (strands, letters)
                if first_illegal is None:
                    first_illegal = index
            else:
                strands, letters = expected
        trace = RewriteTrace(word, tuple(steps), BraidWord(strands, letters))
        if first_illegal is None:
            assert replay(trace) == BraidWord(strands, letters)
        else:
            with pytest.raises(TraceCorrupt) as info:
                replay(trace)
            assert info.value.step_index == first_illegal
        recorded = tb.snapshot()
        assert replay(recorded) == tb.word
        assert tb.crossing_changes == recorded.crossing_changes


def orbit_key(strands: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The census key: the least word of the orbit under rotations and
    distant swaps."""
    return min(_swap_orbit(strands, letters))


class TestCanonicalFormProperties:
    """The census key is a canonical form: one word per orbit."""

    @given(braid_words(max_strands=4, max_length=8), st.integers(0, 7))
    @settings(max_examples=200)
    def test_rotation_invariance(self, word, shift):
        if word.length == 0:
            return
        r = shift % word.length
        rotated = word.letters[r:] + word.letters[:r]
        assert orbit_key(word.strands, rotated) == orbit_key(word.strands, word.letters)

    @given(braid_words(max_strands=4, max_length=8))
    @settings(max_examples=200)
    def test_idempotent(self, word):
        once = orbit_key(word.strands, word.letters)
        assert orbit_key(word.strands, once) == once

    @given(braid_words(max_strands=8, max_length=40))
    @example(BraidWord(1, ()))
    @example(BraidWord(3, ()))
    @example(parse_word("2: 1"))
    @example(parse_word("4: 2 2 2 2 2"))
    @example(BraidWord(3, (1, 2) * 7))
    @example(BraidWord(3, (2, 1) * 7))
    @example(BraidWord(4, (1, 2, 3) * 5))
    @example(BraidWord(4, (3, 1, 2) * 5))
    @example(parse_word("3: 1 1 2 1 1 2 1"))
    @settings(max_examples=500)
    def test_least_rotation_is_the_least_word_of_its_class(self, word):
        letters = word.letters
        rotations = [letters[r:] + letters[:r] for r in range(len(letters) or 1)]
        least = _least_rotation(letters)
        assert least == min(rotations)
        assert is_least_rotation(least)


def search_neighbours(word: BraidWord):
    """Oracle: every move at every rotation of the word, rule kinds in fixed
    order with positions ascending.  Yields (steps, word) pairs where
    ``steps`` is the (rotation?, move) recipe that produced the word."""
    for r in range(word.length if word.length else 1):
        if r == 0:
            rotated = word
            prefix: tuple[RewriteStep, ...] = ()
        else:
            rotated = BraidWord(word.strands, word.letters[r:] + word.letters[:r])
            prefix = (RewriteStep(CONJUGATE, amount=r),)
        letters = rotated.letters
        for q in range(len(letters) - 1):
            if abs(letters[q] - letters[q + 1]) >= 2:
                yield prefix + (RewriteStep(DISTANT_SWAP, q),), BraidWord(
                    word.strands, letters[:q] + (letters[q + 1], letters[q]) + letters[q + 2 :]
                )
        for q in range(len(letters) - 2):
            a, b, c = letters[q : q + 3]
            if a == c and abs(a - b) == 1:
                yield prefix + (RewriteStep(NEIGHBOR_BRAID, q),), BraidWord(
                    word.strands, letters[:q] + (b, a, b) + letters[q + 3 :]
                )
        top = word.strands - 1
        if top >= 1 and letters.count(top) == 1:
            q = letters.index(top)
            if all(letter < top for letter in letters[:q] + letters[q + 1 :]):
                yield prefix + (RewriteStep(DESTABILIZE),), BraidWord(
                    word.strands - 1, letters[:q] + letters[q + 1 :]
                )
        for q in range(len(letters) - 1):
            if letters[q] == letters[q + 1]:
                yield prefix + (RewriteStep(CROSSING_CHANGE, q),), BraidWord(
                    word.strands, letters[:q] + letters[q + 2 :]
                )


def first_hits(moves) -> list[tuple[tuple, tuple]]:
    """Each search key (strands, least rotation) with the recipe that first
    reaches it, in order of first hit."""
    hits: dict[tuple, tuple] = {}
    for recipe, strands, letters in moves:
        least = min((letters[r:] + letters[:r] for r in range(len(letters))), default=())
        hits.setdefault((strands, least), recipe)
    return list(hits.items())


# A fixed 12-strand, 67-letter knot word: 2^11 column subsets in the
# determinant memo, beyond every strand count the random words reach.
TWELVE_STRAND_KNOT = BraidWord(12, (
    9, 3, 7, 6, 9, 5, 9, 8, 6, 2, 2, 9, 10, 9, 5, 6, 1, 6, 11, 8, 2, 6, 4, 8,
    4, 9, 10, 9, 1, 3, 5, 4, 6, 9, 8, 2, 5, 7, 2, 10, 3, 7, 7, 2, 2, 4, 5, 6,
    5, 8, 8, 6, 7, 3, 4, 4, 6, 5, 11, 1, 10, 6, 11, 7, 3, 10, 4,
))


def seeded_knot_word(seed: int, strands: int, length: int) -> BraidWord:
    """The first knot word of ``length`` uniform letters drawn from ``seed``."""
    if length < strands - 1 or (length - strands + 1) % 2:
        raise ValueError(f"no knot word on {strands} strands has {length} letters")
    rng = random.Random(seed)
    while True:
        word = BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))
        if is_knot(word):
            return word


alexander_module = importlib.import_module("gordian.alexander")


class TestKernelsMatchOracles:
    @given(braid_words(max_strands=9, max_length=40))
    @example(BraidWord(1, ()))
    @example(BraidWord(2, ()))
    @settings(max_examples=300, deadline=None)
    def test_alexander_matches_burau_product(self, word):
        assert alexander(word) == burau_product_alexander(word)

    def test_alexander_of_empty_words(self):
        assert str(alexander(parse_word("1:"))) == "1"
        assert str(alexander(parse_word("2:"))) == "0"

    def test_alexander_matches_burau_product_on_twelve_strands(self):
        assert is_knot(TWELVE_STRAND_KNOT)
        assert alexander(TWELVE_STRAND_KNOT) == burau_product_alexander(TWELVE_STRAND_KNOT)

    @pytest.mark.parametrize("strands, length", [(3, 300), (4, 151), (5, 200)])
    def test_alexander_matches_burau_product_on_long_words(self, strands, length):
        # Δ of these words has coefficients of 2^28-2^49, and the L1 norms of
        # the entries of ρ outgrow 16 bits, so the 64-bit slots widen.
        word = seeded_knot_word(length, strands, length)
        remeasure = alexander_module._remeasure
        widths = []

        def recording(rho, bits):
            bits, bound = remeasure(rho, bits)
            widths.append(bits)
            return bits, bound

        with mock.patch.object(alexander_module, "_remeasure", recording):
            delta = alexander(word)
        assert max(widths) > 64
        assert delta == burau_product_alexander(word)

    @given(braid_words(max_strands=9, max_length=40))
    @example(BraidWord(2, ()))
    @settings(max_examples=200, deadline=None)
    def test_alexander_matches_burau_product_from_narrow_slots(self, word):
        # 8-bit slots are unpacked every six letters and widen as soon as an
        # entry's L1 norm reaches 4, so both run within most words.
        with mock.patch.object(alexander_module, "_START_BITS", 8):
            assert alexander(word) == burau_product_alexander(word)

    @given(braid_words(max_strands=9, max_length=30))
    @example(BraidWord(1, ()))
    @settings(max_examples=500)
    def test_is_knot_matches_closure_cycles(self, word):
        assert is_knot(word) == closure_info(word).is_knot

    @given(braid_words(max_strands=6, max_length=8))
    @example(BraidWord(1, ()))
    @example(parse_word("4: 3 1"))
    @example(parse_word("4: 1 2 3"))
    @example(parse_word("5: 1 3 1 3 2 4"))
    @settings(max_examples=300)
    def test_swap_orbit_matches_the_brute_force_closure(self, word):
        orbit = swap_orbit(word.letters)
        assert _swap_orbit(word.strands, word.letters) == {_least_rotation(w) for w in orbit}

    @given(
        braid_words(max_strands=6, max_length=9),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 7)), max_size=6),
    )
    @example(parse_word("4: 3 2 1"), [(2, 0)])
    @example(parse_word("5: 4 1 2 3 1"), [(0, 1), (4, 0)])
    @settings(max_examples=300)
    def test_orbit_key_is_invariant_under_rotations_and_distant_swaps(self, word, moves):
        # Each move is a rotation, then one of the legal distant swaps.
        letters = word.letters
        key = orbit_key(word.strands, letters)
        for shift, pick in moves:
            if letters:
                r = shift % len(letters)
                letters = letters[r:] + letters[:r]
            swaps = [q for q in range(len(letters) - 1) if abs(letters[q] - letters[q + 1]) >= 2]
            if swaps:
                q = swaps[pick % len(swaps)]
                letters = letters[:q] + (letters[q + 1], letters[q]) + letters[q + 2 :]
            assert orbit_key(word.strands, letters) == key

    # Words of 0 to 3 letters reach the wrap-around moves: the crossing change
    # and the distant swap on the pair at L − 2 of rotation 1, and the braid
    # moves on the triple at L − 3 of rotations 1 and 2.
    @given(braid_words(max_strands=7, max_length=16))
    @example(BraidWord(1, ()))
    @example(BraidWord(3, ()))
    @example(parse_word("2: 1"))
    @example(parse_word("3: 2"))
    @example(parse_word("2: 1 1"))
    @example(parse_word("4: 3 1"))
    @example(parse_word("3: 1 2 1"))
    @example(parse_word("4: 1 2 3"))
    @example(parse_word("3: 1 1 2"))
    @example(parse_word("3: 2 1 1"))
    @settings(max_examples=500)
    def test_cyclic_moves_meet_keys_as_every_rotation_does(self, word):
        oracle = ((steps, w.strands, w.letters) for steps, w in search_neighbours(word))
        assert first_hits(legal_moves(word.strands, word.letters)) == first_hits(oracle)

    @given(braid_words(max_strands=7, max_length=16))
    @example(parse_word("4: 3 1"))
    @example(parse_word("3: 1 1 2"))
    @example(parse_word("4: 1 2 1 3"))
    @settings(max_examples=300)
    def test_legal_moves_recipes_land_on_their_words(self, word):
        for recipe, strands, letters in legal_moves(word.strands, word.letters):
            tb = TraceBuilder(word)
            for step in recipe:
                tb.apply(step)
            assert (tb.strands, tuple(tb.letters)) == (strands, letters), recipe
            replay(tb.snapshot())


def every_twice_words(strands: int, length: int) -> list[tuple[int, ...]]:
    """Oracle: the full lexicographic walk, filtered to words in which every
    generator occurs at least twice."""
    return [
        letters
        for letters in product(range(1, strands), repeat=length)
        if all(letters.count(g) >= 2 for g in range(1, strands))
    ]


def is_least_rotation(letters: tuple[int, ...]) -> bool:
    return all(letters <= letters[r:] + letters[:r] for r in range(len(letters)))


def least_rotation_words(strands: int, length: int) -> list[tuple[int, ...]]:
    """Oracle: the words of :func:`every_twice_words` equal to their least
    rotation, in the same order."""
    return [w for w in every_twice_words(strands, length) if is_least_rotation(w)]


def full_walk_classes(m: int) -> dict[tuple, set[BraidWord]]:
    """Oracle: the census over every word of the unfiltered walk that uses
    all its generators, as invariant key -> member forms, each form the least
    word of its brute-force orbit."""
    least = OrbitLeast()
    forms = set()
    for n in range(1, 2 * m + 2):
        for letters in product(range(1, n), repeat=2 * m + n - 1):
            word = BraidWord(n, letters)
            if set(letters) == set(range(1, n)) and is_knot(word):
                forms.add(BraidWord(n, least[letters]))
    groups: dict[tuple, set[BraidWord]] = {}
    for form in forms:
        small = minimize_word(form)
        key = (unknotting_number(small), alexander(small), small.strands)
        groups.setdefault(key, set()).add(BraidWord(small.strands, least[small.letters]))
    return groups


class TestCensusWalkMatchesOracles:
    @pytest.mark.parametrize("strands", range(1, 6))
    def test_generated_words_match_the_filtered_walk(self, strands):
        for length in range(11):
            assert list(_census_words(strands, length)) == least_rotation_words(strands, length)

    def test_six_strand_words_match_the_filtered_walk(self):
        # Five generators twice each need ten letters, so shorter words have
        # none and ten-letter words use each exactly twice: the oracle is the
        # distinct orderings of that multiset (the full walk has 5¹⁰ words).
        for length in range(10):
            assert list(_census_words(6, length)) == []
        twice = sorted(set(permutations((1, 1, 2, 2, 3, 3, 4, 4, 5, 5))))
        assert list(_census_words(6, 10)) == [w for w in twice if is_least_rotation(w)]

    @pytest.mark.parametrize(
        "strands, letters",
        [(3, (1, 2, 1, 2)), (3, (1, 1, 2, 1, 1, 2)), (4, (1, 2, 3, 1, 2, 3)), (2, (1, 1, 1))],
    )
    def test_periodic_words_are_emitted_once(self, strands, letters):
        assert list(_census_words(strands, len(letters))).count(letters) == 1

    def test_classes_match_the_full_walk(self, census_m2):
        censuses = (enumerate_positive_knots(0), enumerate_positive_knots(1), census_m2)
        for m, result in enumerate(censuses):
            found = {cls.invariant_key: set(cls.members) for cls in result}
            assert found == full_walk_classes(m), m


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
            recipes = legal_steps(tb.word)
            if not recipes:
                break
            for step in data.draw(st.sampled_from(recipes)):
                tb.apply(step)
        trace = tb.snapshot()
        assert parse_trace(serialize_trace(trace)) == trace

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(st.integers(1, n - 1), min_size=3, max_size=14).map(
                lambda letters: BraidWord(n, tuple(letters))
            )
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_program_runs_round_trip_in_version_4(self, word, data):
        """Programs of positional steps run again and again at a drawn stride,
        some of them illegal part way, with single steps and rotations between
        them: whatever the builder records reads back as the same steps, and
        the text replays to where the builder stopped."""
        positional = st.builds(
            RewriteStep, st.sampled_from((DISTANT_SWAP, NEIGHBOR_BRAID, CROSSING_CHANGE)), st.integers(0, 4)
        )
        program = st.lists(positional, min_size=1, max_size=4).map(tuple)
        programs = data.draw(st.lists(program, min_size=1, max_size=3))
        tb = TraceBuilder(word)
        for _ in range(data.draw(st.integers(0, 8))):
            recipes = legal_steps(tb.word)
            if recipes and data.draw(st.booleans()):
                for step in data.draw(st.sampled_from(recipes)):
                    tb.apply(step)
                continue
            # A legal swap or braid move of the word, made relative (it undoes
            # itself, so it can run again at stride 0), or a drawn program.
            moves = [recipe[0] for recipe in recipes if recipe[0].kind in (DISTANT_SWAP, NEIGHBOR_BRAID)]
            if moves and not data.draw(st.booleans()):
                move = data.draw(st.sampled_from(moves))
                prog, at = (move._replace(position=0),), move.position
            else:
                prog, at = data.draw(st.sampled_from(programs)), data.draw(st.integers(0, 10))
            shift = data.draw(st.sampled_from((0, 0, 2, -1, -2)))
            for r in range(data.draw(st.sampled_from((6, 9, 1, 2)))):
                try:
                    tb.run(prog, at + r * shift)
                except IllegalStep:
                    pass
        trace = tb.snapshot()
        read = parse_trace(serialize_trace(trace))
        assert read == trace and read.steps == tb.steps
        assert (read.step_count, read.crossing_changes) == (len(tb.steps), tb.crossing_changes)
        assert replay(read) == tb.word

    @given(braid_words(max_strands=6, max_length=16))
    @settings(max_examples=100, deadline=None)
    def test_unknot_steps_round_trip_in_version_3(self, word):
        """Written in place, as version 3 writes it, every braid step of an
        unknot trace is a line of its own."""
        if is_knot(word):
            trace = unknot(word)
            assert_version_3_round_trip(RewriteTrace(trace.initial, trace.steps, trace.final))

    @given(st.integers(2, 9), st.integers(0, 60), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_unknot_text_is_never_larger_than_in_place(self, strands, length, seed):
        """The reducer's slides run as programs: the text reads back to the
        same steps, and it has no more lines or bytes than the same steps
        written in place."""
        length = max(length, strands - 1)  # a knot needs this many letters
        length += (length - strands + 1) % 2  # and this parity
        trace = unknot(seeded_knot_word(seed, strands, length))
        text = serialize_trace(trace)
        in_place = serialize_trace(RewriteTrace(trace.initial, trace.steps, trace.final))
        read = parse_trace(text)
        assert read == trace and read.steps == trace.steps and replay(read) == trace.final
        assert (read.step_count, read.crossing_changes) == (trace.step_count, trace.crossing_changes)
        assert text.count("\n") <= in_place.count("\n")
        assert len(text.encode()) <= len(in_place.encode())

    def test_shifted_program_steps_round_trip_in_version_3(self):
        # The full twist on four strands, a trailing σ_2 and two letters ahead.
        tb = TraceBuilder(BraidWord(4, (1, 3) + full_twist_letters(4) + (2,)))
        tb.run(move_z_prog(4, 2), 2)
        assert tb.letters == [1, 3, 2, *full_twist_letters(4)]
        assert_version_3_round_trip(tb.snapshot())


def assert_version_3_round_trip(trace: RewriteTrace) -> None:
    """Every step has three fields, a braid line is its position alone, and
    the text reads back to the same steps."""
    assert all(type(step) is RewriteStep and len(step) == 3 for step in trace.steps)
    text = serialize_trace(trace)
    positions = [step.position for step in trace.steps if step.kind == NEIGHBOR_BRAID]
    braid_lines = [line for line in text.splitlines() if line.startswith(f"step: {NEIGHBOR_BRAID}")]
    assert braid_lines == [f"step: neighbor-braid pos={q}" for q in positions]
    assert parse_trace(text).steps == trace.steps


# Pieces of step lines: the writer's own spellings and near misses of each.
STEP_KINDS = (DISTANT_SWAP, NEIGHBOR_BRAID, CONJUGATE, DESTABILIZE, CROSSING_CHANGE, "untie", "")
# The keys rules take, then foreign ones: "direction" is the braid key of the
# retired version 2.
STEP_KEYS = ("pos", "amount", "direction", "Pos", "")
STEP_SEPARATORS = (" ", "  ", "\t", "\u00a0", "")
STEP_VALUES = st.one_of(
    st.integers(-20, 10**20).map(str),
    st.sampled_from(("007", "+3", "-0", "\u0663", "\u00b3", "1_0", "", "x", "1.5")),
    st.sampled_from(("forward", "backward", "sideways", "1" * 18, "1" * 19, "9" * 5000)),
)


@st.composite
def written_step_lines(draw) -> str:
    """A line as serialize_trace writes it, with any value in its slots,
    and sometimes a braid line as version 2 wrote it."""
    kind = draw(st.sampled_from(STEP_KINDS[:5]))
    line = f"step: {kind}"
    if kind == CONJUGATE:
        line += f" amount={draw(STEP_VALUES)}"
    elif kind != DESTABILIZE:
        line += f" pos={draw(STEP_VALUES)}"
    if kind == NEIGHBOR_BRAID and draw(st.booleans()):
        line += f" direction={draw(st.sampled_from(('forward', 'backward', 'sideways', '')))}"
    return line


@st.composite
def any_step_lines(draw) -> str:
    """Any kind, keys, separators and values, in any order and number."""
    line = draw(st.sampled_from(("step:", "step: ", "step:  ", "step:\t", "Step: ", "stop: ")))
    line += draw(st.sampled_from(STEP_KINDS))
    for _ in range(draw(st.integers(0, 3))):
        line += draw(st.sampled_from(STEP_SEPARATORS)) + draw(st.sampled_from(STEP_KEYS))
        line += draw(st.sampled_from(("=", "=", "==", ":", ""))) + draw(STEP_VALUES)
    return line + draw(st.sampled_from(("", " ", "\t")))


def outcome_or_message(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# Values for the slots of a run line: the writer's spellings and near misses
# of them (a sign, leading zeros, 19 digits, other digits, no digits).
RUN_VALUES = st.one_of(
    st.integers(-12, 40).map(str),
    st.sampled_from(("+5", "007", "-0", "00", "1" * 18, "1" * 19, "-" + "9" * 19, "\u0663", "1_0", "", "x")),
)


@st.composite
def run_lines(draw) -> str:
    """A run line as serialize_trace writes it, with any value in its slots,
    and near misses: ``times`` or ``shift`` alone, a repeated or unknown
    field, fields in another order, and doubled or other separators."""
    fields = [f"at={draw(RUN_VALUES)}"]
    if draw(st.booleans()):
        fields += [f"times={draw(RUN_VALUES)}", f"shift={draw(RUN_VALUES)}"]
    if draw(st.booleans()):
        extra = draw(st.sampled_from(("at", "times", "shift", "stride")))
        fields.insert(draw(st.integers(0, len(fields))), f"{extra}={draw(RUN_VALUES)}")
    if draw(st.booleans()):
        fields = draw(st.permutations(fields))
    separator = draw(st.sampled_from((" ", " ", " ", "  ", "\t")))
    ident = draw(st.sampled_from(("0", "0", "1", "00", "+0", "-1", "x")))
    if draw(st.integers(0, 5)) == 0:  # the line that starts a program
        return separator.join(["program", ident] + fields[: draw(st.integers(0, 1))])
    return separator.join(["run", ident] + fields)


# The texts a drawn body line is read in: a step line (or any line of
# version 3) alone in the body, a run line after program 0, which swaps the
# pair at its offset, and a program line before the line that ends it.
STEP_TEXT = "trace {}\ninitial: 2: 1 1\n{}\nfinal: 2: 1 1\ncrossing_changes: {}\nend\n"
RUN_TEXT = (
    "trace v4\ninitial: 4: 1 3 1 3\nprogram 0\nstep: distant-swap pos=0\nend program\n{}\n"
    "final: 4: 1 3 1 3\ncrossing_changes: 0\nend\n"
)
PROGRAM_TEXT = "trace v4\ninitial: 1:\n{}\nend program\nfinal: 1:\ncrossing_changes: 0\nend\n"


def canonical(line: str) -> str:
    """``line`` with each ASCII number as str writes its int: no leading
    zeros and no sign on zero."""
    return re.sub("-?[0-9]+", lambda number: str(int(number[0])), line)


def read_back(line: str, version: str) -> str:
    """The body line the writer would write for what parse_trace reads from
    ``line`` in its context."""
    if line.startswith("step:") or version == "v3":
        changes = int(line.startswith(f"step: {CROSSING_CHANGE} "))
        (step,) = parse_trace(STEP_TEXT.format(version, line, changes)).steps
        return rules._format_step(step)
    if line.startswith("program"):
        parse_trace(PROGRAM_TEXT.format(line))
        return f"program {int(line.partition(' ')[2])}"  # a program read shows no number
    offsets = [offset for _, offset in parse_trace(RUN_TEXT.format(line)).runs]
    back = f"run 0 at={offsets[0]}"
    if len(offsets) > 1:
        back += f" times={len(offsets)} shift={offsets[1] - offsets[0]}"
    elif " times=" in line:  # one run shows no shift
        back += f" times=1 shift={int(line.rpartition('=')[2])}"
    return back


class TestBodyLineReading:
    @given(st.one_of(written_step_lines(), any_step_lines(), run_lines()), st.sampled_from(("v3", "v4")))
    @example("step: crossing-change pos=" + "9" * 5000, "v4")
    @example("step: neighbor-braid pos=007", "v3")
    @example("step: neighbor-braid pos=7 direction=forward", "v4")
    @example("step: conjugate amount=\u0663", "v4")
    @example("step: conjugate amount=-1", "v4")
    @example("step: distant-swap pos=-1", "v4")
    @example("step:  destabilize", "v4")
    @example("step: destabilize ", "v3")
    @example("run 0 at=3 times=0 shift=2", "v4")
    @example("run 0 at=3 times=1 shift=2", "v4")
    @example("run 0 at=-3 times=2 shift=-1", "v4")
    @example("run 0 at=3 shift=2", "v4")
    @example("run 0 times=2 shift=2", "v4")
    @example("run 0 at=1111111111111111111", "v4")
    @example("run 0 at=3 times=1111111111111111111 shift=2", "v4")
    @example("run 0 at=3 times=111111111111111111 shift=2", "v4")
    @example("run 0  at=3 times=2 shift=2", "v4")
    @example("run 0 at=+5 times=2 shift=2", "v4")
    @example("run 00 at=007 times=2 shift=-03", "v4")
    @example("run 0 at=3 times=2 shift=2", "v3")
    @example("program 1", "v4")
    @example("program 007", "v4")
    @example("program -1", "v4")
    @example("program 1 at=2", "v4")
    @example("end program", "v4")
    @example("end  program", "v4")
    @settings(max_examples=2000)
    def test_a_body_line_reads_back_as_written_or_is_named_malformed(self, line, version):
        """A body line reads only as serialize_trace spells it: what it reads
        as is spelled back as the line itself, leading zeros aside, or the
        text is a ParseError that names the line (a run of a program the
        text does not define among them), or else the step cap."""
        line = line.strip()
        try:
            back = read_back(line, version)
        except ParseError as exc:
            cap = line.startswith("run ") and str(exc).startswith("trace text expands to more than")
            assert repr(line) in str(exc) or cap
        else:
            assert back == canonical(line)


def word_outcome(build):
    try:
        return build()
    except (DomainError, ParseError) as exc:
        return str(exc)


@st.composite
def word_texts(draw) -> tuple[str, int, tuple[int, ...]]:
    """Word text with its strand count and letters: out-of-range, zero and
    negative letters and strand counts, and a huge strand count."""
    strands = draw(st.one_of(st.integers(-2, 9), st.just(10**40)))
    letters = tuple(draw(st.lists(st.one_of(st.integers(-2, 10), st.just(10**30)), max_size=12)))
    text = f"{strands}:" + "".join(f" {letter}" for letter in letters)
    return text, strands, letters


class TestWordReading:
    @given(word_texts())
    @example(("0:", 0, ()))
    @example(("1:", 1, ()))
    @example(("1: 1", 1, (1,)))
    @example(("3: 0 1", 3, (0, 1)))
    @settings(max_examples=500)
    def test_parse_word_accepts_what_the_constructor_accepts(self, drawn):
        text, strands, letters = drawn
        expected = word_outcome(lambda: BraidWord(strands, letters))
        assert word_outcome(lambda: parse_word(text)) == expected
        if isinstance(expected, BraidWord):
            assert str(parse_word(text)) == text

    @given(st.one_of(st.text(), st.text("0123456789: -+\t", max_size=20)))
    @settings(max_examples=500)
    def test_every_word_parse_word_returns_is_valid(self, text):
        word = outcome_or_message(parse_word, text)
        if isinstance(word, BraidWord):
            assert BraidWord(word.strands, word.letters) == word
            assert parse_word(str(word)) == word


class TestUnknotPathProperty:
    @given(braid_words(max_strands=4, max_length=10))
    @settings(max_examples=60, deadline=None)
    def test_every_knot_word_unknots_along_a_positive_path(self, word):
        if not closure_info(word).is_knot:
            return
        assert verify_positive_path(unknot(word))


# The trace of ``unknot`` on T(3,4), as ``serialize_trace`` writes it.
V3_TRACE_TEXT = """trace v3
initial: 3: 2 1 2 1 2 1 2 1
step: neighbor-braid pos=4
step: crossing-change pos=3
step: crossing-change pos=2
step: destabilize
step: crossing-change pos=1
step: destabilize
final: 1:
crossing_changes: 3
end
"""
# The same trace in the retired version-2 syntax, which is malformed input now:
# a braid line carries the direction its triple shows.
V2_TRACE_TEXT = V3_TRACE_TEXT.replace("trace v3", "trace v2").replace("pos=4", "pos=4 direction=backward")
# The same trace in the retired version-1 syntax, also malformed: every step
# line ends in ``-> word``.
V1_TRACE_TEXT = """trace
initial: 3: 2 1 2 1 2 1 2 1
step: neighbor-braid pos=4 direction=backward -> 3: 2 1 2 1 1 2 1 1
step: crossing-change pos=3 -> 3: 2 1 2 2 1 1
step: crossing-change pos=2 -> 3: 2 1 1 1
step: destabilize -> 2: 1 1 1
step: crossing-change pos=1 -> 2: 1
step: destabilize -> 1:
crossing_changes: 3
end
"""
# A knot word whose unknot trace defines programs of one and of three steps
# and runs them at strides.
UNKNOT_SAMPLE = "4: 3 2 3 2 3 3 3 3 1 2 1 3 1 1 1 2 2 1 2 3 1"
# A version-3 trace, a small certificate, one whose trace defines programs,
# and an unknot trace with programs.
SAMPLE_TEXTS = (
    V3_TRACE_TEXT,
    serialize_certificate(adjacency_ci(2, 1)),
    serialize_certificate(adjacency_ci(2, 2)),
    serialize_trace(unknot(parse_word(UNKNOT_SAMPLE))),
)
FUZZ_SEEDS = SAMPLE_TEXTS + (V2_TRACE_TEXT, V1_TRACE_TEXT)
# Characters the formats are made of, so edits land near valid text.
FORMAT_CHARS = " \n:=->0123456789-xtrace v3v4stepinitialfinalendcrossing_changestoruswordprogramrunatimeshift"


@st.composite
def mutated_texts(draw, text: str) -> str:
    """``text`` after one to four edits of characters, spans or whole lines."""
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("delete", "insert", "line")))
        at = draw(st.integers(0, len(text)))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)) :]
        elif edit == "insert":
            text = text[:at] + draw(st.text(FORMAT_CHARS, min_size=1, max_size=6)) + text[at:]
        else:
            lines = text.splitlines()
            if not lines:
                continue
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            action = draw(st.sampled_from(("drop", "copy", "swap", "replace")))
            if action == "drop":
                del lines[i]
            elif action == "copy":
                lines.insert(j, lines[i])
            elif action == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = draw(st.text(max_size=20))
            text = "\n".join(lines) + "\n"
    return text


class TestParsersRaiseOnlyParseError:
    @given(st.one_of(st.text(), *(mutated_texts(text) for text in FUZZ_SEEDS)))
    @settings(max_examples=400)
    def test_every_parser_succeeds_or_raises_parse_error(self, text):
        for parse in (parse_word, parse_trace, parse_certificate):
            try:
                parse(text)
            except ParseError:
                pass

    def test_samples_are_valid_texts(self):
        trace, cert, programs, unknotted = SAMPLE_TEXTS
        # Version 3 is version 4 without programs: the writer changes the header alone.
        assert trace.replace("trace v3", "trace v4") == serialize_trace(unknot(torus_braid(3, 4)))
        assert replay(parse_trace(trace)) == BraidWord(1, ())
        assert verify_certificate(parse_certificate(cert)).valid
        assert "\nprogram 0\n" in programs and "\nrun 0 at=" in programs
        assert verify_certificate(parse_certificate(programs)).valid
        assert "\nprogram 2\n" in unknotted and " times=" in unknotted
        assert replay(parse_trace(unknotted)) == BraidWord(1, ())

    def test_version_1_seed_is_malformed(self):
        """Both retired versions, 1 and 2, are malformed text."""
        for text in V1_TRACE_TEXT, V2_TRACE_TEXT:
            with pytest.raises(ParseError, match="must start with a 'trace v4' or 'trace v3' line"):
                parse_trace(text)


# What a command line or a text file can carry: no NUL, no lone surrogate.
ARGV_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")


@st.composite
def word_arguments(draw) -> str:
    """Word text for the CLI: junk, near-valid (letters may be out of range) or valid."""
    kind = draw(st.sampled_from(("junk", "near", "valid")))
    if kind == "junk":
        return draw(st.text(ARGV_CHARS, max_size=30))
    if kind == "near":
        strands = draw(st.integers(-1, 8))
        letters = draw(st.lists(st.integers(-1, 9), max_size=39))
    else:
        word = draw(braid_words(max_strands=8, max_length=39))
        strands, letters = word.strands, word.letters
    return f"{strands}: " + " ".join(map(str, letters))


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("verify")


class TestCliExitCodes:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_line_error(self, verify_dir, data):
        command = data.draw(st.sampled_from(("info", "alexander", "unknot", "torus", "verify")))
        if command == "torus":
            number = st.integers(-3, 12).map(str)
            args = [data.draw(st.one_of(number, st.text(ARGV_CHARS, max_size=5))) for _ in range(2)]
        elif command == "verify":
            path = verify_dir / "input"
            content = data.draw(
                st.one_of(
                    st.text(ARGV_CHARS, max_size=60),
                    st.binary(max_size=60),
                    *(mutated_texts(text) for text in FUZZ_SEEDS),
                )
            )
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            args = [str(data.draw(st.sampled_from((path, verify_dir, verify_dir / "absent"))))]
        else:
            args = [data.draw(word_arguments())]
        # Junk that starts with "-" is read as an option, and its usage error
        # must be one line too.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *args])
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
