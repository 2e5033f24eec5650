"""Randomized invariants of the five rules, the oracle, the text formats and the CLI."""

import contextlib
import importlib
import io
import random
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gordian import (
    BraidWord,
    LaurentPoly,
    ParseError,
    RewriteStep,
    adjacency_ci,
    alexander,
    canonical_form,
    closure_info,
    enumerate_positive_knots,
    parse_certificate,
    parse_trace,
    parse_word,
    format_word,
    is_knot,
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
from gordian.cli import main
from gordian.rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    TraceBuilder,
    apply_step,
)
from gordian.enumeration import _census_words, _commutation_least


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
                step = RewriteStep(NEIGHBOR_BRAID, q, "forward" if b > a else "backward")
                yield prefix + (step,), BraidWord(
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


def _identity(size: int) -> list[list[LaurentPoly]]:
    return [
        [LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(size)]
        for r in range(size)
    ]


def _reduced_burau_generator(index: int, strands: int) -> list[list[LaurentPoly]]:
    """Matrix of σ_index in the reduced Burau representation (columns are images)."""
    size = strands - 1
    t = LaurentPoly.monomial(1)
    minus_t = LaurentPoly.monomial(1, -1)
    one = LaurentPoly.one()
    matrix = _identity(size)
    i = index  # 1-based generator index; basis vectors e_1 … e_{size}
    if size == 1:
        matrix[0][0] = minus_t
        return matrix
    if i == 1:
        matrix[0][0] = minus_t
        matrix[0][1] = one
    elif i == strands - 1:
        matrix[i - 1][i - 2] = t
        matrix[i - 1][i - 1] = minus_t
    else:
        matrix[i - 1][i - 2] = t
        matrix[i - 1][i - 1] = minus_t
        matrix[i - 1][i] = one
    return matrix


def _matmul(a: list[list[LaurentPoly]], b: list[list[LaurentPoly]]) -> list[list[LaurentPoly]]:
    size = len(a)
    result = [[LaurentPoly.zero()] * size for _ in range(size)]
    for r in range(size):
        for k in range(size):
            if a[r][k].is_zero:
                continue
            for c in range(size):
                if not b[k][c].is_zero:
                    result[r][c] = result[r][c] + a[r][k] * b[k][c]
    return result


def _determinant(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Cofactor expansion with memoization over column subsets."""
    size = len(matrix)
    memo: dict[int, LaurentPoly] = {}

    def minor(row: int, mask: int) -> LaurentPoly:
        if row == size:
            return LaurentPoly.one()
        if mask not in memo:
            total = LaurentPoly.zero()
            sign = 1
            for c in range(size):
                bit = 1 << c
                if not mask & bit:
                    continue
                entry = matrix[row][c]
                if not entry.is_zero:
                    part = entry * minor(row + 1, mask & ~bit)
                    total = total + part if sign > 0 else total - part
                sign = -sign
            memo[mask] = total
        return memo[mask]

    return minor(0, (1 << size) - 1)


def burau_product_alexander(word: BraidWord) -> LaurentPoly:
    """Oracle: multiply full reduced Burau matrices over LaurentPoly, letter by letter."""
    if word.strands == 1:
        return LaurentPoly.one()
    size = word.strands - 1
    rho = _identity(size)
    for letter in word.letters:
        rho = _matmul(rho, _reduced_burau_generator(letter, word.strands))
    one = LaurentPoly.one()
    i_minus_rho = [
        [(one if r == c else LaurentPoly.zero()) - rho[r][c] for c in range(size)]
        for r in range(size)
    ]
    numerator = _determinant(i_minus_rho) * (one - LaurentPoly.monomial(1))
    denominator = one - LaurentPoly.monomial(word.strands)
    return numerator.divide_exact(denominator).normalized()


# A fixed 12-strand, 67-letter knot word: 2^11 column subsets in the
# determinant memo, beyond every strand count the random words reach.
TWELVE_STRAND_KNOT = BraidWord(12, (
    9, 3, 7, 6, 9, 5, 9, 8, 6, 2, 2, 9, 10, 9, 5, 6, 1, 6, 11, 8, 2, 6, 4, 8,
    4, 9, 10, 9, 1, 3, 5, 4, 6, 9, 8, 2, 5, 7, 2, 10, 3, 7, 7, 2, 2, 4, 5, 6,
    5, 8, 8, 6, 7, 3, 4, 4, 6, 5, 11, 1, 10, 6, 11, 7, 3, 10, 4,
))


def seeded_knot_word(seed: int, strands: int, length: int) -> BraidWord:
    """The first knot word of ``length`` uniform letters drawn from ``seed``."""
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

    @given(braid_words(max_strands=9, max_length=30))
    @example(BraidWord(1, ()))
    @settings(max_examples=500)
    def test_commutation_least_matches_greedy_scan(self, word):
        assert _commutation_least(word.letters) == greedy_commutation_least(word.letters)

    @given(braid_words(max_strands=6, max_length=14))
    @example(BraidWord(1, ()))
    @example(parse_word("3: 2 1 1 2 1"))
    @example(parse_word("4: 3 1 3 2 1"))
    @settings(max_examples=300)
    def test_canonical_form_is_least_greedy_form_over_rotations(self, word):
        letters = word.letters
        rotations = [letters[r:] + letters[:r] for r in range(len(letters) or 1)]
        best = min(greedy_commutation_least(rot) for rot in rotations)
        assert canonical_form(word) == BraidWord(word.strands, best)

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
    all its generators, as invariant key -> member forms."""
    forms = set()
    for n in range(1, 2 * m + 2):
        for letters in product(range(1, n), repeat=2 * m + n - 1):
            word = BraidWord(n, letters)
            if set(letters) == set(range(1, n)) and is_knot(word):
                forms.add(canonical_form(word))
    groups: dict[tuple, set[BraidWord]] = {}
    for form in forms:
        small = minimize_word(form)
        key = (unknotting_number(small), alexander(small), small.strands)
        groups.setdefault(key, set()).add(canonical_form(small))
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


class TestUnknotPathProperty:
    @given(braid_words(max_strands=4, max_length=10))
    @settings(max_examples=60, deadline=None)
    def test_every_knot_word_unknots_along_a_positive_path(self, word):
        if not closure_info(word).is_knot:
            return
        assert verify_positive_path(unknot(word))


# The trace of ``unknot`` on T(3,4), as ``serialize_trace`` writes it.
V2_TRACE_TEXT = """trace v2
initial: 3: 2 1 2 1 2 1 2 1
step: neighbor-braid pos=4 direction=backward
step: crossing-change pos=3
step: crossing-change pos=2
step: destabilize
step: crossing-change pos=1
step: destabilize
final: 1:
crossing_changes: 3
end
"""
# The same trace in the retired version-1 syntax, which is malformed input now:
# every step line ends in ``-> word``.
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
SAMPLE_TEXTS = (V2_TRACE_TEXT, serialize_certificate(adjacency_ci(2, 1)))
FUZZ_SEEDS = SAMPLE_TEXTS + (V1_TRACE_TEXT,)
# Characters the formats are made of, so edits land near valid text.
FORMAT_CHARS = " \n:=->0123456789-xtrace v2stepinitialfinalendcrossing_changestorusword"


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
        trace, cert = SAMPLE_TEXTS
        assert trace == serialize_trace(unknot(torus_braid(3, 4)))
        assert replay(parse_trace(trace)) == BraidWord(1, ())
        assert verify_certificate(parse_certificate(cert)).valid

    def test_version_1_seed_is_malformed(self):
        with pytest.raises(ParseError, match="must start with a 'trace v2' line"):
            parse_trace(V1_TRACE_TEXT)


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
