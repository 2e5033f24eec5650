"""Knot census by unknotting number and the five-rule path search."""

from itertools import islice, product
from pathlib import Path

import pytest

from gordian import (
    BraidWord,
    BudgetExceeded,
    DomainError,
    NotFoundWithinBudget,
    RewriteTrace,
    alexander,
    enumerate_positive_knots,
    minimize_word,
    parse_word,
    positive_path_search,
    replay,
    torus_alexander,
    torus_braid,
    unknot,
    unknotting_number,
    verify_positive_path,
)
from gordian import enumeration
from gordian.enumeration import _census_words, _swap_orbit, format_enumeration_report
from gordian.words import is_knot
from oracles import OrbitLeast, normalized, poly_mul, swap_orbit

GOLDEN = Path(__file__).parent / "golden"


def filtered_walk_prefix(m, budget):
    """Oracle: ``(words_examined, knot_words, distinct_forms, classes)`` after
    the first ``budget`` words of every word in which each generator occurs at
    least twice and which equals its least rotation, in lexicographic order;
    every knot word's orbit under rotations and distant swaps is taken."""
    words = (
        BraidWord(n, letters)
        for n in range(1, 2 * m + 2)
        for letters in product(range(1, n), repeat=2 * m + n - 1)
        if all(letters.count(g) >= 2 for g in range(1, n))
        and all(letters <= letters[r:] + letters[:r] for r in range(len(letters)))
    )
    examined = knot_words = 0
    least = OrbitLeast()
    forms = set()
    for word in islice(words, budget):
        examined += 1
        if is_knot(word):
            knot_words += 1
            forms.add(BraidWord(word.strands, least[word.letters]))
    keys = set()
    for form in forms:
        small = minimize_word(form)
        keys.add((unknotting_number(small), alexander(small), small.strands))
    return examined, knot_words, len(forms), len(keys)


def orbit_key(word):
    """The census key of a word: the least word of its orbit."""
    return BraidWord(word.strands, min(_swap_orbit(word.strands, word.letters)))


class TestCanonicalForm:
    """The census key is the least word of the orbit under rotations and
    distant swaps, a canonical form of the class."""

    def test_rotation_invariance(self):
        word = BraidWord(3, (1, 1, 2, 1, 2, 2))
        forms = {
            orbit_key(BraidWord(3, word.letters[r:] + word.letters[:r]))
            for r in range(word.length)
        }
        assert len(forms) == 1

    def test_commutation_normalizes(self):
        assert orbit_key(BraidWord(4, (3, 1, 3, 1))) == orbit_key(BraidWord(4, (1, 3, 1, 3)))
        # in σ1 σ2 σ3 only the pair across the end, σ3 then σ1, is distant
        assert _swap_orbit(4, (1, 2, 3)) == {(1, 2, 3), (1, 3, 2)}
        assert orbit_key(parse_word("4: 3 2 1")) == parse_word("4: 1 2 3")

    def test_adjacent_letters_do_not_commute(self):
        assert orbit_key(BraidWord(3, (2, 1))) == orbit_key(BraidWord(3, (1, 2)))
        # equal via rotation; no swap of neighbouring indices joins two words
        assert _swap_orbit(3, (1, 2, 1, 2)) == {(1, 2, 1, 2)}
        assert orbit_key(BraidWord(3, (1, 1, 2, 2))) != orbit_key(BraidWord(3, (1, 2, 1, 2)))

    def test_fixed_point(self):
        word = orbit_key(BraidWord(4, (2, 1, 3, 2, 1, 3)))
        assert orbit_key(word) == word


class TestMinimizeWord:
    def test_greedy_chain(self):
        # σ3 goes first, exposing a single σ2, exposing the bare trefoil
        word = BraidWord(4, (1, 1, 1, 2, 3))
        out = minimize_word(word)
        assert out == torus_braid(2, 3)
        assert unknotting_number(out) == unknotting_number(word)

    def test_orbit_search_unlocks_reduction(self):
        # every generator of (1,2,1,2) repeats, but one braid move yields
        # (2,2,... ) wait: rotations + braid moves expose a single σ1
        word = BraidWord(3, (1, 2, 1, 2))
        out = minimize_word(word)
        assert out == torus_braid(2, 3)

    def test_irreducible_word_returned_unchanged(self):
        word = torus_braid(2, 5)
        assert minimize_word(word) == word

    @pytest.mark.parametrize(
        "cap, expected",
        [(11, "5: 1 2 1 4 3 2 4 3"), (12, "4: 1 3 2 1 3 2 1"), (13, "2: 1 1 1 1 1")],
    )
    def test_orbit_search_stops_at_the_class_cap(self, monkeypatch, cap, expected):
        # The first orbit search meets a reducible class once 12 classes may
        # be discovered, the second once 13 may: the cap counts classes
        # discovered, checked before each class is expanded.
        monkeypatch.setattr(enumeration, "_ORBIT_NODE_CAP", cap)
        assert minimize_word(parse_word("5: 1 2 1 4 3 2 4 3")) == parse_word(expected)


class TestEnumeration:
    def test_m0_unknot_only(self):
        result = enumerate_positive_knots(0)
        assert len(result) == 1
        only = result.classes[0]
        assert only.representative == BraidWord(1, ())
        assert not only.merged

    def test_m1_trefoil_only(self):
        result = enumerate_positive_knots(1)
        assert len(result) == 1
        only = result.classes[0]
        assert only.representative == torus_braid(2, 3)
        assert only.invariant_key[0] == 1
        assert not only.merged

    def test_m2_two_classes(self, census_m2):
        result = census_m2
        assert len(result) == 2
        reps = [cls.representative for cls in result]
        assert torus_braid(2, 5) in reps
        granny = BraidWord(3, (1, 1, 1, 2, 2, 2))
        assert granny in reps
        assert not any(cls.merged for cls in result)
        keys = {cls.invariant_key for cls in result}
        assert len(keys) == 2
        assert all(key[0] == 2 for key in keys)

    def test_m3_matches_its_golden(self, census_m3):
        assert format_enumeration_report(census_m3) == (GOLDEN / "enumerate_m3.txt").read_text()

    def test_m3_classes_are_the_known_knots(self, census_m3):
        # T(2,7), T(3,4), T(2,3)#T(2,5) and T(2,3)#T(2,3)#T(2,3); the
        # Alexander polynomial is multiplicative under connected sum.
        trefoil = dict(torus_alexander(2, 3).terms)
        expected = [
            torus_alexander(2, 7),
            torus_alexander(3, 4),
            normalized(poly_mul(trefoil, dict(torus_alexander(2, 5).terms))),
            normalized(poly_mul(poly_mul(trefoil, trefoil), trefoil)),
        ]
        found = [cls.invariant_key[1] for cls in census_m3]
        assert sorted(found, key=str) == sorted(expected, key=str)
        assert all(cls.invariant_key[0] == 3 for cls in census_m3)

    def test_every_class_has_the_right_unknotting_number(self, census_m2):
        censuses = (enumerate_positive_knots(0), enumerate_positive_knots(1), census_m2)
        for m, result in enumerate(censuses):
            for cls in result:
                assert unknotting_number(cls.representative) == m
                for member in cls.members:
                    assert unknotting_number(member) == m

    def test_class_count_stays_under_examined_ceiling(self, census_m2):
        censuses = (enumerate_positive_knots(0), enumerate_positive_knots(1), census_m2)
        for m, result in enumerate(censuses):
            ceiling = (2 * m) ** (4 * m) if m else 1
            assert len(result) <= ceiling

    def test_budget_exhaustion_carries_partial_result(self):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_positive_knots(2, budget=300)
        partial = info.value.partial
        assert partial.budget == 300
        assert partial.words_examined <= 300

    @pytest.mark.parametrize("budget", [3, 5, 100, 300, 418])
    def test_budget_partial_counts(self, budget):
        # The walk meets each rotation class once, at its least rotation; a
        # cut anywhere in it still holds every class met so far.  Budget 3
        # stops before the second class is met, 418 one word before the end.
        with pytest.raises(BudgetExceeded) as info:
            enumerate_positive_knots(2, budget=budget)
        partial = info.value.partial
        assert (
            partial.words_examined,
            partial.knot_words,
            partial.distinct_forms,
            len(partial.classes),
        ) == filtered_walk_prefix(2, budget)
        assert len(partial.classes) == (1 if budget == 3 else 2)

    def test_partial_is_built_when_first_read(self, monkeypatch):
        calls = []
        real = enumeration.minimize_word
        monkeypatch.setattr(enumeration, "minimize_word", lambda w: calls.append(w) or real(w))
        with pytest.raises(BudgetExceeded) as info:
            enumerate_positive_knots(2, budget=100)
        assert calls == []
        partial = info.value.partial
        assert len(calls) == partial.distinct_forms == 12
        assert info.value.partial is partial  # built once
        assert len(calls) == 12

    def test_orbits_partition_the_walked_knot_words(self, monkeypatch):
        # The census minimizes the least word of each orbit it opens.  Those
        # orbits, closed by brute force, hold every knot word the walk emits
        # exactly once and nothing else: no class is merged or split silently.
        opened = []
        real = enumeration.minimize_word
        monkeypatch.setattr(enumeration, "minimize_word", lambda w: opened.append(w) or real(w))
        result = enumerate_positive_knots(2)
        walked = {
            letters
            for n in range(1, 6)
            for letters in _census_words(n, n + 3)
            if is_knot(BraidWord(n, letters))
        }
        orbits = []
        for word in opened:
            orbit = {min(w[r:] + w[:r] for r in range(len(w))) for w in swap_orbit(word.letters)}
            assert word.letters == min(orbit)
            assert _swap_orbit(word.strands, word.letters) == orbit
            orbits.append(orbit)
        assert len(orbits) == result.distinct_forms == 14
        assert sum(map(len, orbits)) == result.knot_words == 68
        assert set().union(*orbits) == walked

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_a_domain_error(self, budget):
        with pytest.raises(DomainError):
            enumerate_positive_knots(1, budget=budget)

    def test_report_format(self):
        report = format_enumeration_report(enumerate_positive_knots(1))
        lines = report.splitlines()
        assert lines[0] == "positive braid knot enumeration"
        assert lines[1] == "unknotting number: 1"
        assert "classes: 1" in lines
        assert "  representative: 2: 1 1 1" in lines
        assert "  alexander: 1 - t + t^2" in lines
        assert lines[-1] == "end"


class TestPathSearch:
    def test_trefoil_to_unknot(self):
        trace = positive_path_search(torus_braid(2, 3), BraidWord(1, ()))
        assert replay(trace).length == 0
        assert trace.crossing_changes == 1
        assert verify_positive_path(trace)

    def test_lands_on_literal_target_letters(self):
        source = torus_braid(3, 4)
        target = torus_braid(2, 5)
        trace = positive_path_search(source, target)
        assert replay(trace) == target
        assert trace.crossing_changes == 1
        assert verify_positive_path(trace)

    def test_knot_checks_scale_with_the_path_not_the_candidates(self, monkeypatch):
        calls = []
        real = enumeration.unknotting_number
        monkeypatch.setattr(enumeration, "unknotting_number", lambda w: calls.append(w) or real(w))
        trace = positive_path_search(torus_braid(3, 5), torus_braid(2, 5))
        # The two endpoints, then two per step when the path is checked.
        assert len(calls) <= 2 + 2 * len(trace.steps)

    def test_source_equal_target(self):
        word = torus_braid(2, 3)
        trace = positive_path_search(word, word)
        assert not trace.steps

    def test_rejects_upward_search(self):
        with pytest.raises(DomainError):
            positive_path_search(torus_braid(2, 3), torus_braid(2, 5))

    def test_rejects_links(self):
        with pytest.raises(DomainError):
            positive_path_search(BraidWord(2, (1, 1)), BraidWord(1, ()))

    def test_budget_exhaustion(self):
        with pytest.raises(NotFoundWithinBudget):
            positive_path_search(torus_braid(3, 5), BraidWord(1, ()), max_nodes=10)

    @pytest.mark.parametrize("limits", [{"max_nodes": -1}, {"max_depth": -1}])
    def test_negative_budget_is_a_domain_error(self, limits):
        with pytest.raises(DomainError):
            positive_path_search(torus_braid(2, 3), BraidWord(2, (1,)), **limits)

    def test_zero_budgets_are_budgets(self):
        for limits in ({"max_nodes": 0}, {"max_depth": 0}):
            with pytest.raises(NotFoundWithinBudget):
                positive_path_search(torus_braid(2, 5), torus_braid(2, 3), **limits)

    @pytest.mark.parametrize(
        "source, target, nodes",
        [
            (torus_braid(3, 7), torus_braid(2, 7), 327),
            (
                parse_word("4: 1 3 2 3 2 3 2 1 3 2 3 1 2 1 2 3 2 3 2 1 3"),
                parse_word("4: 3 3 2 3 2 3 2 1 3 2 3 1 2 1 2 3 2 3 2"),
                5,
            ),
        ],
    )
    def test_smallest_node_budget_is_pinned(self, source, target, nodes):
        # max_nodes counts expanded classes, so the breadth-first order fixes
        # the least budget that reaches the target.
        assert replay(positive_path_search(source, target, max_nodes=nodes)) == target
        with pytest.raises(NotFoundWithinBudget) as info:
            positive_path_search(source, target, max_nodes=nodes - 1)
        assert str(info.value) == f"no path found within {nodes - 1} expanded states"

    def test_search_over_thousands_of_classes(self):
        trace = positive_path_search(torus_braid(3, 11), torus_braid(3, 10))
        assert (len(trace.steps), trace.crossing_changes) == (9, 1)
        assert verify_positive_path(trace)


class TestVerifyPositivePath:
    def test_unknot_traces_pass(self):
        for word in (torus_braid(2, 5), torus_braid(3, 4)):
            assert verify_positive_path(unknot(word))

    def test_link_initial_word_fails(self):
        trace = unknot(BraidWord(2, (1, 1)))
        assert verify_positive_path(trace) is False

    def test_corrupt_trace_fails(self):
        good = unknot(torus_braid(2, 3))
        bad = RewriteTrace(BraidWord(2, (1, 1, 1, 1, 1)), good.steps, good.final)
        assert verify_positive_path(bad) is False

    def test_non_unit_drop_detected(self):
        # forged claim: initial T(2,7) with a single cc jumping to (1,1,1);
        # the step really reaches (1,1,1,1,1), so the final word gives it away
        from gordian.rules import CROSSING_CHANGE, RewriteStep

        start = torus_braid(2, 7)
        jump = BraidWord(2, (1, 1, 1))
        step = RewriteStep(CROSSING_CHANGE, 0)
        forged = RewriteTrace(start, (step,), jump)
        assert verify_positive_path(forged) is False
