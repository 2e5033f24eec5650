"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each criterion is exercised at its stated scale and tolerance; all checks are
exact equalities unless the criterion itself names a time or search budget.
"""

import functools
import itertools
import math
import random
import time
from pathlib import Path

from gordian import (
    BraidWord,
    RewriteStep,
    adjacency_2_from_4,
    adjacency_3_from_4,
    adjacency_ci,
    adjacency_cin,
    alexander,
    delete_link_subword,
    enumerate_positive_knots,
    legal_moves,
    minimize_word,
    replay,
    strip_top_strand,
    torus_alexander,
    torus_braid,
    TorusParams,
    unknot,
    unknotting_number,
    verify_certificate,
    verify_positive_path,
)
from gordian.adjacency import endpoint_word
from gordian.moves import full_twist_letters
from gordian.rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    apply_step,
)
from gordian.enumeration import format_enumeration_report
from gordian.words import ascending_run, closure_info
from oracles import OrbitLeast

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, name: str, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS [{time.perf_counter() - start:.2f}s]")


def coprime_pairs(p_range, q_range):
    for p in p_range:
        for q in q_range:
            if p < q and math.gcd(p, q) == 1:
                yield p, q


def random_word(rng: random.Random, max_strands=5, max_length=12) -> BraidWord:
    strands = rng.randint(2, max_strands)
    length = rng.randint(1, max_length)
    return BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))


def legal_steps(word: BraidWord, with_changes: bool):
    """(kind, apply) for every recipe of ``legal_moves`` and every rotation."""
    recipes = [recipe for recipe, _, _ in legal_moves(word.strands, word.letters)]
    recipes += [(RewriteStep(CONJUGATE, amount=amount),) for amount in range(1, word.length)]
    return [
        (recipe[-1].kind, lambda w, r=recipe: functools.reduce(apply_step, r, w))
        for recipe in recipes
        if with_changes or recipe[-1].kind != CROSSING_CHANGE
    ]


def test_criterion_01_unknotting_count_exactness():
    def check():
        start = time.perf_counter()
        for p, q in coprime_pairs(range(2, 7), range(3, 8)):
            trace = unknot(torus_braid(p, q))
            assert replay(trace).length == 0, (p, q)
            assert trace.crossing_changes == (p - 1) * (q - 1) // 2, (p, q)
        assert time.perf_counter() - start < 10.0, "exceeded the 10 s budget"

    report(1, "unknotting-count exactness on the torus grid", check)


def test_criterion_02_square_plus_one_family():
    def check():
        start = time.perf_counter()
        for n in (2, 3, 4):
            for k in (1, 2):
                cert = adjacency_ci(n, k)
                assert cert.claimed_cc == n * (n - 1) * k // 2, (n, k)
                assert cert.target == TorusParams(n, n * n * k + 1), (n, k)
                assert replay(cert.trace) == torus_braid(n, n * n * k + 1), (n, k)
                check_result = verify_certificate(cert)  # includes the oracle
                assert check_result.valid and check_result.alexander_match, (n, k)
        assert time.perf_counter() - start < 30.0, "exceeded the 30 s budget"

    report(2, "square-plus-one family certificates", check)


def test_criterion_03_square_plus_n_plus_one_family():
    def check():
        for n in (2, 3, 4):
            for k in (1, 2):
                cert = adjacency_cin(n, k)
                q = n * n * k + n + 1
                assert cert.claimed_cc == n * (n - 1) * k // 2, (n, k)
                assert cert.target == TorusParams(n, q), (n, k)
                # the trace ends on the ascending presentation of T(n, q);
                # the oracle confirms it is the same closure as the standard one
                final = replay(cert.trace)
                assert final.letters == ascending_run(n - 1) * q, (n, k)
                target = torus_braid(n, q)
                assert (final.strands, final.length) == (target.strands, target.length)
                assert alexander(final) == alexander(target), (n, k)
                check_result = verify_certificate(cert)
                assert check_result.valid and check_result.alexander_match, (n, k)

    report(3, "square-plus-n-plus-one family certificates", check)


def test_criterion_04_three_strand_from_four_strand():
    expected_counts = {9: 3, 11: 3, 13: 5, 15: 5, 17: 6, 19: 6, 21: 8, 23: 8}

    def check():
        for b, count in expected_counts.items():
            cert = adjacency_3_from_4(b)
            assert cert.source == TorusParams(4, b)
            assert cert.claimed_cc == count, b
            assert verify_certificate(cert).valid, b

    report(4, "T(3,·) from T(4,·) congruence certificates", check)


def test_criterion_05_two_strand_from_four_strand():
    expected_counts = {5: 2, 7: 4, 9: 5, 11: 7}

    def check():
        for b, count in expected_counts.items():
            cert = adjacency_2_from_4(b)
            assert cert.source == TorusParams(4, b)
            assert cert.claimed_cc == count, b
            assert verify_certificate(cert).valid, b

    report(5, "T(2,·) from T(4,·) congruence certificates", check)


def test_criterion_06_strip_top_strand():
    def check():
        for a, b in coprime_pairs(range(2, 12), range(3, 13)):
            cert = strip_top_strand(TorusParams(a, b))
            assert cert.claimed_cc == b // a, (a, b)
            assert verify_certificate(cert).valid, (a, b)

    report(6, "top-strand stripping costs exactly floor(b/a)", check)


def test_criterion_07_delete_full_twist():
    def check():
        for n in (2, 3, 4):
            for q in range(n + 1, n + 6):
                if math.gcd(n, q) != 1:
                    continue
                source = torus_braid(n, q)
                cert = delete_link_subword(source, BraidWord(n, full_twist_letters(n)))
                assert cert.claimed_cc == n * (n - 1) // 2, (n, q)
                final = replay(cert.trace)
                assert final == source, (n, q)
                assert alexander(final) == alexander(source), (n, q)
                assert verify_certificate(cert).valid, (n, q)

    report(7, "full-twist deletion returns the original invariants", check)


def test_criterion_08_oracle_soundness():
    def check():
        for p, q in coprime_pairs(range(2, 6), range(3, 10)):
            assert alexander(torus_braid(p, q)) == torus_alexander(p, q), (p, q)
        rng = random.Random(0x5EED)
        word = random_word(rng)
        applied = 0
        while applied < 1000:
            steps = legal_steps(word, with_changes=False)
            if not steps:
                word = random_word(rng)
                continue
            _kind, apply_fn = rng.choice(steps)
            after = apply_fn(word)
            assert alexander(after) == alexander(word), word
            word = after
            applied += 1
            if word.length == 0 or rng.random() < 0.05:
                word = random_word(rng)

    report(8, "Alexander oracle equals the closed form and is move-invariant", check)


def test_criterion_09_rule_calculus_properties():
    accounting = {
        DISTANT_SWAP: (0, 0),
        NEIGHBOR_BRAID: (0, 0),
        CONJUGATE: (0, 0),
        DESTABILIZE: (-1, -1),
        CROSSING_CHANGE: (-2, 0),
    }

    def check():
        rng = random.Random(0xACC0)
        checked = 0
        while checked < 10000:
            word = random_word(rng)
            steps = legal_steps(word, with_changes=True)
            if not steps:
                continue
            kind, apply_fn = rng.choice(steps)
            after = apply_fn(word)
            d_len, d_strands = accounting[kind]
            assert after.length - word.length == d_len, kind
            assert after.strands - word.strands == d_strands, kind
            assert closure_info(after).components == closure_info(word).components, kind
            checked += 1

    report(9, "rule accounting and component preservation on 10000 pairs", check)


def test_criterion_10_enumeration(census_m2):
    def brute_force_m1_classes():
        """Full exhaustion at the m=1 scale: 1 + 2**4 candidate words."""
        candidates = [BraidWord(2, (1, 1, 1))]
        for letters in itertools.product((1, 2), repeat=4):
            candidates.append(BraidWord(3, letters))
        least = OrbitLeast()
        forms = set()
        for word in candidates:
            info = closure_info(word)
            if not info.is_knot or unknotting_number(word) != 1:
                continue
            if set(word.letters) != set(range(1, word.strands)):
                continue
            small = minimize_word(word)
            forms.add(BraidWord(small.strands, least[small.letters]))
        return forms

    def check():
        result0 = enumerate_positive_knots(0)
        assert [cls.representative for cls in result0] == [BraidWord(1, ())]
        assert len(result0) <= 1  # (2m)^(4m) degenerates to 1 at m=0

        result1 = enumerate_positive_knots(1)
        assert [cls.representative for cls in result1] == [torus_braid(2, 3)]
        members1 = {member for cls in result1 for member in cls.members}
        assert members1 == brute_force_m1_classes()
        assert len(result1) <= (2 * 1) ** (4 * 1)

        result2 = census_m2
        assert len(result2) <= (2 * 2) ** (4 * 2)
        golden = (GOLDEN / "enumerate_m2.txt").read_text()
        assert format_enumeration_report(result2) == golden

    report(10, "enumeration matches brute force, the golden file, and the bound", check)


def test_criterion_11_positive_path_property():
    def check():
        for p, q in coprime_pairs(range(2, 7), range(3, 8)):
            assert verify_positive_path(unknot(torus_braid(p, q))), (p, q)
        rng = random.Random(0xBEAD)
        checked = 0
        while checked < 50:
            word = random_word(rng, max_strands=4, max_length=10)
            if not closure_info(word).is_knot:
                continue
            assert verify_positive_path(unknot(word)), word
            checked += 1

    report(11, "every unknotting trace is a verified positive path", check)
