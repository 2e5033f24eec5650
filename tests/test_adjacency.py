"""Certified crossing-change paths between torus knots and the claim catalog."""

import hashlib
import math

import pytest

from gordian import (
    CLAIMED,
    NOT_COVERED,
    AdjacencyCertificate,
    BraidWord,
    DomainError,
    IllegalStep,
    ParseError,
    RewriteTrace,
    TorusParams,
    TraceBuilder,
    TraceCorrupt,
    adjacency_2_from_4,
    adjacency_3_from_4,
    adjacency_catalog,
    adjacency_ci,
    adjacency_cin,
    delete_link_subword,
    parse_certificate,
    replay,
    serialize_certificate,
    strip_top_strand,
    torus_braid,
    unknotting_number,
    verify_certificate,
)
from gordian import adjacency
from gordian.adjacency import endpoint_word
from gordian.moves import (
    arrange_blocks,
    form_letters,
    full_twist_letters,
    invert_program,
    mirror_program,
    peel_prog,
    region_levels,
    revform_letters,
    wrap,
)
from gordian.rules import DISTANT_SWAP
from gordian.words import ascending_run, descending_run, is_knot


def family_grid() -> list[AdjacencyCertificate]:
    """162 certificates: ``t34`` for odd b = 9…59, ``t24`` for odd b = 5…59,
    ``ci`` and ``cin`` for n = 2…5 and k = 1…3, and ``strip`` T(a, b) for
    a = 2…6 and coprime b < 30."""
    certs = [adjacency_3_from_4(b) for b in range(9, 60, 2)]
    certs += [adjacency_2_from_4(b) for b in range(5, 60, 2)]
    for n in range(2, 6):
        for k in range(1, 4):
            certs += [adjacency_ci(n, k), adjacency_cin(n, k)]
    certs += [
        strip_top_strand(TorusParams(a, b))
        for a in range(2, 7)
        for b in range(1, 30)
        if math.gcd(a, b) == 1
    ]
    return certs


@pytest.fixture(scope="module")
def grid():
    return family_grid()


def step_lines(trace: RewriteTrace) -> bytes:
    """The steps of a trace one by one, each spelled as a version-3 step line
    with its absolute position, whatever text the trace is written as."""
    lines = []
    for step in trace.steps:
        line = f"step: {step.kind}"
        if step.position is not None:
            line += f" pos={step.position}"
        if step.amount is not None:
            line += f" amount={step.amount}"
        lines.append(line + "\n")
    return "".join(lines).encode()


LARGE_MEMBERS = {
    "t34-129": lambda: adjacency_3_from_4(129),
    "t24-21": lambda: adjacency_2_from_4(21),
    "ci-4-1": lambda: adjacency_ci(4, 1),
    "cin-4-1": lambda: adjacency_cin(4, 1),
    "strip-5-13": lambda: strip_top_strand(TorusParams(5, 13)),
}


def check_cert(cert: AdjacencyCertificate) -> None:
    check = verify_certificate(cert)
    assert check.valid, check
    src, tgt = endpoint_word(cert.source), endpoint_word(cert.target)
    assert cert.claimed_cc == unknotting_number(src) - unknotting_number(tgt)


class TestManeuvers:
    """Block maneuvers of the constructions that the program tests of
    test_moves.py do not cover."""

    def test_wrap_commute(self):
        # The wrap cannot pass σ_1, so σ_1 passes the wrap.
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 1, 2)))
        arrange_blocks(tb, 0, [("letter", 1), ("wrap", 2)], [("wrap", 2), ("letter", 1)])
        assert tb.word.letters == (2, 1, 1, 2, 1)
        assert tb.crossing_changes == 0

    def test_wrap_commute_rejects_blocking_prefix(self):
        tb = TraceBuilder(BraidWord(3, (2, 2, 1, 1, 2)))
        with pytest.raises(IllegalStep, match="cannot pass each other"):
            arrange_blocks(tb, 0, [("letter", 2), ("wrap", 2)], [("wrap", 2), ("letter", 2)])
        assert tb.steps == ()

    def test_peel_inside_larger_word(self):
        tb = TraceBuilder(BraidWord(4, (3,) + full_twist_letters(3)))
        tb.run(peel_prog(3), 1)
        assert tb.word.letters == (3,) + wrap(2) + full_twist_letters(2)


class TestLayersToRunPower:
    """The last stage of ``ci`` and ``cin``: the layered form behind ``c``
    full twists Δ²_n becomes a run power, each level's twists going round
    the closure by block exchanges and one conjugation."""

    @pytest.mark.parametrize("mirrored", [False, True], ids=["ci", "cin"])
    @pytest.mark.parametrize("c", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ends_at_the_run_power(self, n, k, c, mirrored):
        layers, run = (revform_letters, ascending_run) if mirrored else (form_letters, descending_run)
        word = BraidWord(n, full_twist_letters(n) * c + layers(n, k))
        tb = TraceBuilder(word)
        adjacency._layers_to_run_power(tb, n, k, mirrored)
        assert tb.word.letters == full_twist_letters(n) * c + run(n - 1) * (n * k + 1)
        assert tb.crossing_changes == 0
        assert replay(tb.snapshot()) == tb.word

    @pytest.mark.parametrize("mirrored", [False, True], ids=["ci", "cin"])
    def test_each_piece_runs_as_one_run_of_its_cached_program(self, mirrored):
        n, k, c = 4, 2, 3
        flen = (n - 1) * (n * k + 1)
        start = c * n * (n - 1)
        layers = revform_letters if mirrored else form_letters
        tb = TraceBuilder(BraidWord(n, full_twist_letters(n) * c + layers(n, k)))
        adjacency._layers_to_run_power(tb, n, k, mirrored)
        # Each piece is recorded, in order, as one run of its own program;
        # the runs between them take the twists round the closure.
        pieces = []
        for _, before, _, after in reversed(region_levels(n, k)):
            for part in (after, before):
                pieces += invert_program(mirror_program(part, flen) if mirrored else part)
        assert len(pieces) > 10
        runs = iter(tb.snapshot().runs)
        assert all(any(run[0] is prog and run[1] == start + offset for run in runs) for prog, offset in pieces)


class TestSquareFamilies:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_square_plus_one(self, n, k):
        cert = adjacency_ci(n, k)
        assert cert.source == TorusParams(n + 1, (n * n - 1) * k + 1)
        assert cert.target == TorusParams(n, n * n * k + 1)
        assert cert.claimed_cc == n * (n - 1) * k // 2
        check_cert(cert)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_square_plus_n_plus_one(self, n, k):
        cert = adjacency_cin(n, k)
        assert cert.source == TorusParams(n + 1, (n * n - 1) * k + n)
        assert cert.target == TorusParams(n, n * n * k + n + 1)
        assert cert.claimed_cc == n * (n - 1) * k // 2
        check_cert(cert)

    def test_final_word_is_the_literal_target(self):
        cert = adjacency_ci(2, 1)
        assert replay(cert.trace) == torus_braid(2, 5)

    def test_domain(self):
        for bad in [(1, 1), (2, 0)]:
            with pytest.raises(DomainError):
                adjacency_ci(*bad)
            with pytest.raises(DomainError):
                adjacency_cin(*bad)


class TestFourStrandCongruences:
    @pytest.mark.parametrize(
        "b,target,count",
        [
            (9, TorusParams(3, 10), 3),
            (11, TorusParams(3, 13), 3),
            (13, TorusParams(3, 14), 5),
            (15, TorusParams(3, 17), 5),
            (21, TorusParams(3, 23), 8),
        ],
    )
    def test_three_from_four(self, b, target, count):
        cert = adjacency_3_from_4(b)
        assert cert.source == TorusParams(4, b)
        assert cert.target == target
        assert cert.claimed_cc == count
        check_cert(cert)

    @pytest.mark.parametrize(
        "b,target,count",
        [
            (5, TorusParams(2, 9), 2),
            (7, TorusParams(2, 11), 4),
            (9, TorusParams(2, 15), 5),
            (11, TorusParams(2, 17), 7),
        ],
    )
    def test_two_from_four(self, b, target, count):
        cert = adjacency_2_from_4(b)
        assert cert.source == TorusParams(4, b)
        assert cert.target == target
        assert cert.claimed_cc == count
        check_cert(cert)

    def test_domains(self):
        with pytest.raises(DomainError):
            adjacency_3_from_4(8)  # even: a link
        with pytest.raises(DomainError):
            adjacency_3_from_4(7)  # below the construction's floor
        with pytest.raises(DomainError):
            adjacency_2_from_4(6)
        with pytest.raises(DomainError):
            adjacency_2_from_4(3)


class TestStripTopStrand:
    def test_small_grid(self):
        for a in range(2, 6):
            for b in range(a + 1, 13):
                if math.gcd(a, b) != 1:
                    continue
                cert = strip_top_strand(TorusParams(a, b))
                assert cert.source == TorusParams(a, b)
                target = endpoint_word(cert.target)
                assert target.strands == a - 1
                assert is_knot(target)
                assert cert.claimed_cc == b // a, (a, b)
                check_cert(cert)

    def test_rejects_links(self):
        with pytest.raises(DomainError):
            strip_top_strand(TorusParams(2, 4))


class TestDeleteLinkSubword:
    @pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 4), (4, 5)])
    def test_full_twist_deletion(self, n, q):
        source = torus_braid(n, q)
        cert = delete_link_subword(source, BraidWord(n, full_twist_letters(n)))
        assert cert.claimed_cc == n * (n - 1) // 2
        assert endpoint_word(cert.target) == source
        check = verify_certificate(cert)
        assert check.valid

    def test_rejects_strand_mismatch(self):
        with pytest.raises(DomainError):
            delete_link_subword(torus_braid(2, 3), BraidWord(3, full_twist_letters(3)))

    def test_rejects_non_identity_tail(self):
        with pytest.raises(DomainError):
            delete_link_subword(torus_braid(2, 3), BraidWord(2, (1,)))

    def test_rejects_link_prefix(self):
        with pytest.raises(DomainError):
            delete_link_subword(BraidWord(2, (1, 1)), BraidWord(2, full_twist_letters(2)))


class TestCertificateFormat:
    def test_round_trip(self):
        cert = adjacency_ci(2, 1)
        text = serialize_certificate(cert)
        assert parse_certificate(text) == cert

    def test_round_trip_with_verification_summary(self):
        cert = adjacency_2_from_4(5)
        text = serialize_certificate(cert, verify_certificate(cert))
        assert "verification: strands=match length=match alexander=match" in text
        assert parse_certificate(text) == cert

    # The largest members the certify benchmark builds, pinned byte for byte
    # by the SHA-256 of their verified serialization (the goldens under
    # tests/golden cover only small members; these texts are up to 8 KB).
    @pytest.mark.parametrize(
        "build, length, digest",
        [
            (lambda: adjacency_3_from_4(129), 5242,
             "fbf80e6eca3ba8261bdfd8a68c71085148f36173152f5ae5c9f1b8410704ec48"),
            (lambda: adjacency_2_from_4(21), 2903,
             "3cc5f7510d9ab206d5bd47eacaf355d8cdcef436f306fc39671bfda73dfa1bd3"),
            (lambda: adjacency_ci(4, 1), 5293,
             "2ff7da9f424cebe2bd44533751ac79a68c4705f4e16322ac7c1ad7cd034e2515"),
            (lambda: adjacency_cin(4, 1), 7511,
             "adc099dc441a0ee2465eb6631d97a231c0e79c6e590ca507950c9f6793d2d612"),
            (lambda: strip_top_strand(TorusParams(5, 13)), 3603,
             "421c46b750c6a20bdd4707db53dcdd025cd5859f5d84a126e632b57f3a300bf4"),
        ],
        ids=["t34-129", "t24-21", "ci-4-1", "cin-4-1", "strip-5-13"],
    )
    def test_large_members_serialize_to_their_frozen_digest(self, build, length, digest):
        cert = build()
        text = serialize_certificate(cert, verify_certificate(cert)).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (length, digest)

    def test_family_grid_serializes_to_its_frozen_digest(self, grid):
        """Pin every construction's output on the grid of 162 certificates
        of :func:`family_grid`.  The constant is the SHA-256 of their
        verified serializations, concatenated.  A change that alters a
        construction or the trace text on purpose re-freezes it and says so
        in CHANGES.md."""
        digest = hashlib.sha256()
        for cert in grid:
            digest.update(serialize_certificate(cert, verify_certificate(cert)).encode())
        assert (len(grid), digest.hexdigest()) == (
            162,
            "ecab1a06e53467ab106a43b753d2d3ca7fc6a71b45759144067c0f6757d61dca",
        )

    # The steps themselves, apart from how the text writes them: a change of
    # the trace text alone re-freezes the digests above, never these.
    def test_family_grid_expands_to_its_frozen_steps(self, grid):
        digest = hashlib.sha256()
        for cert in grid:
            digest.update(step_lines(cert.trace))
        assert digest.hexdigest() == "576d05efbd85524f2cb1f41743d3a96f404841d0364d58bbf35b0381bb44341b"

    @pytest.mark.parametrize(
        "name, count, digest",
        [
            ("t34-129", 15522, "3bba95701f252f03c47df3b9d8b3a5e96f60b004949eb0aced795e1e81b977e8"),
            ("t24-21", 613, "9183c1a7820d0dd288651ea89591b9fc415c711191177ff8716ca39bebbb5ed8"),
            ("ci-4-1", 784, "d3ef715e09d4bedcdb5fd6a1a3dcad08c426a67e6a71914cdf481cc8c041d61d"),
            ("cin-4-1", 1105, "8e87a4ed67051fb6acf597b420cdbc0c5778bbb66a10862cea35aa5147ef58e4"),
            ("strip-5-13", 288, "367e1fb5f2310e16647bccf6fd22291367e9bf50a8cc4947591dd8a25c880371"),
        ],
        ids=list(LARGE_MEMBERS),
    )
    def test_large_members_expand_to_their_frozen_steps(self, name, count, digest):
        trace = LARGE_MEMBERS[name]().trace
        text = step_lines(trace)
        assert (len(trace.steps), hashlib.sha256(text).hexdigest()) == (count, digest)

    def test_tampered_count_fails_verification(self):
        cert = adjacency_ci(2, 1)
        forged = AdjacencyCertificate(cert.source, cert.target, cert.trace, cert.claimed_cc + 1)
        check = verify_certificate(forged)
        assert not check.cc_match
        assert not check.valid

    def test_wrong_target_fails_verification(self):
        cert = adjacency_ci(2, 1)
        forged = AdjacencyCertificate(cert.source, TorusParams(2, 7), cert.trace, cert.claimed_cc)
        check = verify_certificate(forged)
        assert not check.length_match
        assert not check.valid

    @pytest.mark.parametrize("cert, calls", [(adjacency_ci(2, 1), 0), (adjacency_cin(3, 1), 2)])
    def test_alexander_is_computed_only_off_the_target(self, monkeypatch, cert, calls):
        # ci 2 1 ends on the target letter for letter; cin 3 1 ends on
        # another word with the target's strands and length.
        counted = []
        real = adjacency.alexander
        monkeypatch.setattr(adjacency, "alexander", lambda w: counted.append(w) or real(w))
        check = verify_certificate(cert)
        assert (replay(cert.trace) == endpoint_word(cert.target)) == (calls == 0)
        assert len(counted) == calls
        assert check.alexander_match and check.valid

    def test_replay_failure_keeps_the_step_index(self):
        cert = adjacency_ci(2, 1)
        steps = cert.trace.steps[:3] + cert.trace.steps[4:]
        forged = AdjacencyCertificate(
            cert.source, cert.target, RewriteTrace(cert.trace.initial, steps, cert.trace.final), 1
        )
        check = verify_certificate(forged)
        assert not check.replay_ok and not check.valid
        assert check.failed_step == 3
        assert check.source_match and check.cc_match
        assert check.strands_match is None and check.alexander_match is None

    def test_every_moved_distant_swap_fails_replay(self):
        # ci 3 2 ends on 38 letters, so positions 0..36 fit every step; moving
        # any one distant-swap to any other of them must break the replay
        cert = adjacency_ci(3, 2)
        trace = cert.trace
        edits = 0
        for index, step in enumerate(trace.steps):
            if step.kind != DISTANT_SWAP:
                continue
            for position in range(37):
                if position == step.position:
                    continue
                moved = step._replace(position=position)
                steps = trace.steps[:index] + (moved,) + trace.steps[index + 1 :]
                with pytest.raises(TraceCorrupt):
                    replay(RewriteTrace(trace.initial, steps, trace.final))
                edits += 1
        assert edits == 4770

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_certificate("trace\nend\n")

    def test_parse_rejects_truncation(self):
        cert = adjacency_ci(2, 1)
        text = serialize_certificate(cert)
        with pytest.raises(ParseError):
            parse_certificate(text.rsplit("end", 1)[0])

    @pytest.mark.parametrize(
        "tail, valid",
        [
            ("\nend\n", True),
            ("\n\n  end \t\n\n", True),
            ("\nxend\n", False),
            ("\nend x\n", False),
            (" end\n", False),
        ],
    )
    def test_the_closing_end_is_a_line_of_its_own(self, tail, valid):
        text = serialize_certificate(adjacency_ci(2, 1))
        assert text.endswith("\nend\nend\n")
        edited = text[: -len("\nend\n")] + tail
        if valid:
            assert parse_certificate(edited) == parse_certificate(text)
        else:
            with pytest.raises(ParseError, match="certificate text must end with an 'end' line"):
                parse_certificate(edited)
        header = "\n".join(text.splitlines()[:5])
        with pytest.raises(ParseError, match="certificate text must end with an 'end' line"):
            parse_certificate(header + tail)

    # A count is 1-18 ASCII digits after one space, as the writer spells it.
    @pytest.mark.parametrize("value", ["x", "+1", "0_1", "\u0661", " 1 ", "1" * 19, "-1", ""])
    def test_a_malformed_claim_is_a_parse_error(self, value):
        text = serialize_certificate(adjacency_ci(2, 1))
        assert "\nclaimed_cc: 1\n" in text
        with pytest.raises(ParseError, match="malformed crossing-change claim"):
            parse_certificate(text.replace("\nclaimed_cc: 1\n", f"\nclaimed_cc: {value}\n"))

    def test_word_endpoints_serialize(self):
        word = torus_braid(2, 3)
        cert = delete_link_subword(word, BraidWord(2, full_twist_letters(2)))
        text = serialize_certificate(cert)
        parsed = parse_certificate(text)
        assert parsed.target == word
        assert parse_certificate(serialize_certificate(parsed)) == parsed


class TestCatalog:
    def test_equal_parameters(self):
        answer = adjacency_catalog(TorusParams(3, 4), TorusParams(3, 4))
        assert answer.verdict == CLAIMED
        assert answer.basis == "equal-parameters"
        assert verify_certificate(answer.certificate).valid

    def test_unknot_target_gets_unknotting_sequence(self):
        answer = adjacency_catalog(TorusParams(1, 1), TorusParams(3, 4))
        assert answer.verdict == CLAIMED
        assert answer.basis == "unknotting-sequence"
        assert verify_certificate(answer.certificate).valid

    def test_square_family_match(self):
        answer = adjacency_catalog(TorusParams(2, 5), TorusParams(3, 4))
        assert (answer.verdict, answer.basis) == (CLAIMED, "square-plus-one-family")
        assert verify_certificate(answer.certificate).valid

    def test_square_plus_n_match_swapped_order(self):
        # parameter order inside each pair does not matter
        answer = adjacency_catalog(TorusParams(7, 2), TorusParams(5, 3))
        assert (answer.verdict, answer.basis) == (CLAIMED, "square-plus-n-plus-one-family")
        assert verify_certificate(answer.certificate).valid

    def test_congruence_family_matches(self):
        answer = adjacency_catalog(TorusParams(3, 14), TorusParams(4, 13))
        assert (answer.verdict, answer.basis) == (CLAIMED, "three-vs-four-strand-bound")
        assert verify_certificate(answer.certificate).valid
        answer = adjacency_catalog(TorusParams(2, 9), TorusParams(4, 5))
        assert (answer.verdict, answer.basis) == (CLAIMED, "two-vs-four-strand-bound")
        assert verify_certificate(answer.certificate).valid

    def test_same_strand_count_deletion(self):
        answer = adjacency_catalog(TorusParams(3, 4), TorusParams(3, 7))
        assert (answer.verdict, answer.basis) == (CLAIMED, "full-twist-deletion")
        assert verify_certificate(answer.certificate).valid

    def test_inequality_only_claims_have_no_certificate(self):
        answer = adjacency_catalog(TorusParams(2, 5), TorusParams(3, 7))
        assert (answer.verdict, answer.basis) == (CLAIMED, "parameter-monotonicity")
        assert answer.certificate is None
        answer = adjacency_catalog(TorusParams(2, 9), TorusParams(3, 8))
        assert (answer.verdict, answer.basis) == (CLAIMED, "two-vs-three-strand-bound")
        assert answer.certificate is None

    def test_not_covered(self):
        answer = adjacency_catalog(TorusParams(3, 100), TorusParams(4, 5))
        assert answer.verdict == NOT_COVERED
        assert answer.basis is None and answer.certificate is None

    def test_rejects_link_parameters(self):
        with pytest.raises(DomainError):
            adjacency_catalog(TorusParams(2, 4), TorusParams(3, 4))
