"""The five rewrite rules, trace building, replay, and serialization."""

import pytest

from gordian import (
    BraidWord,
    IllegalStep,
    ParseError,
    RewriteStep,
    RewriteTrace,
    TraceBuilder,
    TraceCorrupt,
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    apply_step,
    parse_trace,
    replay,
    serialize_trace,
    torus_braid,
)


class TestDistantSwap:
    def test_swaps_commuting_letters(self):
        word = BraidWord(4, (1, 3, 2))
        assert apply_step(word, RewriteStep(DISTANT_SWAP, 0)) == BraidWord(4, (3, 1, 2))

    def test_rejects_adjacent_indices(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(3, (1, 2)), RewriteStep(DISTANT_SWAP, 0))

    def test_rejects_equal_indices(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(2, (1, 1)), RewriteStep(DISTANT_SWAP, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(4, (1, 3)), RewriteStep(DISTANT_SWAP, 1))


def braid_direction(word: BraidWord) -> str:
    """The direction a builder infers and records for the braid move at 0."""
    tb = TraceBuilder(word)
    tb.neighbor_braid(0)
    return tb.steps[0].direction


class TestNeighborBraid:
    def test_forward(self):
        word = BraidWord(3, (1, 2, 1))
        assert braid_direction(word) == "forward"
        assert apply_step(word, RewriteStep(NEIGHBOR_BRAID, 0)) == BraidWord(3, (2, 1, 2))

    def test_backward(self):
        word = BraidWord(3, (2, 1, 2))
        assert braid_direction(word) == "backward"
        assert apply_step(word, RewriteStep(NEIGHBOR_BRAID, 0)) == BraidWord(3, (1, 2, 1))

    def test_involution(self):
        word = BraidWord(4, (3, 1, 2, 1, 3))
        once = apply_step(word, RewriteStep(NEIGHBOR_BRAID, 1))
        assert apply_step(once, RewriteStep(NEIGHBOR_BRAID, 1)) == word

    def test_rejects_non_pattern(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(3, (1, 1, 2)), RewriteStep(NEIGHBOR_BRAID, 0))


class TestConjugate:
    def test_rotates_left(self):
        word = BraidWord(3, (1, 2, 2))
        assert apply_step(word, RewriteStep(CONJUGATE, amount=1)) == BraidWord(3, (2, 2, 1))

    def test_amount_wraps_modulo_length(self):
        word = BraidWord(3, (1, 2, 2))
        once = apply_step(word, RewriteStep(CONJUGATE, amount=1))
        assert apply_step(word, RewriteStep(CONJUGATE, amount=4)) == once

    def test_full_rotation_is_identity(self):
        word = BraidWord(3, (1, 2, 2))
        assert apply_step(word, RewriteStep(CONJUGATE, amount=3)) == word


class TestDestabilize:
    def test_removes_unique_top_generator(self):
        word = BraidWord(3, (1, 2, 1))
        assert apply_step(word, RewriteStep(DESTABILIZE)) == BraidWord(2, (1, 1))

    def test_rejects_repeated_top_generator(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(3, (2, 1, 2)), RewriteStep(DESTABILIZE))

    def test_rejects_missing_top_generator(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(3, (1, 1)), RewriteStep(DESTABILIZE))

    def test_rejects_single_strand(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(1, ()), RewriteStep(DESTABILIZE))


class TestCrossingChange:
    def test_deletes_adjacent_equal_pair(self):
        word = BraidWord(2, (1, 1, 1))
        assert apply_step(word, RewriteStep(CROSSING_CHANGE, 0)) == BraidWord(2, (1,))

    def test_rejects_unequal_pair(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(3, (1, 2)), RewriteStep(CROSSING_CHANGE, 0))

    def test_preserves_permutation(self):
        from gordian import closure_info

        word = BraidWord(3, (2, 2, 1, 2))
        after = apply_step(word, RewriteStep(CROSSING_CHANGE, 0))
        assert closure_info(after).permutation == closure_info(word).permutation


class TestAccounting:
    """Each rule's effect on (length, strands)."""

    def test_isotopy_rules_preserve_both(self):
        word = BraidWord(4, (1, 3, 2, 1, 2))
        for after in (
            apply_step(word, RewriteStep(DISTANT_SWAP, 0)),
            apply_step(word, RewriteStep(NEIGHBOR_BRAID, 2)),
            apply_step(word, RewriteStep(CONJUGATE, amount=2)),
        ):
            assert after.length == word.length
            assert after.strands == word.strands

    def test_destabilize_drops_one_of_each(self):
        word = BraidWord(3, (1, 2, 1))
        after = apply_step(word, RewriteStep(DESTABILIZE))
        assert after.length == word.length - 1
        assert after.strands == word.strands - 1

    def test_crossing_change_drops_length_by_two(self):
        word = BraidWord(2, (1, 1, 1))
        after = apply_step(word, RewriteStep(CROSSING_CHANGE, 1))
        assert after.length == word.length - 2
        assert after.strands == word.strands


class TestTraceBuilder:
    def test_records_and_replays(self):
        tb = TraceBuilder(BraidWord(2, (1, 1, 1)))
        tb.crossing_change(1)
        tb.destabilize()
        trace = tb.snapshot()
        assert trace.crossing_changes == 1
        assert replay(trace) == BraidWord(1, ())
        assert trace.final == BraidWord(1, ())

    def test_conjugate_by_zero_records_nothing(self):
        tb = TraceBuilder(BraidWord(3, (1, 2)))
        tb.conjugate(0)
        tb.conjugate(2)  # full length, also a no-op
        assert len(tb.snapshot().steps) == 0

    def test_neighbor_braid_records_the_direction_it_finds(self):
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 2)))
        tb.neighbor_braid(1)
        tb.apply(RewriteStep(NEIGHBOR_BRAID, 1, "forward"))
        assert [step.direction for step in tb.steps] == ["backward", "forward"]
        assert replay(tb.snapshot()) == BraidWord(3, (1, 2, 1, 2))

    def test_neighbor_braid_rejects_a_wrong_direction(self):
        tb = TraceBuilder(BraidWord(3, (1, 2, 1)))
        with pytest.raises(IllegalStep):
            tb.apply(RewriteStep(NEIGHBOR_BRAID, 0, "backward"))
        assert tb.letters == [1, 2, 1] and not tb.steps

    def test_words_property_lists_the_ride(self):
        tb = TraceBuilder(BraidWord(2, (1, 1, 1)))
        tb.crossing_change(0)
        trace = tb.snapshot()
        assert trace.words == (BraidWord(2, (1, 1, 1)), BraidWord(2, (1,)))

    def test_snapshot_keeps_endpoints_and_steps_only(self):
        tb = TraceBuilder(BraidWord(3, (1, 1, 2, 1)))
        tb.crossing_change(0)
        tb.destabilize()
        trace = tb.snapshot()
        assert trace.initial == BraidWord(3, (1, 1, 2, 1))
        assert trace.final == BraidWord(2, (1,))
        assert all(isinstance(step, RewriteStep) for step in trace.steps)
        assert tb.crossing_changes == trace.crossing_changes == 1

    def test_builder_counts_crossing_changes_as_it_goes(self):
        tb = TraceBuilder(BraidWord(2, (1, 1, 1, 1, 1)))
        assert tb.crossing_changes == 0
        tb.crossing_change(0)
        assert tb.crossing_changes == 1
        tb.conjugate(1)
        tb.crossing_change(0)
        assert tb.crossing_changes == 2


class TestTrustedResults:
    """Rule outputs skip re-validation; they must still be valid words."""

    def test_rule_outputs_match_validated_words(self):
        word = BraidWord(4, (1, 2, 1, 3, 3, 1))
        for after in (
            apply_step(word, RewriteStep(NEIGHBOR_BRAID, 0)),
            apply_step(word, RewriteStep(DISTANT_SWAP, 2)),
            apply_step(word, RewriteStep(CONJUGATE, amount=4)),
            apply_step(word, RewriteStep(CROSSING_CHANGE, 3)),
            apply_step(BraidWord(4, (1, 2, 1, 3, 1)), RewriteStep(DESTABILIZE)),
        ):
            assert BraidWord(after.strands, after.letters) == after
            assert isinstance(after.letters, tuple)


class TestApplyStep:
    def test_dispatches_each_kind(self):
        word = BraidWord(3, (1, 2, 1))
        assert apply_step(word, RewriteStep(NEIGHBOR_BRAID, position=0)) == BraidWord(
            3, (2, 1, 2)
        )
        assert apply_step(word, RewriteStep(CONJUGATE, amount=1)) == BraidWord(3, (2, 1, 1))
        assert apply_step(word, RewriteStep(DESTABILIZE)) == BraidWord(2, (1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(IllegalStep):
            apply_step(BraidWord(2, (1,)), RewriteStep("untie"))


class TestSerialization:
    def test_round_trip(self):
        tb = TraceBuilder(torus_braid(3, 4))
        tb.neighbor_braid(0)
        tb.conjugate(3)
        trace = tb.snapshot()
        again = parse_trace(serialize_trace(trace))
        assert again == trace

    def test_empty_trace_round_trip(self):
        word = BraidWord(2, (1,))
        trace = RewriteTrace(word, (), word)
        assert parse_trace(serialize_trace(trace)) == trace

    def test_writes_version_2(self):
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 1, 1)))
        tb.neighbor_braid(0)
        tb.conjugate(1)
        tb.crossing_change(2)
        assert serialize_trace(tb.snapshot()).splitlines() == [
            "trace v2",
            "initial: 3: 1 2 1 1 1",
            "step: neighbor-braid pos=0 direction=forward",
            "step: conjugate amount=1",
            "step: crossing-change pos=2",
            "final: 3: 1 2 2",
            "crossing_changes: 1",
            "end",
        ]

    def test_v2_wrong_final_detected_after_the_last_step(self):
        text = (
            "trace v2\n"
            "initial: 2: 1 1 1\n"
            "step: crossing-change pos=1\n"
            "final: 2: 1 1 1\n"
            "crossing_changes: 1\n"
            "end\n"
        )
        with pytest.raises(TraceCorrupt) as info:
            replay(parse_trace(text))
        assert info.value.step_index == 1

    def test_v2_requires_final_line(self):
        text = "trace v2\ninitial: 2: 1 1 1\nstep: crossing-change pos=1\ncrossing_changes: 1\nend\n"
        with pytest.raises(ParseError):
            parse_trace(text)

    def test_v2_rejects_result_words_on_step_lines(self):
        text = (
            "trace v2\n"
            "initial: 2: 1 1 1\n"
            "step: crossing-change pos=1 -> 2: 1\n"
            "final: 2: 1\n"
            "crossing_changes: 1\n"
            "end\n"
        )
        with pytest.raises(ParseError):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "step: crossing-change pos=x",
            "step: conjugate amount=x",
            "step: conjugate amount=1.5",
        ],
    )
    def test_malformed_numbers_are_parse_errors(self, line):
        text = f"trace v2\ninitial: 2: 1 1 1\n{line}\nfinal: 2: 1\ncrossing_changes: 0\nend\n"
        with pytest.raises(ParseError, match="malformed"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "step: destabilize pos=7 amount=3",
            "step: destabilize direction=forward",
            "step: distant-swap pos=0 amount=1",
            "step: distant-swap pos=0 direction=forward",
            "step: crossing-change pos=0 direction=backward",
            "step: conjugate amount=1 pos=0",
            "step: neighbor-braid pos=0 direction=forward amount=2",
        ],
    )
    def test_parameters_a_rule_does_not_take_are_parse_errors(self, line):
        text = f"trace v2\ninitial: 2: 1\n{line}\nfinal: 1:\ncrossing_changes: 0\nend\n"
        with pytest.raises(ParseError, match="takes no"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "step: crossing-change pos=2 pos=0",
            "step: conjugate amount=1 amount=1",
            "step: neighbor-braid direction=forward pos=0 direction=backward",
        ],
    )
    def test_repeated_parameters_are_parse_errors(self, line):
        text = f"trace v2\ninitial: 3: 1 1 1\n{line}\nfinal: 3: 1\ncrossing_changes: 1\nend\n"
        with pytest.raises(ParseError, match="repeated"):
            parse_trace(text)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_trace("initial: 2: 1\nend\n")

    def test_corrupt_count_detected(self):
        text = (
            "trace v2\n"
            "initial: 2: 1 1 1\n"
            "step: crossing-change pos=1\n"
            "final: 2: 1\n"
            "crossing_changes: 2\n"
            "end\n"
        )
        with pytest.raises(ParseError, match="crossing-change total"):
            parse_trace(text)

    def test_illegal_recorded_step_detected(self):
        text = (
            "trace v2\n"
            "initial: 3: 1 2\n"
            "step: distant-swap pos=0\n"
            "final: 3: 2 1\n"
            "crossing_changes: 0\n"
            "end\n"
        )
        trace = parse_trace(text)
        with pytest.raises(TraceCorrupt) as info:
            replay(trace)
        assert info.value.step_index == 0
