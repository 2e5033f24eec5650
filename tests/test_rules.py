"""The five rewrite rules, trace building, replay, and serialization."""

import copy
import pickle
import time
from pathlib import Path

import pytest

from gordian import rules
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
    adjacency_3_from_4,
    apply_step,
    parse_certificate,
    parse_trace,
    parse_word,
    replay,
    serialize_certificate,
    serialize_trace,
    torus_braid,
    unknot,
)

GOLDEN = Path(__file__).parent / "golden"


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


class TestNeighborBraid:
    def test_forward(self):
        word = BraidWord(3, (1, 2, 1))
        assert apply_step(word, RewriteStep(NEIGHBOR_BRAID, 0)) == BraidWord(3, (2, 1, 2))

    def test_backward(self):
        word = BraidWord(3, (2, 1, 2))
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
        from gordian.words import closure_info

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

    def test_conjugate_without_an_amount_is_illegal_as_in_replay(self):
        word = BraidWord(3, (1, 2, 1))
        step = RewriteStep(CONJUGATE)
        with pytest.raises(IllegalStep, match="integer amount"):
            apply_step(word, step)
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match="integer amount"):
            tb.apply(step)
        assert tb.letters == [1, 2, 1] and not tb.steps

    def test_nonzero_rotation_of_the_empty_word_is_illegal_as_in_replay(self):
        word = BraidWord(1, ())
        step = RewriteStep(CONJUGATE, amount=1)
        with pytest.raises(IllegalStep, match="empty word"):
            apply_step(word, step)
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match="empty word"):
            tb.apply(step)
        tb.conjugate(0)
        assert not tb.steps

    def test_steps_rebuilt_on_recording_are_rewrite_steps(self):
        # Shifted steps and reduced rotations are rebuilt as they are
        # recorded; they must be the steps the constructor builds.
        tb = TraceBuilder(parse_word("4: 1 1 1 3 2 3 2 2"))
        tb.run(
            (
                RewriteStep(DISTANT_SWAP, 0),
                RewriteStep(NEIGHBOR_BRAID, 2),
                RewriteStep(NEIGHBOR_BRAID, 2),
                RewriteStep(CROSSING_CHANGE, 4),
            ),
            2,
        )
        tb.run((RewriteStep(CONJUGATE, amount=7),))
        expected = [
            RewriteStep(DISTANT_SWAP, 2),
            RewriteStep(NEIGHBOR_BRAID, 4),
            RewriteStep(NEIGHBOR_BRAID, 4),
            RewriteStep(CROSSING_CHANGE, 6),
            RewriteStep(CONJUGATE, amount=1),
        ]
        assert [type(step) for step in tb.steps] == [RewriteStep] * len(expected)
        assert [step._asdict() for step in tb.steps] == [step._asdict() for step in expected]
        trace = tb.snapshot()
        assert trace.final == parse_word("4: 1 3 1 2 3 1")
        parsed = parse_trace(serialize_trace(trace))
        assert parsed == trace and replay(parsed) == trace.final

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


class TestBoolParameters:
    """``isinstance(True, int)`` holds, but a bool is neither a position nor
    an amount: the step must fail everywhere, not be recorded as ``pos=True``."""

    @pytest.mark.parametrize(
        "text, step",
        [
            ("4: 1 1 3", RewriteStep(DISTANT_SWAP, 1)),
            ("3: 2 1 2 1", RewriteStep(NEIGHBOR_BRAID, 1)),
            ("3: 2 1 1", RewriteStep(CROSSING_CHANGE, 1)),
            ("3: 1 2", RewriteStep(CONJUGATE, amount=1)),
        ],
    )
    def test_true_in_place_of_1_is_illegal(self, text, step):
        word = parse_word(text)
        after = apply_step(word, step)  # the same step with the integer 1 is legal
        if step.kind == CONJUGATE:
            step = step._replace(amount=True)
        else:
            step = step._replace(position=True)
        with pytest.raises(IllegalStep, match="requires an integer"):
            apply_step(word, step)
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match="requires an integer"):
            tb.apply(step)
        assert tb.word == word and not tb.steps
        with pytest.raises(TraceCorrupt) as info:
            replay(RewriteTrace(word, (step,), after))
        assert info.value.step_index == 0


class TestRunOffset:
    """A program runs at an ``int`` offset, and a rule method at an ``int``
    position; anything else is refused before a step applies or is recorded,
    never recorded as ``pos=True`` or left to fail inside the kernel."""

    BAD = [None, True, 1.0, "1"]

    @pytest.mark.parametrize("offset", BAD)
    def test_run_refuses_an_offset_that_is_not_an_int(self, offset):
        word = parse_word("4: 1 3 1 3")
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match="integer offset"):
            tb.run((RewriteStep(DISTANT_SWAP, 0),), offset)
        assert tb.word == word and not tb.snapshot().steps

    @pytest.mark.parametrize("position", BAD)
    @pytest.mark.parametrize(
        "text, method",
        [("4: 1 3 1 3", "distant_swap"), ("3: 2 1 2 1", "neighbor_braid"), ("3: 2 1 1", "crossing_change")],
    )
    def test_rule_methods_refuse_a_position_that_is_not_an_int(self, text, method, position):
        word = parse_word(text)
        getattr(TraceBuilder(word), method)(1)  # the integer position is legal
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match="integer offset"):
            getattr(tb, method)(position)
        assert tb.word == word and not tb.snapshot().steps


class TestStrayParameters:
    """A step that carries a parameter its rule does not take is illegal
    everywhere, worded as parse_trace words its step line, so the builder
    never records a step whose trace cannot be read back.  A parameter is
    there when it is not None, even when it is zero or False."""

    @pytest.mark.parametrize(
        "text, step, key",
        [
            ("4: 1 3", RewriteStep(DISTANT_SWAP, 0, amount=0), "amount"),
            ("4: 1 3", RewriteStep(DISTANT_SWAP, 0, amount=3), "amount"),
            ("3: 1 2 1", RewriteStep(NEIGHBOR_BRAID, 0, amount=5), "amount"),
            ("3: 1 2", RewriteStep(CONJUGATE, 0, amount=1), "pos"),
            ("3: 1 2", RewriteStep(CONJUGATE, False, amount=1), "pos"),
            ("3: 1 2", RewriteStep(DESTABILIZE, 4), "pos"),
            ("3: 1 2", RewriteStep(DESTABILIZE, amount=0), "amount"),
            ("3: 1 2", RewriteStep(DESTABILIZE, amount=2), "amount"),
            ("2: 1 1", RewriteStep(CROSSING_CHANGE, 0, amount=0), "amount"),
            ("2: 1 1", RewriteStep(CROSSING_CHANGE, 0, amount=1), "amount"),
        ],
    )
    def test_illegal_in_the_builder_apply_step_and_replay(self, text, step, key):
        word = parse_word(text)
        field = "position" if key == "pos" else key
        after = apply_step(word, step._replace(**{field: None}))  # legal without it
        message = f"a {step.kind} step takes no '{key}' parameter"
        with pytest.raises(IllegalStep) as info:
            apply_step(word, step)
        assert str(info.value) == message
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep, match=message):
            tb.apply(step)
        assert tb.word == word and not tb.steps
        with pytest.raises(TraceCorrupt, match=message) as info:
            replay(RewriteTrace(word, (step,), after))
        assert info.value.step_index == 0
        with pytest.raises(ParseError, match=message):
            parse_trace(serialize_trace(RewriteTrace(word, (step,), after)))


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

    def test_writes_version_3(self):
        """Steps outside programs are written as version 3 writes them, under
        the version-4 header."""
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 1, 1)))
        tb.neighbor_braid(0)
        tb.conjugate(1)
        tb.crossing_change(2)
        assert serialize_trace(tb.snapshot()).splitlines() == [
            "trace v4",
            "initial: 3: 1 2 1 1 1",
            "step: neighbor-braid pos=0",
            "step: conjugate amount=1",
            "step: crossing-change pos=2",
            "final: 3: 1 2 2",
            "crossing_changes: 1",
            "end",
        ]

    def test_v2_wrong_final_detected_after_the_last_step(self):
        text = (
            "trace v3\n"
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
        text = "trace v3\ninitial: 2: 1 1 1\nstep: crossing-change pos=1\ncrossing_changes: 1\nend\n"
        with pytest.raises(ParseError):
            parse_trace(text)

    def test_v2_rejects_result_words_on_step_lines(self):
        text = (
            "trace v3\n"
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
        text = f"trace v3\ninitial: 2: 1 1 1\n{line}\nfinal: 2: 1\ncrossing_changes: 0\nend\n"
        with pytest.raises(ParseError, match="malformed"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "step: destabilize pos=7 amount=3",
            "step: destabilize direction=forward",
            "step: neighbor-braid pos=0 direction=forward",
            "step: distant-swap pos=0 amount=1",
            "step: distant-swap pos=0 direction=forward",
            "step: crossing-change pos=0 direction=backward",
            "step: conjugate amount=1 pos=0",
            "step: neighbor-braid pos=0 direction=forward amount=2",
        ],
    )
    def test_parameters_a_rule_does_not_take_are_parse_errors(self, line):
        text = f"trace v3\ninitial: 2: 1\n{line}\nfinal: 1:\ncrossing_changes: 0\nend\n"
        with pytest.raises(ParseError, match="takes no"):
            parse_trace(text)

    @pytest.mark.parametrize(
        "line",
        [
            "step: crossing-change pos=2 pos=0",
            "step: conjugate amount=1 amount=1",
            "step: neighbor-braid pos=0 pos=1",
        ],
    )
    def test_repeated_parameters_are_parse_errors(self, line):
        text = f"trace v3\ninitial: 3: 1 1 1\n{line}\nfinal: 3: 1\ncrossing_changes: 1\nend\n"
        with pytest.raises(ParseError, match="repeated"):
            parse_trace(text)

    # Each distinct step line is parsed once; the first malformed one in the
    # text is still the one reported.
    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("step: zap", "step: crossing-change pos=x", "unknown rule kind 'zap'"),
            ("step: crossing-change pos=x", "step: zap", "malformed pos value 'x'"),
        ],
    )
    def test_the_first_malformed_step_line_is_reported(self, first, second, message):
        good = "step: crossing-change pos=0"
        body = "\n".join([good, first, good, second, first])
        text = f"trace v3\ninitial: 2: 1 1 1\n{body}\nfinal: 2: 1\ncrossing_changes: 1\nend\n"
        with pytest.raises(ParseError, match=message):
            parse_trace(text)

    def test_the_lines_the_writer_emits_never_reach_the_full_grammar(self, monkeypatch):
        """parse_trace reads every step line serialize_trace writes without
        _parse_step; a writer change that sent them all down the slow path
        would otherwise pass every other test."""
        traces = [path.read_text() for path in sorted(GOLDEN.glob("*.trace"))]
        traces.append(serialize_trace(unknot(parse_word("4: 1 3 2 1 3 2 2 1 3 3 2 1 1 2 3"))))
        certificates = [path.read_text() for path in sorted(GOLDEN.glob("*.cert"))]
        certificates.append(serialize_certificate(adjacency_3_from_4(129)))

        def refuse(line):
            raise AssertionError(f"{line!r} went to the full grammar")

        monkeypatch.setattr(rules, "_parse_step", refuse)
        read = [parse_trace(text) for text in traces]
        read += [parse_certificate(text).trace for text in certificates]
        kinds = {step.kind for trace in read for step in trace.steps}
        assert kinds == {DISTANT_SWAP, NEIGHBOR_BRAID, CONJUGATE, DESTABILIZE, CROSSING_CHANGE}

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_trace("initial: 2: 1\nend\n")

    def test_corrupt_count_detected(self):
        text = (
            "trace v3\n"
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
            "trace v3\n"
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


# Four swaps of σ_1 σ_3 pairs: program 0 swaps the pair at its offset.
V4_BODY = "program 0\nstep: distant-swap pos=0\nend program\n{}"
V4_TEXT = "trace v4\ninitial: 4: 1 3 1 3 1 3 1 3\n{}\nfinal: 4: 3 1 3 1 3 1 3 1\ncrossing_changes: 0\nend\n"


class TestVersion4:
    SWAP = (RewriteStep(DISTANT_SWAP, 0),)

    def test_runs_at_a_stride_read_as_their_steps(self):
        trace = parse_trace(V4_TEXT.format(V4_BODY.format("run 0 at=0 times=4 shift=2")))
        assert trace.steps == tuple(RewriteStep(DISTANT_SWAP, q) for q in (0, 2, 4, 6))
        assert trace.runs == tuple((self.SWAP, q) for q in (0, 2, 4, 6))
        assert (trace.step_count, trace.crossing_changes) == (4, 0)
        assert replay(trace) == trace.final

    def test_version_3_reads_as_version_4_without_programs(self):
        lines = "\n".join(f"step: distant-swap pos={q}" for q in (0, 2, 4, 6))
        v3 = parse_trace(V4_TEXT.format(lines).replace("trace v4", "trace v3"))
        v4 = parse_trace(V4_TEXT.format(V4_BODY.format("run 0 at=0 times=4 shift=2")))
        assert v3 == v4 and hash(v3) == hash(v4)
        assert serialize_trace(v3) == serialize_trace(v4)

    def test_builder_records_the_program_itself(self):
        """A program runs as one run, the tuple itself; a single positional
        step runs as the one cached one-step program of its rule, at its
        position; whole-word steps applied one by one share one run."""
        prog = (RewriteStep(DISTANT_SWAP, 0), RewriteStep(DISTANT_SWAP, 0))
        tb = TraceBuilder(parse_word("4: 1 3 1 3 2 2"))
        tb.run(prog, 2)
        tb.distant_swap(0)
        tb.distant_swap(2)
        tb.conjugate(1)
        tb.conjugate(2)
        tb.crossing_change(1)
        trace = tb.snapshot()
        assert trace.runs[0][0] is prog and trace.runs[0][1] == 2
        assert trace.runs[1] == (self.SWAP, 0) and trace.runs[2] == (self.SWAP, 2)
        assert trace.runs[1][0] is trace.runs[2][0]
        assert trace.runs[3] == ((RewriteStep(CONJUGATE, amount=1), RewriteStep(CONJUGATE, amount=2)), 0)
        assert trace.runs[4] == ((RewriteStep(CROSSING_CHANGE, 0),), 1)
        assert tb.steps == trace.steps and (trace.step_count, trace.crossing_changes) == (7, 1)

    def test_strided_single_steps_are_one_run_line(self):
        """A loop of single steps at a constant stride, as the cascades of
        the constructions make, is written as one run line."""
        tb = TraceBuilder(BraidWord(2, (1,) * 12))
        for j in range(5):
            tb.crossing_change(8 - 2 * j)
        lines = serialize_trace(tb.snapshot()).splitlines()
        assert lines[2:6] == [
            "program 0", "step: crossing-change pos=0", "end program", "run 0 at=8 times=5 shift=-2"
        ]
        assert parse_trace("\n".join(lines)).steps == tb.steps

    def test_a_trace_of_one_tuple_lists_it_without_a_copy(self):
        steps = (RewriteStep(CROSSING_CHANGE, 0),)
        trace = RewriteTrace(BraidWord(2, (1, 1, 1)), steps, BraidWord(2, (1,)))
        assert trace.steps is steps and trace.runs == ((steps, 0),)

    def test_a_trace_cannot_be_changed_but_copies(self):
        trace = parse_trace(V4_TEXT.format(V4_BODY.format("run 0 at=0 times=4 shift=2")))
        with pytest.raises(AttributeError):
            trace.final = BraidWord(1, ())
        for again in copy.copy(trace), copy.deepcopy(trace), pickle.loads(pickle.dumps(trace)):
            assert again == trace and again.runs == trace.runs and replay(again) == trace.final

    @pytest.mark.parametrize(
        "runs, defined",
        [
            (1, False),  # one run: 1 step line against 1 + 2 + 1 lines
            (4, False),  # 4 step lines against 4: not fewer
            (5, True),  # 5 step lines against 4
        ],
    )
    def test_a_program_is_written_only_when_it_takes_fewer_lines(self, runs, defined):
        tb = TraceBuilder(BraidWord(4, (1, 3) * 6))
        for t in range(runs):
            tb.run(self.SWAP, 2 * t)
        text = serialize_trace(tb.snapshot())
        assert ("program 0" in text) == defined
        if defined:
            assert f"run 0 at=0 times={runs} shift=2" in text.splitlines()
        else:
            steps = [f"step: distant-swap pos={2 * t}" for t in range(runs)]
            assert text.splitlines()[2:-3] == steps
        assert parse_trace(text) == tb.snapshot()

    def test_equal_programs_share_one_definition(self):
        tb = TraceBuilder(BraidWord(4, (1, 3) * 6))
        for t in range(6):
            tb.run((RewriteStep(DISTANT_SWAP, 0),), 2 * t)  # a new tuple each time
        lines = serialize_trace(tb.snapshot()).splitlines()
        assert lines[2:6] == [
            "program 0", "step: distant-swap pos=0", "end program", "run 0 at=0 times=6 shift=2"
        ]

    def test_a_whole_word_step_away_from_offset_zero_stays_a_program(self):
        """Written in place it would read as a rotation of the whole word, and
        the trace that replay refuses would turn valid."""
        text = V4_TEXT.format("program 0\nstep: conjugate amount=1\nend program\nrun 0 at=1")
        trace = parse_trace(text)
        again = parse_trace(serialize_trace(trace))
        assert "run 0 at=1" in serialize_trace(trace)
        for read in trace, again:
            with pytest.raises(TraceCorrupt, match="cannot shift a conjugate step to offset 1") as info:
                replay(read)
            assert info.value.step_index == 0

    @pytest.mark.parametrize(
        "run, index",
        [
            ("run 0 at=7 times=4 shift=2", 0),  # runs off the end at once
            ("run 0 at=0 times=4 shift=1", 1),  # the second run meets σ_1 σ_1
        ],
    )
    def test_a_wrong_offset_parses_and_fails_replay_at_its_flat_index(self, run, index):
        trace = parse_trace(V4_TEXT.format(V4_BODY.format(run)))
        with pytest.raises(TraceCorrupt) as info:
            replay(trace)
        assert info.value.step_index == index

    @pytest.mark.parametrize(
        "body, message",
        [
            ("run 1 at=0", "undefined program 1"),
            (V4_BODY.format("program 0\nstep: distant-swap pos=1\nend program\nrun 0 at=0"), "defined twice"),
            ("program 0\nprogram 1\nend program\nend program\nrun 0 at=0", "starts inside program 0"),
            ("program 0\nstep: distant-swap pos=0", "no 'end program' line"),
            ("program 0\nstep: distant-swap pos=0\nrun 0 at=0\nend program", "run line inside program 0"),
            ("end program", "outside a program"),
            (V4_BODY.format("run 0 at=0 times=0 shift=2"), "at least once"),
            (V4_BODY.format("run 0 at=0 times=-1 shift=2"), "at least once"),
            (V4_BODY.format("run 0 times=4 shift=2"), "names no offset"),
            (V4_BODY.format("run 0 at=0 at=2"), "repeated 'at'"),
            (V4_BODY.format("run 0 at=0 stride=2"), "malformed run parameter"),
            (V4_BODY.format("run 0 at=x"), "malformed at value"),
            (V4_BODY.format("run x at=0"), "malformed program id value"),
            ("program\nend program", "unexpected line"),
        ],
    )
    def test_malformed_programs_and_runs(self, body, message):
        with pytest.raises(ParseError, match=message):
            parse_trace(V4_TEXT.format(body))

    def test_programs_are_not_version_3(self):
        with pytest.raises(ParseError, match="unexpected line in trace body"):
            parse_trace(V4_TEXT.format(V4_BODY.format("run 0 at=0 times=4 shift=2")).replace("v4", "v3"))

    @pytest.mark.parametrize("times", [rules.MAX_TRACE_STEPS // 2 + 1, 10**18])
    def test_the_step_cap_is_checked_before_expansion(self, times):
        text = V4_TEXT.format(V4_BODY.format(f"run 0 at=0 times={times} shift=0"))
        started = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {rules.MAX_TRACE_STEPS} steps"):
            parse_trace(text)
        assert time.perf_counter() - started < 1

    def test_the_cap_counts_each_step_and_each_repetition(self, monkeypatch):
        monkeypatch.setattr(rules, "MAX_TRACE_STEPS", 8)
        # Two steps written out and three runs of one step: 2 + 3 * 2 = 8.
        swap = "step: distant-swap pos=0\n"
        body = swap + swap + V4_BODY.format("run 0 at=0 times=3 shift=2")
        parse_trace(V4_TEXT.format(body))
        with pytest.raises(ParseError, match="more than 8 steps"):
            parse_trace(V4_TEXT.format(body.replace("times=3", "times=4")))
        with pytest.raises(ParseError, match="more than 8 steps"):
            parse_trace(V4_TEXT.format("step: distant-swap pos=0\n" + body))
