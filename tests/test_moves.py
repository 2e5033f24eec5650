"""Composite move programs: commutations, extractions, conversions, cascades."""

import pytest

from gordian import (
    BraidWord,
    IllegalStep,
    RewriteStep,
    TraceBuilder,
    adjacency_3_from_4,
    parse_word,
    replay,
)
from gordian.moves import (
    Rotation,
    arrange_blocks,
    ascending_twist_letters,
    cascade,
    cascade_mirror,
    conv_prog,
    cross_left_prog,
    cross_right_prog,
    decompose_region_prog,
    desc_letters,
    exchange_prog,
    expect_word,
    ext_prog,
    form_letters,
    full_twist_letters,
    invert_program,
    mirror_program,
    move_b1_prog,
    move_b_prog,
    move_d_prog,
    move_z_prog,
    peel_prog,
    revform_letters,
    run_regional,
    shift_program,
    wrap,
)
from gordian.rules import CONJUGATE, CROSSING_CHANGE, DESTABILIZE, DISTANT_SWAP, NEIGHBOR_BRAID
from gordian.words import ascending_run, descending_run

SWAP_AT_0 = RewriteStep(DISTANT_SWAP, 0)
BRAID_AT_2 = RewriteStep(NEIGHBOR_BRAID, 2)
NAMED_PROGRAMS = (
    move_b_prog,
    move_b1_prog,
    move_d_prog,
    move_z_prog,
    ext_prog,
    peel_prog,
    conv_prog,
    cross_left_prog,
    cross_right_prog,
    exchange_prog,
)


class TestLetterBuilders:
    def test_wrap(self):
        assert wrap(1) == (1, 1)
        assert wrap(3) == (3, 2, 1, 1, 2, 3)

    def test_full_twist(self):
        assert full_twist_letters(3) == (2, 1, 2, 1, 2, 1)
        assert ascending_twist_letters(3) == (1, 2, 1, 2, 1, 2)

    def test_layered_forms(self):
        assert form_letters(3, 1) == wrap(2) + (2,) + wrap(1) + (1,)
        assert revform_letters(3, 1) == tuple(reversed(form_letters(3, 1)))
        assert form_letters(2, 3) == wrap(1) * 3 + (1,)

    def test_layered_form_length(self):
        # sum over levels j of (2jk + 1)
        for n in range(2, 6):
            for k in range(3):
                assert len(form_letters(n, k)) == k * n * (n - 1) + (n - 1)


class TestRunProgram:
    def test_positional_steps_with_offset(self):
        word = BraidWord(4, (2, 1, 3, 1, 1))
        tb = TraceBuilder(word)
        tb.run([SWAP_AT_0, RewriteStep(CROSSING_CHANGE, 1)], offset=1)
        assert tb.word.letters == (2, 3, 1)
        assert tb.crossing_changes == 1

    def test_global_steps_reject_offsets(self):
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 2)))
        with pytest.raises(IllegalStep):
            tb.run((RewriteStep(CONJUGATE, amount=1),), 2)
        with pytest.raises(IllegalStep):
            tb.run((RewriteStep(DESTABILIZE),), 2)
        assert tb.steps == () and tb.letters == [1, 2, 1, 2]

    @pytest.mark.parametrize(
        "word, prog, offset, done, after",
        [
            # offset 0, through a destabilization: the strand count is kept
            (
                "4: 1 3 2 2 1",
                [SWAP_AT_0, RewriteStep(CROSSING_CHANGE, 2), RewriteStep(DESTABILIZE),
                 RewriteStep(CROSSING_CHANGE, 1), SWAP_AT_0],
                0,
                [SWAP_AT_0, RewriteStep(CROSSING_CHANGE, 2), RewriteStep(DESTABILIZE)],
                "3: 1 1",
            ),
            # offset 1: the step that runs off the end fails
            (
                "4: 2 1 3 1 1 3",
                [SWAP_AT_0, RewriteStep(CROSSING_CHANGE, 1), RewriteStep(DISTANT_SWAP, 5)],
                1,
                [RewriteStep(DISTANT_SWAP, 1), RewriteStep(CROSSING_CHANGE, 2)],
                "4: 2 3 1 3",
            ),
            # a whole-word step at a nonzero offset fails where it stands
            (
                "4: 2 1 3 1 1 3",
                [RewriteStep(CROSSING_CHANGE, 2), RewriteStep(CONJUGATE, amount=1), SWAP_AT_0],
                1,
                [RewriteStep(CROSSING_CHANGE, 3)],
                "4: 2 1 3 3",
            ),
        ],
    )
    def test_a_failing_step_keeps_the_steps_before_it(self, word, prog, offset, done, after):
        tb = TraceBuilder(parse_word(word))
        with pytest.raises(IllegalStep):
            tb.run(tuple(prog), offset)
        assert list(tb.steps) == done
        assert tb.word == parse_word(after)
        assert tb.crossing_changes == sum(step.kind == CROSSING_CHANGE for step in done)
        assert replay(tb.snapshot()) == tb.word

    def test_unknown_step_rejected(self):
        tb = TraceBuilder(BraidWord(3, (1, 2)))
        with pytest.raises(IllegalStep):
            tb.run([RewriteStep("zap", 0)])

    def test_expect_word(self):
        tb = TraceBuilder(BraidWord(3, (1, 2)))
        expect_word(tb, (1, 2))
        with pytest.raises(AssertionError):
            expect_word(tb, (2, 1))

    def test_shift_and_invert(self):
        assert shift_program([SWAP_AT_0, BRAID_AT_2], 5) == [
            RewriteStep(DISTANT_SWAP, 5),
            RewriteStep(NEIGHBOR_BRAID, 7),
        ]
        word = BraidWord(4, (1, 3, 1, 2, 1))
        tb = TraceBuilder(word)
        prog = [SWAP_AT_0, BRAID_AT_2]
        tb.run(prog)
        assert tb.word.letters == (3, 1, 2, 1, 2)
        tb.run(invert_program(prog))
        assert tb.word == word

    def test_mirror_program(self):
        # conjugating by letter reversal: mirrored program does to the
        # reversed word what the original does to the word
        word = BraidWord(4, (1, 3, 1, 2, 1))
        prog = [SWAP_AT_0, BRAID_AT_2]
        tb = TraceBuilder(word)
        tb.run(prog)
        mirrored = TraceBuilder(BraidWord(4, tuple(reversed(word.letters))))
        mirrored.run(mirror_program(prog, word.length))
        assert mirrored.word.letters == tuple(reversed(tb.word.letters))


class TestCommutationPrograms:
    def test_run_lowers_trailing_letter(self):
        for m in range(2, 5):
            for i in range(2, m + 1):
                tb = TraceBuilder(BraidWord(m + 1, descending_run(m) + (i,)))
                tb.run(move_b_prog(m, i))
                assert tb.word.letters == (i - 1,) + descending_run(m), (m, i)

    def test_run_lowering_rejects_bottom_letter(self):
        with pytest.raises(IllegalStep):
            move_b_prog(3, 1)

    def test_double_run_raises_bottom_letter(self):
        for m in range(1, 5):
            tb = TraceBuilder(BraidWord(m + 1, descending_run(m) * 2 + (1,)))
            tb.run(move_b1_prog(m))
            assert tb.word.letters == (m,) + descending_run(m) * 2, m

    def test_wrap_commutes_with_cleared_letters(self):
        for j, i in [(3, 1), (3, 2), (3, 5), (2, 4)]:
            strands = max(j, i) + 1
            tb = TraceBuilder(BraidWord(strands, wrap(j) + (i,)))
            tb.run(move_d_prog(j, i))
            assert tb.word.letters == (i,) + wrap(j), (j, i)

    def test_wrap_does_not_commute_with_its_boundary(self):
        for i in (3, 4):
            with pytest.raises(IllegalStep):
                move_d_prog(3, i)

    def test_full_twist_is_central(self):
        for a in (3, 4):
            for i in range(1, a):
                tb = TraceBuilder(BraidWord(a, full_twist_letters(a) + (i,)))
                tb.run(move_z_prog(a, i))
                assert tb.word.letters == (i,) + full_twist_letters(a), (a, i)


class TestExtractionPrograms:
    def test_run_extraction(self):
        m = 3
        for r in range(1, m + 1):
            tb = TraceBuilder(BraidWord(m + 1, descending_run(m) * r))
            tb.run(ext_prog(m, r))
            want = tuple(range(m - r + 1, m)) + descending_run(m) + descending_run(m - 1) * (r - 1)
            assert tb.word.letters == want, r

    def test_peel_full_twist(self):
        for n in (3, 4, 5):
            tb = TraceBuilder(BraidWord(n, full_twist_letters(n)))
            tb.run(peel_prog(n))
            assert tb.word.letters == wrap(n - 1) + full_twist_letters(n - 1), n

    def test_convert_descending_to_ascending_twist(self):
        for m in range(2, 6):
            tb = TraceBuilder(BraidWord(m, full_twist_letters(m)))
            tb.run(conv_prog(m))
            assert tb.word.letters == ascending_twist_letters(m), m

    def test_programs_emit_no_crossing_changes(self):
        tb = TraceBuilder(BraidWord(4, full_twist_letters(4)))
        tb.run(conv_prog(4))
        assert tb.crossing_changes == 0


class TestProgramCache:
    def test_named_programs_are_built_once_per_parameter_set(self):
        for builder in NAMED_PROGRAMS:
            builder.cache_clear()
        small = adjacency_3_from_4(33)
        misses = [builder.cache_info().misses for builder in NAMED_PROGRAMS]
        # T(4,129) -> T(3,145) exchanges blocks hundreds of times, yet
        # move_d_prog is built once for each of its 3 parameter sets and each
        # exchange program once.
        adjacency_3_from_4(129)
        assert move_d_prog.cache_info().misses == 3
        assert exchange_prog.cache_info().hits > 500
        # b = 33 and b = 129 use the same programs: the cache does not grow with b.
        assert [builder.cache_info().misses for builder in NAMED_PROGRAMS] == misses
        for builder in NAMED_PROGRAMS:
            builder.cache_clear()
        assert adjacency_3_from_4(33).trace == small.trace

    def test_cached_programs_are_shared_tuples(self):
        prog = move_z_prog(4, 2)
        assert isinstance(prog, tuple) and move_z_prog(4, 2) is prog
        assert isinstance(cross_right_prog(("wrap", 3), 1), tuple)


class TestBlocks:
    def test_can_cross(self):
        assert cross_left_prog(("letter", 3), 1) is not None
        assert cross_left_prog(("letter", 3), 2) is None
        assert cross_left_prog(("wrap", 3), 1) is not None
        assert cross_left_prog(("wrap", 3), 3) is None
        assert cross_left_prog(("wrap", 3), 5) is not None
        assert cross_left_prog(("twist", 3), 2) is not None
        assert cross_left_prog(("twist", 3), 3) is None

    @pytest.mark.parametrize(
        "desc",
        [("letter", m) for m in range(1, 7)]
        + [("wrap", j) for j in range(1, 5)]
        + [("twist", a) for a in range(2, 6)],
    )
    def test_crossing_rule(self, desc):
        kind, size = desc
        if kind == "letter":
            blocked = {size - 1, size, size + 1}
        elif kind == "wrap":
            blocked = {2} if size == 1 else {size, size + 1}
        else:
            blocked = {size}
        block = desc_letters(desc)
        for letter in range(1, 8):
            left, right = cross_left_prog(desc, letter), cross_right_prog(desc, letter)
            assert (left is None, right is None) == (letter in blocked,) * 2, (desc, letter)
            if left is None:
                continue
            strands = max(block + (letter,)) + 1
            tb = TraceBuilder(BraidWord(strands, block + (letter,)))
            tb.run(left)
            assert tb.word.letters == (letter,) + block, (desc, letter)
            tb.run(right)
            assert tb.word.letters == block + (letter,), (desc, letter)

    def test_arrange_blocks_swaps_wrap_and_letter(self):
        tb = TraceBuilder(BraidWord(5, wrap(3) + (1,)))
        arrange_blocks(tb, 0, [("wrap", 3), ("letter", 1)], [("letter", 1), ("wrap", 3)])
        assert tb.word.letters == (1,) + wrap(3)

    def test_arrange_blocks_reorders_row(self):
        word = BraidWord(5, (4,) + wrap(2) + (1, 1))
        tb = TraceBuilder(word)
        current = [("letter", 4), ("wrap", 2), ("run", (1, 1))]
        target = [("wrap", 2), ("run", (1, 1)), ("letter", 4)]
        arrange_blocks(tb, 0, current, target)
        assert tb.word.letters == wrap(2) + (1, 1, 4)

    def test_arrange_blocks_leaves_surroundings(self):
        word = BraidWord(5, (2,) + wrap(3) + (1,) + (2,))
        tb = TraceBuilder(word)
        arrange_blocks(tb, 1, [("wrap", 3), ("letter", 1)], [("letter", 1), ("wrap", 3)])
        assert tb.word.letters == (2, 1) + wrap(3) + (2,)

    def test_arrange_blocks_rejects_different_multisets(self):
        tb = TraceBuilder(BraidWord(5, wrap(3) + (1,)))
        with pytest.raises(IllegalStep):
            arrange_blocks(tb, 0, [("wrap", 3), ("letter", 1)], [("letter", 1), ("wrap", 2)])


class TestCascades:
    def test_cascade_trades_wraps_down(self):
        for j, count in [(1, 1), (2, 2), (3, 3)]:
            tb = TraceBuilder(BraidWord(j + 2, wrap(j) * count + (j,)))
            cascade(tb, 0, j, count)
            assert tb.word.letters == (j,) + wrap(j - 1) * count, (j, count)
            assert tb.crossing_changes == count

    def test_cascade_mirror(self):
        for j, count in [(1, 2), (2, 2), (3, 1)]:
            tb = TraceBuilder(BraidWord(j + 2, (j,) + wrap(j) * count))
            cascade_mirror(tb, 0, j, count)
            assert tb.word.letters == wrap(j - 1) * count + (j,), (j, count)
            assert tb.crossing_changes == count

    def test_cascade_offset(self):
        tb = TraceBuilder(BraidWord(4, (3,) + wrap(2) * 2 + (2,)))
        cascade(tb, 1, 2, 2)
        assert tb.word.letters == (3, 2) + wrap(1) * 2


def flat(regional) -> list:
    """A regional program with each ``(program, offset)`` piece written out
    as its shifted steps, rotations left in place."""
    out = []
    for piece in regional:
        out += [piece] if type(piece) is Rotation else shift_program(*piece)
    return out


def is_pieces(regional) -> bool:
    return all(
        type(piece) is Rotation or (type(piece) is tuple and type(piece[0]) is tuple and type(piece[1]) is int)
        for piece in regional
    )


class TestRegionalPrograms:
    def test_decompose_run_power_into_layers(self):
        for a, k in [(2, 1), (3, 1), (3, 2), (4, 1)]:
            word = BraidWord(a, descending_run(a - 1) * (a * k + 1))
            tb = TraceBuilder(word)
            run_regional(tb, decompose_region_prog(a, k), 0, [])
            assert tb.word.letters == form_letters(a, k), (a, k)
            assert tb.crossing_changes == 0

    def test_regional_invert_round_trips(self):
        a, k = 3, 2
        word = BraidWord(a, descending_run(a - 1) * (a * k + 1))
        prog = decompose_region_prog(a, k)
        inverse = invert_program(prog)
        # Inverted piece by piece, each program through its cache, the steps
        # are those of the whole program inverted.
        assert is_pieces(prog) and is_pieces(inverse)
        assert all(p[0] is q[0] for p, q in zip(inverse, invert_program(prog)) if type(p) is tuple)
        assert flat(inverse) == invert_program(flat(prog))
        tb = TraceBuilder(word)
        run_regional(tb, prog, 0, [])
        run_regional(tb, inverse, 0, [])
        assert tb.word == word

    def test_regional_mirror_acts_on_reversed_region(self):
        a, k = 3, 1
        length = (a - 1) * (a * k + 1)
        prog = decompose_region_prog(a, k)
        mirrored = mirror_program(prog, length)
        assert is_pieces(mirrored) and flat(mirrored) == mirror_program(flat(prog), length)
        reversed_word = BraidWord(a, tuple(reversed(descending_run(a - 1) * (a * k + 1))))
        tb = TraceBuilder(reversed_word)
        run_regional(tb, mirrored, 0, [])
        assert tb.word.letters == tuple(reversed(form_letters(a, k)))

    def test_each_piece_runs_as_one_program(self):
        a, k = 4, 2
        prog = decompose_region_prog(a, k)
        tb = TraceBuilder(BraidWord(a, descending_run(a - 1) * (a * k + 1)))
        run_regional(tb, prog, 0, [])
        # Each piece is recorded, in order, as one run of its own program;
        # the runs between them walk the rotations round the closure.
        runs = iter(tb.snapshot().runs)
        pieces = [piece for piece in prog if type(piece) is tuple]
        assert len(pieces) > 10
        assert all(any(run[0] is piece[0] and run[1] == piece[1] for run in runs) for piece in pieces)

    @pytest.mark.parametrize("step", [RewriteStep(CONJUGATE, amount=1), RewriteStep(CROSSING_CHANGE, 0)])
    def test_mirror_refuses_a_piece_other_than_swaps_and_braid_moves(self, step):
        with pytest.raises(IllegalStep):
            mirror_program([((step,), 0)], 4)

    @pytest.mark.parametrize(
        "step", [RewriteStep(CONJUGATE, amount=1), RewriteStep(CROSSING_CHANGE, 0), RewriteStep(DESTABILIZE)]
    )
    def test_invert_and_mirror_refuse_a_step_other_than_swaps_braid_moves_and_rotations(self, step):
        with pytest.raises(IllegalStep, match="cannot be inverted"):
            invert_program([SWAP_AT_0, step])
        with pytest.raises(IllegalStep, match="cannot be mirrored"):
            mirror_program([SWAP_AT_0, step], 4)

    def test_run_regional_requires_matching_prefix(self):
        word = BraidWord(3, (2,) + descending_run(2) * 4)
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep):
            run_regional(tb, decompose_region_prog(3, 1), 1, [])

    def test_run_regional_with_prefix_blocks(self):
        # the prefix block must commute with every letter the rotation walks
        # around the closure (here: the generator-1 letters of a small twist)
        word = BraidWord(4, (3,) + descending_run(2) * 4)
        tb = TraceBuilder(word)
        run_regional(tb, decompose_region_prog(3, 1), 1, [("letter", 3)])
        assert tb.word.letters == (3,) + form_letters(3, 1)

    def test_run_regional_rejects_blocking_prefix(self):
        word = BraidWord(3, (2,) + descending_run(2) * 4)
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep):
            run_regional(tb, decompose_region_prog(3, 1), 1, [("letter", 2)])


class TestRotation:
    def test_decomposition_carries_subword_lengths(self):
        # R_3^9 has 27 letters; the second rotation skips 2 wraps V_3 and σ_3.
        rotations = [step for step in decompose_region_prog(4, 2) if isinstance(step, Rotation)]
        assert rotations == [
            Rotation(12, 27),
            Rotation(4, 27 - 13, (("wrap", 3),) * 2 + (("letter", 3),)),
        ]

    def test_invert_program_then_the_original_round_trips(self):
        for a, k in [(3, 1), (3, 2), (4, 1)]:
            word = BraidWord(a, form_letters(a, k))
            prog = decompose_region_prog(a, k)
            assert is_pieces(prog) and invert_program(invert_program(prog)) == prog
            tb = TraceBuilder(word)
            run_regional(tb, invert_program(prog), 0, [])
            assert tb.word.letters == descending_run(a - 1) * (a * k + 1), (a, k)
            run_regional(tb, prog, 0, [])
            assert tb.word == word, (a, k)
            assert tb.crossing_changes == 0

    def test_mirror_rotation_acts_on_reversed_region(self):
        rotation = Rotation(1, 4, (("wrap", 3),))
        mirrored = mirror_program([rotation], 10)
        assert mirrored == [Rotation(3, 4, (), (("wrap", 3),))]
        word = BraidWord(4, wrap(3) + (1, 2, 1, 1))
        tb = TraceBuilder(word)
        run_regional(tb, [rotation], 0, [])
        rotated = tb.word.letters
        tb = TraceBuilder(BraidWord(4, tuple(reversed(word.letters))))
        run_regional(tb, mirrored, 0, [])
        assert tb.word.letters == tuple(reversed(rotated))

    @pytest.mark.parametrize("length", [3, 5, 6])
    def test_rotation_must_fill_the_region(self, length):
        # lb + length + rb must equal the region's 6 letters: 2 + 4 here.
        word = BraidWord(4, (1, 1, 3, 3, 3, 3))
        tb = TraceBuilder(word)
        with pytest.raises(IllegalStep):
            run_regional(tb, [Rotation(1, length, (("wrap", 1),))], 0, [])
        assert tb.word == word and tb.steps == ()

    def test_rotation_that_fills_the_region_runs(self):
        tb = TraceBuilder(BraidWord(4, (1, 1, 3, 2, 3, 3)))
        run_regional(tb, [Rotation(1, 4, (("wrap", 1),))], 0, [])
        assert tb.word.letters == (1, 1, 2, 3, 3, 3)

    def test_rotation_shifts_only_by_zero(self):
        assert shift_program([Rotation(1, 2)], 0) == [Rotation(1, 2)]
        with pytest.raises(IllegalStep):
            shift_program([Rotation(1, 2)], 3)
        # A regional program places a rotation by its delimiting blocks, never
        # by an offset, and the builder refuses one at any offset.
        tb = TraceBuilder(BraidWord(3, (1, 2, 1, 2)))
        for offset in (0, 3):
            with pytest.raises(IllegalStep):
                tb.run([Rotation(1, 2)], offset=offset)
        assert tb.steps == ()

    @pytest.mark.parametrize(
        "step", [RewriteStep(CONJUGATE, 0, amount=1), RewriteStep(DESTABILIZE, 4), RewriteStep(CONJUGATE, amount=2)]
    )
    def test_whole_word_steps_shift_only_by_zero_whatever_their_position(self, step):
        # The rule kind, not a stray position, makes a step whole-word.
        assert shift_program([step], 0) == [step]
        with pytest.raises(IllegalStep, match=f"cannot shift a {step.kind} step to offset 2"):
            shift_program([step], 2)
