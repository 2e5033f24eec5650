"""The five rewriting rules on positive braid words, with replayable traces.

The calculus has exactly five rules, all preserving the closure's component
count:

* **distant-swap** — ``σ_i σ_j → σ_j σ_i`` when ``|i - j| ≥ 2`` (position = the
  left letter of the pair).  Length and strand count preserved; self-inverse.
* **neighbor-braid** — ``σ_i σ_{i+1} σ_i ↔ σ_{i+1} σ_i σ_{i+1}`` (position =
  the first letter of the triple).  The triple at that position shows which
  way the move goes, so a step records only the position; the move undoes
  itself in place.  Length and strand count preserved.
* **conjugate** — cyclic rotation left by ``amount`` (taken modulo the length):
  the first ``amount`` letters wrap to the end.  The closure is unchanged.
* **destabilize** — when the maximal used index equals ``strands - 1`` and
  occurs exactly once, delete that letter and drop the top strand.  It is
  accepted wherever the unique occurrence sits (rotation could always bring it
  to the end without changing the closure), so the rule takes no position and
  counts as one step.  Length and strand count both drop by 1.
* **crossing-change** — delete an adjacent equal pair ``σ_i σ_i`` (position =
  the left letter).  Switching one crossing of the pair makes it cancel, so
  this is the one rule that changes the knot: it lowers the unknotting number
  of a knot closure by exactly 1 (length drops by 2, strands unchanged).
  Recorded atomically — no negative letters ever materialize.

A :class:`RewriteStep` is one rule application: :func:`apply_step` applies it
to a word, and :class:`TraceBuilder` applies and records a sequence of them.
A *program* is a tuple of steps whose positions are relative to an offset
chosen when it runs.  A :class:`RewriteTrace` stores the initial word, the
final word and its steps as *runs*, ``(program, offset)`` pairs in the order
they ran.  The builder records each program it runs as one run; a single
distant swap, braid move or crossing change runs as the one-step program of
its rule at its position, and the whole-word steps it applies one by one
share one run at offset 0.  The words in between are derived on demand.
:func:`replay` re-applies every run from the initial word and is the single
source of truth for validity: each step must be legal and the last one must
reach the recorded final word.  All of them run one in-place step kernel, a
single loop over a sequence of runs with every legality check inline, so
they accept and reject exactly the same steps; replay hands it every run of
a trace in one call.
Positions and amounts are ``int`` itself, never ``bool``, and a step that
carries a parameter its rule does not take is illegal.

Trace text, version 4, is the syntax :func:`serialize_trace` writes::

    trace v4
    initial: 4: 1 3 1 3 1 3 1 3 1 3 2 2
    program 0
    step: distant-swap pos=0
    end program
    run 0 at=0 times=5 shift=2
    step: crossing-change pos=10
    final: 4: 3 1 3 1 3 1 3 1 3 1
    crossing_changes: 1
    end

A program is defined once, between ``program N`` and ``end program``, its
positions relative; ``run N at=A`` runs it at offset A, and ``run N at=A
times=T shift=S`` runs it T ≥ 1 times, at offsets A, A + S, … A + (T − 1)S.
There is no nesting and no ``run`` inside a program.  A step line outside a
program is applied where it stands, its position absolute.  The writer
numbers equal programs by first use and groups consecutive runs of one
program at a constant stride; it defines a program only when the body, its
two delimiting lines and one line per group take fewer lines than the steps
written out at every run, and otherwise writes them out.  Version 3 is
version 4 without programs; :func:`parse_trace` reads both, and text under
any other header is malformed.  The reader refuses a text whose steps and
program repetitions together exceed :data:`MAX_TRACE_STEPS`, counting before
it expands a run.

:func:`parse_trace` reads the exact step, run and program lines
:func:`serialize_trace` writes directly; any other spelling goes through the
full grammar, which also writes every parse error.
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from itertools import count as count_from
from operator import countOf, is_not, itemgetter, length_hint
from typing import NamedTuple

from .errors import IllegalStep, ParseError, TraceCorrupt
from .words import BraidWord, format_word, parse_word

__all__ = [
    "DISTANT_SWAP",
    "NEIGHBOR_BRAID",
    "CONJUGATE",
    "DESTABILIZE",
    "CROSSING_CHANGE",
    "RewriteStep",
    "RewriteTrace",
    "TraceBuilder",
    "apply_step",
    "legal_moves",
    "replay",
    "serialize_trace",
    "parse_trace",
]

DISTANT_SWAP = "distant-swap"
NEIGHBOR_BRAID = "neighbor-braid"
CONJUGATE = "conjugate"
DESTABILIZE = "destabilize"
CROSSING_CHANGE = "crossing-change"

# The parameters each rule takes, by their names in step lines.
_STEP_PARAMETERS = {
    DISTANT_SWAP: ("pos",),
    NEIGHBOR_BRAID: ("pos",),
    CONJUGATE: ("amount",),
    DESTABILIZE: (),
    CROSSING_CHANGE: ("pos",),
}


class RewriteStep(NamedTuple):
    """One rule application, the one step type of traces, programs and moves.

    ``position`` is meaningful for distant-swap / neighbor-braid /
    crossing-change, ``amount`` for conjugate.  Positions always refer to the
    word *immediately before* the step.
    """

    kind: str
    position: int | None = None
    amount: int | None = None


class RewriteTrace:
    """An initial word, the steps applied to it in order, and the final word.

    The steps are stored as :attr:`runs`, ``(program, offset)`` entries in
    the order they ran: a program is a tuple of steps, and its positions are
    shifted by the offset.  ``RewriteTrace(initial, steps, final)`` keeps
    ``steps`` as one entry at offset 0; :class:`TraceBuilder` and
    :func:`parse_trace` store the runs they record or read.  :attr:`steps`
    lists every step, its position shifted, on demand; :attr:`step_count`
    and :attr:`crossing_changes` are counted as the runs are recorded or
    read, and ``_from_runs`` takes them from its caller.  The words in
    between are not stored; :attr:`words` derives them by replay.  Two
    traces are equal when their initial words, steps and final words are.
    """

    __slots__ = ("initial", "runs", "final", "step_count", "crossing_changes", "_steps")

    def __init__(self, initial: BraidWord, steps, final: BraidWord):
        steps = tuple(steps)
        self._fill(initial, ((steps, 0),) if steps else (), final, (len(steps), _changes(steps)), steps)

    @classmethod
    def _from_runs(cls, initial: BraidWord, runs, final: BraidWord, counts) -> RewriteTrace:
        """A trace of ``(program, offset)`` entries, in the order they ran,
        whose (steps, crossing changes) the caller has counted."""
        trace = object.__new__(cls)
        trace._fill(initial, tuple(runs), final, counts)
        return trace

    def _fill(self, initial, runs, final, counts, steps=None) -> None:
        for name, value in zip(self.__slots__, (initial, runs, final, *counts, steps)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RewriteTrace")

    def __reduce__(self):
        counts = self.step_count, self.crossing_changes
        return RewriteTrace._from_runs, (self.initial, self.runs, self.final, counts)

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        """Every step in order, its position shifted by its run's offset."""
        if self._steps is None:
            runs = self.runs
            steps = runs[0][0] if len(runs) == 1 and not runs[0][1] else tuple(_expand(runs))
            object.__setattr__(self, "_steps", steps)
        return self._steps

    @property
    def words(self) -> tuple[BraidWord, ...]:
        """The full ride, derived by replay: the initial word followed by the
        word after each step.  An illegal step raises :class:`TraceCorrupt`."""
        after = tuple(BraidWord._trusted(strands, tuple(letters)) for strands, letters in _walk(self))
        return (self.initial,) + after

    def __eq__(self, other):
        if not isinstance(other, RewriteTrace):
            return NotImplemented
        return (
            self.initial == other.initial
            and self.final == other.final
            and self.step_count == other.step_count
            and (self.runs == other.runs or self.steps == other.steps)
        )

    def __hash__(self):
        return hash((self.initial, self.steps, self.final))

    def __repr__(self):
        return f"RewriteTrace(initial={self.initial!r}, steps={self.step_count}, final={self.final!r})"


def _changes(steps) -> int:
    return countOf(map(itemgetter(0), steps), CROSSING_CHANGE)


def _expand(runs):
    """The steps of ``runs`` one by one, positions shifted by their offsets.
    A whole-word step carries no position and is listed as it stands."""
    for prog, offset in runs:
        if not offset:
            yield from prog
            continue
        for step in prog:
            position = step.position
            yield step if position is None else tuple.__new__(RewriteStep, (step.kind, position + offset, None))


# One kernel applies every step, for replay and for recording alike.  It works
# in place on a list of letters, so that a swap or a braid move costs O(1)
# instead of a copy of the word.  It keeps every letter inside 1..strands-1 by
# construction: the braid move only writes the two letters of its triple, and
# destabilize removes the only top letter.  Its results therefore become words
# through ``BraidWord._trusted``, unchecked.  It records each step as given,
# and rebuilds one only to shift it or to reduce a rotation, with
# tuple.__new__, which skips the argument handling of the RewriteStep
# constructor, about three times as costly; parse_trace does the same.


def _misplaced(kind: str, position, offset: int, length: int) -> IllegalStep:
    """The error for a positional step that cannot apply where it points; an
    integer ``position`` is already shifted by ``offset``."""
    if type(position) is int:
        return IllegalStep(f"{kind} at position {position} does not fit in a word of length {length}")
    if position is None and offset:
        return IllegalStep(f"cannot shift a {kind} step to offset {offset}")
    return IllegalStep(f"{kind} requires an integer position, got {position!r}")


def _stray(step: RewriteStep) -> IllegalStep:
    """The error for a step that carries a parameter its rule does not take,
    worded as :func:`parse_trace` words it for a step line."""
    for key, value in zip(("pos", "amount"), step[1:]):
        if value is not None and key not in _STEP_PARAMETERS[step.kind]:
            return IllegalStep(f"a {step.kind} step takes no {key!r} parameter")


def _run(letters: list[int], strands: int, runs, record: list | None = None) -> int:
    """Apply the steps of ``runs``, ``(steps, offset)`` pairs, in turn to
    ``letters`` in place, positions shifted by each run's offset (whole-word
    steps run only at offset 0); return the strand count.

    An illegal step raises :class:`IllegalStep` before it changes anything,
    and the steps before it stay applied.  A step that carries a parameter its
    rule does not take is illegal, as its step line would be malformed.  Each
    applied step is appended to ``record``, if given, as it applied: shifted,
    a rotation modulo the length (a null rotation is not recorded).
    """
    length = len(letters)
    for steps, offset in runs:
        for step in steps:
            try:
                kind, position, amount = step
            except ValueError:
                raise IllegalStep(f"unknown rule kind {step.kind!r}") from None
            if kind == NEIGHBOR_BRAID:
                if amount is not None:
                    raise _stray(step)
                if type(position) is not int or not 0 <= (position := position + offset) <= length - 3:
                    raise _misplaced(kind, position, offset, length)
                a = letters[position]
                b = letters[position + 1]
                c = letters[position + 2]
                if a != c or (b != a + 1 and b != a - 1):
                    raise IllegalStep(
                        f"letters {(a, b, c)} at position {position} match no braid-relation pattern"
                    )
                letters[position] = letters[position + 2] = b
                letters[position + 1] = a
            elif kind == DISTANT_SWAP:
                if amount is not None:
                    raise _stray(step)
                if type(position) is not int or not 0 <= (position := position + offset) <= length - 2:
                    raise _misplaced(kind, position, offset, length)
                a = letters[position]
                b = letters[position + 1]
                if -2 < a - b < 2:
                    raise IllegalStep(f"letters σ_{a} σ_{b} at position {position} are not distant")
                letters[position] = b
                letters[position + 1] = a
            elif kind == CROSSING_CHANGE:
                if amount is not None:
                    raise _stray(step)
                if type(position) is not int or not 0 <= (position := position + offset) <= length - 2:
                    raise _misplaced(kind, position, offset, length)
                a = letters[position]
                b = letters[position + 1]
                if a != b:
                    raise IllegalStep(f"letters σ_{a} σ_{b} at position {position} are not an equal pair")
                del letters[position : position + 2]
                length -= 2
            elif kind == CONJUGATE:
                if position is not None:
                    raise _stray(step)
                if offset:
                    raise IllegalStep(f"cannot shift a {kind} step to offset {offset}")
                if type(amount) is not int:
                    raise IllegalStep(f"conjugate requires an integer amount, got {amount!r}")
                if not length:
                    if amount:
                        raise IllegalStep("cannot rotate the empty word by a nonzero amount")
                    continue
                amount %= length
                if not amount:
                    continue
                letters[:] = letters[amount:] + letters[:amount]
            elif kind == DESTABILIZE:
                if position is not None or amount is not None:
                    raise _stray(step)
                if offset:
                    raise IllegalStep(f"cannot shift a {kind} step to offset {offset}")
                if strands == 1:
                    raise IllegalStep("cannot destabilize a word on one strand")
                top = strands - 1
                # No letter exceeds top, so σ_top is the maximal used index iff it occurs.
                occurrences = letters.count(top)
                if not occurrences:
                    raise IllegalStep(f"destabilize requires σ_{top} to be the maximal used index")
                if occurrences != 1:
                    raise IllegalStep(f"destabilize requires exactly one σ_{top}, found {occurrences}")
                letters.remove(top)
                length -= 1
                strands = top
            else:
                raise IllegalStep(f"unknown rule kind {kind!r}")
            if record is not None:
                record.append(tuple.__new__(RewriteStep, (kind, position, amount)) if offset or amount else step)
    return strands


def apply_step(word: BraidWord, step: RewriteStep) -> BraidWord:
    """Apply one step to ``word``, checking its parameters; an illegal step
    raises :class:`IllegalStep`.  This is the one word-level entry point for
    the five rules."""
    letters = list(word.letters)
    strands = _run(letters, word.strands, (((step,), 0),))
    return BraidWord._trusted(strands, tuple(letters))


_ROTATIONS = ((), (RewriteStep(CONJUGATE, amount=1),), (RewriteStep(CONJUGATE, amount=2),))


def legal_moves(strands: int, letters: tuple[int, ...]):
    """Every move on the closed word once, at the least rotation that makes it.

    A move at position q of rotation r is a rotation of the same move at
    cyclic position (r + q) mod L.  Rotation 0 therefore carries every move
    that does not wrap past the end, rotation 1 the pair at L − 2 and the
    triple at L − 3, and rotation 2 the triple at L − 3.  Within a rotation
    the kinds come in a fixed order (distant swaps, braid moves, the
    destabilization, crossing changes), positions ascending.  Yields
    ``(recipe, strands, letters)``: the recipe is the tuple of steps (a
    rotation, if any, then the move) that turns the word into ``letters`` on
    ``strands`` strands.  Rotations by other amounts are not listed.
    """
    length = len(letters)
    top = strands - 1
    for r in range(min(length, 3) or 1):
        word = letters[r:] + letters[:r]
        prefix = _ROTATIONS[r]
        pairs = range((0, length - 2, length - 1)[r], length - 1)
        for q in pairs:
            a, b = word[q], word[q + 1]
            if abs(a - b) >= 2:
                yield prefix + (RewriteStep(DISTANT_SWAP, q),), strands, word[:q] + (b, a) + word[q + 2 :]
        for q in range(max(length - 3, 0) if r else 0, length - 2):
            a, b, c = word[q : q + 3]
            if a == c and abs(a - b) == 1:
                yield prefix + (RewriteStep(NEIGHBOR_BRAID, q),), strands, word[:q] + (b, a, b) + word[q + 3 :]
        if not r and top >= 1 and word.count(top) == 1:
            q = word.index(top)
            yield (RewriteStep(DESTABILIZE),), top, word[:q] + word[q + 1 :]
        for q in pairs:
            if word[q] == word[q + 1]:
                yield prefix + (RewriteStep(CROSSING_CHANGE, q),), strands, word[:q] + word[q + 2 :]


def _walk(trace: RewriteTrace):
    """Apply the steps one at a time, each at its run's offset, to one list
    of letters, yielding the strand count and that (mutated) list after each;
    an illegal step raises :class:`TraceCorrupt` with its index."""
    letters = list(trace.initial.letters)
    strands = trace.initial.strands
    index = 0
    for prog, offset in trace.runs:
        for step in prog:
            try:
                strands = _run(letters, strands, (((step,), offset),))
            except IllegalStep as exc:
                raise TraceCorrupt(f"step {index} ({step.kind}) is illegal: {exc}", index) from None
            index += 1
            yield strands, letters


def replay(trace: RewriteTrace) -> BraidWord:
    """Re-apply every step from the initial word and check where it ends.

    The runs go to the kernel in one call.  Raises
    :class:`TraceCorrupt` with the index of the first illegal step, counted
    over all steps in order; a replay that ends anywhere but the recorded
    final word fails at index ``step_count``.  Returns the final word.
    """
    letters = list(trace.initial.letters)
    try:
        strands = _run(letters, trace.initial.strands, trace.runs)
    except IllegalStep:
        # The kernel counts no steps: walk again, one step at a time, to
        # raise TraceCorrupt at the index of the illegal one.
        for _ in _walk(trace):
            pass
        raise
    word = BraidWord._trusted(strands, tuple(letters))
    if word != trace.final:
        raise TraceCorrupt(
            f"the steps end at {format_word(word)} "
            f"but the trace records final {format_word(trace.final)}",
            trace.step_count,
        )
    return word


# The rules that take a position and nothing else.  A program made of them
# alone runs at any offset, so the builder records it as one run.
_POSITIONAL = frozenset((DISTANT_SWAP, NEIGHBOR_BRAID, CROSSING_CHANGE))


def _positional(prog) -> bool:
    return all(type(step) is RewriteStep and step.kind in _POSITIONAL for step in prog)


# The one-step program of each positional rule, which the builder runs at the
# position its method is given.
_ONE_STEP = {kind: (RewriteStep(kind, 0),) for kind in _POSITIONAL}


class TraceBuilder:
    """Applies rules in place to one mutable list of letters and records steps.

    ``letters`` and ``strands`` are the current word; callers read them but
    change them only through :meth:`apply` and :meth:`run`, which run the
    kernel :func:`replay` uses, so the builder accepts and rejects exactly
    the steps replay does.  A program of positional steps is recorded as one
    ``(program, offset)`` run, the tuple itself and not a copy, and
    :meth:`distant_swap`, :meth:`neighbor_braid` and :meth:`crossing_change`
    run the one-step program of their rule at the position, so the writer
    groups a strided loop of them into one ``run`` line; whole-word steps
    applied one by one share one run at offset 0.  A rotation is recorded
    modulo the length, and a null rotation is not worth a step.  :attr:`word`
    builds a :class:`BraidWord` of the current word on demand.
    """

    def __init__(self, initial: BraidWord):
        self.initial = initial
        self.letters = list(initial.letters)
        self.strands = initial.strands
        self._runs: list[tuple[tuple, int]] = []
        self._loose: list[RewriteStep] = []  # steps applied one by one since the last run
        self._checked: dict[int, tuple] = {}  # id(program) -> (program, _positional(program))

    @property
    def word(self) -> BraidWord:
        return BraidWord._trusted(self.strands, tuple(self.letters))

    def _entries(self) -> tuple[tuple[tuple, int], ...]:
        return (*self._runs, (tuple(self._loose), 0)) if self._loose else tuple(self._runs)

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        return tuple(_expand(self._entries()))

    @property
    def crossing_changes(self) -> int:
        """Crossing changes applied so far, read off the word: only a crossing
        change (two letters) and a destabilization (one letter and one
        strand) shorten it."""
        lost = self.initial.length - len(self.letters) - (self.initial.strands - self.strands)
        return lost // 2

    def apply(self, step: RewriteStep) -> None:
        """Apply ``step`` to the current word and record it."""
        self.strands = _run(self.letters, self.strands, (((step,), 0),), self._loose)

    def run(self, steps, offset: int = 0) -> None:
        """Apply and record ``steps`` in turn, positions shifted by ``offset``.

        An illegal step raises :class:`IllegalStep`; the steps before it stay
        applied and recorded.  An ``offset`` that is not an ``int`` (a ``bool``
        neither) raises it before any step applies.
        """
        if type(offset) is not int:
            raise IllegalStep(f"a run requires an integer offset, got {offset!r}")
        prog = steps if type(steps) is tuple else tuple(steps)
        checked = self._checked.get(id(prog))
        if checked is None or checked[0] is not prog:
            checked = self._checked[id(prog)] = (prog, _positional(prog))
        if not checked[1]:
            # Whole-word steps are recorded one by one, as they applied.
            done = len(self._loose)
            try:
                self.strands = _run(self.letters, self.strands, ((prog, offset),), self._loose)
            except IllegalStep:
                self.strands -= sum(step.kind == DESTABILIZE for step in self._loose[done:])
                raise
            return
        rest = iter(prog)
        try:
            _run(self.letters, self.strands, ((rest, offset),))
        except IllegalStep:
            done = len(prog) - length_hint(rest) - 1
            self._record(prog[:done], offset)
            raise
        self._record(prog, offset)

    def _record(self, prog: tuple, offset: int) -> None:
        if not prog:
            return
        if self._loose:
            self._runs.append((tuple(self._loose), 0))
            self._loose = []
        self._runs.append((prog, offset))

    def distant_swap(self, position: int) -> None:
        self.run(_ONE_STEP[DISTANT_SWAP], position)

    def neighbor_braid(self, position: int) -> None:
        self.run(_ONE_STEP[NEIGHBOR_BRAID], position)

    def conjugate(self, amount: int) -> None:
        self.apply(RewriteStep(CONJUGATE, amount=amount))

    def destabilize(self) -> None:
        self.apply(RewriteStep(DESTABILIZE))

    def crossing_change(self, position: int) -> None:
        self.run(_ONE_STEP[CROSSING_CHANGE], position)

    def snapshot(self) -> RewriteTrace:
        runs = self._entries()
        counts = sum(map(len, map(itemgetter(0), runs))), self.crossing_changes
        return RewriteTrace._from_runs(self.initial, runs, self.word, counts)


V3_HEADER = "trace v3"
V4_HEADER = "trace v4"
# The most steps a trace text may expand to, each repetition of a program
# counting one more; parse_trace checks it before it expands a run.
MAX_TRACE_STEPS = 1 << 22


def _format_step(step: tuple) -> str:
    """The step line of a ``(kind, position, amount)`` triple."""
    kind, position, amount = step
    line = f"step: {kind}"
    if position is not None:
        line += f" pos={position}"
    if amount is not None:
        line += f" amount={amount}"
    return line


def serialize_trace(trace: RewriteTrace) -> str:
    """Render a trace as version-4 text, the format read by :func:`parse_trace`.

    Runs of equal programs are numbered by first use, and consecutive runs of
    one program at a constant stride form one group.  A program is written
    once, with its runs as ``run`` lines, when that takes fewer lines than
    its steps written out at every run; otherwise its steps are written in
    place with absolute positions, as version 3 writes them.
    """
    number: dict[int, int] = {}  # id(program) -> its index in programs
    index_of: dict[tuple, int] = {}
    programs: list[tuple] = []
    groups: list[tuple[int, int, int, int]] = []  # (index, at, times, shift)
    last = at = times = shift = None  # the group being read
    for prog, offset in trace.runs:
        i = number.get(id(prog))
        if i is None:
            i = number[id(prog)] = index_of.setdefault(prog, len(programs))
            if i == len(programs):
                programs.append(prog)
        if i == last and (times == 1 or offset == at + times * shift):
            if times == 1:
                shift = offset - at
            times += 1
            continue
        if last is not None:
            groups.append((last, at, times, shift))
        last, at, times, shift = i, offset, 1, 0
    if last is not None:
        groups.append((last, at, times, shift))
    repeats = [0] * len(programs)
    run_lines = [0] * len(programs)
    moved = [False] * len(programs)
    for i, at, times, shift in groups:
        repeats[i] += times
        run_lines[i] += 1
        moved[i] = moved[i] or bool(at or shift)
    lines = [V4_HEADER, f"initial: {format_word(trace.initial)}"]
    defined: dict[int, int] = {}
    for i, prog in enumerate(programs):
        # A whole-word step away from offset 0 cannot be written in place.
        if len(prog) + 2 + run_lines[i] < len(prog) * repeats[i] or (moved[i] and not _positional(prog)):
            lines.append(f"program {len(defined)}")
            lines.extend(map(_format_step, prog))
            lines.append("end program")
            defined[i] = len(defined)
    # Steps repeat a lot; format each distinct step once, keyed by its
    # triple with the position shifted.
    known: dict[tuple, str] = {}
    for i, at, times, shift in groups:
        if i in defined:
            lines.append(f"run {defined[i]} at={at}" + (f" times={times} shift={shift}" if times > 1 else ""))
            continue
        for r in range(times):
            offset = at + r * shift
            for step in programs[i]:
                if offset and step[1] is not None:
                    step = (step[0], step[1] + offset, step[2])
                line = known.get(step)
                if line is None:
                    line = known[step] = _format_step(step)
                lines.append(line)
    lines.append(f"final: {format_word(trace.final)}")
    lines.append(f"crossing_changes: {trace.crossing_changes}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# From a given offset: blank lines, then the first non-blank line up to the
# next line boundary of str.splitlines, without its leading whitespace.
_NEXT_LINE = re.compile(r"\s*([^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*)")


def next_line(text: str, pos: int = 0) -> tuple[str, int]:
    """The first non-blank line of ``text[pos:]``, stripped, and the offset
    just past it; ``("", len(text))`` when every line is blank.  Reading a
    header this way leaves the rest of the text unsplit."""
    match = _NEXT_LINE.match(text, pos)
    return match[1].rstrip(), match.end()


def _parse_int(key: str, value: str, line: str, what: str = "step line") -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"malformed {key} value {value!r} in {what} {line!r}") from None


# The step lines serialize_trace writes, by their text before the first "=":
# "pos" for a positional rule, "amount" for conjugate.
_WRITTEN_HEADS = {f"step: {kind} {keys[0]}": kind for kind, keys in _STEP_PARAMETERS.items() if keys}
_WRITTEN_DESTABILIZE = f"step: {DESTABILIZE}"
# The run lines it writes, where "times" (at least 1) and "shift" come
# together, and the first lines of its programs.
_WRITTEN_DIRECTIVE = re.compile(
    r"run ([0-9]{1,18}) at=(-?[0-9]{1,18})(?: times=([1-9][0-9]{0,17}) shift=(-?[0-9]{1,18}))?"
    r"|program ([0-9]{1,18})"
)


def _parse_step(line: str) -> RewriteStep:
    """The full step-line grammar: any run of whitespace between fields,
    parameters in any order, any spelling ``int`` reads; every parse error of
    a step line is raised here."""
    if not line.startswith("step:"):
        raise ParseError(f"unexpected line in trace body: {line!r}")
    fields = line[len("step:") :].split()
    if not fields:
        raise ParseError(f"step line names no rule: {line!r}")
    kind = fields[0]
    if kind not in _STEP_PARAMETERS:
        raise ParseError(f"unknown rule kind {kind!r}")
    position = amount = None
    seen = set()
    for piece in fields[1:]:
        key, eq, value = piece.partition("=")
        if not eq:
            raise ParseError(f"malformed step parameter {piece!r}")
        if key not in _STEP_PARAMETERS[kind]:
            raise ParseError(f"a {kind} step takes no {key!r} parameter: {line!r}")
        if key in seen:
            raise ParseError(f"repeated {key!r} parameter in step line {line!r}")
        seen.add(key)
        if key == "pos":
            position = _parse_int(key, value, line)
        else:
            amount = _parse_int(key, value, line)
    return RewriteStep(kind, position, amount)


_END_PROGRAM = ("end program",)
_END_BODY = ("end",)


def _parse_directive(line: str) -> tuple:
    """A line of version 4 that is not a step line: ``("program", id)``,
    :data:`_END_PROGRAM`, or ``("run", id, at, times, shift)``."""
    fields = line.split()
    if fields == ["end", "program"]:
        return _END_PROGRAM
    if fields[0] == "program" and len(fields) == 2:
        return ("program", _parse_int("program id", fields[1], line, "line"))
    if fields[0] != "run" or len(fields) < 2:
        raise ParseError(f"unexpected line in trace body: {line!r}")
    params: dict[str, int] = {}
    for piece in fields[2:]:
        key, eq, value = piece.partition("=")
        if not eq or key not in ("at", "times", "shift"):
            raise ParseError(f"malformed run parameter {piece!r} in {line!r}")
        if key in params:
            raise ParseError(f"repeated {key!r} parameter in run line {line!r}")
        params[key] = _parse_int(key, value, line, "run line")
    if "at" not in params:
        raise ParseError(f"run line names no offset: {line!r}")
    times = params.get("times", 1)
    if times < 1:
        raise ParseError(f"a run must repeat its program at least once: {line!r}")
    ident = _parse_int("program id", fields[1], line, "run line")
    return ("run", ident, params["at"], times, params.get("shift", 0))


def _too_long() -> ParseError:
    return ParseError(f"trace text expands to more than {MAX_TRACE_STEPS} steps")


def _runs(body: list[str], known: dict) -> tuple[list[tuple[tuple, int]], tuple[int, int]]:
    """The ``(program, offset)`` runs of a version-4 body whose distinct
    lines ``known`` has read, and their (steps, crossing changes): the steps
    between two other lines share one run at offset 0, applied where they
    stand."""
    items = list(map(known.__getitem__, body))
    # Count every step line, then take the program bodies off and add the runs.
    loose = countOf(map(type, items), RewriteStep)
    changes = countOf(map(itemgetter(0), items), CROSSING_CHANGE)
    items.append(_END_BODY)
    programs: dict[int, tuple[tuple, int, int]] = {}  # id -> (steps, cost of one run, crossing changes)
    runs: list[tuple[tuple, int]] = []
    total = repeats = start = 0  # total: the steps of the runs, plus one per repetition
    body_of = None  # the id of the program being read
    for index in compress(count_from(), map(is_not, map(type, items), repeat(RewriteStep))):
        item = items[index]
        span = ()
        if start < index:
            span = tuple(items[start:index])
            if body_of is None:
                runs.append((span, 0))
        start = index + 1
        if body_of is None:
            if len(item) == 5:
                _, ident, at, times, shift = item
                if ident not in programs:
                    raise ParseError(f"run of undefined program {ident}: {body[index]!r}")
                prog, cost, spent = programs[ident]
                if times == 1:  # one entry per line: the cap can wait for the end
                    runs.append((prog, at))
                    total += cost
                    changes += spent
                    repeats += 1
                    continue
                total += cost * times
                if total > MAX_TRACE_STEPS:
                    raise _too_long()
                changes += spent * times
                repeats += times
                runs += [(prog, at + r * shift) for r in range(times)]
            elif item is _END_BODY:
                break
            elif item is _END_PROGRAM:
                raise ParseError("'end program' line outside a program")
            elif item[1] in programs:
                raise ParseError(f"program {item[1]} is defined twice")
            else:
                body_of = item[1]
        elif item is _END_PROGRAM:
            programs[body_of] = span, len(span) + 1, _changes(span)
            loose -= len(span)
            changes -= programs[body_of][2]
            body_of = None
        elif item is _END_BODY:
            raise ParseError(f"program {body_of} has no 'end program' line")
        elif item[0] == "program":
            raise ParseError(f"program {item[1]} starts inside program {body_of}")
        else:
            raise ParseError(f"run line inside program {body_of}: {body[index]!r}")
    if loose + total > MAX_TRACE_STEPS:
        raise _too_long()
    return runs, (loose + total - repeats, changes)


def parse_trace(text: str) -> RewriteTrace:
    """Parse version-4 or version-3 trace text, as :func:`serialize_trace`
    writes it (version 3 is version 4 without programs).

    Parsing checks structure only; call :func:`replay` to validate the steps.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or lines[0] not in (V4_HEADER, V3_HEADER):
        raise ParseError("trace text must start with a 'trace v4' or 'trace v3' line")
    if lines[-1] != "end":
        raise ParseError("trace text must end with an 'end' line")
    if len(lines) < 4 or not lines[1].startswith("initial:"):
        raise ParseError("trace text must have an 'initial:' line")
    initial = parse_word(lines[1][len("initial:") :].strip())
    count_line = lines[-2]
    if not count_line.startswith("crossing_changes:"):
        raise ParseError("trace text must have a 'crossing_changes:' line before 'end'")
    try:
        declared = int(count_line[len("crossing_changes:") :].strip())
    except ValueError:
        raise ParseError(f"malformed crossing-change total: {count_line!r}") from None
    if len(lines) < 5 or not lines[-3].startswith("final:"):
        raise ParseError("trace text must have a 'final:' line before 'crossing_changes:'")
    final = parse_word(lines[-3][len("final:") :].strip())
    body = lines[2:-3]
    # Body lines repeat a lot; parse each distinct line once, in order of
    # first appearance, so that the first malformed line is the one reported.
    # A step, run or program line spelled exactly as serialize_trace writes
    # it (single spaces, numbers of at most 18 ASCII digits, which int reads
    # without fail) is read here; any other step line goes to _parse_step,
    # and any other line of version 4 to _parse_directive.
    known = dict.fromkeys(body)
    version_4 = lines[0] == V4_HEADER
    directives = False
    for line in known:
        if version_4 and line[0] in "rp" and (match := _WRITTEN_DIRECTIVE.fullmatch(line)):
            ident, at, times, shift, program = match.groups()
            if program:
                known[line] = ("program", int(program))
            else:
                known[line] = ("run", int(ident), int(at), int(times or 1), int(shift or 0))
            directives = True
            continue
        head, _, value = line.partition("=")
        kind = _WRITTEN_HEADS.get(head)
        if kind is None or not (value.isdigit() and value.isascii() and len(value) < 19):
            if line == _WRITTEN_DESTABILIZE:
                known[line] = RewriteStep(DESTABILIZE)
            elif version_4 and not line.startswith("step:"):
                known[line] = _parse_directive(line)
                directives = True
            else:
                known[line] = _parse_step(line)
        elif kind == CONJUGATE:
            known[line] = tuple.__new__(RewriteStep, (kind, None, int(value)))
        else:
            known[line] = tuple.__new__(RewriteStep, (kind, int(value), None))
    if directives:
        runs, counts = _runs(body, known)
        trace = RewriteTrace._from_runs(initial, runs, final, counts)
    elif len(body) > MAX_TRACE_STEPS:
        raise _too_long()
    else:
        trace = RewriteTrace(initial, map(known.__getitem__, body), final)
    if trace.crossing_changes != declared:
        raise ParseError(
            f"declared crossing-change total {declared} disagrees with steps "
            f"({trace.crossing_changes})"
        )
    return trace
