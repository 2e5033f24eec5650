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
A :class:`RewriteTrace` stores the initial word, the steps and the final word;
the words in between are derived on demand.  :func:`replay` re-applies every
step from the initial word and is the single source of truth for validity:
each step must be legal and the last one must reach the recorded final word.
All of them run one in-place step kernel, a single loop over a sequence of
steps with every legality check inline, so they accept and reject exactly
the same steps.  Positions and amounts are ``int`` itself, never ``bool``,
and a step that carries a parameter its rule does not take is illegal.

Trace text, version 3, is the one syntax :func:`serialize_trace` writes and
:func:`parse_trace` reads; text under any other header is malformed::

    trace v3
    initial: 2: 1 1 1
    step: crossing-change pos=0
    final: 2: 1
    crossing_changes: 1
    end

:func:`parse_trace` reads the exact step lines :func:`serialize_trace` writes
directly; any other spelling goes through the full step grammar, which also
writes every parse error of a step line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter, countOf
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


@dataclass(frozen=True)
class RewriteTrace:
    """An initial word, the steps applied to it in order, and the final word.

    The words in between are not stored; :attr:`words` derives them by
    replay.
    """

    initial: BraidWord
    steps: tuple[RewriteStep, ...]
    final: BraidWord
    crossing_changes: int = field(init=False)

    def __post_init__(self):
        count = countOf(map(attrgetter("kind"), self.steps), CROSSING_CHANGE)
        object.__setattr__(self, "crossing_changes", count)

    @property
    def words(self) -> tuple[BraidWord, ...]:
        """The full ride, derived by replay: the initial word followed by the
        word after each step.  An illegal step raises :class:`TraceCorrupt`."""
        after = tuple(BraidWord._trusted(strands, tuple(letters)) for strands, letters in _walk(self))
        return (self.initial,) + after


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


def _run(letters: list[int], strands: int, steps, offset: int = 0, record: list | None = None) -> int:
    """Apply ``steps`` in turn to ``letters`` in place, positions shifted by
    ``offset`` (whole-word steps run only at offset 0); return the strand count.

    An illegal step raises :class:`IllegalStep` before it changes anything,
    and the steps before it stay applied.  A step that carries a parameter its
    rule does not take is illegal, as its step line would be malformed.  Each
    applied step is appended to ``record``, if given, as it applied: shifted,
    a rotation modulo the length (a null rotation is not recorded).
    """
    length = len(letters)
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
                raise IllegalStep(f"letters {(a, b, c)} at position {position} match no braid-relation pattern")
            letters[position] = letters[position + 2] = b
            letters[position + 1] = a
            if record is not None:
                record.append(tuple.__new__(RewriteStep, (kind, position, None)) if offset else step)
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
            if record is not None:
                record.append(tuple.__new__(RewriteStep, (kind, position, None)) if offset else step)
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
            if record is not None:
                record.append(tuple.__new__(RewriteStep, (kind, position, None)) if offset else step)
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
            if amount:
                letters[:] = letters[amount:] + letters[:amount]
                if record is not None:
                    record.append(tuple.__new__(RewriteStep, (kind, None, amount)))
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
            if record is not None:
                record.append(step)
        else:
            raise IllegalStep(f"unknown rule kind {kind!r}")
    return strands


def apply_step(word: BraidWord, step: RewriteStep) -> BraidWord:
    """Apply one step to ``word``, checking its parameters; an illegal step
    raises :class:`IllegalStep`.  This is the one word-level entry point for
    the five rules."""
    letters = list(word.letters)
    strands = _run(letters, word.strands, (step,))
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
    """Apply the steps one at a time to one list of letters, yielding the
    strand count and that (mutated) list after each; an illegal step raises
    :class:`TraceCorrupt` with its index."""
    letters = list(trace.initial.letters)
    strands = trace.initial.strands
    for index, step in enumerate(trace.steps):
        try:
            strands = _run(letters, strands, (step,))
        except IllegalStep as exc:
            raise TraceCorrupt(f"step {index} ({step.kind}) is illegal: {exc}", index) from None
        yield strands, letters


def replay(trace: RewriteTrace) -> BraidWord:
    """Re-apply every step from the initial word and check where it ends.

    Raises :class:`TraceCorrupt` with the index of the first illegal step; a
    replay that ends anywhere but the recorded final word fails at index
    ``len(steps)``.  Returns the final word.
    """
    letters = list(trace.initial.letters)
    try:
        strands = _run(letters, trace.initial.strands, trace.steps)
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
            len(trace.steps),
        )
    return word


class TraceBuilder:
    """Applies rules in place to one mutable list of letters and records steps.

    ``letters`` and ``strands`` are the current word; callers read them but
    change them only through :meth:`apply` and :meth:`run`, which run the
    kernel :func:`replay` uses, so the builder accepts and rejects exactly
    the steps replay does.  A rotation is recorded modulo the length, and a
    null rotation is not worth a step.  :attr:`word`
    builds a :class:`BraidWord` of the current word on demand.
    """

    def __init__(self, initial: BraidWord):
        self.initial = initial
        self.letters = list(initial.letters)
        self.strands = initial.strands
        self._steps: list[RewriteStep] = []

    @property
    def word(self) -> BraidWord:
        return BraidWord._trusted(self.strands, tuple(self.letters))

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        return tuple(self._steps)

    @property
    def crossing_changes(self) -> int:
        """Crossing changes applied so far, read off the word: only a crossing
        change (two letters) and a destabilization (one letter and one
        strand) shorten it."""
        lost = self.initial.length - len(self.letters) - (self.initial.strands - self.strands)
        return lost // 2

    def apply(self, step: RewriteStep) -> None:
        """Apply ``step`` to the current word and record it."""
        self.strands = _run(self.letters, self.strands, (step,), 0, self._steps)

    def run(self, steps, offset: int = 0) -> None:
        """Apply and record ``steps`` in turn, positions shifted by ``offset``.

        An illegal step raises :class:`IllegalStep`; the steps before it stay
        applied and recorded.
        """
        done = len(self._steps)
        try:
            self.strands = _run(self.letters, self.strands, steps, offset, self._steps)
        except IllegalStep:
            self.strands -= sum(step.kind == DESTABILIZE for step in self._steps[done:])
            raise

    def distant_swap(self, position: int) -> None:
        self.apply(RewriteStep(DISTANT_SWAP, position))

    def neighbor_braid(self, position: int) -> None:
        self.apply(RewriteStep(NEIGHBOR_BRAID, position))

    def conjugate(self, amount: int) -> None:
        self.apply(RewriteStep(CONJUGATE, amount=amount))

    def destabilize(self) -> None:
        self.apply(RewriteStep(DESTABILIZE))

    def crossing_change(self, position: int) -> None:
        self.apply(RewriteStep(CROSSING_CHANGE, position))

    def snapshot(self) -> RewriteTrace:
        return RewriteTrace(self.initial, tuple(self._steps), self.word)


V3_HEADER = "trace v3"


def _format_step(step: RewriteStep) -> str:
    parts = [f"step: {step.kind}"]
    if step.position is not None:
        parts.append(f"pos={step.position}")
    if step.amount is not None:
        parts.append(f"amount={step.amount}")
    return " ".join(parts)


def serialize_trace(trace: RewriteTrace) -> str:
    """Render a trace as version-3 text, the format read by :func:`parse_trace`."""
    lines = [V3_HEADER, f"initial: {format_word(trace.initial)}"]
    # Steps repeat a lot; format each distinct step once.
    known: dict[RewriteStep, str] = {}
    for step in trace.steps:
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


def _parse_int(key: str, value: str, line: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"malformed {key} value {value!r} in step line {line!r}") from None


# The step lines serialize_trace writes, by their text before the first "=":
# "pos" for a positional rule, "amount" for conjugate.
_WRITTEN_HEADS = {f"step: {kind} {keys[0]}": kind for kind, keys in _STEP_PARAMETERS.items() if keys}
_WRITTEN_DESTABILIZE = f"step: {DESTABILIZE}"


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


def parse_trace(text: str) -> RewriteTrace:
    """Parse version-3 trace text, as written by :func:`serialize_trace`.

    Parsing checks structure only; call :func:`replay` to validate the steps.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines or lines[0] != V3_HEADER:
        raise ParseError("trace text must start with a 'trace v3' line")
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
    # Step lines repeat a lot; parse each distinct line once, in order of
    # first appearance, so that the first malformed line is the one reported.
    # A line spelled exactly as serialize_trace writes it (single spaces, one
    # parameter, a number of at most 18 ASCII digits, which int reads without
    # fail) is read here; any other line goes to _parse_step.
    step_lines = lines[2:-3]
    known = dict.fromkeys(step_lines)
    for line in known:
        head, _, value = line.partition("=")
        kind = _WRITTEN_HEADS.get(head)
        if kind is None or not (value.isdigit() and value.isascii() and len(value) < 19):
            known[line] = RewriteStep(DESTABILIZE) if line == _WRITTEN_DESTABILIZE else _parse_step(line)
        elif kind == CONJUGATE:
            known[line] = tuple.__new__(RewriteStep, (kind, None, int(value)))
        else:
            known[line] = tuple.__new__(RewriteStep, (kind, int(value), None))
    trace = RewriteTrace(initial, tuple(map(known.__getitem__, step_lines)), final)
    if trace.crossing_changes != declared:
        raise ParseError(
            f"declared crossing-change total {declared} disagrees with steps "
            f"({trace.crossing_changes})"
        )
    return trace
