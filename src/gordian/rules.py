"""The five rewriting rules on positive braid words, with replayable traces.

The calculus has exactly five rules, all preserving the closure's component
count:

* **distant-swap** — ``σ_i σ_j → σ_j σ_i`` when ``|i - j| ≥ 2`` (position = the
  left letter of the pair).  Length and strand count preserved; self-inverse.
* **neighbor-braid** — ``σ_i σ_{i+1} σ_i ↔ σ_{i+1} σ_i σ_{i+1}`` (position =
  the first letter of the triple).  The direction is inferred from the pattern
  and recorded: *forward* rewrites ``(i, i+1, i)`` to ``(i+1, i, i+1)``,
  *backward* the reverse.  Length and strand count preserved.
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

Trace text, version 2, is the one syntax :func:`serialize_trace` writes and
:func:`parse_trace` reads; text under any other header is malformed::

    trace v2
    initial: 2: 1 1 1
    step: crossing-change pos=0
    final: 2: 1
    crossing_changes: 1
    end
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

FORWARD = "forward"
BACKWARD = "backward"


class RewriteStep(NamedTuple):
    """One rule application, the one step type of traces, programs and moves.

    ``position`` is meaningful for distant-swap / neighbor-braid /
    crossing-change, ``direction`` for neighbor-braid, ``amount`` for
    conjugate.  Positions always refer to the word *immediately before* the
    step.  A neighbor-braid step without a direction takes the one its
    triple shows when a :class:`TraceBuilder` applies it.
    """

    kind: str
    position: int | None = None
    direction: str | None = None
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
        count = sum(1 for step in self.steps if step.kind == CROSSING_CHANGE)
        object.__setattr__(self, "crossing_changes", count)

    @property
    def words(self) -> tuple[BraidWord, ...]:
        """The full ride, derived by replay: the initial word followed by the
        word after each step.  An illegal step raises :class:`TraceCorrupt`."""
        after = tuple(BraidWord._trusted(strands, tuple(letters)) for strands, letters in _walk(self))
        return (self.initial,) + after


# The rules work in place on a list of letters, so that replay pays O(1) for a
# swap or a braid move instead of copying the word.  Each keeps every letter
# inside 1..strands-1 by construction: the braid move only writes the two
# letters of its triple, and destabilize removes the only top letter.  Their
# results therefore become words through ``BraidWord._trusted``, unchecked.


def _check_position(length: int, position, width: int, kind: str) -> None:
    if position is None or not isinstance(position, int):
        raise IllegalStep(f"{kind} requires an integer position, got {position!r}")
    if not (0 <= position <= length - width):
        raise IllegalStep(
            f"{kind} at position {position} does not fit in a word of length {length}"
        )


def _distant_swap(letters: list[int], position) -> None:
    _check_position(len(letters), position, 2, DISTANT_SWAP)
    a, b = letters[position], letters[position + 1]
    if abs(a - b) < 2:
        raise IllegalStep(f"letters σ_{a} σ_{b} at position {position} are not distant")
    letters[position], letters[position + 1] = b, a


def _braid_direction(letters, position) -> str:
    _check_position(len(letters), position, 3, NEIGHBOR_BRAID)
    a, b, c = letters[position : position + 3]
    if a == c and b == a + 1:
        return FORWARD
    if a == c and b == a - 1:
        return BACKWARD
    raise IllegalStep(f"letters {(a, b, c)} at position {position} match no braid-relation pattern")


def _neighbor_braid(letters: list[int], position, direction) -> str:
    """Rewrite the triple at ``position``; return the direction its pattern
    shows, which a recorded ``direction`` must match."""
    found = _braid_direction(letters, position)
    if direction is not None and direction != found:
        raise IllegalStep(f"recorded direction {direction!r} does not match the {found} pattern")
    a = letters[position]
    b = a + 1 if found == FORWARD else a - 1
    letters[position] = letters[position + 2] = b
    letters[position + 1] = a
    return found


def _conjugate(letters: list[int], amount) -> None:
    if not isinstance(amount, int):
        raise IllegalStep(f"conjugate requires an integer amount, got {amount!r}")
    if not letters:
        if amount != 0:
            raise IllegalStep("cannot rotate the empty word by a nonzero amount")
        return
    amount %= len(letters)
    letters[:] = letters[amount:] + letters[:amount]


def _destabilize(letters: list[int], strands: int) -> int:
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
    return strands - 1


def _crossing_change(letters: list[int], position) -> None:
    _check_position(len(letters), position, 2, CROSSING_CHANGE)
    a, b = letters[position], letters[position + 1]
    if a != b:
        raise IllegalStep(f"letters σ_{a} σ_{b} at position {position} are not an equal pair")
    del letters[position : position + 2]


def _apply(letters: list[int], strands: int, step: RewriteStep) -> int:
    """Apply ``step`` to ``letters`` in place; return the new strand count."""
    kind = step.kind
    if kind == DISTANT_SWAP:
        _distant_swap(letters, step.position)
    elif kind == NEIGHBOR_BRAID:
        _neighbor_braid(letters, step.position, step.direction)
    elif kind == CONJUGATE:
        _conjugate(letters, step.amount)
    elif kind == DESTABILIZE:
        return _destabilize(letters, strands)
    elif kind == CROSSING_CHANGE:
        _crossing_change(letters, step.position)
    else:
        raise IllegalStep(f"unknown rule kind {kind!r}")
    return strands


def apply_step(word: BraidWord, step: RewriteStep) -> BraidWord:
    """Apply one step to ``word``, checking its parameters; an illegal step
    raises :class:`IllegalStep`.  This is the one word-level entry point for
    the five rules."""
    letters = list(word.letters)
    strands = _apply(letters, word.strands, step)
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
                step = RewriteStep(NEIGHBOR_BRAID, q, FORWARD if b > a else BACKWARD)
                yield prefix + (step,), strands, word[:q] + (b, a, b) + word[q + 3 :]
        if not r and top >= 1 and word.count(top) == 1:
            q = word.index(top)
            yield (RewriteStep(DESTABILIZE),), top, word[:q] + word[q + 1 :]
        for q in pairs:
            if word[q] == word[q + 1]:
                yield prefix + (RewriteStep(CROSSING_CHANGE, q),), strands, word[:q] + word[q + 2 :]


def _walk(trace: RewriteTrace):
    """Apply the steps in turn to one list of letters, yielding the strand
    count and that (mutated) list after each; an illegal step raises
    :class:`TraceCorrupt` with its index."""
    letters = list(trace.initial.letters)
    strands = trace.initial.strands
    for index, step in enumerate(trace.steps):
        try:
            strands = _apply(letters, strands, step)
        except IllegalStep as exc:
            raise TraceCorrupt(f"step {index} ({step.kind}) is illegal: {exc}", index) from None
        yield strands, letters


def replay(trace: RewriteTrace) -> BraidWord:
    """Re-apply every step from the initial word and check where it ends.

    Raises :class:`TraceCorrupt` with the index of the first illegal step; a
    replay that ends anywhere but the recorded final word fails at index
    ``len(steps)``.  Returns the final word.
    """
    strands, letters = trace.initial.strands, trace.initial.letters
    for strands, letters in _walk(trace):
        pass
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
    change them only through :meth:`apply`.  :attr:`word` builds a
    :class:`BraidWord` of the current word on demand.
    """

    def __init__(self, initial: BraidWord):
        self.initial = initial
        self.letters = list(initial.letters)
        self.strands = initial.strands
        self.crossing_changes = 0
        self._steps: list[RewriteStep] = []

    @property
    def word(self) -> BraidWord:
        return BraidWord._trusted(self.strands, tuple(self.letters))

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        return tuple(self._steps)

    def apply(self, step: RewriteStep) -> None:
        """Apply ``step`` to the current word and record it.

        A neighbor-braid step without a direction is recorded with the one
        its triple shows; a rotation is recorded modulo the length, and a
        null rotation is not worth a step.
        """
        kind = step.kind
        if kind == CONJUGATE:
            amount = step.amount % len(self.letters) if self.letters else 0
            if amount == 0:
                return
            step = RewriteStep(kind, amount=amount)
        if kind == NEIGHBOR_BRAID:
            found = _neighbor_braid(self.letters, step.position, step.direction)
            if step.direction is None:
                step = RewriteStep(kind, step.position, found)
        else:
            self.strands = _apply(self.letters, self.strands, step)
        if kind == CROSSING_CHANGE:
            self.crossing_changes += 1
        self._steps.append(step)

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


V2_HEADER = "trace v2"


def _format_step(step: RewriteStep) -> str:
    parts = [f"step: {step.kind}"]
    if step.position is not None:
        parts.append(f"pos={step.position}")
    if step.direction is not None:
        parts.append(f"direction={step.direction}")
    if step.amount is not None:
        parts.append(f"amount={step.amount}")
    return " ".join(parts)


def serialize_trace(trace: RewriteTrace) -> str:
    """Render a trace as version-2 text, the format read by :func:`parse_trace`."""
    lines = [V2_HEADER, f"initial: {format_word(trace.initial)}"]
    lines.extend(_format_step(step) for step in trace.steps)
    lines.append(f"final: {format_word(trace.final)}")
    lines.append(f"crossing_changes: {trace.crossing_changes}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_int(key: str, value: str, line: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"malformed {key} value {value!r} in step line {line!r}") from None


# The parameters each rule's step line may carry.
_STEP_PARAMETERS = {
    DISTANT_SWAP: ("pos",),
    NEIGHBOR_BRAID: ("pos", "direction"),
    CONJUGATE: ("amount",),
    DESTABILIZE: (),
    CROSSING_CHANGE: ("pos",),
}


def _parse_step(line: str) -> RewriteStep:
    if not line.startswith("step:"):
        raise ParseError(f"unexpected line in trace body: {line!r}")
    fields = line[len("step:") :].split()
    if not fields:
        raise ParseError(f"step line names no rule: {line!r}")
    kind = fields[0]
    if kind not in _STEP_PARAMETERS:
        raise ParseError(f"unknown rule kind {kind!r}")
    position = direction = amount = None
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
        elif key == "direction":
            if value not in (FORWARD, BACKWARD):
                raise ParseError(f"unknown direction {value!r}")
            direction = value
        else:
            amount = _parse_int(key, value, line)
    return RewriteStep(kind, position=position, direction=direction, amount=amount)


def parse_trace(text: str) -> RewriteTrace:
    """Parse version-2 trace text, as written by :func:`serialize_trace`.

    Parsing checks structure only; call :func:`replay` to validate the steps.
    """
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines or lines[0] != V2_HEADER:
        raise ParseError("trace text must start with a 'trace v2' line")
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
    body = lines[2:-2]
    if not body or not body[-1].startswith("final:"):
        raise ParseError("trace text must have a 'final:' line before 'crossing_changes:'")
    final = parse_word(body[-1][len("final:") :].strip())
    # Step lines repeat a lot; parse each distinct line once.
    known: dict[str, RewriteStep] = {}
    steps = []
    for line in body[:-1]:
        step = known.get(line)
        if step is None:
            step = known[line] = _parse_step(line)
        steps.append(step)
    trace = RewriteTrace(initial, tuple(steps), final)
    if trace.crossing_changes != declared:
        raise ParseError(
            f"declared crossing-change total {declared} disagrees with steps "
            f"({trace.crossing_changes})"
        )
    return trace
