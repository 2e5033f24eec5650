"""Exhaustive enumeration of positive braid knots by unknotting number, and
bounded breadth-first search for crossing-change paths between words.

A positive braid word on ``n`` strands with ``ℓ`` letters closes to a knot of
unknotting number ``u = (ℓ − n + 1)/2``; fixing ``u = m`` therefore pins the
length per strand count, and a knot representative needs every generator
present plus at most ``2m + 1`` strands once single-occurrence generators are
removed.  :func:`enumerate_positive_knots` walks exactly that finite space in
lexicographic order and counts every word.  It computes the canonical form
(least over rotations and distant commutations) once per rotation class, at
the class's least rotation, which is the first member the walk meets.  It
then minimizes each distinct form and groups the survivors by invariant key
(unknotting number, Alexander polynomial, minimal strand count).  The class
count is checked against the ``(2m)^{4m}`` ceiling.

:func:`positive_path_search` looks for an explicit five-rule path between two
given words whose every intermediate stays a positive braid knot, and
:func:`verify_positive_path` replays any trace and confirms that property.
The search keys states by least rotation and expands each move of the closed
word once, at the least rotation that makes it: about one candidate per
letter, where listing every move of every rotation gives about ``L²``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .alexander import LaurentPoly, alexander
from .errors import (
    BudgetExceeded,
    DomainError,
    NoSingleGenerator,
    NotFoundWithinBudget,
    TraceCorrupt,
)
from .rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteTrace,
    TraceBuilder,
    replay,
)
from .unknotting import generator_support_check, reduce_single_generator
from .words import BraidWord, format_word, is_knot, unknotting_number

__all__ = [
    "canonical_rotation",
    "canonical_form",
    "minimize_word",
    "KnotClass",
    "EnumerationResult",
    "enumerate_positive_knots",
    "format_enumeration_report",
    "positive_path_search",
    "verify_positive_path",
    "positive_path_diagnostic",
]


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _rotations(letters: tuple[int, ...]):
    if not letters:
        yield letters
        return
    for r in range(len(letters)):
        yield letters[r:] + letters[:r]


def canonical_rotation(word: BraidWord) -> BraidWord:
    """The lexicographically least rotation — a cheap conjugacy-stable key."""
    return BraidWord(word.strands, min(_rotations(word.letters)))


def _commutation_least(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least word reachable by distant swaps alone.

    Letters whose indices differ by at most one never commute, so at every
    step exactly one occurrence of each *available* letter value competes and
    the greedy choice of the smallest available value is the unique optimum.
    A letter is available when no earlier remaining letter is within one of
    it; each pick is one scan that keeps those blocked values as bits of an
    integer.
    """
    remaining = list(letters)
    out: list[int] = []
    while remaining:
        blocked = 0
        best = 0
        least = remaining[0]
        for idx, letter in enumerate(remaining):
            if letter < least and not blocked >> letter & 1:
                best = idx
                least = letter
            blocked |= 0b111 << (letter - 1)
        out.append(remaining.pop(best))
    return tuple(out)


def canonical_form(word: BraidWord) -> BraidWord:
    """Least word over all rotations composed with commutation reordering."""
    best = min(_commutation_least(rot) for rot in _rotations(word.letters))
    return BraidWord(word.strands, best)


# ---------------------------------------------------------------------------
# strand minimization
# ---------------------------------------------------------------------------


def _reducible(strands: int, letters: tuple[int, ...]) -> bool:
    counts = [0] * strands
    for letter in letters:
        counts[letter] += 1
    return any(count == 1 for count in counts[1:])


def _orbit_search_reduce(word: BraidWord, node_cap: int) -> BraidWord | None:
    """Bounded BFS over rotation/braid/swap neighbours for a reducible word."""
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[int, ...]] = deque()
    for rot in _rotations(word.letters):
        if rot not in seen:
            seen.add(rot)
            queue.append(rot)
    while queue and len(seen) <= node_cap:
        letters = queue.popleft()
        if _reducible(word.strands, letters):
            return reduce_single_generator(BraidWord._trusted(word.strands, letters))
        neighbours: list[tuple[int, ...]] = []
        for q in range(len(letters) - 2):
            a, b, c = letters[q : q + 3]
            if a == c and abs(a - b) == 1:
                neighbours.append(letters[:q] + (b, a, b) + letters[q + 3 :])
        for q in range(len(letters) - 1):
            a, b = letters[q : q + 2]
            if abs(a - b) >= 2:
                neighbours.append(letters[:q] + (b, a) + letters[q + 2 :])
        for neighbour in neighbours:
            for rot in _rotations(neighbour):
                if rot not in seen:
                    seen.add(rot)
                    queue.append(rot)
    return None


def minimize_word(word: BraidWord, node_cap: int = 20000) -> BraidWord:
    """Drive a knot word to as few strands as the orbit search can reach.

    Alternates greedy single-occurrence generator removal with a bounded
    search through rotations, braid moves, and distant swaps for a word where
    the greedy step applies again.
    """
    current = word
    while True:
        try:
            current = reduce_single_generator(current)
            continue
        except NoSingleGenerator:
            pass
        found = _orbit_search_reduce(current, node_cap)
        if found is None:
            return current
        current = found


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotClass:
    """One knot class discovered by enumeration.

    ``invariant_key`` is (unknotting number, Alexander polynomial, minimal
    achieved strand count); ``members`` holds the distinct minimized canonical
    forms sharing that key.  More than one member means the invariants could
    not separate them (``merged`` is then true and all representatives are
    retained rather than silently identified).
    """

    representative: BraidWord
    invariant_key: tuple[int, LaurentPoly, int]
    members: tuple[BraidWord, ...]

    @property
    def merged(self) -> bool:
        return len(self.members) > 1


@dataclass(frozen=True)
class EnumerationResult:
    """Classes found for one unknotting number, plus census counters."""

    m: int
    budget: int
    words_examined: int
    knot_words: int
    distinct_forms: int
    classes: tuple[KnotClass, ...]

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def enumerate_positive_knots(m: int, budget: int = 1_000_000) -> EnumerationResult:
    """Enumerate every positive braid knot with unknotting number ``m``.

    Walks all words of length ``2m + n − 1`` over generator indices
    ``1 … n−1`` for each strand count ``n`` up to ``2m + 1`` (the one-strand
    empty word participates only when ``m = 0``), filters to knot words whose
    generators all occur, dedups by canonical form, minimizes strand count,
    and groups by invariant key.  Raises :class:`BudgetExceeded` carrying the
    partial result when more than ``budget`` words would be examined.

    Both filters and the canonical form are the same on every rotation of a
    word, and the walk is lexicographic, so each rotation class is first met
    at its least rotation; the canonical form is computed there only.  Every
    word is still counted, and a partial result holds the forms of exactly
    the classes met so far.
    """
    if m < 0:
        raise DomainError(f"unknotting number must be >= 0, got {m}")
    words_examined = 0
    knot_words = 0
    raw_forms: set[BraidWord] = set()

    def build(partial_ok: bool = False) -> EnumerationResult:
        minimized: dict[BraidWord, BraidWord] = {}
        for form in raw_forms:
            minimized[form] = minimize_word(form)
        groups: dict[tuple[int, LaurentPoly, int], set[BraidWord]] = {}
        for small in minimized.values():
            key = (unknotting_number(small), alexander(small), small.strands)
            groups.setdefault(key, set()).add(canonical_form(small))
        classes = []
        for key, forms in groups.items():
            members = tuple(sorted(forms, key=lambda w: (w.length, w.strands, w.letters)))
            classes.append(KnotClass(members[0], key, members))
        classes.sort(
            key=lambda c: (
                c.invariant_key[0],
                c.representative.strands,
                c.representative.length,
                c.representative.letters,
            )
        )
        bound = (2 * m) ** (4 * m) if m else 1
        if not partial_ok and len(classes) > bound:
            raise AssertionError(
                f"{len(classes)} classes exceed the (2m)^(4m) = {bound} ceiling"
            )
        return EnumerationResult(
            m=m,
            budget=budget,
            words_examined=words_examined,
            knot_words=knot_words,
            distinct_forms=len(raw_forms),
            classes=tuple(classes),
        )

    for n in range(1, 2 * m + 2):
        length = 2 * m + n - 1
        for letters in product(range(1, n), repeat=length):
            if words_examined >= budget:
                raise BudgetExceeded(
                    f"enumeration budget of {budget} words exhausted at {n} strands",
                    partial=build(partial_ok=True),
                )
            words_examined += 1
            candidate = BraidWord._trusted(n, letters)
            if not generator_support_check(candidate):
                continue
            if not is_knot(candidate):
                continue
            knot_words += 1
            if letters == min(_rotations(letters)):
                raw_forms.add(canonical_form(candidate))
    return build()


def format_enumeration_report(result: EnumerationResult) -> str:
    """Stable plain-text census: counters, then one block per class."""
    lines = [
        "positive braid knot enumeration",
        f"unknotting number: {result.m}",
        f"budget: {result.budget}",
        f"words examined: {result.words_examined}",
        f"knot words: {result.knot_words}",
        f"distinct forms: {result.distinct_forms}",
        f"classes: {len(result.classes)}",
    ]
    for index, cls in enumerate(result.classes, start=1):
        u_value, poly, strands = cls.invariant_key
        lines.append(f"class {index}")
        lines.append(f"  representative: {format_word(cls.representative)}")
        lines.append(f"  unknotting number: {u_value}")
        lines.append(f"  strands: {strands}")
        lines.append(f"  length: {cls.representative.length}")
        lines.append(f"  alexander: {poly}")
        lines.append(f"  merged: {'yes' if cls.merged else 'no'}")
        if cls.merged:
            for member in cls.members:
                lines.append(f"  member: {format_word(member)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bounded path search
# ---------------------------------------------------------------------------


def _cyclic_moves(strands: int, letters: tuple[int, ...]):
    """Every move on the closed word once, at the least rotation that makes it.

    A move at position q of rotation r is a rotation of the same move at
    cyclic position (r + q) mod L.  Rotation 0 therefore carries every move
    that does not wrap past the end, rotation 1 the pair at L − 2 and the
    triple at L − 3, and rotation 2 the triple at L − 3.  Within a rotation
    the kinds come in a fixed order (distant swaps, braid moves, the
    destabilization, crossing changes), positions ascending.  Yields
    ``(recipe, strands, letters)``; the recipe is the (rotation?, move)
    sequence of ``(kind, arg)`` pairs that gives the letters.
    """
    length = len(letters)
    top = strands - 1
    for r in range(min(length, 3) or 1):
        word = letters[r:] + letters[:r]
        prefix = ((CONJUGATE, r),) if r else ()
        pairs = range((0, length - 2, length - 1)[r], length - 1)
        for q in pairs:
            a, b = word[q], word[q + 1]
            if abs(a - b) >= 2:
                yield prefix + ((DISTANT_SWAP, q),), strands, word[:q] + (b, a) + word[q + 2 :]
        for q in range(max(length - 3, 0) if r else 0, length - 2):
            a, b, c = word[q : q + 3]
            if a == c and abs(a - b) == 1:
                yield prefix + ((NEIGHBOR_BRAID, q),), strands, word[:q] + (b, a, b) + word[q + 3 :]
        if not r and top >= 1 and word.count(top) == 1:
            q = word.index(top)
            yield ((DESTABILIZE, None),), top, word[:q] + word[q + 1 :]
        for q in pairs:
            if word[q] == word[q + 1]:
                yield prefix + ((CROSSING_CHANGE, q),), strands, word[:q] + word[q + 2 :]


def _replay_recipe(tb: TraceBuilder, steps: tuple[tuple, ...]) -> None:
    for kind, arg in steps:
        if kind == CONJUGATE:
            tb.conjugate(arg)
        elif kind == DISTANT_SWAP:
            tb.distant_swap(arg)
        elif kind == NEIGHBOR_BRAID:
            tb.neighbor_braid(arg)
        elif kind == DESTABILIZE:
            tb.destabilize()
        else:
            tb.crossing_change(arg)


def positive_path_search(
    source: BraidWord,
    target: BraidWord,
    max_nodes: int = 50000,
    max_depth: int = 16,
) -> RewriteTrace:
    """Breadth-first search for a five-rule path from ``source`` to ``target``.

    States are deduplicated by strand count plus canonical rotation, and each
    expanded state lists every move on its closed word once (about one per
    letter), on plain letter tuples; only the path found is built as words.
    States whose unknotting number falls below the target's are pruned; no
    move lengthens a word.  The returned trace ends at ``target`` letter for
    letter.  Raises :class:`NotFoundWithinBudget` when the limits are hit —
    which is not a nonexistence proof.
    """
    for name, word in (("source", source), ("target", target)):
        if not is_knot(word):
            raise DomainError(f"the {name} closure must be a knot")
    u_target = unknotting_number(target)
    if unknotting_number(source) < u_target:
        raise DomainError(
            "unknotting number can only decrease along a positive path"
        )

    def key(strands: int, letters: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (strands, min(_rotations(letters)))

    goal = key(target.strands, target.letters)
    start_key = key(source.strands, source.letters)
    parents: dict[tuple, tuple | None] = {start_key: None}
    recipes: dict[tuple, tuple[tuple[tuple, ...], int, tuple[int, ...]]] = {
        start_key: ((), source.strands, source.letters)
    }
    frontier: deque[tuple] = deque([start_key])
    depth_of = {start_key: 0}
    expanded = 0
    found = start_key == goal
    while frontier and not found:
        state = frontier.popleft()
        if depth_of[state] >= max_depth:
            continue
        expanded += 1
        if expanded > max_nodes:
            raise NotFoundWithinBudget(
                f"no path found within {max_nodes} expanded states"
            )
        _, strands, letters = recipes[state]
        for steps, n, neighbour in _cyclic_moves(strands, letters):
            # Every move keeps the closure's cycle type; check it anyway.
            if unknotting_number(BraidWord._trusted(n, neighbour)) < u_target:
                continue
            nkey = key(n, neighbour)
            if nkey in parents:
                continue
            parents[nkey] = state
            recipes[nkey] = (steps, n, neighbour)
            depth_of[nkey] = depth_of[state] + 1
            if nkey == goal:
                found = True
                break
            frontier.append(nkey)
    if not found:
        raise NotFoundWithinBudget(
            f"no path found within depth {max_depth} and {max_nodes} states"
        )
    chain: list[tuple[tuple, ...]] = []
    cursor: tuple | None = goal
    while cursor is not None and parents[cursor] is not None:
        chain.append(recipes[cursor][0])
        cursor = parents[cursor]
    chain.reverse()
    tb = TraceBuilder(source)
    for steps in chain:
        _replay_recipe(tb, steps)
    # Land on the target letters exactly, not just its rotation class.
    for r in range(tb.word.length if tb.word.length else 1):
        if tb.word.letters[r:] + tb.word.letters[:r] == target.letters:
            tb.conjugate(r)
            break
    else:
        raise AssertionError("search endpoint is not a rotation of the target")
    if tb.word != target:
        raise AssertionError("search failed to land on the target word")
    return tb.snapshot()


def positive_path_diagnostic(trace: RewriteTrace) -> str | None:
    """None when the trace is a positive path through knots with unit
    crossing-change drops; otherwise a sentence naming the first violation."""
    try:
        replay(trace)
    except TraceCorrupt as exc:
        return f"trace does not replay: {exc}"
    words = trace.words
    if not is_knot(words[0]):
        return "the initial closure is not a knot"
    for index, step in enumerate(trace.steps):
        before = words[index]
        after = words[index + 1]
        if not is_knot(after):
            return f"step {index} ({step.kind}) leaves a non-knot closure"
        if step.kind == CROSSING_CHANGE:
            drop = unknotting_number(before) - unknotting_number(after)
            if drop != 1:
                return (
                    f"step {index} (crossing-change) moves the unknotting "
                    f"number by {drop}, not 1"
                )
        else:
            if unknotting_number(before) != unknotting_number(after):
                return f"step {index} ({step.kind}) changes the unknotting number"
    return None


def verify_positive_path(trace: RewriteTrace) -> bool:
    """True iff the trace replays and every intermediate closure is a knot
    with the unknotting number dropping exactly 1 per crossing change."""
    return positive_path_diagnostic(trace) is None
