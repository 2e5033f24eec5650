"""Exhaustive enumeration of positive braid knots by unknotting number, and
bounded breadth-first search for crossing-change paths between words.

A positive braid word on ``n`` strands with ``ℓ`` letters closes to a knot of
unknotting number ``u = (ℓ − n + 1)/2``; fixing ``u = m`` therefore pins the
length per strand count, and a knot representative needs at most ``2m + 1``
strands once single-occurrence generators are removed.  A word in which some
generator occurs once destabilizes to a word on one strand fewer, which the
census meets there, so :func:`enumerate_positive_knots` generates, in
lexicographic order, only the least rotations of the words in which every
generator occurs at least twice, and counts each: a prenecklace walk emits
each rotation class once.  It computes the canonical form (least over
rotations and distant commutations) of each knot among them, minimizes each
distinct form and groups the survivors by invariant key (unknotting number,
Alexander polynomial, minimal strand count).  The class count is checked
against the ``(2m)^{4m}`` ceiling.

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

from .alexander import LaurentPoly, alexander
from .errors import (
    BudgetExceeded,
    DomainError,
    NoSingleGenerator,
    NotFoundWithinBudget,
    TraceCorrupt,
)
from .rules import (
    CROSSING_CHANGE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteTrace,
    TraceBuilder,
    legal_moves,
    replay,
)
from .unknotting import reduce_single_generator
from .words import BraidWord, format_word, is_knot, unknotting_number

__all__ = [
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


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation: the key of a rotation class."""
    return min(_rotations(letters))


def _commutation_least(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least word reachable by distant swaps alone.

    Letters whose indices differ by at most one never commute, so at every
    step exactly one occurrence of each *available* letter value competes and
    the greedy choice of the smallest available value is the unique optimum.
    A letter is available when no earlier remaining letter is within one of
    it; each pick is one scan that keeps those blocked values as bits of an
    integer.  The scan stops once every value below the current pick is
    blocked, since no later letter can then win: on ``σ1^L`` each pick reads
    one letter.
    """
    remaining = list(letters)
    out: list[int] = []
    while remaining:
        blocked = 0
        best = 0
        least = remaining[0]
        below = (1 << least) - 2
        for idx, letter in enumerate(remaining):
            if letter < least and not blocked >> letter & 1:
                best = idx
                least = letter
                below = (1 << least) - 2
            blocked |= 0b111 << (letter - 1)
            if blocked & below == below:
                break
        out.append(remaining.pop(best))
    return tuple(out)


def canonical_form(word: BraidWord) -> BraidWord:
    """Least word over all rotations composed with commutation reordering.

    When no two letters are distant, no two commute, and the form is the
    least rotation.
    """
    letters = word.letters
    if not letters or max(letters) - min(letters) <= 1:
        best = _least_rotation(letters)
    else:
        best = min(_commutation_least(rot) for rot in _rotations(letters))
    return BraidWord(word.strands, best)


# ---------------------------------------------------------------------------
# strand minimization
# ---------------------------------------------------------------------------


def _reducible(strands: int, letters: tuple[int, ...]) -> bool:
    counts = [0] * strands
    for letter in letters:
        counts[letter] += 1
    return any(count == 1 for count in counts[1:])


_ORBIT_NODE_CAP = 20000


def _orbit_search_reduce(word: BraidWord) -> BraidWord | None:
    """Bounded BFS over rotation classes, through braid moves and distant
    swaps, for a reducible word; a class is keyed by its least rotation."""
    strands = word.strands
    start = _least_rotation(word.letters)
    seen = {start}
    queue = deque([start])
    while queue and len(seen) <= _ORBIT_NODE_CAP:
        letters = queue.popleft()
        if _reducible(strands, letters):
            return reduce_single_generator(BraidWord._trusted(strands, letters))
        for recipe, _, neighbour in legal_moves(strands, letters):
            if recipe[-1].kind in (DISTANT_SWAP, NEIGHBOR_BRAID):
                key = _least_rotation(neighbour)
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    return None


def minimize_word(word: BraidWord) -> BraidWord:
    """Drive a knot word to as few strands as the orbit search can reach.

    Alternates greedy single-occurrence generator removal with a bounded
    search through rotations, braid moves, and distant swaps for a word where
    the greedy step applies again.  One search visits at most 20 000
    rotation classes.
    """
    current = word
    while True:
        try:
            current = reduce_single_generator(current)
            continue
        except NoSingleGenerator:
            pass
        found = _orbit_search_reduce(current)
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


def _census_words(strands: int, length: int):
    """Necklaces of ``length`` letters over ``1 … strands−1`` in which every
    letter occurs at least twice, in lexicographic order.

    A necklace is a word equal to its least rotation, so each rotation class
    is emitted once.  The walk is the prenecklace walk of Fredricksen, Kessler
    and Maiorana (see Ruskey, Savage and Wang 1992): ``period[pos]`` is the
    length p of the longest Lyndon prefix of ``word[:pos]``; the first letter
    tried at ``pos`` is ``word[pos − p]`` (smaller ones cannot lead to a
    least rotation), which keeps p, and a larger one sets p to ``pos + 1``.
    A full word is a necklace exactly when p divides its length.
    ``deficit`` counts the occurrences still missing; a prefix is cut as soon
    as the letters left cannot cover it.  The walk advances one array of
    letters in place (``word[pos]`` is the letter last tried at ``pos``, 0
    for none) instead of recursing, so no length meets the recursion limit.
    """
    top = strands - 1
    counts = [0] * (top + 1)
    deficit = 2 * top
    if deficit > length:
        return
    if length == 0:
        yield ()
        return
    word = [0] * length
    period = [1] * length
    pos = 0
    while pos >= 0:
        letter = word[pos]
        if letter:
            counts[letter] -= 1
            if counts[letter] < 2:
                deficit += 1
            letter += 1
        else:
            letter = word[pos - period[pos]] if pos else 1
        spare = length - pos - 1
        while letter <= top and deficit - (counts[letter] < 2) > spare:
            letter += 1
        if letter > top:
            word[pos] = 0
            pos -= 1
            continue
        word[pos] = letter
        if counts[letter] < 2:
            deficit -= 1
        counts[letter] += 1
        p = period[pos] if pos and letter == word[pos - period[pos]] else pos + 1
        if spare:
            pos += 1
            period[pos] = p
        elif length % p == 0:
            yield tuple(word)


def enumerate_positive_knots(m: int, budget: int = 1_000_000) -> EnumerationResult:
    """Enumerate every positive braid knot with unknotting number ``m``.

    Walks the least rotations of the words of length ``2m + n − 1`` over
    generator indices ``1 … n−1`` in which every generator occurs at least
    twice, for each strand count ``n`` up to ``2m + 1`` (the one-strand empty
    word participates only when ``m = 0``), keeps the knot words, dedups by
    canonical form, minimizes strand count, and groups by invariant key.
    The counters count the generated least rotations (``words_examined``),
    the knot words among them and their distinct canonical forms.  A word in
    which a generator occurs once is left out: it destabilizes to a word the
    walk meets on fewer strands.  The generated set, the knot check and the
    canonical form are the same on every rotation of a word, so one word per
    rotation class loses nothing.

    Raises :class:`BudgetExceeded` when more than ``budget`` least rotations
    would be examined; its ``partial`` result, built only when read, holds
    the forms of exactly the classes met so far.
    """
    if m < 0:
        raise DomainError(f"unknotting number must be >= 0, got {m}")
    if budget < 0:
        raise DomainError(f"a budget cannot be negative, got {budget}")
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
        for letters in _census_words(n, length):
            if words_examined >= budget:
                raise BudgetExceeded(
                    f"enumeration budget of {budget} words exhausted at {n} strands",
                    build_partial=lambda: build(partial_ok=True),
                )
            words_examined += 1
            candidate = BraidWord._trusted(n, letters)
            if is_knot(candidate):
                knot_words += 1
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


def positive_path_search(
    source: BraidWord,
    target: BraidWord,
    max_nodes: int = 50000,
    max_depth: int = 16,
) -> RewriteTrace:
    """Breadth-first search for a five-rule path from ``source`` to ``target``.

    States are deduplicated by strand count plus canonical rotation, and each
    expanded state lists every move on its closed word once (about one per
    letter, by :func:`~gordian.rules.legal_moves`), on plain letter tuples;
    only the path found is built as words.
    States whose unknotting number falls below the target's are pruned; no
    move lengthens a word.  The path found is checked once by
    :func:`positive_path_diagnostic`, and the returned trace ends at
    ``target`` letter for letter.  Raises :class:`NotFoundWithinBudget` when
    the limits are hit — which is not a nonexistence proof.
    """
    for name, value in (("max_nodes", max_nodes), ("max_depth", max_depth)):
        if value < 0:
            raise DomainError(f"{name} cannot be negative, got {value}")
    for name, word in (("source", source), ("target", target)):
        if not is_knot(word):
            raise DomainError(f"the {name} closure must be a knot")
    u_target = unknotting_number(target)
    if unknotting_number(source) < u_target:
        raise DomainError(
            "unknotting number can only decrease along a positive path"
        )

    def key(strands: int, letters: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (strands, _least_rotation(letters))

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
        for steps, n, neighbour in legal_moves(strands, letters):
            # Every legal move keeps the closure a knot, whose unknotting
            # number is (length - strands + 1) / 2; the path is checked below.
            if len(neighbour) - n + 1 < 2 * u_target:
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
    chain: list[tuple] = []
    cursor: tuple | None = goal
    while cursor is not None and parents[cursor] is not None:
        chain.append(recipes[cursor][0])
        cursor = parents[cursor]
    chain.reverse()
    tb = TraceBuilder(source)
    for steps in chain:
        for step in steps:
            tb.apply(step)
    # Land on the target letters exactly, not just its rotation class.
    letters = tuple(tb.letters)
    for r in range(len(letters) or 1):
        if letters[r:] + letters[:r] == target.letters:
            tb.conjugate(r)
            break
    else:
        raise AssertionError("search endpoint is not a rotation of the target")
    if tb.word != target:
        raise AssertionError("search failed to land on the target word")
    trace = tb.snapshot()
    problem = positive_path_diagnostic(trace)
    if problem is not None:
        raise AssertionError(f"search found no positive path: {problem}")
    return trace


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
