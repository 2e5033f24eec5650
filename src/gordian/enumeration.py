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
each rotation class once.  The knot words among them fall into orbits under
rotations and distant swaps (conjugacy classes in the trace monoid); the
census opens an orbit at its least word, minimizes that one word and groups
the survivors by invariant key (unknotting number, Alexander polynomial,
minimal strand count).  The class count is checked against the
``(2m)^{4m}`` ceiling.

:func:`positive_path_search` looks for an explicit five-rule path between two
given words whose every intermediate stays a positive braid knot, and
:func:`verify_positive_path` replays any trace and confirms that property.
It shares with strand minimization one breadth-first search over rotation
classes keyed by least rotation, which lists each move of the closed word
once: about one candidate per letter, where every rotation gives ``L²``.
"""

from __future__ import annotations

from collections import Counter, deque
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
    DISTANT_SWAP,
    RewriteTrace,
    TraceBuilder,
    legal_moves,
    replay,
)
from .unknotting import reduce_single_generator
from .words import BraidWord, format_word, is_knot, unknotting_number

__all__ = [
    "minimize_word",
    "KnotClass",
    "EnumerationResult",
    "enumerate_positive_knots",
    "format_enumeration_report",
    "positive_path_search",
    "verify_positive_path",
]


# ---------------------------------------------------------------------------
# rotation classes and orbits
# ---------------------------------------------------------------------------


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation: the key of a rotation class.

    Duval's Lyndon factorization (1983) of ``letters + letters`` in O(L): the
    least rotation starts at the last factor that begins in the first copy.
    Position ``j >= L`` reads ``letters[j − L]``, since a doubled tuple per
    call measurably raises peak RSS; one whole rotation compared decides a
    factor.  A word that is its own least rotation comes back as is.
    """
    length = len(letters)
    i = start = 0
    while i < length:
        start = k = i
        j = i + 1
        while j < length:
            a, b = letters[k], letters[j]
            if a < b:
                k = i
            elif a == b:
                k += 1
            else:
                break
            j += 1
        else:
            while j < i + length:
                a = letters[k] if k < length else letters[k - length]
                b = letters[j - length]
                if a < b:
                    k = i
                elif a == b:
                    k += 1
                else:
                    break
                j += 1
        period = j - k
        while i <= k:
            i += period
    return letters[start:] + letters[:start] if start else letters


def _swap_orbit(strands: int, letters: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The least rotations of the words reached from ``letters`` by rotations
    and distant swaps: its conjugacy class in the trace monoid (Cartier and
    Foata 1969), whose least member keys the census.

    Each rotation class met is expanded once, by the distant swaps of
    :func:`~gordian.rules.legal_moves`, which reach every cyclic pair.
    """
    orbit = {_least_rotation(letters)}
    stack = list(orbit)
    while stack:
        word = stack.pop()
        for recipe, _, neighbour in legal_moves(strands, word):
            if recipe[-1].kind == DISTANT_SWAP:
                key = _least_rotation(neighbour)
                if key not in orbit:
                    orbit.add(key)
                    stack.append(key)
    return orbit


# ---------------------------------------------------------------------------
# strand minimization
# ---------------------------------------------------------------------------


def _orbit_bfs(
    strands: int, letters: tuple[int, ...], floor: int, classes: dict, max_depth: int | None = None
):
    """Breadth-first search over the rotation classes reached from ``letters``
    by the moves of :func:`~gordian.rules.legal_moves` that keep
    ``length − strands + 1`` (twice a knot's unknotting number) >= ``floor``.

    ``classes`` (empty on entry) maps each class discovered, keyed by least
    rotation, to ``(parent key, recipe, strands, letters, depth)``: the first
    word met in it, which is expanded, and the recipe that made it from the
    parent's.  Yields each key as its class is about to be expanded, except
    at ``max_depth``.  A neighbour equal to a kept word needs no key.
    """
    start = _least_rotation(letters)
    classes[start] = (None, (), strands, letters, 0)
    held = {letters}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        _, _, strands, letters, depth = classes[key]
        if depth == max_depth:
            continue
        yield key
        depth += 1
        for recipe, n, neighbour in legal_moves(strands, letters):
            if len(neighbour) - n + 1 < floor or neighbour in held:
                continue
            nkey = _least_rotation(neighbour)
            if nkey not in classes:
                classes[nkey] = (key, recipe, n, neighbour, depth)
                held.add(neighbour)
                queue.append(nkey)


_ORBIT_NODE_CAP = 20000


def _orbit_search_reduce(word: BraidWord) -> BraidWord | None:
    """A reducible word in a class reached by distant swaps and braid moves
    (the floor drops crossing changes; only a reducible class destabilizes)."""
    strands, letters = word.strands, word.letters
    classes: dict = {}
    for key in _orbit_bfs(strands, letters, len(letters) - strands + 1, classes):
        if len(classes) > _ORBIT_NODE_CAP:
            return None
        if 1 in Counter(key).values():
            return reduce_single_generator(BraidWord._trusted(strands, key))
    return None


def minimize_word(word: BraidWord) -> BraidWord:
    """Drive a knot word to as few strands as the orbit search can reach.

    Alternates greedy single-occurrence generator removal with a bounded
    search through rotations, braid moves, and distant swaps for a word where
    the greedy step applies again.  One search gives up once it has
    discovered more than 20 000 rotation classes.
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
    achieved strand count); ``members`` holds the minimized words sharing
    that key, each as the least word of its orbit under rotations and
    distant swaps.  More than one member means the invariants could not
    separate them (``merged`` is then true and all representatives are
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
    """Classes found for one unknotting number, plus census counters:
    ``distinct_forms`` counts the orbits of the ``knot_words`` under
    rotations and distant swaps."""

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
    word participates only when ``m = 0``).  A knot word that no earlier
    orbit has reached opens a new orbit under rotations and distant swaps.
    Distant swaps keep the letter multiset and the closure's permutation, so
    every member is a knot word the walk emits, and the lexicographic walk
    meets the orbit's least member first; later members are dropped as the
    walk meets them.  One representative per orbit is minimized, keyed by
    the least word of its own orbit, and grouped by invariant key.  The
    counters count the generated least rotations (``words_examined``), the
    knot words among them and their orbits (``distinct_forms``).  A word in
    which a generator occurs once is left out: it destabilizes to a word the
    walk meets on fewer strands.

    Raises :class:`BudgetExceeded` when more than ``budget`` least rotations
    would be examined; its ``partial`` result, built only when read, holds
    the classes of exactly the orbits opened so far.
    """
    if m < 0:
        raise DomainError(f"unknotting number must be >= 0, got {m}")
    if budget < 0:
        raise DomainError(f"a budget cannot be negative, got {budget}")
    words_examined = 0
    knot_words = 0
    orbits: list[BraidWord] = []  # the least member of each orbit
    # Orbit members the walk has not reached yet, as bytes: a third of a
    # tuple's size, and at m = 3 about 23 000 are held at once.
    unmet: set[bytes] = set()

    def build(partial_ok: bool = False) -> EnumerationResult:
        groups: dict[tuple[int, LaurentPoly, int], set[BraidWord]] = {}
        for word in orbits:
            small = minimize_word(word)
            key = (unknotting_number(small), alexander(small), small.strands)
            least = min(_swap_orbit(small.strands, small.letters))
            groups.setdefault(key, set()).add(BraidWord._trusted(small.strands, least))
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
            distinct_forms=len(orbits),
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
            packed = bytes(letters)
            if packed in unmet:
                unmet.remove(packed)
                knot_words += 1
            elif is_knot(BraidWord._trusted(n, letters)):
                knot_words += 1
                orbits.append(BraidWord._trusted(n, letters))
                unmet.update(map(bytes, _swap_orbit(n, letters)))
                unmet.remove(packed)
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

    States are rotation classes, and each expanded class lists every move on
    its closed word once (about one per letter), on plain letter tuples; only
    the path found is built as words.  States whose unknotting number falls
    below the target's are pruned; no move lengthens a word.  ``max_nodes``
    bounds the classes expanded, which excludes those at ``max_depth``.  The
    path found is recorded by :class:`TraceBuilder`, which accepts exactly
    the steps :func:`replay` does, from a knot, so it is a positive path
    (see :func:`verify_positive_path`); the returned trace ends at
    ``target`` letter for letter.  Raises
    :class:`NotFoundWithinBudget` when the limits are hit — which is not a
    nonexistence proof.
    """
    for name, value in (("max_nodes", max_nodes), ("max_depth", max_depth)):
        if value < 0:
            raise DomainError(f"{name} cannot be negative, got {value}")
    for name, word in (("source", source), ("target", target)):
        if not is_knot(word):
            raise DomainError(f"the {name} closure must be a knot")
    u_target = unknotting_number(target)
    if unknotting_number(source) < u_target:
        raise DomainError("unknotting number can only decrease along a positive path")

    # Every state is a knot, so its strand count is one more than its
    # largest letter and the letters alone key its class.
    goal = _least_rotation(target.letters)
    classes: dict = {}
    bfs = _orbit_bfs(source.strands, source.letters, 2 * u_target, classes, max_depth)
    for expanded, _ in enumerate(bfs, 1):
        if goal in classes:
            break
        if expanded > max_nodes:
            raise NotFoundWithinBudget(f"no path found within {max_nodes} expanded states")
    if goal not in classes:
        raise NotFoundWithinBudget(f"no path found within depth {max_depth} and {max_nodes} states")
    chain: list[tuple] = []
    parent, recipe, *_ = classes[goal]
    while parent is not None:
        chain.append(recipe)
        parent, recipe, *_ = classes[parent]
    tb = TraceBuilder(source)
    for steps in reversed(chain):
        tb.run(steps)
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
    return tb.snapshot()


def verify_positive_path(trace: RewriteTrace) -> bool:
    """True iff the trace replays and every intermediate closure is a knot
    with the unknotting number dropping exactly 1 per crossing change.

    Replay and a knot at the start suffice: every rule keeps the closure's
    cycle count, a crossing change lowers (length - strands + 1)/2 by
    exactly 1, and no other rule changes it.
    """
    try:
        replay(trace)
    except TraceCorrupt:
        return False
    return is_knot(trace.initial)
