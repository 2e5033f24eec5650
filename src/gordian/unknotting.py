"""Reduction of positive braid words to the trivial word.

The workhorse is a subword reduction: inside a marked region whose
letters do not exceed a given level ``n``, occurrences of ``σ_n`` are brought
together and eliminated pairwise, each elimination costing either one
crossing change (when nothing of index ``n-1`` separates the pair) or nothing
(when a single ``σ_{n-1}`` sits between them and the braid relation merges
the pair into one occurrence).  The region never grows, never spills, and
never acquires letters above ``n``; afterwards it contains at most one
``σ_n``.

Driving that reduction at the top index and destabilizing whenever exactly
one copy of the highest generator is left shrinks every knotted closure all
the way to the empty word on one strand, spending exactly one crossing change
per unit of the unknotting number.

Each elimination runs as one cached program at the offset of its pair: the
slide and cancel is :func:`_cancel_prog`, the slide and merge
:func:`_merge_prog`.  A trace therefore holds each shape once, however often
it recurs, and its text defines a recurring shape once and runs it by offset,
a strided series of runs on one line.
"""

from __future__ import annotations

import functools

from .errors import BlockedByFreeStrand, DomainError, NoSingleGenerator
from .rules import (
    CROSSING_CHANGE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteStep,
    RewriteTrace,
    TraceBuilder,
    replay,
)
from .words import BraidWord, is_knot

__all__ = [
    "unknot",
    "unknotting_sequence",
    "reduce_single_generator",
]


def _reduce(tb: TraceBuilder, start: int, length: int, n: int) -> int:
    """Reduce ``word[start : start+length]`` at level ``n``; return its new length.

    Precondition: the region's letters are all ``<= n``.  Postcondition: the
    region contains at most one ``σ_n``, has not grown, and its letters are
    still ``<= n``.

    The region is walked right to left, keeping the invariant that the part
    from the current letter to the region's end holds at most one ``σ_n``.
    When the walk meets a pair, the stretch γ between them is reduced one
    level down first: the walk at level ``n`` waits on an explicit stack
    while γ is walked at level ``n - 1``, so the number of levels is not
    limited by Python's recursion limit.  A γ of at most one letter, or at
    level 0, is already reduced and is not walked.
    """
    letters = tb.letters
    waiting = []  # walks that wait for their γ: (start, end, n, s, length of γ)
    end = start + length
    s = end - 1
    while True:
        s -= 1
        if s >= start:
            if letters[s] != n:
                continue
            second = None
            for q in range(s + 1, end):
                if letters[q] == n:
                    second = q
                    break
            if second is None:
                continue
            # The tail reads σ_n γ σ_n δ with γ, δ free of σ_n.  Tidy γ one level down.
            gamma_len = second - (s + 1)
            if gamma_len > 1 and n > 1:
                waiting.append((start, end, n, s, gamma_len))
                start, end, n, s = s + 1, second, n - 1, second - 1
                continue
            new_gamma_len = gamma_len
        elif waiting:
            # γ is reduced: resume the walk one level up, at its pair.
            new_gamma_len = end - start
            start, end, n, s, gamma_len = waiting.pop()
        else:
            return end - start
        end -= gamma_len - new_gamma_len
        second = s + 1 + new_gamma_len
        r = None
        for q in range(s + 1, second):
            if letters[q] == n - 1:
                r = q
                break
        if r is None:
            # Nothing in between interacts: slide the pair together and cancel it.
            tb.run(_cancel_prog(second - 1 - s), s)
            end -= 2
            continue
        # A single σ_{n-1} separates the pair: close in on it from both sides and
        # merge the pair into one occurrence by the braid relation.
        tb.run(_merge_prog(r - 1 - s, second - 1 - s), s)


# The two maneuvers of _reduce, as programs relative to the first letter of
# the pair, cached per shape; their swaps are shared step objects.
@functools.cache
def _swap(q: int) -> RewriteStep:
    return RewriteStep(DISTANT_SWAP, q)


@functools.cache
def _cancel_prog(k: int) -> tuple[RewriteStep, ...]:
    """Slide the first letter of a pair ``k`` places right and cancel it with
    the second: swaps at 0 … k−1, then a crossing change at k."""
    return (*map(_swap, range(k)), RewriteStep(CROSSING_CHANGE, k))


@functools.cache
def _merge_prog(a: int, c: int) -> tuple[RewriteStep, ...]:
    """Close a pair in on the single σ_{n−1} at a + 1 between them, the first
    letter at 0 and the second at c + 1: swaps at 0 … a−1, then at c, c−1 …
    a+2, then the braid move at a that merges the pair."""
    return (*map(_swap, range(a)), *map(_swap, range(c, a + 1, -1)), RewriteStep(NEIGHBOR_BRAID, a))


def unknot(word: BraidWord) -> RewriteTrace:
    """Rewrite ``word`` down to the empty word, one crossing change per step of
    the unknotting number.

    Works for any word whose closure is a knot (and for links that happen to
    cancel completely).  A link with a generator used exactly once below the
    top strand cannot shed that strand; that situation raises
    :class:`~gordian.errors.BlockedByFreeStrand` and never occurs for knots.
    """
    tb = TraceBuilder(word)
    guard = 2 * word.length + word.strands + 4
    while tb.letters:
        guard -= 1
        if guard < 0:  # pragma: no cover - the loop provably progresses
            raise AssertionError("reduction failed to make progress")
        m = max(tb.letters)
        _reduce(tb, 0, len(tb.letters), m)
        remaining = tb.letters.count(m)
        if remaining == 0:
            continue
        if m == tb.strands - 1:
            tb.destabilize()
        else:
            raise BlockedByFreeStrand(
                f"σ_{m} occurs once but strand {tb.strands} is free; "
                "the closure is a split link"
            )
    return tb.snapshot()


def unknotting_sequence(trace: RewriteTrace) -> list[BraidWord]:
    """The words along a trace after each crossing change, initial word first.

    The initial closure must be a knot; the trace is replayed to validate it.
    """
    if not is_knot(trace.initial):
        raise DomainError("the initial closure is not a knot")
    replay(trace)
    sequence = [trace.initial]
    for step, word in zip(trace.steps, trace.words[1:]):
        if step.kind == CROSSING_CHANGE:
            sequence.append(word)
    return sequence


def reduce_single_generator(word: BraidWord) -> BraidWord:
    """Remove the largest generator index used exactly once and close the gap.

    Deleting a letter whose index appears only once merges the two strands it
    crossed, so the closure keeps its link type; all higher letters shift down
    by one and the word lives on one strand fewer.  Below the top index the
    letter first becomes the last one by rotation, and the letters below it
    move before those above it (they are all distant, so this is a chain of
    distant swaps): the word is then a connected sum joined by that one
    letter, and deleting it keeps the sum.  Raises
    :class:`~gordian.errors.NoSingleGenerator` when every used index repeats.
    """
    letters = word.letters
    for index in range(word.strands - 1, 0, -1):
        if letters.count(index) == 1:
            pos = letters.index(index)
            if index == word.strands - 1:
                rest = letters[:pos] + letters[pos + 1 :]
            else:
                rest = letters[pos + 1 :] + letters[:pos]
                rest = tuple(x for x in rest if x < index) + tuple(x for x in rest if x > index)
            return BraidWord(word.strands - 1, tuple(x - 1 if x > index else x for x in rest))
    raise NoSingleGenerator("every generator used in the word occurs at least twice")
