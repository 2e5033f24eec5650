"""Composite rewriting maneuvers assembled from the five elementary rules.

Everything here ultimately emits elementary steps through a
:class:`~gordian.rules.TraceBuilder`, so every maneuver stays fully
machine-checkable by replay.  The module works with a few recurring letter
patterns on ``n`` strands (letters are generator indices, 1-based):

* ``descending_run(m)`` — ``σ_m ⋯ σ_1``, written ``R_m``.
* ``ascending_run(m)`` — ``σ_1 ⋯ σ_m``, written ``A_m``.
* ``wrap(j)`` — ``R_j A_j`` (2j letters): the strand entering at position
  ``j + 1`` dives under its ``j`` predecessors and comes back.
* ``full_twist_letters(n)`` — ``R_{n-1}^n`` (n(n-1) letters): the full twist
  on ``n`` strands, which commutes with every braid on those strands.

Two layers are built on top:

* **Step programs** — sequences of :class:`~gordian.rules.RewriteStep`
  with relative positions, which can be shifted to an offset, inverted, or
  mirrored.  ``TraceBuilder.run(steps, offset)`` runs a program: it hands
  the whole program and its offset to the builder's step kernel in one
  call.  The named programs (``move_b_prog``, ``move_d_prog``,
  ``move_z_prog``, ``ext_prog``, ``peel_prog``, ``conv_prog``, the block
  crossings ``cross_left_prog`` / ``cross_right_prog`` and the block
  exchange ``exchange_prog``) realize the letter-commutation identities the
  larger constructions are made of; each is built once per parameter set
  and cached as a tuple, and the builder records each run of one as the
  program and its offset.  One function, :func:`cross_left_prog`, decides
  whether and how a letter crosses a block: it returns None when the letter
  cannot pass.
* **Regional programs** — lists of *pieces*, each a ``(program, offset)``
  pair of a cached step program and its offset in a suffix region, or a
  :class:`Rotation` of a subword.  They describe a rewrite of the region
  *abstractly*, so the same program can be replayed inside different ambient
  words (:func:`run_regional`), and each piece runs as one
  ``TraceBuilder.run``.  :func:`invert_program` and :func:`mirror_program`
  act on each piece, through one cache per program, and on each rotation as
  on any other step; running a rotation walks letters around the closure,
  so the ambient prefix must be described by *block descriptors* the moving
  letters are known to commute past.

Block descriptors are tuples: ``("letter", m)`` a single letter,
``("wrap", j)`` the 2j-letter wrap, ``("twist", a)`` the full twist on ``a``
strands, ``("run", letters)`` an arbitrary literal block (movable, but not an
obstacle).  :func:`arrange_blocks` reorders a row of adjacent blocks into a
target order by bubbling, choosing for every adjacent swap whichever side can
legally commute past the other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import cache, partial
from typing import NamedTuple

from .errors import IllegalStep
from .rules import (
    CONJUGATE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteStep,
    TraceBuilder,
)
from .words import ascending_run, descending_run

_swap = partial(RewriteStep, DISTANT_SWAP)  # _swap(q): the pair at q commutes
_braid = partial(RewriteStep, NEIGHBOR_BRAID)  # _braid(q): braid move on the triple at q

__all__ = [
    "wrap",
    "full_twist_letters",
    "ascending_twist_letters",
    "form_letters",
    "revform_letters",
    "shift_program",
    "invert_program",
    "mirror_program",
    "move_b_prog",
    "move_b1_prog",
    "move_d_prog",
    "move_z_prog",
    "ext_prog",
    "peel_prog",
    "conv_prog",
    "desc_letters",
    "cross_left_prog",
    "cross_right_prog",
    "exchange_prog",
    "arrange_blocks",
    "cascade",
    "cascade_mirror",
    "Rotation",
    "decompose_region_prog",
    "run_regional",
    "expect_word",
]


# ---------------------------------------------------------------------------
# letter patterns
# ---------------------------------------------------------------------------


def wrap(j: int) -> tuple[int, ...]:
    """``σ_j ⋯ σ_1 σ_1 ⋯ σ_j`` — one strand wrapping its ``j`` predecessors."""
    return descending_run(j) + ascending_run(j)


def full_twist_letters(n: int) -> tuple[int, ...]:
    """``R_{n-1}^n`` — the full twist on ``n`` strands (descending form)."""
    return descending_run(n - 1) * n


def ascending_twist_letters(n: int) -> tuple[int, ...]:
    """``A_{n-1}^n`` — the full twist on ``n`` strands (ascending form)."""
    return ascending_run(n - 1) * n


def form_letters(n: int, k: int) -> tuple[int, ...]:
    """The layered normal form ``(V_{n-1})^k σ_{n-1} ⋯ (V_1)^k σ_1``."""
    out: tuple[int, ...] = ()
    for j in range(n - 1, 0, -1):
        out += wrap(j) * k + (j,)
    return out


def revform_letters(n: int, k: int) -> tuple[int, ...]:
    """The reversed layered form ``σ_1 (V_1)^k ⋯ σ_{n-1} (V_{n-1})^k``."""
    return tuple(reversed(form_letters(n, k)))


# ---------------------------------------------------------------------------
# step programs
# ---------------------------------------------------------------------------
#
# A program is a sequence of RewriteSteps whose positions are relative to an
# offset chosen when the program runs: the builder's kernel shifts each step
# as it applies it.  Conjugate steps and the destabilization act on the
# whole word, so they run only at offset 0.  The named programs below depend
# only on arguments bounded by the strand count, so each is built once per
# process and cached as a tuple, which no caller can change.

Program = tuple[RewriteStep, ...]
RCONJ = "rconj"


class Rotation(NamedTuple):
    """Rotate left by ``amount`` the ``length``-letter subword that lies
    between a region's leading blocks ``lb`` and trailing blocks ``rb``."""

    amount: int
    length: int
    lb: tuple = ()
    rb: tuple = ()
    kind = RCONJ


def _step_at(step: RewriteStep, offset: int) -> RewriteStep:
    """``step`` with its position translated by ``offset``.  A rotation or a
    whole-word step (conjugate, destabilize) shifts only by 0, unchanged,
    whatever position it carries; so does a positional step without one."""
    if step.kind in (RCONJ, CONJUGATE, DESTABILIZE) or step.position is None:
        if offset:
            raise IllegalStep(f"cannot shift a {step.kind} step to offset {offset}")
        return step
    return RewriteStep(step.kind, step.position + offset)


def _mirror_desc(desc: tuple) -> tuple:
    if desc[0] in ("letter", "wrap"):
        return desc
    if desc[0] == "run":
        return ("run", tuple(reversed(desc[1])))
    raise IllegalStep(f"block {desc!r} cannot delimit a mirrored rotation")


def _invert_step(step: RewriteStep) -> RewriteStep:
    """The isotopy step that undoes ``step`` on the word ``step`` produced.

    Distant swaps and braid-relation rewrites undo themselves in place; a
    subword rotation inverts by rotating the rest of the way round.
    """
    if step.kind in (DISTANT_SWAP, NEIGHBOR_BRAID):
        return step
    if step.kind == RCONJ:
        return step._replace(amount=step.length - step.amount)
    raise IllegalStep(f"a {step.kind} step cannot be inverted")


def _mirror_step(step: RewriteStep, length: int) -> RewriteStep:
    """``step`` conjugated by reversal of a word of ``length`` letters."""
    if step.kind == NEIGHBOR_BRAID:
        return RewriteStep(NEIGHBOR_BRAID, length - 3 - step.position)
    if step.kind == DISTANT_SWAP:
        return RewriteStep(DISTANT_SWAP, length - 2 - step.position)
    if step.kind == RCONJ:
        lb = tuple(_mirror_desc(d) for d in reversed(step.rb))
        rb = tuple(_mirror_desc(d) for d in reversed(step.lb))
        return Rotation(step.length - step.amount, step.length, lb, rb)
    raise IllegalStep(f"a {step.kind} step cannot be mirrored")


def shift_program(prog: Sequence[RewriteStep], offset: int) -> list[RewriteStep]:
    """Translate the positional steps of a program by ``offset``."""
    return [_step_at(step, offset) for step in prog]


def invert_program(prog: Sequence) -> list:
    """Reverse a program of distant swaps, braid moves and subword rotations,
    or a regional program piece by piece: ``(P, offset)`` inverts to the
    cached inverse of ``P`` at the same offset."""
    return [(_inverse(item[0]), item[1]) if type(item) is tuple else _invert_step(item) for item in reversed(prog)]


def mirror_program(prog: Sequence, length: int) -> list:
    """Conjugate a program by letter-order reversal.

    If ``prog`` rewrites a word ``w`` of the given length into ``w'``, the
    mirrored program rewrites ``reversed(w)`` into ``reversed(w')``.  It holds
    distant swaps, braid moves and subword rotations, none of which changes
    the length.  A piece ``(P, offset)`` of a regional program mirrors to the
    cached mirror image of ``P`` in its window of width ``W``, at
    ``length - W - offset``.
    """
    out = []
    for item in prog:
        if type(item) is tuple:
            mirrored, width = _mirror_image(item[0])
            out.append((mirrored, length - width - item[1]))
        else:
            out.append(_mirror_step(item, length))
    return out


@cache
def _inverse(prog: Program) -> Program:
    return tuple(invert_program(prog))


@cache
def _mirror_image(prog: Program) -> tuple[Program, int]:
    """``prog`` mirrored in ``[0, W)``, and ``W``, the end of the letters it
    reads.  A piece of a regional program holds only distant swaps and braid
    moves."""
    if any(step.kind not in (DISTANT_SWAP, NEIGHBOR_BRAID) for step in prog):
        raise IllegalStep("a regional piece holds a step other than a distant swap or a braid move")
    width = max((step.position + (3 if step.kind == NEIGHBOR_BRAID else 2) for step in prog), default=0)
    return tuple(mirror_program(prog, width)), width


def expect_word(tb: TraceBuilder, letters) -> None:
    """Assert the builder's whole current word equals ``letters``."""
    letters = tuple(letters)
    if tuple(tb.letters) != letters:
        raise AssertionError(
            f"expected word {letters}, found {tuple(tb.letters)} on {tb.strands} strands"
        )


# ---------------------------------------------------------------------------
# named commutation programs
# ---------------------------------------------------------------------------


@cache
def move_b_prog(m: int, i: int) -> Program:
    """``R_m σ_i → σ_{i-1} R_m`` for ``2 ≤ i ≤ m`` (region of m+1 letters).

    The trailing letter rides left through the ascending tail of ``R_m`` by
    distant swaps, trades places at the single braid-relation spot, and the
    lowered letter rides out to the front.
    """
    if not 2 <= i <= m:
        raise IllegalStep(f"move-b needs 2 <= i <= m, got i={i}, m={m}")
    prog: list[RewriteStep] = [_swap(q) for q in range(m - 1, m - i + 1, -1)]
    prog.append(_braid(m - i))
    prog += [_swap(q) for q in range(m - i - 1, -1, -1)]
    return tuple(prog)


@cache
def move_b1_prog(m: int) -> Program:
    """``R_m R_m σ_1 → σ_m R_m R_m`` (region of 2m+1 letters).

    The trailing ``σ_1`` cannot lower any further, so it climbs: two braid
    relations around a recursive climb through the inner ``R_{m-1} R_{m-1} σ_1``
    turn it into a ``σ_m`` at the front.
    """
    if m < 1:
        raise IllegalStep(f"move-b1 needs m >= 1, got {m}")
    if m == 1:
        return ()
    if m == 2:
        return (_braid(1),)
    prog: list[RewriteStep] = [_swap(q) for q in range(m - 1, 1, -1)]
    prog.append(_braid(0))
    prog += shift_program(move_b1_prog(m - 1), 2)
    prog += [_braid(0), _braid(1)]
    prog += [_swap(q) for q in range(3, m + 1)]
    return tuple(prog)


@cache
def move_d_prog(j: int, i: int) -> Program:
    """``V_j σ_i → σ_i V_j`` for ``i ≤ j-1`` or ``i ≥ j+2`` (region 2j+1).

    A wrap commutes with every generator of the braid group it closes over;
    the letter passes the descending and ascending halves with one braid
    relation each, or by distant swaps alone when its index clears the wrap.
    """
    if i >= j + 2:
        return tuple(_swap(q) for q in range(2 * j - 1, -1, -1))
    if not 1 <= i <= j - 1:
        raise IllegalStep(f"move-d needs i <= j-1 or i >= j+2, got i={i}, j={j}")
    prog: list[RewriteStep] = [_swap(q) for q in range(2 * j - 1, j + i, -1)]
    prog.append(_braid(j + i - 1))
    prog += [_swap(q) for q in range(j + i - 2, j - i, -1)]
    prog.append(_braid(j - i - 1))
    prog += [_swap(q) for q in range(j - i - 2, -1, -1)]
    return tuple(prog)


@cache
def move_z_prog(a: int, i: int) -> Program:
    """``Δ²_a σ_i → σ_i Δ²_a`` for ``i ≤ a-1`` (region a(a-1)+1 letters).

    The full twist is central: the letter lowers once per descending run it
    crosses, climbs back to the top index through the double-run spot, and
    lowers again to come out unchanged.
    """
    if not 1 <= i <= a - 1:
        raise IllegalStep(f"move-z needs 1 <= i <= a-1, got i={i}, a={a}")
    m = a - 1
    prog: list[RewriteStep] = []
    idx = i
    copy = a - 1
    for _ in range(i - 1):
        prog += shift_program(move_b_prog(m, idx), copy * m)
        idx -= 1
        copy -= 1
    prog += shift_program(move_b1_prog(m), (copy - 1) * m)
    idx = m
    copy -= 2
    for _ in range(a - i - 1):
        prog += shift_program(move_b_prog(m, idx), copy * m)
        idx -= 1
        copy -= 1
    return tuple(prog)


@cache
def ext_prog(m: int, r: int) -> Program:
    """``R_m^r → (σ_{m-r+1} ⋯ σ_{m-1}) R_m R_{m-1}^{r-1}`` for ``1 ≤ r ≤ m``.

    The leading letter of the last run is pulled all the way to the front,
    lowering by one per run crossed, and the remainder recurses on the first
    ``r - 1`` runs.  The extracted ascending block records the pulls.
    """
    if not 1 <= r <= m:
        raise IllegalStep(f"run extraction needs 1 <= r <= m, got r={r}, m={m}")
    if r == 1:
        return ()
    prog = shift_program(move_b_prog(m, m), (r - 2) * m)
    for j in range(r - 2, 0, -1):
        prog += shift_program(move_b_prog(m, m - r + 1 + j), (j - 1) * m)
    prog += shift_program(ext_prog(m, r - 1), 1)
    return tuple(prog)


@cache
def peel_prog(n: int) -> Program:
    """``Δ²_n → V_{n-1} Δ²_{n-1}`` in place (region n(n-1) letters).

    Peeling the outermost strand off a full twist leaves its wrap around the
    others in front of the full twist one strand down.
    """
    if n <= 2:
        return ()
    return tuple(shift_program(ext_prog(n - 1, n - 1), n - 1))


@cache
def conv_prog(m: int) -> Program:
    """``Δ²_m`` (descending form) ``→ A_{m-1}^m`` (ascending form) in place.

    Peel a wrap, convert the inner twist recursively, slide the converted
    inner twist through the wrap, and absorb the wrap from the other side by
    the mirror image of peeling.
    """
    if m <= 2:
        return ()
    prog = list(peel_prog(m))
    prog += shift_program(conv_prog(m - 1), 2 * (m - 1))
    for c, letter in enumerate(ascending_twist_letters(m - 1)):
        prog += shift_program(cross_left_prog(("wrap", m - 1), letter), c)
    prog += invert_program(mirror_program(peel_prog(m), m * (m - 1)))
    return tuple(prog)


# ---------------------------------------------------------------------------
# block descriptors and crossings
# ---------------------------------------------------------------------------


def desc_letters(desc: tuple) -> tuple[int, ...]:
    """The letters of a block; their count is the block's length."""
    kind = desc[0]
    if kind == "letter":
        return (desc[1],)
    if kind == "wrap":
        return wrap(desc[1])
    if kind == "twist":
        return full_twist_letters(desc[1])
    if kind == "run":
        return tuple(desc[1])
    raise IllegalStep(f"unknown block descriptor {desc!r}")


@cache
def cross_left_prog(desc: tuple, letter: int) -> Program | None:
    """Program for ``<block> σ_letter → σ_letter <block>``, relative to the
    block, or None when the letter cannot pass it.  Blocked are σ_{m-1}, σ_m
    and σ_{m+1} at the letter σ_m; σ_j and σ_{j+1} at the wrap V_j, except σ_1
    at V_1; σ_a at the full twist on a strands.  Never ask about a run, which
    is no obstacle: the cache would grow with it."""
    kind = desc[0]
    if kind == "letter":
        return (_swap(0),) if abs(letter - desc[1]) >= 2 else None
    if kind == "wrap":
        j = desc[1]
        if j == 1 and letter == 1:
            return ()  # σ_1 σ_1 σ_1 reads the same from either side
        return None if letter in (j, j + 1) else move_d_prog(j, letter)
    if kind == "twist":
        a = desc[1]
        if letter == a:
            return None
        if letter >= a + 1:
            return tuple(_swap(q) for q in range(a * (a - 1) - 1, -1, -1))
        return move_z_prog(a, letter)
    raise IllegalStep(f"block {desc!r} cannot be crossed")


@cache
def cross_right_prog(desc: tuple, letter: int) -> Program | None:
    """Program for ``σ_letter <block> → <block> σ_letter``, relative to the
    letter, or None when the letter cannot pass the block."""
    prog = cross_left_prog(desc, letter)
    return None if prog is None else tuple(invert_program(prog))


@cache
def exchange_prog(left: tuple, right: tuple) -> Program | None:
    """Program for ``<left><right> → <right><left>``, relative to the left
    block, or None when the blocks cannot pass each other: the right block's
    letters pass the left block if all can, else the left block's letters
    pass the right one.  Never ask about a run, which the cache would grow
    with; ``exchange_prog.__wrapped__`` builds the program uncached."""
    if left[0] != "run":
        progs = [cross_left_prog(left, i) for i in desc_letters(right)]
        if None not in progs:
            return tuple(step for c, prog in enumerate(progs) for step in shift_program(prog, c))
    if right[0] != "run":
        progs = [cross_right_prog(right, i) for i in desc_letters(left)]
        if None not in progs:
            return tuple(step for c in range(len(progs) - 1, -1, -1) for step in shift_program(progs[c], c))
    return None


def _swap_adjacent(tb: TraceBuilder, pos: int, left: tuple, right: tuple) -> None:
    """Exchange two adjacent blocks, the left one starting at ``pos``, by one
    run of their exchange program."""
    build = exchange_prog.__wrapped__ if "run" in (left[0], right[0]) else exchange_prog
    prog = build(left, right)
    if prog is None:
        raise IllegalStep(f"blocks {left!r} and {right!r} cannot pass each other")
    tb.run(prog, pos)


def arrange_blocks(tb: TraceBuilder, start: int, current, target) -> None:
    """Reorder a row of adjacent blocks at ``start`` into the target order.

    ``current`` and ``target`` are equal multisets of block descriptors; the
    row is rearranged by bubbling the next needed block leftwards, each
    adjacent exchange realized by whichever of the two blocks can legally
    commute past the other.  Word content outside the row is untouched.
    """
    cur = list(current)
    tgt = list(target)
    if Counter(cur) != Counter(tgt):
        raise IllegalStep("block rearrangement requires equal block multisets")
    offsets = [start]
    for desc in cur:
        offsets.append(offsets[-1] + len(desc_letters(desc)))
    for i, want in enumerate(tgt):
        if cur[i] == want:
            continue
        j = next(q for q in range(i + 1, len(cur)) if cur[q] == want)
        for s in range(j, i, -1):
            _swap_adjacent(tb, offsets[s - 1], cur[s - 1], cur[s])
            cur[s - 1], cur[s] = cur[s], cur[s - 1]
            offsets[s] = offsets[s - 1] + len(desc_letters(cur[s - 1]))


# ---------------------------------------------------------------------------
# wrap cascades (the only crossing-change emitters in this module)
# ---------------------------------------------------------------------------


def cascade(tb: TraceBuilder, pos: int, j: int, count: int) -> None:
    """``(V_j)^count σ_j → σ_j (V_{j-1})^count`` by ``count`` crossing changes.

    Each wrap's trailing ``σ_j`` meets the following ``σ_j`` head-on; changing
    one crossing cancels the pair and hands the spare ``σ_j`` to the wrap on
    the left.  ``pos`` is where the run of wraps starts.
    """
    for t in range(count, 0, -1):
        tb.crossing_change(pos + 2 * j * t - 1)


def cascade_mirror(tb: TraceBuilder, pos: int, j: int, count: int) -> None:
    """``σ_j (V_j)^count → (V_{j-1})^count σ_j`` by ``count`` crossing changes.

    The mirror image of :func:`cascade`: the leading ``σ_j`` eats into the
    wraps from the left.  ``pos`` is where the leading ``σ_j`` sits.
    """
    for t in range(count):
        tb.crossing_change(pos + 2 * (j - 1) * t)


# ---------------------------------------------------------------------------
# regional programs
# ---------------------------------------------------------------------------
#
# A regional program is a list of pieces: a (program, offset) pair, its
# offset relative to the start of a suffix region, or a Rotation.  Running it
# inside an ambient word runs each pair as one program and realizes each
# rotation by walking the moved letters around the closure, commuting them
# through its delimiting blocks and through the ambient prefix (also given as
# descriptors).


@cache
def _tail_prog(a: int) -> Program:
    """``R_{a-2} Δ²_{a-1} → Δ²_{a-1} R_{a-2}``, relative to the run."""
    return exchange_prog.__wrapped__(("run", descending_run(a - 2)), ("twist", a - 1))


def decompose_region_prog(a: int, k: int) -> list[tuple[Program, int] | Rotation]:
    """Regional program rewriting ``R_{a-1}^{ak+1}`` into the layered form.

    Level by level (``a' = a, a-1, …, 2``) the run power splits as
    ``(Δ²_{a'})^k R_{a'-1}``; the ``k`` full twists are peeled, gathered, sent
    to the end of the live subword by rotation, and absorbed into the next
    run power, leaving ``(V_{a'-1})^k σ_{a'-1}`` of the layered form behind.
    No crossing changes occur and the region keeps its length.  Level 2 has
    nothing to peel, gather or absorb.
    """
    if a < 2 or k < 0:
        raise IllegalStep(f"decomposition needs a >= 2 and k >= 0, got a={a}, k={k}")
    pieces = []
    stack: list[tuple] = []
    region_len = (a - 1) * (a * k + 1)
    base = 0
    for ap in range(a, 2, -1):
        lw = 2 * (ap - 1)
        lt = (ap - 1) * (ap - 2)
        pieces += [(peel_prog(ap), base + t * (lw + lt)) for t in range(k)]
        # Each peeled twist crosses the wraps peeled before it.
        gather = exchange_prog(("wrap", ap - 1), ("twist", ap - 1))
        pieces += [(gather, base + t * lt + (t - s) * lw) for t in range(k) for s in range(t + 1)]
        if k:
            pieces.append(Rotation(k * lt, region_len - base, tuple(stack)))
        tail = _tail_prog(ap)
        if tail:
            pieces += [(tail, base + k * lw + 1 + t * lt) for t in range(k)]
        stack += [("wrap", ap - 1)] * k + [("letter", ap - 1)]
        base += k * lw + 1
    return pieces


def _stack_legal(movers, descs) -> bool:
    return all(d[0] != "run" and cross_left_prog(d, i) is not None for d in descs for i in movers)


def _lift_rotation(tb: TraceBuilder, region_start: int, prefix, rotation: Rotation) -> None:
    """Realize one subword rotation inside the ambient word."""
    amount, s, lb, rb = rotation
    ell = len(tb.letters)
    lb_len = sum(len(desc_letters(d)) for d in lb)
    rb_len = sum(len(desc_letters(d)) for d in rb)
    if lb_len + s + rb_len != ell - region_start:
        raise IllegalStep(f"a {s}-letter subword and its delimiters do not fill the region")
    if not 0 <= amount <= s:
        raise IllegalStep(f"rotation amount {amount} exceeds the subword length {s}")
    if amount in (0, s):
        return
    sub_start = region_start + lb_len
    letters = tb.letters
    movers_left = letters[sub_start : sub_start + amount]
    movers_right = letters[sub_start + amount : sub_start + s]
    if _stack_legal(movers_left, [*lb, *prefix, *rb]):
        # The first `amount` letters exit leftwards around the closure.
        for t in range(amount):
            q = t + region_start + lb_len
            letter = letters[q]
            for desc in [*reversed(lb), *reversed(prefix)]:
                q -= len(desc_letters(desc))
                tb.run(cross_left_prog(desc, letter), q)
            if q != t:
                raise AssertionError("rotation walk lost its position")
        tb.conjugate(amount)
        for t in range(amount):
            q = sub_start + (s - amount) + t + rb_len
            letter = letters[q]
            for desc in reversed(rb):
                q -= len(desc_letters(desc))
                tb.run(cross_left_prog(desc, letter), q)
    elif _stack_legal(movers_right, [*rb, *prefix, *lb]):
        # The trailing letters exit rightwards around the closure instead.
        back = s - amount
        for c in range(back - 1, -1, -1):
            q = sub_start + amount + c
            letter = letters[q]
            for desc in rb:
                tb.run(cross_right_prog(desc, letter), q)
                q += len(desc_letters(desc))
        tb.conjugate(ell - back)
        for c in range(back - 1, -1, -1):
            q = c
            letter = letters[q]
            for desc in [*prefix, *lb]:
                tb.run(cross_right_prog(desc, letter), q)
                q += len(desc_letters(desc))
            if q != c + sub_start:
                raise AssertionError("rotation walk lost its position")
    else:
        raise IllegalStep("neither side of the subword can walk around the closure")


def run_regional(tb: TraceBuilder, prog: list, region_start: int, prefix) -> None:
    """Run a regional program on the suffix region starting at ``region_start``.

    Each ``(program, offset)`` piece runs as one program at ``region_start +
    offset``.  ``prefix`` is a list of block descriptors describing the whole
    word before the region; rotations walk their letters through these
    blocks and around the closure, so every prefix block must commute with
    the letters moved.
    """
    prefix = list(prefix)
    plen = sum(len(desc_letters(d)) for d in prefix)
    if plen != region_start:
        raise IllegalStep("prefix descriptors must cover the word before the region")
    for piece in prog:
        if type(piece) is Rotation:
            _lift_rotation(tb, region_start, prefix, piece)
        else:
            tb.run(piece[0], region_start + piece[1])
