"""The four workloads: seeded inputs, the CLI calls made on them, and their checks.

A workload is a fixed list of operations.  Each operation is one call of
``gordian.cli.main(argv)``, either *producing* (its time counts in
``produce_s``) or *checking* (``verify_s``).  The seed fixes every generated
input; the program only ever receives the generated words and numbers.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import checks
from checks import expect, format_word, knot_u, torus_letters, torus_u

PRODUCE = "produce"
VERIFY = "verify"


@dataclass
class Op:
    """One CLI call.

    ``argv`` is a list, or a function of the stdout of the operations run
    before it in the same pass (keyed by ``key``).  ``check(stdout, outs)``
    raises :class:`checks.CheckFailed` on a wrong output.  ``prepare`` runs
    untimed before the call; ``out_file`` is the file the call writes.
    """

    key: str
    phase: str
    argv: list[str] | Callable[[dict[str, str]], list[str]]
    check: Callable[[str, dict[str, str]], None]
    expect_rc: int = 0
    out_file: str | None = None
    prepare: Callable[[], None] | None = None


def random_knot_word(rng: random.Random, strands: int, length: int, no_repeats: bool = False):
    """Uniform random letters, redrawn until the closure is a knot.

    With ``no_repeats`` no two cyclically adjacent letters are equal.
    """
    while True:
        letters = []
        for _ in range(length):
            choices = range(1, strands)
            if no_repeats and letters:
                choices = [x for x in choices if x != letters[-1]]
            letters.append(rng.choice(choices))
        if no_repeats and letters[0] == letters[-1]:
            continue
        if checks.cycle_count(strands, letters) == 1:
            return letters


# ---------------------------------------------------------------------------
# certify: long traces from the paper's families
# ---------------------------------------------------------------------------

# (family, CLI arguments, source (p, q), target (p, q)).  The targets are the
# paper's formulas: ci  T(n+1, (n²−1)k+1) → T(n, n²k+1);
# cin T(n+1, (n²−1)k+n) → T(n, n²k+n+1); t34 T(4, b) → T(3, a) with
# a = 9k+1, 9k+4, 9k+5, 9k+8 for b = 8k+1, 8k+3, 8k+5, 8k+7;
# t24 T(4, b) → T(2, a) with a = 6k+3, 6k+5 for b = 4k+1, 4k+3.


def _ci(n, k):
    return (n + 1, (n * n - 1) * k + 1), (n, n * n * k + 1)


def _cin(n, k):
    return (n + 1, (n * n - 1) * k + n), (n, n * n * k + n + 1)


def _t34(b):
    k, r = divmod(b, 8)
    return (4, b), (3, {1: 9 * k + 1, 3: 9 * k + 4, 5: 9 * k + 5, 7: 9 * k + 8}[r])


def _t24(b):
    k, r = divmod(b, 4)
    return (4, b), (2, 6 * k + 3 if r == 1 else 6 * k + 5)


# T(4,129) → T(3,145) is the largest member: 17 698 steps, 13 MiB of text.
FAMILY_GRID = (
    [("t34", [b], *_t34(b)) for b in (9, 11, 13, 15, 129)]
    + [("t24", [b], *_t24(b)) for b in (5, 7, 21)]
    + [("ci", [n, k], *_ci(n, k)) for n, k in ((2, 1), (2, 6), (3, 2), (4, 1))]
    + [("cin", [n, k], *_cin(n, k)) for n, k in ((2, 1), (2, 7), (3, 1), (4, 1))]
)
STRIP_GRID = ((3, 7), (4, 11), (5, 13))
# (strands, length of the kept knot word β′, length of v in the deleted tail v·v⁻¹)
DELETE_SLOTS = ((3, 20, 20), (4, 31, 30), (5, 40, 40), (6, 41, 50))
# (p1, q1, p2, q2): each has a certificate, by a family or a full-twist deletion.
CATALOG_QUERIES = ((3, 10, 4, 9), (2, 7, 3, 5), (3, 14, 4, 13), (2, 9, 4, 5), (3, 4, 3, 7))
TAMPERED = "ci-3-2"


def _strip_target(p: int, q: int) -> Callable[[str], None]:
    """Dropping the top strand of T(p,q) costs ⌊q/p⌋ crossing changes and one
    destabilization, leaving a knot word on p−1 strands."""

    def check(text: str) -> None:
        expect(text.startswith("word "), f"strip target {text!r}")
        strands, letters = checks.read_word(text[len("word ") :])
        expect(strands == p - 1, f"strip target on {strands} strands")
        expect(len(letters) == (p - 1) * q - 2 * (q // p) - 1, "strip target length")
        expect(knot_u(strands, letters) == torus_u(p, q) - q // p, "strip target u")

    return check


def _tamper(rng: random.Random, source: str, dest: str, final_length: int) -> Callable[[], None]:
    """Copy a certificate with one well-formed change: the claim raised by one,
    or one distant-swap position moved to another position in range."""
    claim = rng.random() < 0.5
    pick, shift = rng.random(), rng.random()

    def prepare() -> None:
        with open(source, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        if claim:
            index = next(i for i, line in enumerate(lines) if line.startswith("claimed_cc: "))
            lines[index] = f"claimed_cc: {int(lines[index].split()[1]) + 1}"
        else:
            swaps = [i for i, line in enumerate(lines) if line.startswith("step: distant-swap pos=")]
            index = swaps[int(pick * len(swaps))]
            match = re.search(r"pos=(\d+)", lines[index])
            old, limit = int(match[1]), final_length - 1  # positions 0 .. final_length-2 fit every step
            new = int(shift * limit) if old >= limit else (old + 1 + int(shift * (limit - 1))) % limit
            lines[index] = lines[index][: match.start(1)] + str(new) + lines[index][match.end(1) :]
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))

    return prepare


def certify(rng: random.Random, work: str) -> list[Op]:
    ops: list[Op] = []

    def add(key, argv, source, target, cc):
        path = os.path.join(work, key + ".cert")
        ops.append(
            Op(key, PRODUCE, [*argv, "--out", path],
               lambda out, _, s=source, t=target, c=cc: checks.check_certificate(out, s, t, c),
               out_file=path)
        )
        ops.append(Op(key + ".verify", VERIFY, ["verify", path],
                      lambda out, _: checks.check_certificate_valid(out)))

    for family, args, (p1, q1), (p2, q2) in FAMILY_GRID:
        add(f"{family}-" + "-".join(map(str, args)), ["adjacency", family, *map(str, args)],
            f"torus {p1} {q1}", f"torus {p2} {q2}", torus_u(p1, q1) - torus_u(p2, q2))
    for p, q in STRIP_GRID:
        add(f"strip-{p}-{q}", ["adjacency", "strip", str(p), str(q)],
            f"torus {p} {q}", _strip_target(p, q), q // p)
    for index, (strands, kept, half) in enumerate(DELETE_SLOTS):
        beta = random_knot_word(rng, strands, kept)
        v = [rng.randint(1, strands - 1) for _ in range(half)]
        tail = v + v[::-1]  # induces the identity permutation
        add(f"delete-{index}",
            ["adjacency", "delete-subword", format_word(strands, beta), format_word(strands, tail)],
            "word " + format_word(strands, beta + tail), "word " + format_word(strands, beta),
            knot_u(strands, beta + tail) - knot_u(strands, beta))
    for p1, q1, p2, q2 in CATALOG_QUERIES:
        key = f"catalog-{p1}-{q1}-{p2}-{q2}"
        path = os.path.join(work, key + ".cert")
        ops.append(Op(key, PRODUCE, ["catalog", str(p1), str(q1), str(p2), str(q2), "--out", path],
                      lambda out, _: checks.check_catalog(out), out_file=path))
        ops.append(Op(key + ".verify", VERIFY, ["verify", path],
                      lambda out, _: checks.check_certificate_valid(out)))
    final_length = len(torus_letters(*_ci(3, 2)[1]))
    tampered = os.path.join(work, "tampered.cert")
    ops.append(Op("tampered.verify", VERIFY, ["verify", tampered],
                  lambda out, _: checks.check_certificate_invalid(out), expect_rc=1,
                  prepare=_tamper(rng, os.path.join(work, TAMPERED + ".cert"), tampered, final_length)))
    return ops


# ---------------------------------------------------------------------------
# knots: many short traces on seeded random knot words
# ---------------------------------------------------------------------------

# (strands, length, words) slots of seeded words.  Length has the parity of
# strands − 1, as a knot needs; lengths stay far below the ≈990 letters at
# which `unknot` hits the recursion limit.  Long words on 3–4 strands and the
# fixed torus words carry most of the trace bytes; many short words on 5–9
# strands exercise `alexander` by strand count.  The spread of the totals
# over seeds shrinks with the number of words.
KNOT_SLOTS = (
    [(3, n, 3) for n in (8, 20, 50, 100, 200, 300)]
    + [(4, n, 4) for n in (11, 31, 61)] + [(4, 101, 3)]
    + [(5, 12, 5), (5, 30, 5), (5, 60, 3)]
    + [(6, 15, 5), (6, 41, 4), (7, 18, 5), (7, 40, 4)]
    + [(8, 21, 5), (8, 41, 3), (9, 24, 5), (9, 40, 3)]
)
KNOT_TORUS = (
    (2, 11), (2, 301), (3, 7), (3, 20), (3, 200), (4, 9), (4, 15), (4, 101), (5, 6),
    (5, 12), (5, 76), (6, 7), (6, 37), (7, 8), (7, 22), (8, 17), (9, 10), (9, 13),
)


def knots(rng: random.Random, work: str) -> list[Op]:
    inputs = [(strands, random_knot_word(rng, strands, length), None)
              for strands, length, count in KNOT_SLOTS for _ in range(count)]
    inputs += [(p, torus_letters(p, q), (p, q)) for p, q in KNOT_TORUS]
    rng.shuffle(inputs)
    ops: list[Op] = []
    for index, (strands, letters, torus) in enumerate(inputs):
        word = format_word(strands, letters)
        u = knot_u(strands, letters)
        path = os.path.join(work, f"knot-{index}.trace")
        key = f"knot-{index}"
        ops += [
            Op(key + ".info", PRODUCE, ["info", word],
               lambda out, _, s=strands, w=letters: checks.check_info(out, s, w)),
            Op(key + ".alexander", PRODUCE, ["alexander", word],
               lambda out, _, s=strands, w=letters, t=torus: checks.check_alexander(out, s, w, t)),
            Op(key + ".unknot", PRODUCE, ["unknot", word, "--trace", path],
               lambda out, _, u=u: checks.check_unknot(out, u), out_file=path),
            Op(key + ".verify", VERIFY, ["verify", path],
               lambda out, _, u=u: checks.check_trace_valid(out, None, u)),
        ]
    return ops


# ---------------------------------------------------------------------------
# census: exhaustive enumeration for u = 0, 1, 2
# ---------------------------------------------------------------------------

CENSUS_M = (0, 1, 2)  # u = 3 exhausts its budget after ≈190 s


def _representative(m: int, index: int) -> Callable[[dict[str, str]], str]:
    def word(outs: dict[str, str]) -> str:
        return checks.census_classes(outs[f"enumerate-{m}"])[index]["representative"]

    return word


def census(rng: random.Random, work: str) -> list[Op]:
    """The inputs are the fixed numbers m; the seed is not used."""
    ops: list[Op] = []
    for m in CENSUS_M:
        ops.append(Op(f"enumerate-{m}", PRODUCE, ["enumerate", str(m)],
                      lambda out, _, m=m: checks.check_census(out, m)))
    for m in CENSUS_M:
        for index in range(len(checks.CENSUS_ALEXANDER[m])):
            rep = _representative(m, index)
            key = f"class-{m}-{index}"
            path = os.path.join(work, key + ".trace")

            def check_alexander(out, outs, m=m, index=index):
                block = checks.census_classes(outs[f"enumerate-{m}"])[index]
                found = checks.read_poly(out.strip())
                expect(found == checks.read_poly(block["alexander"]), f"Δ of {block['representative']!r}")
                strands, letters = checks.read_word(block["representative"])
                checks.check_knot_alexander(found, knot_u(strands, letters))

            ops += [
                Op(key + ".unknot", VERIFY, lambda outs, rep=rep, path=path: ["unknot", rep(outs), "--trace", path],
                   lambda out, _, m=m: checks.check_unknot(out, m), out_file=path),
                Op(key + ".verify", VERIFY, ["verify", path],
                   lambda out, _, m=m: checks.check_trace_valid(out, None, m)),
                Op(key + ".alexander", VERIFY, lambda outs, rep=rep: ["alexander", rep(outs)], check_alexander),
            ]
    return ops


# ---------------------------------------------------------------------------
# search: breadth-first path search between knot words
# ---------------------------------------------------------------------------

TORUS_PAIRS = (
    ((3, 4), (2, 5)), ((3, 4), (2, 3)), ((3, 5), (2, 7)), ((3, 5), (2, 5)),
    ((3, 5), (3, 4)), ((3, 7), (3, 5)), ((3, 7), (2, 9)), ((3, 7), (2, 7)),
)
# (strands, length, pairs): random knot words with no two cyclically adjacent
# letters equal, so no crossing change is available before a first move.
SEARCH_SLOTS = ((4, 17, 6), (4, 21, 6))


def _first_crossing_change(letters: list[int]) -> list[int]:
    """The word after the first crossing change of a greedy reduction: the
    first σi σj σi (|i−j| ≥ 2, read cyclically) slides σj out by one distant
    swap, and the σi σi pair it frees is deleted."""
    n = len(letters)
    for i in range(n):
        a, b, c = letters[i], letters[(i + 1) % n], letters[(i + 2) % n]
        if a == c and abs(a - b) >= 2:
            rotated = letters[i:] + letters[:i]
            return [rotated[1]] + rotated[3:]
    return []


def search(rng: random.Random, work: str) -> list[Op]:
    pairs = [((p1, torus_letters(p1, q1)), (p2, torus_letters(p2, q2)))
             for (p1, q1), (p2, q2) in TORUS_PAIRS]
    for strands, length, count in SEARCH_SLOTS:
        for _ in range(count):
            target: list[int] = []
            while not target:
                source = random_knot_word(rng, strands, length, no_repeats=True)
                target = _first_crossing_change(source)
            pairs.append(((strands, source), (strands, target)))
    rng.shuffle(pairs)
    ops: list[Op] = []
    for index, ((s_strands, s_letters), (t_strands, t_letters)) in enumerate(pairs):
        key = f"search-{index}"
        path = os.path.join(work, key + ".trace")
        cc = knot_u(s_strands, s_letters) - knot_u(t_strands, t_letters)
        ops += [
            Op(key, PRODUCE,
               ["search", format_word(s_strands, s_letters), format_word(t_strands, t_letters), "--trace", path],
               lambda out, _, cc=cc: checks.check_search(out, cc), out_file=path),
            Op(key + ".verify", VERIFY, ["verify", path],
               lambda out, outs, key=key, cc=cc: checks.check_trace_valid(out, checks.fields(outs[key])["steps"], cc)),
        ]
    return ops


WORKLOADS = {"certify": certify, "knots": knots, "census": census, "search": search}


def build(workload: str, seed: int, work: str) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed), work)
