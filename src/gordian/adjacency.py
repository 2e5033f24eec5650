"""Certified crossing-change paths between torus-knot families.

A braid word whose closure is a knot K can sometimes be rewritten, by the five
rules, into a word for a *different* knot K′ using exactly
``u(K) − u(K′)`` crossing changes — the smallest number any path between them
could use, since each change moves the unknotting number by at most one.  Such
a word-level path certifies that K′ lies on a minimal unknotting sequence of
K.  This module builds those paths explicitly for several torus-knot families
and packages each as an :class:`AdjacencyCertificate`: a replayable trace plus
the claimed endpoints and crossing-change count, machine-checkable after the
fact by :func:`verify_certificate`.

The constructions all follow one strategy: write the source torus braid as a
stack of full twists plus a remainder, peel wraps off the twists, herd the
resulting blocks into cancelling positions (every block commutation is emitted
as elementary steps), spend the crossing changes in cascades where wraps meet
their own top letter head-on, destabilize away the freed top strand, and
tidy the remainder back into a literal (or length/Alexander-verified) torus
word one strand down.  Every family whose source has remainder one opens
with the top-strand drop of :func:`strip_top_strand` (``_drop_top_strand``).

:func:`adjacency_catalog` answers "is T(p₁,q₁) reachable this way from
T(p₂,q₂)?" by matching the implemented families and, where only a cited
inequality applies, returning a verdict without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alexander import alexander
from .errors import DomainError, ParseError, TraceCorrupt
from .moves import (
    arrange_blocks,
    ascending_twist_letters,
    cascade,
    cascade_mirror,
    conv_prog,
    desc_letters,
    expect_word,
    ext_prog,
    form_letters,
    full_twist_letters,
    invert_program,
    mirror_program,
    peel_prog,
    region_levels,
    revform_letters,
    wrap,
)
from .rules import RewriteTrace, TraceBuilder, next_line, parse_trace, read_count, replay, serialize_trace
from .unknotting import _reduce, unknot
from .words import (
    BraidWord,
    TorusParams,
    ascending_run,
    closure_info,
    descending_run,
    format_word,
    is_knot,
    parse_word,
    torus_braid,
    unknotting_number,
)

__all__ = [
    "strip_top_strand",
    "adjacency_ci",
    "adjacency_cin",
    "adjacency_3_from_4",
    "adjacency_2_from_4",
    "delete_link_subword",
    "AdjacencyCertificate",
    "CertificateCheck",
    "verify_certificate",
    "serialize_certificate",
    "parse_certificate",
    "endpoint_word",
    "format_endpoint",
    "CLAIMED",
    "NOT_COVERED",
    "CatalogAnswer",
    "adjacency_catalog",
]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjacencyCertificate:
    """A replayable witness that ``target`` sits ``claimed_cc`` crossing
    changes below ``source`` on a minimal unknotting sequence.

    Endpoints are torus parameters or explicit words; the trace runs from the
    source word to a word matching the target by strand count, length, and
    Alexander polynomial (checked by :func:`verify_certificate`).
    """

    source: TorusParams | BraidWord
    target: TorusParams | BraidWord
    trace: RewriteTrace
    claimed_cc: int


@dataclass(frozen=True)
class CertificateCheck:
    """Result of checking a certificate.

    When replay fails, ``failed_step`` is the index it failed at (the
    trace's ``step_count`` when the steps end off the recorded final word)
    and the checks on the final word are not made: ``strands_match``,
    ``length_match`` and ``alexander_match`` are None, and only then.
    """

    replay_ok: bool
    source_match: bool
    strands_match: bool | None
    length_match: bool | None
    alexander_match: bool | None
    cc_match: bool
    failed_step: int | None = None

    @property
    def valid(self) -> bool:
        return (
            self.replay_ok
            and self.source_match
            and self.strands_match
            and self.length_match
            and self.alexander_match
            and self.cc_match
        )

    def summary(self) -> str:
        """The final-word checks as one line: ``strands=… length=… alexander=…``."""

        def word(flag) -> str:
            if flag is None:
                return "skipped"
            return "match" if flag else "mismatch"

        return (
            f"strands={word(self.strands_match)} "
            f"length={word(self.length_match)} "
            f"alexander={word(self.alexander_match)}"
        )


def endpoint_word(ref: TorusParams | BraidWord) -> BraidWord:
    """The braid word an endpoint refers to."""
    if isinstance(ref, TorusParams):
        return torus_braid(ref.p, ref.q)
    return ref


def format_endpoint(ref: TorusParams | BraidWord) -> str:
    if isinstance(ref, TorusParams):
        return f"torus {ref.p} {ref.q}"
    return f"word {format_word(ref)}"


def _read_endpoint(line: str, key: str) -> TorusParams | BraidWord:
    """The endpoint after ``key`` on a header line that starts with it,
    spelled as :func:`format_endpoint` writes it after one space; any other
    spelling is malformed."""
    text = line[len(key) :].strip()
    if text.startswith("torus "):
        try:
            p, q = map(int, text[len("torus ") :].split())
            ref = TorusParams(p, q)
        except (ValueError, DomainError):
            raise ParseError(f"malformed torus endpoint: {text!r}") from None
    elif text.startswith("word "):
        ref = parse_word(text[len("word ") :])
    else:
        raise ParseError(f"endpoint must start with 'torus' or 'word': {text!r}")
    if line[len(key) :] != f" {format_endpoint(ref)}":
        raise ParseError(f"malformed {key!r} line: {line!r}")
    return ref


def verify_certificate(cert: AdjacencyCertificate) -> CertificateCheck:
    """Replay the trace and compare endpoints and accounting.

    The final word is matched to the target by strand count, length, and
    Alexander polynomial, computed only when the final word differs from the
    target letter for letter; the crossing-change count must equal the claim
    and, when both endpoint closures are knots, the gap in unknotting numbers.
    """
    src = endpoint_word(cert.source)
    tgt = endpoint_word(cert.target)
    source_match = cert.trace.initial == src
    cc_match = cert.trace.crossing_changes == cert.claimed_cc
    if cc_match and is_knot(src) and is_knot(tgt):
        cc_match = cert.claimed_cc == unknotting_number(src) - unknotting_number(tgt)
    try:
        final = replay(cert.trace)
    except TraceCorrupt as exc:
        return CertificateCheck(False, source_match, None, None, None, cc_match, exc.step_index)
    strands_match = final.strands == tgt.strands
    length_match = final.length == tgt.length
    return CertificateCheck(
        replay_ok=True,
        source_match=source_match,
        strands_match=strands_match,
        length_match=length_match,
        alexander_match=final == tgt or alexander(final) == alexander(tgt),
        cc_match=cc_match,
    )


def serialize_certificate(cert: AdjacencyCertificate, check: CertificateCheck | None = None) -> str:
    """Render a certificate: header lines, an embedded trace block, ``end``.

    The ``verification:`` line records the check status at write time and is
    advisory; reading a certificate back and re-verifying is authoritative.
    """
    lines = [
        "certificate",
        f"source: {format_endpoint(cert.source)}",
        f"target: {format_endpoint(cert.target)}",
        f"claimed_cc: {cert.claimed_cc}",
        f"verification: {'skipped' if check is None else check.summary()}",
    ]
    return "\n".join(lines) + "\n" + serialize_trace(cert.trace) + "end\n"


def parse_certificate(text: str) -> AdjacencyCertificate:
    """Parse the format written by :func:`serialize_certificate`.

    Structure-only: call :func:`verify_certificate` to validate the content.
    The five header lines and the closing ``end`` are read here; the trace
    block between them goes to :func:`parse_trace` unsplit.
    """
    lines, pos = [], 0
    for _ in range(5):
        line, pos = next_line(text, pos)
        lines.append(line)
    if lines[0] != "certificate":
        raise ParseError("certificate text must start with a 'certificate' line")
    # 'end' must be the last line, on a line of its own after the trace block.
    rest = text[pos:].rstrip()
    block = rest[:-3].rstrip()
    if not (rest.endswith("end") and block and len(rest[len(block) :].splitlines()) > 1):
        raise ParseError("certificate text must end with an 'end' line")
    for index, key in enumerate(("source:", "target:", "claimed_cc:", "verification:"), 1):
        if not lines[index].startswith(key):
            raise ParseError(f"certificate line {index + 1} must start with {key!r}")
    claimed_cc = read_count(lines[3], "claimed_cc:", "crossing-change claim")
    trace = parse_trace(block)
    return AdjacencyCertificate(
        source=_read_endpoint(lines[1], "source:"),
        target=_read_endpoint(lines[2], "target:"),
        trace=trace,
        claimed_cc=claimed_cc,
    )


def _certify(
    source: TorusParams | BraidWord,
    target: TorusParams | BraidWord,
    tb: TraceBuilder,
    claimed_cc: int,
) -> AdjacencyCertificate:
    if tb.crossing_changes != claimed_cc:
        raise AssertionError(
            f"construction spent {tb.crossing_changes} crossing changes, claimed {claimed_cc}"
        )
    return AdjacencyCertificate(source, target, tb.snapshot(), claimed_cc)


# ---------------------------------------------------------------------------
# strand-dropping constructions
# ---------------------------------------------------------------------------


def _exchange(tb: TraceBuilder, pos: int, left: list, right: list) -> None:
    """Exchange two adjacent rows of blocks, ``left`` starting at ``pos``."""
    arrange_blocks(tb, pos, left + right, right + left)


def _peel_and_gather(tb: TraceBuilder, start: int, a: int, c: int) -> None:
    """``(Δ²_a)^c → (Δ²_{a-1})^c (V_{a-1})^c`` at ``start``: peel a wrap off
    each full twist, then gather the inner twists ahead of the wraps."""
    for t in range(c):
        tb.run(peel_prog(a), start + t * a * (a - 1))
    arrange_blocks(
        tb,
        start,
        [("wrap", a - 1), ("twist", a - 1)] * c,
        [("twist", a - 1)] * c + [("wrap", a - 1)] * c,
    )


def _drop_top_strand(tb: TraceBuilder, c: int, r: int) -> None:
    """Rewrite the word ``(Δ²_a)^c R_{a-1}^r`` (``a`` = the strand count,
    ``1 ≤ r ≤ a-1``) into ``(Δ²_{a-1})^c (σ_{a-r}⋯σ_{a-2}) (V_{a-2})^c
    R_{a-2}^r`` on ``a − 1`` strands: ``c`` crossing changes, each cancelling
    a σ_{a-1} pair, then one destabilization."""
    a = tb.strands
    tb.run(ext_prog(a - 1, r), c * a * (a - 1))
    _peel_and_gather(tb, 0, a, c)
    ahead = ("run", tuple(range(a - r, a - 1)))  # pulled out of the run power
    _exchange(tb, c * (a - 1) * (a - 2), [("wrap", a - 1)] * c, [ahead])
    # The wraps cascade into the top letter of the remainder's full run.
    cascade(tb, c * (a - 1) * (a - 2) + r - 1, a - 1, c)
    tb.destabilize()


def _drop_top_strand_rotated(tb: TraceBuilder, c: int) -> None:
    """Rewrite T(4, 4c+3) into ``(Δ²_3)^{c+1} σ_1σ_2 (V_2)^c`` on three
    strands: ``c`` crossing changes, then one destabilization.

    The remainder ``R_3^3`` regroups as ``σ_1σ_2 σ_3 Δ²_3``; its twist
    rotates to the front, and the drop proceeds behind it.
    """
    tb.run(ext_prog(3, 3), 12 * c)
    tb.conjugate(len(tb.letters) - 6)
    _peel_and_gather(tb, 6, 4, c)
    _exchange(tb, 6 * (c + 1), [("wrap", 3)] * c, [("run", (1, 2))])
    cascade(tb, 6 * (c + 1) + 2, 3, c)
    tb.destabilize()


def _close_wrap_pairs(tb: TraceBuilder, start: int, k: int) -> None:
    """``(V_2)^k (V_1)^k → (Δ²_3)^k`` at ``start``: interleave the wraps, then
    close each ``V_2 V_1`` pair into a full twist with one braid move."""
    arrange_blocks(
        tb,
        start,
        [("wrap", 2)] * k + [("wrap", 1)] * k,
        [("wrap", 2), ("wrap", 1)] * k,
    )
    for t in range(k):
        tb.neighbor_braid(start + 6 * t + 2)


def strip_top_strand(params: TorusParams) -> AdjacencyCertificate:
    """Drop the top strand of T(a, b): exactly ``⌊b/a⌋`` crossing changes, each
    cancelling a σ_{a-1} pair, then one destabilization.

    The target is the braid word that remains on ``a - 1`` strands (a positive
    braid knot, not in general a torus word).
    """
    a, b = params.p, params.q
    if a < 2:
        raise DomainError("a one-strand braid has no top strand to remove")
    if math.gcd(a, b) != 1:
        raise DomainError(f"T({a}, {b}) is a link, not a knot")
    c, r = divmod(b, a)  # coprimality gives 1 <= r <= a-1
    tb = TraceBuilder(torus_braid(a, b))
    _drop_top_strand(tb, c, r)
    return _certify(params, tb.word, tb, c)


def delete_link_subword(beta_prime: BraidWord, w: BraidWord) -> AdjacencyCertificate:
    """Delete an identity-permutation tail ``w`` from ``β′w``: exactly
    ``len(w)/2`` crossing changes, ending at ``β′`` letter for letter.

    The tail region is reduced level by level from the top generator down;
    at each level the region's identity permutation forces the surviving
    occurrence count to zero, so the region empties without ever touching
    ``β′``.
    """
    if beta_prime.strands != w.strands:
        raise DomainError(
            f"words live on different strand counts ({beta_prime.strands} vs {w.strands})"
        )
    info = closure_info(w)
    if info.permutation != tuple(range(1, w.strands + 1)):
        raise DomainError("the deleted subword must induce the identity permutation")
    if not is_knot(beta_prime):
        raise DomainError("the retained word must close to a knot")
    combined = BraidWord(beta_prime.strands, beta_prime.letters + w.letters)
    tb = TraceBuilder(combined)
    region_len = w.length
    for level in range(combined.strands - 1, 0, -1):
        region_len = _reduce(tb, beta_prime.length, region_len, level)
        region = tb.letters[beta_prime.length : beta_prime.length + region_len]
        if level in region:
            raise AssertionError(
                f"σ_{level} survived reduction of an identity-permutation region"
            )
    if region_len:
        raise AssertionError("identity-permutation region failed to empty")
    if tb.word != beta_prime:
        raise AssertionError("deletion disturbed the retained word")
    return _certify(combined, beta_prime, tb, w.length // 2)


# ---------------------------------------------------------------------------
# the two parametric families T(n+1, ·) → T(n, ·)
# ---------------------------------------------------------------------------


def _layers_to_run_power(tb: TraceBuilder, n: int, k: int, mirrored: bool) -> None:
    """Rewrite the layered form at the end of the builder's word, behind its
    full twists Δ²_n, into ``R_{n-1}^{nk+1}`` by undoing
    :func:`~gordian.moves.region_levels`; ``mirrored``, the reversed layered
    form into ``A_{n-1}^{nk+1}`` by undoing its mirror image.

    At each level the twists ``(Δ²_{a-1})^k`` go back round the closure one
    letter block per twist letter.  Unmirrored they end the word: one
    conjugation brings them to the front, and they move right past the
    prefix twists and the finished levels.  Mirrored they start the region:
    they move left past the prefix twists, one conjugation takes them to the
    end, and they move left past the mirrored finished levels.
    """
    length = len(tb.letters)
    flen = (n - 1) * (n * k + 1)
    start = length - flen
    prefix = [("twist", n)] * (start // (n * (n - 1)))
    for a, before, stack, after in reversed(region_levels(n, k)):
        if mirrored:
            before, after, stack = mirror_program(before, flen), mirror_program(after, flen), stack[::-1]
        for prog, offset in invert_program(after):
            tb.run(prog, start + offset)
        letters = (ascending_twist_letters if mirrored else full_twist_letters)(a - 1) * k
        twists = [("letter", x) for x in letters]
        if mirrored:
            arrange_blocks(tb, 0, [*prefix, *twists], [*twists, *prefix])
            tb.conjugate(len(letters))
            behind = len(letters) + sum(len(desc_letters(desc)) for desc in stack)
            arrange_blocks(tb, length - behind, [*stack, *twists], [*twists, *stack])
        else:
            tb.conjugate(length - len(letters))
            arrange_blocks(tb, 0, [*twists, *prefix, *stack], [*prefix, *stack, *twists])
        for prog, offset in invert_program(before):
            tb.run(prog, start + offset)


def adjacency_ci(n: int, k: int) -> AdjacencyCertificate:
    """Certificate from T(n+1, (n²−1)k+1) to T(n, n²k+1), spending exactly
    ``n(n−1)k/2`` crossing changes — the gap in unknotting numbers."""
    if n < 2 or k < 1:
        raise DomainError(f"family needs n >= 2 and k >= 1, got n={n}, k={k}")
    c = (n - 1) * k
    source = TorusParams(n + 1, (n * n - 1) * k + 1)
    target = TorusParams(n, n * n * k + 1)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    # The top strand comes off; then each level sheds its surplus wraps one
    # index down.
    _drop_top_strand(tb, c, 1)
    tail = c * n * (n - 1)
    for j in range(n - 1, 1, -1):
        cascade(tb, tail + 2 * j * k, j, (j - 1) * k)
        tail += 2 * j * k + 1
    expect_word(tb, full_twist_letters(n) * c + form_letters(n, k))
    # Reassemble the layered remainder into a run power; with the twists it is
    # the literal target torus word.
    _layers_to_run_power(tb, n, k, mirrored=False)
    expect_word(tb, torus_braid(target.p, target.q).letters)
    return _certify(source, target, tb, n * (n - 1) * k // 2)


def adjacency_cin(n: int, k: int) -> AdjacencyCertificate:
    """Certificate from T(n+1, (n²−1)k+n) to T(n, n²k+n+1), spending exactly
    ``n(n−1)k/2`` crossing changes.

    The final word is the ascending representative ``(σ_1⋯σ_{n-1})^{n²k+n+1}``
    of the target; the certificate is verified by strand count, length, and
    Alexander polynomial.
    """
    if n < 2 or k < 1:
        raise DomainError(f"family needs n >= 2 and k >= 1, got n={n}, k={k}")
    c = (n - 1) * k
    source = TorusParams(n + 1, (n * n - 1) * k + n)
    target = TorusParams(n, n * n * k + n + 1)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    # The trailing run power R_n^n regroups literally as A_n Δ²_n; the closing
    # twist rotates to the front to join the peeled stack.
    tb.run(ext_prog(n, n), c * n * (n + 1))
    _peel_and_gather(tb, 0, n + 1, c)
    tb.conjugate(len(tb.letters) - n * (n - 1))
    _exchange(tb, (c + 1) * n * (n - 1), [("wrap", n)] * c, [("run", ascending_run(n - 1))])
    cascade(tb, (c + 1) * n * (n - 1) + (n - 1), n, c)
    tb.destabilize()
    # Mirror-image cascades eat the ascending run into the wraps level by
    # level, producing the reversed layered form.
    base = (c + 1) * n * (n - 1)
    for j in range(n - 1, 1, -1):
        cascade_mirror(tb, base + (j - 1), j, (j - 1) * k)
    expect_word(tb, full_twist_letters(n) * (c + 1) + revform_letters(n, k))
    _layers_to_run_power(tb, n, k, mirrored=True)
    expect_word(tb, full_twist_letters(n) * (c + 1) + ascending_run(n - 1) * (n * k + 1))
    # Every descending twist converts in place to ascending form, leaving one
    # ascending run power.
    for t in range(c + 1):
        tb.run(conv_prog(n), t * n * (n - 1))
    expect_word(tb, ascending_run(n - 1) * (n * n * k + n + 1))
    return _certify(source, target, tb, n * (n - 1) * k // 2)


# ---------------------------------------------------------------------------
# the four congruence constructions T(4, b) → T(3, ·) and → T(2, ·)
# ---------------------------------------------------------------------------


def _three_from_four_8k5(k: int) -> AdjacencyCertificate:
    """T(4, 8k+5) → T(3, 9k+5) with 3k+2 crossing changes."""
    c = 2 * k + 1
    source = TorusParams(4, 8 * k + 5)
    target = TorusParams(3, 9 * k + 5)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    _drop_top_strand(tb, c, 1)
    cascade(tb, 6 * c + 4 * (k + 1), 2, k)
    tb.crossing_change(6 * c + 4 * (k + 1) - 1)
    ell = len(tb.letters)  # 18k + 10, preserved from here on
    tb.conjugate(ell - (2 * k + 1))
    ones = ("run", (1,) * (2 * k + 1))
    _exchange(tb, 0, [ones], [("twist", 3)] * c + [("wrap", 2)] * k)
    _close_wrap_pairs(tb, 6 * c, k)
    tb.neighbor_braid(ell - 4)
    expect_word(tb, torus_braid(target.p, target.q).letters)
    return _certify(source, target, tb, 3 * k + 2)


def _three_from_four_8k7(k: int) -> AdjacencyCertificate:
    """T(4, 8k+7) → T(3, 9k+8) with 3k+2 crossing changes."""
    c = 2 * k + 1
    source = TorusParams(4, 8 * k + 7)
    target = TorusParams(3, 9 * k + 8)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    _drop_top_strand_rotated(tb, c)
    p_mid = 6 * (c + 1) + 1
    cascade_mirror(tb, p_mid, 2, k)
    tb.crossing_change(p_mid + 2 * k)
    expect_word(
        tb,
        full_twist_letters(3) * (c + 1) + (1,) * (2 * k + 3) + (2,) + wrap(2) * k,
    )
    ell = len(tb.letters)  # 18k + 16, preserved from here on
    _exchange(tb, 0, [("twist", 3)] * (c + 1), [("wrap", 1)] * k)
    tb.conjugate(2 * k)
    _close_wrap_pairs(tb, 6 * (c + 1) + 4, k)
    tb.conjugate(ell - 6 * k)
    big = 3 * k + 2
    _exchange(tb, 0, [("twist", 3)] * big, [("run", (1,))])
    tb.conjugate(1)
    tb.neighbor_braid(6 * big + 1)
    _exchange(tb, 0, [("twist", 3)] * big, [("run", (1, 2, 1))])
    tb.conjugate(3)
    expect_word(tb, torus_braid(target.p, target.q).letters)
    return _certify(source, target, tb, 3 * k + 2)


def _two_from_four_4k1(k: int) -> AdjacencyCertificate:
    """T(4, 4k+1) → T(2, 6k+3) with 3k−1 crossing changes."""
    source = TorusParams(4, 4 * k + 1)
    target = TorusParams(2, 6 * k + 3)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    _drop_top_strand(tb, k, 1)
    for t in range(k):
        tb.run(peel_prog(3), t * 6)
    arrange_blocks(
        tb,
        0,
        [("wrap", 2), ("wrap", 1)] * k + [("wrap", 2)] * k,
        [("wrap", 2), ("wrap", 1), ("wrap", 2)] * k,
    )
    # Adjacent sandwich blocks meet σ₂-to-σ₂ at their junctions.
    for t in range(k - 1, 0, -1):
        tb.crossing_change(10 * t - 1)
    tb.conjugate(1)
    tb.neighbor_braid(8 * k + 1)
    tb.neighbor_braid(8 * k)
    arrange_blocks(
        tb,
        0,
        [("wrap", 1), ("wrap", 2), ("wrap", 1)] * k,
        [("wrap", 1)] * k + [("wrap", 2)] * k + [("wrap", 1)] * k,
    )
    _exchange(tb, 2 * k, [("wrap", 2)] * k, [("run", (1,) * (2 * k + 1))])
    tb.conjugate(len(tb.letters) - 1)
    cascade(tb, 4 * k + 2, 2, k)
    tb.destabilize()
    expect_word(tb, (1,) * (6 * k + 3))
    return _certify(source, target, tb, 3 * k - 1)


def _two_from_four_4k3(k: int) -> AdjacencyCertificate:
    """T(4, 4k+3) → T(2, 6k+5) with 3k+1 crossing changes."""
    source = TorusParams(4, 4 * k + 3)
    target = TorusParams(2, 6 * k + 5)
    tb = TraceBuilder(torus_braid(source.p, source.q))
    _drop_top_strand_rotated(tb, k)
    for t in range(k + 1):
        tb.run(peel_prog(3), t * 6)
    _exchange(tb, 6 * k, [("wrap", 2)], [("run", (1, 1, 1))])
    tb.crossing_change(6 * k + 6)
    expect_word(tb, (wrap(2) + wrap(1)) * k + (1, 1, 1, 2, 1, 1) + wrap(2) * k)
    _exchange(tb, 6 * k + 4, [("run", (1, 1))], [("wrap", 2)] * k)
    tb.conjugate(len(tb.letters) - 2)
    _exchange(tb, 2, [("wrap", 2), ("wrap", 1)] * k, [("run", (1, 1, 1))])
    tb.conjugate(len(tb.letters) - 4 * k)
    _exchange(tb, 0, [("wrap", 2)] * k, [("run", (1,) * 5)])
    arrange_blocks(
        tb,
        5,
        [("wrap", 2)] * k + [("wrap", 2), ("wrap", 1)] * k,
        [("wrap", 2), ("wrap", 1), ("wrap", 2)] * k,
    )
    for t in range(k, 0, -1):
        tb.crossing_change(5 + 10 * t - 1)
    arrange_blocks(
        tb,
        6,
        [("wrap", 1), ("wrap", 2), ("wrap", 1)] * k,
        [("wrap", 2)] * k + [("wrap", 1)] * (2 * k),
    )
    cascade_mirror(tb, 5, 2, k)
    tb.destabilize()
    expect_word(tb, (1,) * (6 * k + 5))
    return _certify(source, target, tb, 3 * k + 1)


def adjacency_3_from_4(b: int) -> AdjacencyCertificate:
    """Certificate from T(4, b) to the largest constructible T(3, a), chosen
    by the residue of ``b`` modulo 8; requires odd ``b >= 9``."""
    if b % 2 == 0:
        raise DomainError(f"T(4, {b}) is a link; b must be odd")
    if b < 9:
        raise DomainError(f"b = {b} falls below the constructions' domain (b >= 9)")
    residue = b % 8
    if residue == 1:
        return adjacency_ci(3, (b - 1) // 8)
    if residue == 3:
        return adjacency_cin(3, (b - 3) // 8)
    if residue == 5:
        return _three_from_four_8k5((b - 5) // 8)
    return _three_from_four_8k7((b - 7) // 8)


def adjacency_2_from_4(b: int) -> AdjacencyCertificate:
    """Certificate from T(4, b) to the matching T(2, a), chosen by the residue
    of ``b`` modulo 4; requires odd ``b >= 5``."""
    if b % 2 == 0:
        raise DomainError(f"T(4, {b}) is a link; b must be odd")
    if b < 5:
        raise DomainError(f"b = {b} falls below the constructions' domain (b >= 5)")
    if b % 4 == 1:
        return _two_from_four_4k1((b - 1) // 4)
    return _two_from_four_4k3((b - 3) // 4)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CLAIMED = "claimed"
NOT_COVERED = "not-covered"


@dataclass(frozen=True)
class CatalogAnswer:
    """Catalog verdict: whether the queried adjacency is one this library
    claims, on what basis, and with what constructive evidence (a certificate
    when the pair matches an implemented family exactly, None when the claim
    rests on a cited inequality)."""

    verdict: str
    basis: str | None
    certificate: AdjacencyCertificate | None


def _normalize_params(params: TorusParams) -> TorusParams:
    p, q = params.p, params.q
    if math.gcd(p, q) != 1:
        raise DomainError(f"T({p}, {q}) is a link; the catalog covers knots only")
    if p > q:
        p, q = q, p
    if p == 1:
        return TorusParams(1, 1)  # every T(1, q) is the unknot
    return TorusParams(p, q)


def _exact_divisor(value: int, divisor: int) -> int | None:
    k, rem = divmod(value, divisor)
    return k if rem == 0 and k >= 1 else None


def adjacency_catalog(lower: TorusParams, upper: TorusParams) -> CatalogAnswer:
    """Answer whether T(lower) lies ``u(upper) − u(lower)`` crossing changes
    below T(upper), i.e. on a minimal unknotting sequence of it.

    Exact family matches come with a constructive certificate; claims resting
    on cited inequalities come as verdict-only; everything else is
    ``not-covered`` (which is *not* a refutation).
    """
    lo = _normalize_params(lower)
    hi = _normalize_params(upper)
    p1, q1 = lo.p, lo.q
    p2, q2 = hi.p, hi.q

    if (p1, q1) == (p2, q2):
        word = torus_braid(p2, q2)
        trace = RewriteTrace(word, (), word)
        cert = AdjacencyCertificate(hi, lo, trace, 0)
        return CatalogAnswer(CLAIMED, "equal-parameters", cert)

    if p1 == 1:
        tb_trace = unknot(torus_braid(p2, q2))
        cert = AdjacencyCertificate(hi, lo, tb_trace, tb_trace.crossing_changes)
        return CatalogAnswer(CLAIMED, "unknotting-sequence", cert)

    if p2 == p1 + 1:
        n = p1
        k = _exact_divisor(q1 - 1, n * n)
        if k is not None and q2 == (n * n - 1) * k + 1:
            return CatalogAnswer(CLAIMED, "square-plus-one-family", adjacency_ci(n, k))
        k = _exact_divisor(q1 - n - 1, n * n)
        if k is not None and q2 == (n * n - 1) * k + n:
            return CatalogAnswer(
                CLAIMED, "square-plus-n-plus-one-family", adjacency_cin(n, k)
            )

    if p1 == 3 and p2 == 4 and q2 % 2 == 1 and q2 >= 9:
        k, residue = divmod(q2, 8)
        expected = {1: 9 * k + 1, 3: 9 * k + 4, 5: 9 * k + 5, 7: 9 * k + 8}[residue]
        if q1 == expected:
            return CatalogAnswer(
                CLAIMED, "three-vs-four-strand-bound", adjacency_3_from_4(q2)
            )

    if p1 == 2 and p2 == 4 and q2 % 2 == 1 and q2 >= 5:
        k, residue = divmod(q2, 4)
        expected = 6 * k + 3 if residue == 1 else 6 * k + 5
        if q1 == expected:
            return CatalogAnswer(
                CLAIMED, "two-vs-four-strand-bound", adjacency_2_from_4(q2)
            )

    if p1 == p2 and q2 > q1 and (q2 - q1) % p1 == 0:
        tail = BraidWord(p1, descending_run(p1 - 1) * (q2 - q1))
        cert = delete_link_subword(torus_braid(p1, q1), tail)
        return CatalogAnswer(CLAIMED, "full-twist-deletion", cert)

    if p1 <= p2 and q1 <= q2:
        return CatalogAnswer(CLAIMED, "parameter-monotonicity", None)
    if p1 == 2 and p2 == 3 and 3 * q1 <= 4 * q2 + 1:
        return CatalogAnswer(CLAIMED, "two-vs-three-strand-bound", None)
    if p1 == 3 and p2 == 4 and 8 * q1 <= 9 * q2 + 5:
        return CatalogAnswer(CLAIMED, "three-vs-four-strand-bound", None)
    if p1 == 2 and p2 == 4 and 2 * q1 <= 3 * q2 + 3:
        return CatalogAnswer(CLAIMED, "two-vs-four-strand-bound", None)

    return CatalogAnswer(NOT_COVERED, None, None)
