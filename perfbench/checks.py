"""Independent checks of what the gordian CLI prints.

Every expected value is worked out here from first principles: torus-knot
formulas, the benchmark's own permutation cycle count, and its own integer
polynomial arithmetic.  Nothing is compared against a stored copy of earlier
output.  The checks read only CLI stdout and exit codes, never the body of a
trace or certificate file, so a new trace text format keeps passing.

Polynomials are coefficient lists, lowest degree first.
"""

from __future__ import annotations

import re

# The positive-braid-knot Alexander polynomials of unknotting number 0, 1, 2:
# the unknot; the trefoil T(2,3); T(2,5) and the granny knot T(2,3)#T(2,3).
CENSUS_ALEXANDER = {
    0: [[1]],
    1: [[1, -1, 1]],
    2: [[1, -1, 1, -1, 1], [1, -2, 3, -2, 1]],
}


class CheckFailed(Exception):
    """An output disagrees with an independently computed fact."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# braid words
# ---------------------------------------------------------------------------


def format_word(strands: int, letters) -> str:
    """The CLI's word syntax, ``"n: i1 i2 …"``."""
    return f"{strands}: " + " ".join(map(str, letters)) if letters else f"{strands}:"


def read_word(text: str) -> tuple[int, list[int]]:
    head, _, tail = text.partition(":")
    return int(head), [int(piece) for piece in tail.split()]


def cycle_count(strands: int, letters) -> int:
    """Number of cycles of the permutation that the letters induce."""
    image = list(range(strands))
    for letter in letters:
        image[letter - 1], image[letter] = image[letter], image[letter - 1]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            point = start
            while not seen[point]:
                seen[point] = True
                point = image[point]
    return cycles


def knot_u(strands: int, letters) -> int:
    """``(length − strands + 1) / 2``, the unknotting number of a positive braid knot."""
    expect(cycle_count(strands, letters) == 1, f"{format_word(strands, letters)} is not a knot")
    return (len(letters) - strands + 1) // 2


def torus_letters(p: int, q: int) -> list[int]:
    return list(range(p - 1, 0, -1)) * q


def torus_u(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials whose divisor has leading coefficient ±1."""
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        factor = rem[shift + len(den) - 1] // den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    expect(not any(rem), "polynomial division left a remainder")
    return quot


def torus_alexander(p: int, q: int) -> list[int]:
    """``(t^pq − 1)(t − 1) / ((t^p − 1)(t^q − 1))`` with a positive constant term."""

    def t_minus_1(k: int) -> list[int]:
        return [-1] + [0] * (k - 1) + [1]

    poly = poly_div_exact(
        poly_mul(t_minus_1(p * q), t_minus_1(1)), poly_mul(t_minus_1(p), t_minus_1(q))
    )
    return poly if poly[0] > 0 else [-c for c in poly]


_CONSTANT = re.compile(r"\d+")
_POWER = re.compile(r"(?:(\d+)\*)?t(?:\^(\d+))?")


def read_poly(text: str) -> list[int]:
    """Read the CLI's polynomial syntax, e.g. ``1 - 2*t + 3*t^2``."""
    flat = text.replace(" ", "")
    if not flat.startswith(("+", "-")):
        flat = "+" + flat
    terms = re.findall(r"[+-][^+-]+", flat)
    expect("".join(terms) == flat and bool(terms), f"unreadable polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term[1:]
        if _CONSTANT.fullmatch(body):
            exponent, magnitude = 0, int(body)
        else:
            match = _POWER.fullmatch(body)
            expect(match is not None, f"unreadable polynomial term {term!r} in {text!r}")
            magnitude = int(match[1]) if match[1] else 1
            exponent = int(match[2]) if match[2] else 1
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * magnitude
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def check_knot_alexander(coeffs: list[int], u: int) -> None:
    """Δ of a positive braid knot: degree 2u, monic at both ends, palindromic, Δ(1) = ±1."""
    expect(len(coeffs) - 1 == 2 * u, f"Alexander degree {len(coeffs) - 1}, expected 2u = {2 * u}")
    expect(coeffs[0] == 1 and abs(coeffs[-1]) == 1, f"Alexander {coeffs} is not monic")
    expect(coeffs == coeffs[::-1], f"Alexander {coeffs} is not palindromic")
    expect(abs(sum(coeffs)) == 1, f"Alexander {coeffs} has Δ(1) = {sum(coeffs)}")


# ---------------------------------------------------------------------------
# CLI stdout
# ---------------------------------------------------------------------------


def fields(stdout: str) -> dict[str, str]:
    """``key: value`` lines of a CLI report (the first occurrence of each key)."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key.strip()] = value.strip()
    return out


def check_info(stdout: str, strands: int, letters) -> None:
    f = fields(stdout)
    expect(f.get("strands") == str(strands), f"info strands {f.get('strands')!r}")
    expect(f.get("length") == str(len(letters)), f"info length {f.get('length')!r}")
    expect(f.get("components") == str(cycle_count(strands, letters)), "info components")
    expect(f.get("components") == "1" and f.get("knot") == "yes", "info: not a knot")
    expect(
        f.get("unknotting_number") == str(knot_u(strands, letters)),
        f"info unknotting_number {f.get('unknotting_number')!r}",
    )


def check_alexander(stdout: str, strands: int, letters, torus: tuple[int, int] | None) -> None:
    coeffs = read_poly(stdout.strip())
    check_knot_alexander(coeffs, knot_u(strands, letters))
    if torus is not None:
        expect(coeffs == torus_alexander(*torus), f"Alexander of T{torus} is {coeffs}")


def check_unknot(stdout: str, u: int) -> None:
    f = fields(stdout)
    expect(f.get("crossing_changes") == str(u), f"unknot spent {f.get('crossing_changes')!r}, u = {u}")
    expect("trace written" in f, "unknot wrote no trace")


def check_trace_valid(stdout: str, steps: str | None, crossing_changes: int) -> None:
    match = re.fullmatch(r"trace: valid \((\d+) steps, (\d+) crossing changes\)", stdout.strip())
    expect(match is not None, f"verify: {stdout.strip()!r}")
    expect(steps is None or match[1] == steps, f"verify replayed {match[1]} steps, search made {steps}")
    expect(int(match[2]) == crossing_changes, f"verify counted {match[2]} crossing changes")


def check_certificate(stdout: str, source: str, target, cc: int) -> None:
    """``adjacency … --out``: endpoints, accounting and the write-time verification.

    ``target`` is the expected endpoint text, or a callable that checks it.
    """
    f = fields(stdout)
    expect(f.get("source") == source, f"source {f.get('source')!r}, expected {source!r}")
    if callable(target):
        target(f.get("target", ""))
    else:
        expect(f.get("target") == target, f"target {f.get('target')!r}, expected {target!r}")
    expect(f.get("u_gap") == str(cc), f"u_gap {f.get('u_gap')!r}, expected {cc}")
    expect(f.get("crossing_changes") == str(cc), f"crossing_changes {f.get('crossing_changes')!r}")
    expect(
        f.get("verification") == "strands=match length=match alexander=match",
        f"verification {f.get('verification')!r}",
    )
    expect("certificate written" in f, "no certificate written")


def check_catalog(stdout: str) -> None:
    f = fields(stdout)
    expect(f.get("verdict") == "claimed", f"verdict {f.get('verdict')!r}")
    expect(f.get("certificate") == "available", f"certificate {f.get('certificate')!r}")
    expect("certificate written" in f, "no certificate written")


def check_certificate_valid(stdout: str) -> None:
    expect(stdout.strip() == "certificate: valid", f"verify: {stdout.strip()!r}")


def check_certificate_invalid(stdout: str) -> None:
    expect(stdout.startswith("certificate: invalid ("), f"tampered copy: {stdout.strip()!r}")


def census_classes(stdout: str) -> list[dict[str, str]]:
    """The class blocks of an ``enumerate`` report."""
    classes: list[dict[str, str]] = []
    for line in stdout.splitlines():
        if re.fullmatch(r"class \d+", line):
            classes.append({})
        elif classes and line.startswith("  "):
            key, _, value = line.strip().partition(": ")
            classes[-1].setdefault(key, value)
    return classes


def check_census(stdout: str, m: int) -> None:
    f = fields(stdout)
    classes = census_classes(stdout)
    expected = CENSUS_ALEXANDER[m]
    expect(f.get("classes") == str(len(expected)), f"{f.get('classes')!r} classes for u = {m}")
    expect(len(classes) == len(expected), f"{len(classes)} class blocks for u = {m}")
    for key in ("words examined", "knot words", "distinct forms"):
        expect(f.get(key, "").isdigit(), f"census counter {key!r} missing")
    found = sorted(read_poly(c.get("alexander", "")) for c in classes)
    expect(found == sorted(expected), f"census u = {m} polynomials {found}")
    for c in classes:
        expect(c.get("merged") == "no", f"class {c.get('representative')!r} is merged")
        expect(c.get("unknotting number") == str(m), f"class u {c.get('unknotting number')!r}")
        strands, letters = read_word(c.get("representative", "0:"))
        expect(knot_u(strands, letters) == m, f"representative {c['representative']!r} has u != {m}")
        expect(c.get("strands") == str(strands), "class strands disagree with the representative")


def check_search(stdout: str, crossing_changes: int) -> None:
    f = fields(stdout)
    expect(
        f.get("crossing_changes") == str(crossing_changes),
        f"search spent {f.get('crossing_changes')!r}, expected {crossing_changes}",
    )
    expect(f.get("steps", "").isdigit() and int(f["steps"]) >= crossing_changes, "search steps")
    expect("trace written" in f, "search wrote no trace")
