"""Command-line front end.

Every capability is exposed as a subcommand with line-stable output suitable
for golden-file testing.  Exit codes: 0 success, 1 domain violation (the
message names the broken precondition, or a size too large to represent),
2 malformed input, 3 search or enumeration budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .adjacency import (
    adjacency_2_from_4,
    adjacency_3_from_4,
    adjacency_catalog,
    adjacency_ci,
    adjacency_cin,
    delete_link_subword,
    endpoint_word,
    format_endpoint,
    parse_certificate,
    serialize_certificate,
    strip_top_strand,
    verify_certificate,
)
from .alexander import alexander
from .enumeration import (
    enumerate_positive_knots,
    format_enumeration_report,
    positive_path_search,
)
from .errors import (
    BraidError,
    BudgetExceeded,
    NotFoundWithinBudget,
    ParseError,
    TraceCorrupt,
)
from .rules import next_line, parse_trace, replay, serialize_trace
from .unknotting import unknot
from .words import (
    TorusParams,
    closure_info,
    format_word,
    is_knot,
    parse_word,
    torus_braid,
    unknotting_number,
)

__all__ = ["main", "build_parser"]


def _print_err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write(path: str, what: str, text: str) -> None:
    """Write ``text`` to ``path`` and say so; an OSError reaches :func:`main`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{what} written: {path}")


def cmd_info(args) -> int:
    word = parse_word(args.word)
    info = closure_info(word)
    cycles = "".join("(" + " ".join(str(s) for s in cycle) + ")" for cycle in info.cycles)
    print(f"strands: {word.strands}")
    print(f"length: {word.length}")
    print(f"cycles: {cycles}")
    print(f"components: {info.components}")
    print(f"knot: {'yes' if info.is_knot else 'no'}")
    u_text = str(unknotting_number(word)) if info.is_knot else "-"
    print(f"unknotting_number: {u_text}")
    return 0


def cmd_torus(args) -> int:
    print(format_word(torus_braid(args.p, args.q)))
    return 0


def cmd_unknot(args) -> int:
    word = parse_word(args.word)
    trace = unknot(word)
    print(f"crossing_changes: {trace.crossing_changes}")
    if args.trace:
        _write(args.trace, "trace", serialize_trace(trace))
    return 0


def cmd_alexander(args) -> int:
    print(str(alexander(parse_word(args.word))))
    return 0


def _emit_certificate(cert, out_path: str | None, no_verify: bool) -> int:
    check = None if no_verify else verify_certificate(cert)
    source = endpoint_word(cert.source)
    target = endpoint_word(cert.target)
    print(f"source: {format_endpoint(cert.source)}")
    print(f"target: {format_endpoint(cert.target)}")
    if is_knot(source) and is_knot(target):
        gap = unknotting_number(source) - unknotting_number(target)
        print(f"u_gap: {gap}")
    else:
        print("u_gap: -")
    print(f"crossing_changes: {cert.claimed_cc}")
    print(f"verification: {'skipped' if check is None else check.summary()}")
    if out_path:
        _write(out_path, "certificate", serialize_certificate(cert, check))
    return 0 if check is None or check.valid else 1


def cmd_adjacency(args) -> int:
    if args.family == "ci":
        cert = adjacency_ci(args.n, args.k)
    elif args.family == "cin":
        cert = adjacency_cin(args.n, args.k)
    elif args.family == "t34":
        cert = adjacency_3_from_4(args.b)
    elif args.family == "t24":
        cert = adjacency_2_from_4(args.b)
    elif args.family == "strip":
        cert = strip_top_strand(TorusParams(args.p, args.q))
    else:  # delete-subword
        cert = delete_link_subword(parse_word(args.word), parse_word(args.w))
    return _emit_certificate(cert, args.out, args.no_verify)


def cmd_catalog(args) -> int:
    answer = adjacency_catalog(TorusParams(args.p1, args.q1), TorusParams(args.p2, args.q2))
    print(f"verdict: {answer.verdict}")
    print(f"basis: {answer.basis if answer.basis is not None else 'none'}")
    print(f"certificate: {'available' if answer.certificate is not None else 'none'}")
    if args.out and answer.certificate is not None:
        check = verify_certificate(answer.certificate)
        _write(args.out, "certificate", serialize_certificate(answer.certificate, check))
    return 0


def cmd_enumerate(args) -> int:
    result = enumerate_positive_knots(args.m, budget=args.budget)
    print(format_enumeration_report(result), end="")
    return 0


def cmd_search(args) -> int:
    source = parse_word(args.source)
    target = parse_word(args.target)
    trace = positive_path_search(source, target, max_nodes=args.nodes, max_depth=args.depth)
    print(f"steps: {trace.step_count}")
    print(f"crossing_changes: {trace.crossing_changes}")
    if args.trace:
        _write(args.trace, "trace", serialize_trace(trace))
    return 0


def _where(step_index: int, trace) -> str:
    """Name a replay failure: a step, or the final word when every step held."""
    return "final" if step_index == trace.step_count else f"step {step_index}"


def cmd_verify(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.file} is not UTF-8 text: {exc}") from None
    if next_line(text)[0] == "certificate":
        cert = parse_certificate(text)
        check = verify_certificate(cert)
        if check.valid:
            print("certificate: valid")
            return 0
        failed = [] if check.replay_ok else [f"replay at {_where(check.failed_step, cert.trace)}"]
        failed += [
            name
            for name, flag in (
                ("source", check.source_match),
                ("strands", check.strands_match),
                ("length", check.length_match),
                ("alexander", check.alexander_match),
                ("crossing-changes", check.cc_match),
            )
            if flag is False
        ]
        print(f"certificate: invalid ({', '.join(failed)})")
        return 1
    trace = parse_trace(text)
    try:
        replay(trace)
    except TraceCorrupt as exc:
        print(f"trace: invalid at {_where(exc.step_index, trace)}: {exc}")
        return 1
    print(f"trace: valid ({trace.step_count} steps, {trace.crossing_changes} crossing changes)")
    return 0


def _budget(text: str) -> int:
    """Argument type of the budget flags: an integer, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget cannot be negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, exit code 2."""

    def error(self, message: str):
        _print_err(f"{self.prog}: {message}")
        self.exit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(
        prog="gordian",
        description=(
            "Rewrite positive braid words with five traceable rules; "
            "produce and check unknotting and adjacency certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="closure facts for a braid word")
    p.add_argument("word", help="braid word, e.g. '3: 1 2 1'")
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("torus", help="print the torus braid word T(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=cmd_torus)

    p = sub.add_parser("unknot", help="rewrite a knot word to the empty word")
    p.add_argument("word")
    p.add_argument("--trace", metavar="FILE", help="write the full trace here")
    p.set_defaults(handler=cmd_unknot)

    p = sub.add_parser("alexander", help="Alexander polynomial of the closure")
    p.add_argument("word")
    p.set_defaults(handler=cmd_alexander)

    adj = sub.add_parser("adjacency", help="build an adjacency certificate")
    adj_sub = adj.add_subparsers(dest="family", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write the certificate here")
    common.add_argument(
        "--no-verify", action="store_true", help="skip verification after emission"
    )
    p = adj_sub.add_parser("ci", parents=[common], help="T(n+1, (n²−1)k+1) → T(n, n²k+1)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p = adj_sub.add_parser("cin", parents=[common], help="T(n+1, (n²−1)k+n) → T(n, n²k+n+1)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p = adj_sub.add_parser("t34", parents=[common], help="T(4, b) → best T(3, a)")
    p.add_argument("b", type=int)
    p = adj_sub.add_parser("t24", parents=[common], help="T(4, b) → matching T(2, a)")
    p.add_argument("b", type=int)
    p = adj_sub.add_parser("strip", parents=[common], help="drop the top strand of T(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p = adj_sub.add_parser(
        "delete-subword", parents=[common], help="delete an identity-permutation tail"
    )
    p.add_argument("word", help="the retained word β′")
    p.add_argument("w", help="the tail to delete")
    adj.set_defaults(handler=cmd_adjacency)

    p = sub.add_parser("catalog", help="is T(p1,q1) on a minimal unknotting sequence of T(p2,q2)?")
    p.add_argument("p1", type=int)
    p.add_argument("q1", type=int)
    p.add_argument("p2", type=int)
    p.add_argument("q2", type=int)
    p.add_argument("--out", metavar="FILE", help="write the certificate here when one exists")
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("enumerate", help="all positive braid knots of unknotting number m")
    p.add_argument("m", type=int)
    p.add_argument("--budget", type=_budget, default=1_000_000, help="least-rotation word budget")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("search", help="breadth-first path search between two knot words")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--nodes", type=_budget, default=50000, help="state expansion budget")
    p.add_argument("--depth", type=_budget, default=16, help="depth budget")
    p.add_argument("--trace", metavar="FILE", help="write the found trace here")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("verify", help="replay and validate a trace or certificate file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        _print_err(str(exc))
        return 2
    except OSError as exc:
        _print_err(str(exc))
        return 2
    except (NotFoundWithinBudget, BudgetExceeded) as exc:
        _print_err(str(exc))
        return 3
    except BraidError as exc:
        _print_err(str(exc))
        return 1
    except (OverflowError, MemoryError) as exc:
        _print_err(f"too large to represent: {str(exc) or 'out of memory'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
