"""Command-line surface: outputs, file emission, exit codes."""

import hashlib
import re
import time
from pathlib import Path

import pytest

from gordian import (
    NEIGHBOR_BRAID,
    BraidWord,
    RewriteTrace,
    TraceBuilder,
    adjacency_ci,
    parse_certificate,
    parse_trace,
    parse_word,
    serialize_certificate,
    serialize_trace,
    torus_braid,
    verify_certificate,
)
from gordian.cli import main
from gordian.words import ascending_run, descending_run, format_word
from test_adjacency import step_lines

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_knot_word(self, capsys):
        code, out, _ = run(capsys, "info", "2: 1 1 1")
        assert code == 0
        assert out.splitlines() == [
            "strands: 2",
            "length: 3",
            "cycles: (1 2)",
            "components: 1",
            "knot: yes",
            "unknotting_number: 1",
        ]

    def test_link_word(self, capsys):
        code, out, _ = run(capsys, "info", "2: 1 1")
        assert code == 0
        lines = out.splitlines()
        assert "knot: no" in lines
        assert "unknotting_number: -" in lines

    def test_malformed_word(self, capsys):
        code, _, err = run(capsys, "info", "2: 1 x")
        assert code == 2
        assert err.startswith("error:")


class TestTorusAndAlexander:
    def test_torus(self, capsys):
        code, out, _ = run(capsys, "torus", "3", "4")
        assert code == 0
        assert out == "3: 2 1 2 1 2 1 2 1\n"

    def test_torus_rejects_nonpositive(self, capsys):
        code, _, err = run(capsys, "torus", "0", "4")
        assert code == 1
        assert err.startswith("error:")

    def test_alexander(self, capsys):
        code, out, _ = run(capsys, "alexander", "2: 1 1 1")
        assert code == 0
        assert out == "1 - t + t^2\n"


class TestUnknot:
    def test_counts_changes(self, capsys):
        code, out, _ = run(capsys, "unknot", "2: 1 1 1 1 1")
        assert code == 0
        assert out.splitlines()[0] == "crossing_changes: 2"

    def test_trace_file_round_trips_through_verify(self, capsys, tmp_path):
        path = tmp_path / "trefoil.trace"
        code, out, _ = run(capsys, "unknot", "2: 1 1 1", "--trace", str(path))
        assert code == 0
        assert f"trace written: {path}" in out
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.startswith("trace: valid")

    def test_options_do_not_leak_between_calls(self, capsys, tmp_path):
        path = tmp_path / "first.trace"
        code, out, _ = run(capsys, "unknot", "2: 1 1 1", "--trace", str(path))
        assert code == 0
        assert f"trace written: {path}" in out
        path.unlink()
        code, out, _ = run(capsys, "unknot", "3: 2 1 2 1 2 1 2 1")
        assert (code, out) == (0, "crossing_changes: 3\n")
        assert not path.exists()

    def test_split_link_blocked(self, capsys):
        code, _, err = run(capsys, "unknot", "3: 1")
        assert code == 1
        assert "free" in err

    def test_knot_word_on_1201_strands(self, capsys, tmp_path):
        # σ_m R_m A_m R_{m-1}: its reduction nests m levels deep
        m = 1200
        letters = (m,) + descending_run(m) + ascending_run(m) + descending_run(m - 1)
        word = format_word(BraidWord(m + 1, letters))
        path = tmp_path / "deep.trace"
        code, out, err = run(capsys, "unknot", word, "--trace", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"crossing_changes: {m}"
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == (0, f"trace: valid ({2 * m} steps, {m} crossing changes)\n")


class TestAdjacency:
    def test_ci_emission(self, capsys):
        code, out, _ = run(capsys, "adjacency", "ci", "2", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "source: torus 3 4"
        assert lines[1] == "target: torus 2 5"
        assert lines[2] == "u_gap: 1"
        assert lines[3] == "crossing_changes: 1"
        assert lines[4] == "verification: strands=match length=match alexander=match"

    def test_no_verify_flag(self, capsys):
        code, out, _ = run(capsys, "adjacency", "t24", "5", "--no-verify")
        assert code == 0
        assert "verification: skipped" in out

    def test_certificate_file_verifies(self, capsys, tmp_path):
        path = tmp_path / "cin21.cert"
        code, out, _ = run(capsys, "adjacency", "cin", "2", "1", "--out", str(path))
        assert code == 0
        assert f"certificate written: {path}" in out
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out == "certificate: valid\n"

    def test_tampered_certificate_detected(self, capsys, tmp_path):
        path = tmp_path / "ci21.cert"
        run(capsys, "adjacency", "ci", "2", "1", "--out", str(path))
        text = path.read_text()
        path.write_text(text.replace("claimed_cc: 1", "claimed_cc: 2"))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.startswith("certificate: invalid")
        assert "crossing-changes" in out

    def test_delete_subword(self, capsys):
        code, out, _ = run(
            capsys, "adjacency", "delete-subword", "2: 1 1 1", "2: 1 1"
        )
        assert code == 0
        assert "crossing_changes: 1" in out

    def test_domain_violation(self, capsys):
        code, _, err = run(capsys, "adjacency", "t34", "8")
        assert code == 1
        assert err.startswith("error:")

    def test_strip(self, capsys):
        code, out, _ = run(capsys, "adjacency", "strip", "3", "7")
        assert code == 0
        assert "source: torus 3 7" in out
        assert "crossing_changes: 2" in out

    # Frozen outputs: every residue of the 3-from-4 family, both residues of
    # the 2-from-4 family, both parametric families, a strip and a deletion.
    # The k = 2 members of the congruence families run every per-twist loop
    # more than once, and strip 5 13 (remainder 3) is the one strip that
    # gathers an ascending block ahead of the wraps.
    @pytest.mark.parametrize(
        "name, args",
        [
            ("t34_9", ["t34", "9"]),
            ("t34_11", ["t34", "11"]),
            ("t34_13", ["t34", "13"]),
            ("t34_15", ["t34", "15"]),
            ("t24_5", ["t24", "5"]),
            ("t24_7", ["t24", "7"]),
            ("ci_2_2", ["ci", "2", "2"]),
            ("cin_2_2", ["cin", "2", "2"]),
            ("cin_3_1", ["cin", "3", "1"]),
            ("strip_3_7", ["strip", "3", "7"]),
            ("delete_t35", ["delete-subword", "3: 2 1 2 1 2 1 2 1", "3: 2 1 2 1 2 1"]),
            ("t34_21", ["t34", "21"]),
            ("t34_23", ["t34", "23"]),
            ("t24_9", ["t24", "9"]),
            ("t24_11", ["t24", "11"]),
            ("strip_5_13", ["strip", "5", "13"]),
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, monkeypatch, name, args):
        monkeypatch.chdir(tmp_path)
        cert = f"adjacency_{name}.cert"
        code, out, err = run(capsys, "adjacency", *args, "--out", cert)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"adjacency_{name}.out").read_text(encoding="utf-8")
        assert (tmp_path / cert).read_bytes() == (GOLDEN / cert).read_bytes()

    def test_t34_513_certificate_is_compact_and_lists_no_steps(self, capsys, tmp_path, monkeypatch):
        """T(4,513) → T(3,577) has 273 538 steps; its version-4 text stays
        under 100 000 bytes, neither writing nor verifying it lists the steps
        one by one, and the steps it reads back are the frozen ones."""

        def refuse(trace):
            raise AssertionError("the steps were listed")

        monkeypatch.setattr(RewriteTrace, "steps", property(refuse))
        path = tmp_path / "t34_513.cert"
        code, out, err = run(capsys, "adjacency", "t34", "513", "--out", str(path))
        assert (code, err) == (0, "") and "verification: strands=match" in out
        assert path.stat().st_size <= 100_000
        assert run(capsys, "verify", str(path)) == (0, "certificate: valid\n", "")
        monkeypatch.undo()
        trace = parse_certificate(path.read_text()).trace
        assert (trace.step_count, hashlib.sha256(step_lines(trace)).hexdigest()) == (
            273538,
            "71f462b0dc67e22752c2acda79e9858adf5a5a8abbdc7f05c3d8a34eedb97624",
        )

    def test_version_3_certificate_still_verifies(self, capsys):
        """A certificate written before version 4 verifies, and reads as the
        same steps as the version-4 golden of the same member."""
        v3 = GOLDEN / "adjacency_t34_9_v3.cert"
        assert "trace v3" in v3.read_text() and "program 0" not in v3.read_text()
        assert run(capsys, "verify", str(v3)) == (0, "certificate: valid\n", "")
        old = parse_certificate(v3.read_text())
        new = parse_certificate((GOLDEN / "adjacency_t34_9.cert").read_text())
        assert old == new and old.trace.steps == new.trace.steps
        assert verify_certificate(old).valid


class TestCatalog:
    def test_family_hit_offers_certificate(self, capsys, tmp_path):
        path = tmp_path / "catalog.cert"
        code, out, _ = run(capsys, "catalog", "2", "5", "3", "4", "--out", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: claimed"
        assert lines[1] == "basis: square-plus-one-family"
        assert lines[2] == "certificate: available"
        assert path.exists()
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_inequality_only(self, capsys):
        code, out, _ = run(capsys, "catalog", "2", "5", "3", "7")
        assert code == 0
        assert "verdict: claimed" in out
        assert "basis: parameter-monotonicity" in out
        assert "certificate: none" in out

    def test_not_covered(self, capsys):
        code, out, _ = run(capsys, "catalog", "3", "100", "4", "5")
        assert code == 0
        assert "verdict: not-covered" in out

    def test_link_parameters(self, capsys):
        code, _, err = run(capsys, "catalog", "2", "4", "3", "4")
        assert code == 1
        assert err.startswith("error:")


class TestEnumerate:
    def test_m1_report(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "positive braid knot enumeration"
        assert "classes: 1" in lines
        assert "  representative: 2: 1 1 1" in lines
        assert lines[-1] == "end"

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "2", "--budget", "100")
        assert code == 3
        assert err.startswith("error:")

    def test_negative_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "1", "--budget", "-5")
        assert (code, out) == (2, "")
        assert err == (
            "error: gordian enumerate: argument --budget: a budget cannot be negative, got -5\n"
        )

    def test_zero_budget_is_a_budget(self, capsys):
        code, _, err = run(capsys, "enumerate", "1", "--budget", "0")
        assert code == 3
        assert err.startswith("error: enumeration budget of 0 words exhausted")

    def test_large_m_stops_at_its_budget(self, capsys):
        # Words of 1 201 letters and more: the walk keeps no recursion depth
        # per letter, and closing the orbit of a long word costs O(L²) per member.
        start = time.perf_counter()
        code, _, err = run(capsys, "enumerate", "600", "--budget", "10")
        assert time.perf_counter() - start < 30
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error: enumeration budget of 10 words exhausted")


class TestSearch:
    def test_finds_path(self, capsys, tmp_path):
        path = tmp_path / "path.trace"
        code, out, _ = run(
            capsys, "search", "3: 2 1 2 1 2 1 2 1", "2: 1 1 1 1 1", "--trace", str(path)
        )
        assert code == 0
        assert "crossing_changes: 1" in out
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_budget_exhaustion(self, capsys):
        code, _, err = run(capsys, "search", "3: 2 1 2 1 2 1 2 1 2 1", "1:", "--nodes", "5")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag, value", [("--nodes", "-1"), ("--depth", "-3")])
    def test_negative_budget_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "search", "2: 1 1 1", "2: 1", flag, value)
        assert (code, out) == (2, "")
        assert err == (
            f"error: gordian search: argument {flag}: a budget cannot be negative, got {value}\n"
        )

    def test_zero_budgets_are_budgets(self, capsys):
        code, out, _ = run(capsys, "search", "2: 1 1 1", "2: 1 1 1", "--nodes", "0", "--depth", "0")
        assert code == 0
        assert "steps: 0" in out
        code, _, err = run(capsys, "search", "2: 1 1 1", "2: 1", "--depth", "0")
        assert code == 3
        assert err.startswith("error: no path found within depth 0")

    # Frozen outputs: the README example T(3,4) → T(2,5), T(3,7) → T(2,7),
    # and a 4-strand, 21-letter word one crossing change above its target.
    @pytest.mark.parametrize(
        "name, source, target",
        [
            ("search_t34_t25", "3: 2 1 2 1 2 1 2 1", "2: 1 1 1 1 1"),
            ("search_t37_t27", format_word(torus_braid(3, 7)), format_word(torus_braid(2, 7))),
            (
                "search_4x21",
                "4: 1 3 2 3 2 3 2 1 3 2 3 1 2 1 2 3 2 3 2 1 3",
                "4: 3 3 2 3 2 3 2 1 3 2 3 1 2 1 2 3 2 3 2",
            ),
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, monkeypatch, name, source, target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", source, target, "--trace", "search.trace")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        assert (tmp_path / "search.trace").read_bytes() == (GOLDEN / f"{name}.trace").read_bytes()

    def test_hard_pair_fails_within_default_budgets(self, capsys):
        """T(4,5) → T(2,7) has a positive path, but not within depth 16."""
        source, target = format_word(torus_braid(4, 5)), format_word(torus_braid(2, 7))
        code, out, err = run(capsys, "search", source, target)
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: no path found within depth 16 and 50000 states"]


def v2_text(trace) -> str:
    """The trace in the retired version-2 syntax: a ``trace v2`` header and
    the direction its triple shows after every braid line."""
    lines = serialize_trace(trace).splitlines()
    steps = iter(zip(trace.steps, trace.words))
    for index, line in enumerate(lines):
        if line.startswith("step:"):
            step, word = next(steps)
            if step.kind == NEIGHBOR_BRAID:
                a, b = word.letters[step.position : step.position + 2]
                lines[index] += " direction=" + ("forward" if b > a else "backward")
    return "\n".join(["trace v2", *lines[1:]]) + "\n"


def v1_text(trace) -> str:
    """The trace in the retired version-1 syntax: a bare ``trace`` header and
    ``-> word`` after every step line, with no ``final:`` line."""
    v2 = v2_text(trace).splitlines()
    steps = [line for line in v2 if line.startswith("step:")]
    body = [f"{line} -> {format_word(word)}" for line, word in zip(steps, trace.words[1:])]
    return "\n".join(["trace", v2[1], *body, v2[-2], "end"]) + "\n"


def edit_line(path, startswith: str, edit) -> None:
    """Rewrite the first line of the file that starts with ``startswith``."""
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(startswith))
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def assert_one_line_error(capsys, path, message: str) -> None:
    """``gordian verify path`` exits 2 with one ``error:`` line naming ``message``."""
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


# Program 0 swaps the σ_1 σ_3 pair at its offset; four runs at stride 2
# turn the initial word into the final one.
V4_TRACE = "trace v4\ninitial: 4: 1 3 1 3 1 3 1 3\n{}\nfinal: 4: 3 1 3 1 3 1 3 1\ncrossing_changes: 0\nend\n"
V4_PROGRAM = "program 0\nstep: distant-swap pos=0\nend program\n"


class TestVerify:
    @pytest.mark.parametrize("embedded", [False, True], ids=["trace", "certificate"])
    def test_version_1_text_exits_2(self, capsys, tmp_path, embedded):
        """Both retired versions, 1 and 2, are malformed text."""
        cert = adjacency_ci(2, 1)
        assert "direction=backward" in v2_text(cert.trace)
        for text in v1_text(cert.trace), v2_text(cert.trace):
            if embedded:
                header = serialize_certificate(cert).partition("trace v4")[0]
                text = header + text + "end\n"
            path = tmp_path / "old.txt"
            path.write_text(text)
            assert_one_line_error(capsys, path, "trace text must start with a 'trace v4' or 'trace v3' line")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("run 1 at=0", "run of undefined program 1"),
            (V4_PROGRAM + "program 0\nstep: distant-swap pos=1\nend program\nrun 0 at=0", "defined twice"),
            ("program 0\nprogram 1\nend program\nend program", "program 1 starts inside program 0"),
            ("program 0\nstep: distant-swap pos=0", "program 0 has no 'end program' line"),
            ("program 0\nstep: distant-swap pos=0\nrun 0 at=0\nend program", "run line inside program 0"),
            (V4_PROGRAM + "run 0 at=0 times=0 shift=2", "at least once"),
            (V4_PROGRAM + "run 0 at=0 times=-3 shift=2", "at least once"),
            (V4_PROGRAM + f"run 0 at=0 times={10**18} shift=2", "steps"),
        ],
        ids=[
            "undefined", "redefined", "nested", "unterminated", "run-inside", "times-0", "times-negative", "cap"
        ],
    )
    def test_malformed_version_4_exits_2(self, capsys, tmp_path, body, message):
        path = tmp_path / "malformed.trace"
        path.write_text(V4_TRACE.format(body))
        started = time.perf_counter()
        assert_one_line_error(capsys, path, message)
        assert time.perf_counter() - started < 1

    def test_a_sparse_program_run_many_times_verifies_fast(self, capsys, tmp_path):
        # Two swaps 49 998 letters apart, run 25 000 times at stride 2 on a
        # word of 100 000 letters: a run costs its two steps, not the width
        # of the letters between them.
        half = 24_999
        initial = " ".join(["1 3"] * (2 * half + 2))
        final = " ".join((["3 1"] * half + ["1 3"]) * 2)
        program = "program 0\nstep: distant-swap pos=0\nstep: distant-swap pos=49998\nend program\n"
        path = tmp_path / "sparse.trace"
        path.write_text(
            f"trace v4\ninitial: 4: {initial}\n{program}run 0 at=0 times={half + 1} shift=2\n"
            f"final: 4: {final}\ncrossing_changes: 0\nend\n"
        )
        started = time.perf_counter()
        assert run(capsys, "verify", str(path)) == (0, "trace: valid (50000 steps, 0 crossing changes)\n", "")
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize(
        "run_line, where",
        [("run 0 at=7 times=4 shift=2", "step 0"), ("run 0 at=0 times=4 shift=1", "step 1")],
        ids=["at", "shift"],
    )
    def test_wrong_offset_fails_replay_at_its_flat_index(self, capsys, tmp_path, run_line, where):
        path = tmp_path / "moved.trace"
        path.write_text(V4_TRACE.format(V4_PROGRAM + run_line))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (1, "")
        assert out.startswith(f"trace: invalid at {where}: ")
        path.write_text(V4_TRACE.format(V4_PROGRAM + "run 0 at=0 times=4 shift=2"))
        assert run(capsys, "verify", str(path)) == (0, "trace: valid (4 steps, 0 crossing changes)\n", "")

    @pytest.mark.parametrize("embedded", [False, True], ids=["trace", "certificate"])
    def test_repeated_step_parameter_exits_2(self, capsys, tmp_path, embedded):
        path = tmp_path / "repeated.txt"
        if embedded:
            run(capsys, "adjacency", "ci", "2", "1", "--out", str(path))
            edit_line(path, "step: crossing-change", lambda line: line.replace("pos=", "pos=0 pos="))
        else:
            tb = TraceBuilder(parse_word("3: 1 1 1"))
            tb.crossing_change(0)
            path.write_text(serialize_trace(tb.snapshot()).replace("pos=0", "pos=2 pos=0"))
        assert_one_line_error(capsys, path, "repeated 'pos' parameter")

    def test_corrupt_v2_step_names_step(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        run(capsys, "unknot", "2: 1 1 1 1 1", "--trace", str(bad))
        edit_line(bad, "step: crossing-change pos=1", lambda line: "step: crossing-change pos=3")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert out.startswith("trace: invalid at step 1")

    def test_wrong_v2_final_names_final(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        run(capsys, "unknot", "2: 1 1 1", "--trace", str(bad))
        edit_line(bad, "final:", lambda line: "final: 2: 1")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert out.startswith("trace: invalid at final")

    @pytest.mark.parametrize("key", ["pos", "amount"])
    def test_malformed_step_number_exits_2(self, capsys, tmp_path, key):
        tb = TraceBuilder(parse_word("2: 1 1 1"))
        tb.conjugate(1)
        tb.crossing_change(0)
        path = tmp_path / "bad.trace"
        path.write_text(serialize_trace(tb.snapshot()))
        edit_line(path, f"step: {'conjugate' if key == 'amount' else 'crossing-change'}",
                  lambda line: re.sub(key + r"=\d+", key + "=x", line))
        assert f"{key}=x" in path.read_text()
        assert_one_line_error(capsys, path, f"malformed {key} value")

    def test_step_number_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        """int refuses a number of 5 000 digits with a ValueError, which must
        surface as the one-line parse error, not a traceback."""
        path = tmp_path / "long.trace"
        tb = TraceBuilder(parse_word("2: 1 1 1"))
        tb.crossing_change(0)
        path.write_text(serialize_trace(tb.snapshot()).replace("pos=0", "pos=" + "9" * 5000))
        assert_one_line_error(capsys, path, "malformed pos value")

    def test_malformed_step_number_in_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ci21.cert"
        run(capsys, "adjacency", "ci", "2", "1", "--out", str(path))
        edit_line(path, "step: neighbor-braid", lambda line: line.replace("pos=2", "pos=x"))
        assert_one_line_error(capsys, path, "malformed pos value")

    def test_parameter_the_rule_does_not_take_exits_2(self, capsys, tmp_path):
        path = tmp_path / "stray.trace"
        text = "trace v3\ninitial: 2: 1\nstep: destabilize{}\nfinal: 1:\ncrossing_changes: 0\nend\n"
        path.write_text(text.format(""))
        assert run(capsys, "verify", str(path))[0] == 0
        path.write_text(text.format(" pos=7 amount=3"))
        assert_one_line_error(capsys, path, "takes no")
        # A braid line carries its position alone.
        text = (
            "trace v3\ninitial: 3: 1 2 1\nstep: neighbor-braid pos=0{}\n"
            "final: 3: 2 1 2\ncrossing_changes: 0\nend\n"
        )
        path.write_text(text.format(""))
        assert run(capsys, "verify", str(path))[0] == 0
        path.write_text(text.format(" direction=forward"))
        assert_one_line_error(capsys, path, "a neighbor-braid step takes no 'direction' parameter")

    def test_parameter_the_rule_does_not_take_in_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ci21.cert"
        run(capsys, "adjacency", "ci", "2", "1", "--out", str(path))
        edit_line(path, "step: destabilize", lambda line: line + " amount=3")
        assert_one_line_error(capsys, path, "takes no")

    def test_out_of_domain_torus_endpoint_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ci21.cert"
        run(capsys, "adjacency", "ci", "2", "1", "--out", str(path))
        edit_line(path, "source:", lambda line: "source: torus 0 5")
        assert_one_line_error(capsys, path, "torus")

    # Line endings and blank lines do not matter, neither in the header a
    # certificate reads line by line nor in the trace block it hands on.
    @pytest.mark.parametrize(
        "golden, verdict",
        [
            ("adjacency_t34_9.cert", "certificate: valid"),
            ("search_t37_t27.trace", "trace: valid (8 steps, 3 crossing changes)"),
        ],
    )
    @pytest.mark.parametrize(
        "variant",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: "\n \n" + text.replace("\n", "\n\n\t \n").replace("end", "  end \t"),
        ],
        ids=["crlf", "blank-lines"],
    )
    def test_line_endings_and_blank_lines_verify_alike(self, capsys, tmp_path, golden, verdict, variant):
        text = (GOLDEN / golden).read_text(encoding="utf-8")
        parse = parse_certificate if golden.endswith(".cert") else parse_trace
        assert parse(variant(text)) == parse(text)
        path = tmp_path / golden
        path.write_bytes(variant(text).encode("utf-8"))
        assert run(capsys, "verify", str(path)) == (0, verdict + "\n", "")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.trace"))
        assert code == 2
        assert err.startswith("error:")

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.trace"
        path.write_bytes(b"trace v3\n\xff\xfe\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "not UTF-8" in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def ci32_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "ci32.cert"
    assert main(["adjacency", "ci", "3", "2", "--out", str(path)]) == 0
    return path.read_text()


def rotate_word(line: str) -> str:
    """``final: n: a b c`` → ``final: n: b c a`` (same strands, length and Alexander)."""
    head, _, letters = line.partition(": ")
    strands, _, letters = letters.partition(": ")
    pieces = letters.split()
    return f"{head}: {strands}: " + " ".join(pieces[1:] + pieces[:1])


class TestCertificateTamper:
    """Each well-formed edit of an ``adjacency ci 3 2`` certificate fails verify."""

    def verify_edited(self, capsys, tmp_path, text, startswith, edit):
        path = tmp_path / "edited.cert"
        path.write_text(text)
        edit_line(path, startswith, edit)
        assert path.read_text() != text
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (1, "")
        assert out.startswith("certificate: invalid (")
        return out

    def step_index(self, text, startswith) -> int:
        steps = [line for line in text.splitlines() if line.startswith("step:")]
        return next(i for i, line in enumerate(steps) if line.startswith(startswith))

    def test_claim_raised_by_one(self, capsys, tmp_path, ci32_text):
        out = self.verify_edited(capsys, tmp_path, ci32_text, "claimed_cc:", lambda _: "claimed_cc: 7")
        assert out == "certificate: invalid (crossing-changes)\n"

    def test_distant_swap_moved(self, capsys, tmp_path, ci32_text):
        index = self.step_index(ci32_text, "step: distant-swap")
        out = self.verify_edited(
            capsys, tmp_path, ci32_text, "step: distant-swap",
            lambda line: re.sub(r"pos=(\d+)", lambda m: f"pos={(int(m[1]) + 1) % 37}", line),
        )
        assert out == f"certificate: invalid (replay at step {index})\n"

    def test_neighbor_braid_moved_off_its_pattern(self, capsys, tmp_path, ci32_text):
        index = self.step_index(ci32_text, "step: neighbor-braid")
        letters = parse_certificate(ci32_text).trace.words[index].letters
        off = next(
            q for q in range(len(letters) - 2)
            if letters[q] != letters[q + 2] or abs(letters[q] - letters[q + 1]) != 1
        )
        out = self.verify_edited(
            capsys, tmp_path, ci32_text, "step: neighbor-braid",
            lambda line: re.sub(r"pos=\d+", f"pos={off}", line),
        )
        assert out == f"certificate: invalid (replay at step {index})\n"

    def test_final_word_changed(self, capsys, tmp_path, ci32_text):
        out = self.verify_edited(capsys, tmp_path, ci32_text, "final:", rotate_word)
        assert out == "certificate: invalid (replay at final)\n"

    @pytest.mark.parametrize("kind", ["distant-swap", "neighbor-braid", "conjugate", "destabilize"])
    def test_step_line_deleted(self, capsys, tmp_path, ci32_text, kind):
        lines = ci32_text.splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(f"step: {kind}"))
        path = tmp_path / "edited.cert"
        path.write_text("\n".join(lines[:index] + lines[index + 1 :]) + "\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.startswith("certificate: invalid (replay at ")

    def test_every_moved_distant_swap_line_is_invalid(self, capsys, tmp_path, ci32_text):
        """The benchmark's tampered certificate moves one ``step: distant-swap
        pos=`` line of this text to another position 0…36 (the final word has
        38 letters).  A line of a program moves the swap of every run of it;
        each such edit must still verify as invalid, exit 1."""
        lines = ci32_text.split("\n")
        swaps = [i for i, line in enumerate(lines) if line.startswith("step: distant-swap pos=")]
        assert swaps
        path = tmp_path / "edited.cert"
        for index in swaps:
            old = int(lines[index].partition("=")[2])
            for position in range(37):
                if position == old:
                    continue
                moved = f"step: distant-swap pos={position}"
                path.write_text("\n".join(lines[:index] + [moved] + lines[index + 1 :]))
                code, out, err = run(capsys, "verify", str(path))
                assert (code, err) == (1, ""), (lines[index], position)
                assert out.startswith("certificate: invalid ("), (lines[index], position)

    def test_crossing_change_line_deleted_is_malformed(self, capsys, tmp_path, ci32_text):
        # the declared total no longer matches the steps, which parsing checks
        lines = ci32_text.splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("step: crossing-change"))
        path = tmp_path / "edited.cert"
        path.write_text("\n".join(lines[:index] + lines[index + 1 :]) + "\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error:")


HUGE = str(2**64 + 1)  # odd, and past any index: it fails before anything is allocated


class TestTooLarge:
    @pytest.mark.parametrize(
        "argv",
        [
            ["torus", "2", HUGE],
            ["catalog", "2", "3", "2", HUGE],
            ["adjacency", "strip", "2", HUGE],
            ["adjacency", "t24", HUGE],
            ["adjacency", "ci", "2", HUGE],
            ["enumerate", HUGE],
            ["info", f"{HUGE}:"],
            ["verify", "{certificate}"],
        ],
    )
    def test_is_a_one_line_domain_error(self, capsys, tmp_path, argv):
        certificate = tmp_path / "huge.cert"
        text = serialize_certificate(adjacency_ci(2, 1))
        certificate.write_text(re.sub(r"(?m)^source: .*$", f"source: torus 2 {HUGE}", text))
        code, out, err = run(capsys, *(arg.format(certificate=certificate) for arg in argv))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: too large to represent")
        assert "Traceback" not in err

    def test_out_of_memory_is_a_one_line_domain_error(self, capsys, monkeypatch):
        def exhausted(p, q):
            raise MemoryError

        monkeypatch.setattr("gordian.cli.torus_braid", exhausted)
        code, out, err = run(capsys, "torus", "2", "100000000001")
        assert (code, out) == (1, "")
        assert err == "error: too large to represent: out of memory\n"


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_argument_is_one_line(self, capsys):
        code, out, err = run(capsys, "torus", "x", "4")
        assert (code, out) == (2, "")
        assert err == "error: gordian torus: argument p: invalid int value: 'x'\n"

    def test_unknown_option_is_one_line(self, capsys):
        code, out, err = run(capsys, "torus", "3", "4", "--bogus")
        assert (code, out) == (2, "")
        assert err == "error: gordian: unrecognized arguments: --bogus\n"

    def test_missing_argument_in_subcommand_is_one_line(self, capsys):
        code, _, err = run(capsys, "adjacency", "ci", "2")
        assert code == 2
        assert err == "error: gordian adjacency ci: the following arguments are required: k\n"
