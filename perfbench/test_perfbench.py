"""Tests of the benchmark itself: each output check rejects a wrong output,
the tampered certificates fail verification, and traced counts repeat.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from gordian import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


TREFOIL = (2, [1, 1, 1])
INFO = "strands: 2\nlength: 3\ncycles: (1 2)\ncomponents: 1\nknot: yes\nunknotting_number: 1\n"


def test_polynomials():
    assert checks.read_poly("1 - 2*t + 3*t^2 - 2*t^3 + t^4") == [1, -2, 3, -2, 1]
    assert checks.read_poly("-1 + t") == [-1, 1]
    assert checks.torus_alexander(2, 3) == [1, -1, 1]
    assert checks.torus_alexander(3, 4) == [1, -1, 0, 1, 0, -1, 1]
    rejects(checks.read_poly, "1 - t^-1")
    rejects(checks.read_poly, "")


def test_info_check():
    checks.check_info(INFO, *TREFOIL)
    rejects(checks.check_info, INFO.replace("components: 1", "components: 2"), *TREFOIL)
    rejects(checks.check_info, INFO.replace("unknotting_number: 1", "unknotting_number: 2"), *TREFOIL)
    rejects(checks.check_info, INFO.replace("length: 3", "length: 5"), *TREFOIL)
    rejects(checks.check_info, INFO.replace("knot: yes", "knot: no"), *TREFOIL)


def test_alexander_check():
    checks.check_alexander("1 - t + t^2\n", *TREFOIL, (2, 3))
    for wrong in ("1 - t + t^2 - t^3 + t^4", "1 + t^2", "1 - 2*t + t^2", "2 - 3*t + 2*t^2", "1 - t"):
        rejects(checks.check_alexander, wrong, *TREFOIL, None)
    t34 = (3, checks.torus_letters(3, 4))
    checks.check_alexander("1 - t + t^3 - t^5 + t^6", *t34, (3, 4))
    # a valid positive-knot polynomial of the right degree, but not T(3,4)'s
    rejects(checks.check_alexander, "1 - t + t^2 - t^3 + t^4 - t^5 + t^6", *t34, (3, 4))


def test_unknot_and_trace_checks():
    checks.check_unknot("crossing_changes: 1\ntrace written: f\n", 1)
    rejects(checks.check_unknot, "crossing_changes: 2\ntrace written: f\n", 1)
    rejects(checks.check_unknot, "crossing_changes: 1\n", 1)
    good = "trace: valid (5 steps, 1 crossing changes)\n"
    checks.check_trace_valid(good, "5", 1)
    rejects(checks.check_trace_valid, good, "6", 1)
    rejects(checks.check_trace_valid, good, None, 2)
    rejects(checks.check_trace_valid, "trace: invalid at step 3: x\n", None, 1)


CERT = (
    "source: torus 4 9\ntarget: torus 3 10\nu_gap: 3\ncrossing_changes: 3\n"
    "verification: strands=match length=match alexander=match\ncertificate written: c\n"
)


def test_certificate_checks():
    checks.check_certificate(CERT, "torus 4 9", "torus 3 10", 3)
    rejects(checks.check_certificate, CERT, "torus 4 9", "torus 3 11", 3)
    rejects(checks.check_certificate, CERT, "torus 4 11", "torus 3 10", 3)
    rejects(checks.check_certificate, CERT.replace("u_gap: 3", "u_gap: 2"), "torus 4 9", "torus 3 10", 3)
    rejects(checks.check_certificate, CERT.replace("changes: 3", "changes: 4"), "torus 4 9", "torus 3 10", 3)
    rejects(checks.check_certificate, CERT.replace("alexander=match", "alexander=mismatch"),
            "torus 4 9", "torus 3 10", 3)
    rejects(checks.check_certificate, CERT.replace("certificate written: c\n", ""),
            "torus 4 9", "torus 3 10", 3)
    checks.check_certificate_valid("certificate: valid\n")
    rejects(checks.check_certificate_valid, "certificate: invalid (crossing-changes)\n")
    checks.check_certificate_invalid("certificate: invalid (crossing-changes)\n")
    rejects(checks.check_certificate_invalid, "certificate: valid\n")
    checks.check_catalog("verdict: claimed\nbasis: x\ncertificate: available\ncertificate written: c\n")
    rejects(checks.check_catalog, "verdict: claimed\nbasis: x\ncertificate: none\n")


def test_strip_target_check():
    code, out = run_cli(["adjacency", "strip", "4", "11"])
    assert code == 0
    check = workloads._strip_target(4, 11)
    check(checks.fields(out)["target"])
    rejects(check, "word 3: 2 1 2 1")
    rejects(check, "torus 3 11")


def test_family_formulas_match_the_cli():
    for family, args, (p1, q1), (p2, q2) in workloads.FAMILY_GRID:
        if p1 * q1 > 200:
            continue
        code, out = run_cli(["adjacency", family, *map(str, args), "--no-verify"])
        f = checks.fields(out)
        assert (code, f["source"], f["target"]) == (0, f"torus {p1} {q1}", f"torus {p2} {q2}")


ENUM_2 = """positive braid knot enumeration
unknotting number: 2
budget: 1000000
words examined: 67788
knot words: 14729
distinct forms: 534
classes: 2
class 1
  representative: 2: 1 1 1 1 1
  unknotting number: 2
  strands: 2
  length: 5
  alexander: 1 - t + t^2 - t^3 + t^4
  merged: no
class 2
  representative: 3: 1 1 1 2 2 2
  unknotting number: 2
  strands: 3
  length: 6
  alexander: 1 - 2*t + 3*t^2 - 2*t^3 + t^4
  merged: no
end
"""


def test_census_check():
    checks.check_census(ENUM_2, 2)
    rejects(checks.check_census, ENUM_2.replace("merged: no", "merged: yes", 1), 2)
    rejects(checks.check_census, ENUM_2.replace("1 - 2*t + 3*t^2", "1 - t + t^2"), 2)
    rejects(checks.check_census, ENUM_2.replace("classes: 2", "classes: 3"), 2)
    rejects(checks.check_census, ENUM_2.replace("3: 1 1 1 2 2 2", "3: 1 1 2 2 2 2"), 2)
    rejects(checks.check_census, ENUM_2.split("class 2")[0].replace("classes: 2", "classes: 1"), 2)
    rejects(checks.check_census, ENUM_2, 1)


def test_search_check():
    checks.check_search("steps: 8\ncrossing_changes: 1\ntrace written: f\n", 1)
    rejects(checks.check_search, "steps: 8\ncrossing_changes: 2\ntrace written: f\n", 1)
    rejects(checks.check_search, "steps: 8\ncrossing_changes: 1\n", 1)


@pytest.mark.parametrize("seed", range(6))
def test_tampered_certificates_fail_verification(tmp_path, seed):
    good, bad = str(tmp_path / "good.cert"), str(tmp_path / "bad.cert")
    assert run_cli(["adjacency", "ci", "3", "2", "--out", good])[0] == 0
    workloads._tamper(random.Random(seed), good, bad, 38)()
    with open(good) as a, open(bad) as b:
        assert a.read() != b.read()
    code, out = run_cli(["verify", bad])
    assert code == 1
    checks.check_certificate_invalid(out)


def test_search_pairs_go_down_in_unknotting_number():
    for op in workloads.build("search", 3, "w"):
        if op.phase == workloads.PRODUCE:
            source, target = (checks.read_word(text) for text in op.argv[1:3])
            assert checks.knot_u(*source) - checks.knot_u(*target) >= 1


def test_traced_counts_repeat_exactly(tmp_path):
    def traced_run():
        spans = tracer.Tracer()
        spans.install()
        try:
            for argv in (["unknot", "3: 2 1 2 1 2 1 2 1", "--trace", str(tmp_path / "t")],
                         ["verify", str(tmp_path / "t")], ["alexander", "4: 3 2 1 3 2 1 3 2 1"],
                         ["search", "3: 2 1 2 1 2 1 2 1", "2: 1 1 1 1 1"], ["enumerate", "1"]):
                assert run_cli(argv)[0] == 0
        finally:
            spans.uninstall()
        return spans

    first, second = traced_run(), traced_run()
    assert cli.main.__name__ == "main"  # uninstall restored the original binding
    assert list(first.name) == list(second.name) and list(first.parent) == list(second.parent)
    metrics = tracer.layer_metrics(first, [])
    assert metrics["rules.steps_recorded"] > 0 and metrics["rules.replay_steps"] > 0
    assert metrics["alexander.calls"] >= 1 and metrics["alexander.ms_per_call.n2-4"] > 0
    assert metrics["search.neighbours"] > 0 and metrics["search.path_steps"] > 0
    counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in tracer.layer_metrics(second, []).items() if isinstance(v, int)}
