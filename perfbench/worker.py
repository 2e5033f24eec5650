"""One benchmark run of one workload, in a fresh process (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

``--t0`` is the ``time.monotonic()`` reading taken just before this process
was started; set-up time runs from there to the first timed call.  With
``--setup-only`` the process stops after set-up and prints that time.

The run repeats whole passes over the workload's operations until
``--seconds`` have passed (at least MIN_PASSES).  ``produce_s`` and
``verify_s`` sum, over the operations, the median of each operation's
times across passes, so a slow stretch of a shared machine during one pass
does not move them.  With ``--trace 1`` one more pass runs under the span
tracer and one under tracemalloc, and the per-layer numbers are printed.
"""

from __future__ import annotations

import argparse
import time

T_START = time.monotonic()  # read before the imports that set-up covers

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
MIN_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=T_START)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_gordian():
    """Import gordian from this checkout's sources, and nowhere else."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gordian.cli

    expected = os.path.join(ROOT, "src", "gordian", "")
    if not os.path.abspath(gordian.cli.__file__).startswith(expected):
        raise ImportError(f"gordian imported from {gordian.cli.__file__}, not from {expected}")
    return gordian.cli


def run_op(cli, op, outs: dict[str, str]):
    """Time one CLI call; returns (seconds, exit code, stdout, stderr)."""
    argv = op.argv(outs) if callable(op.argv) else op.argv
    if op.prepare is not None:
        op.prepare()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue(), stderr.getvalue()


class Run:
    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.artifact_bytes = None
        self.outs: dict[str, str] = {}

    def one_pass(self) -> list[float]:
        import checks

        self.outs = {}
        times = []
        artifact = 0
        gc.collect()
        for op in self.ops:
            elapsed, code, stdout, stderr = run_op(self.cli, op, self.outs)
            self.attempted += 1
            times.append(elapsed)
            self.outs[op.key] = stdout
            if code != op.expect_rc or stderr:
                self.failed += 1
                self.errors.append(f"{op.key}: exit {code!r}, stderr {stderr.strip()!r}")
                continue
            try:
                op.check(stdout, self.outs)
            except (checks.CheckFailed, LookupError, ValueError) as exc:
                self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            artifact += len(stdout.encode())
            if op.out_file is not None:
                artifact += os.path.getsize(op.out_file)
        if self.artifact_bytes is None:
            self.artifact_bytes = artifact
        elif artifact != self.artifact_bytes:
            self.errors.append(f"artifact bytes changed between passes: {self.artifact_bytes} → {artifact}")
        return times

    def measure(self, seconds: float) -> int:
        start = time.monotonic()
        passes = 0
        while True:
            pass_start = time.monotonic()
            for i, elapsed in enumerate(self.one_pass()):
                self.times[i].append(elapsed)
            passes += 1
            now = time.monotonic()
            if passes >= MIN_PASSES and now + (now - pass_start) > start + seconds:
                return passes

    def phase_total(self, phase: str) -> float:
        return sum(statistics.median(t) for op, t in zip(self.ops, self.times) if op.phase == phase)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_gordian()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = Run(cli, ops)
        run.measure(args.seconds)
        produce_s, verify_s = run.phase_total(workloads.PRODUCE), run.phase_total(workloads.VERIFY)
        if args.trace:
            metrics = traced_metrics(run, args, produce_s + verify_s)
        else:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (setup_s, "s"),
                "produce_s": (produce_s, "s"),
                "verify_s": (verify_s, "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
                "artifact_bytes": (run.artifact_bytes, "bytes"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in run.errors[:20]:
        print(f"check: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(run: Run, args, untraced_s: float) -> dict[str, tuple[float, str]]:
    """One pass under the span tracer, one under tracemalloc; see tracer.py."""
    import tracer as tracing

    spans = tracing.Tracer()
    spans.install()
    try:
        traced_s = sum(run.one_pass())
    finally:
        spans.uninstall()
    enumerate_outputs = [out for key, out in run.outs.items() if key.startswith("enumerate-")]
    values = tracing.layer_metrics(spans, enumerate_outputs)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    spans.dump(os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.tsv.gz"))
    del spans
    with tracing.PeakProbe() as probe:
        run.one_pass()
    values["rules.parse_peak_mib"] = probe.peaks["parse"] / tracing.MIB
    values["adjacency.build_peak_mib"] = probe.peaks["build"] / tracing.MIB
    values["trace.overhead"] = traced_s / untraced_s
    return {name: (value, tracing.UNITS[name]) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
