"""End-to-end benchmark of the gordian CLI.

    python3 perfbench/run.py --workload certify|knots|census|search --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in one fresh
single-threaded process (worker.py) that calls ``gordian.cli.main(argv)``
in-process on seeded inputs and checks every output.  Set-up time is
measured in that process and in SETUP_PROBES more that stop after set-up;
the median is reported.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "knots", "census", "search")
SETUP_PROBES = 6
DEADLINE_S = 170.0


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run the worker to completion and return its last stdout line as JSON."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, ["--setup-only"], DEADLINE_S)["setup_s"] for _ in range(probes)]
        result = spawn(args, [], DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
