#!/usr/bin/env python3
"""Build elin and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-closed|batch-heavy|mc-board \
        --seed N --seconds S --trace 0|1

The benchmark executable prints human-readable lines and, as its last
line, one JSON object; this script passes its output through and exits
with its exit code.  Everything it builds or writes stays under the
current directory (_build/, _perfbench/).
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-closed", "batch-heavy", "mc-board")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ("./perfbench/main.exe", "./bin/elin.exe")


def run_group(cmd, env, timeout, capture):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark's server child included) and reap it."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def on_term(signum, frame):
    # Turn SIGTERM into an exception, so that run_group kills and reaps
    # the benchmark's process group on the way out.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_term)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    scratch = os.path.join(root, "_perfbench")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    # Keep every build and temporary file inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = scratch
    env["XDG_CACHE_HOME"] = os.path.join(scratch, "cache")

    try:
        code, out = run_group(
            ["dune", "build", "--root", ".", "--profile", "release", *TARGETS],
            env,
            BUILD_TIMEOUT_S,
            capture=True,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if code != 0:
        sys.stderr.write(out.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2

    build = os.path.join(root, "_build", "default")
    cmd = [
        os.path.join(build, "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--elin", os.path.join(build, "bin", "elin.exe"),
    ]
    try:
        code, _ = run_group(cmd, env, RUN_TIMEOUT_S, capture=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
