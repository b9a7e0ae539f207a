#!/usr/bin/env python3
"""Build perfbench from the checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-cold --seed 1 --seconds 4 --trace 0

Every argument goes to the perfbench binary (see main.go). The binary,
Go's build cache and the spans of traced runs live under .bench_build/ in
the repository root, so the benchmark reads and writes nothing outside
the checkout. The last line of standard output is the result JSON; the
exit code is the binary's, non-zero when the build fails, an operation
fails or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
TIMEOUT_S = 170


def go_env():
    """The environment for go: caches and config inside the checkout, no
    network, and none of the solver overrides vcselnoc reads from the
    environment, so every run measures the default code path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VCSELNOC_")}
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
    )
    return env


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    return subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, timeout=850).returncode


def main(args):
    env = go_env()
    try:
        if build(env) != 0:
            print("run.py: building perfbench failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: building perfbench: %s" % e, file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: perfbench ran past %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
