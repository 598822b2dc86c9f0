#!/usr/bin/env python3
"""Build and run the host-side benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ddos-stream --seed 42 --seconds 30 --trace 0

The benchmark is a Go program in this directory (module repro/perfbench,
which uses the repository's module from the parent directory). It is built
from source into .bench_build/ with a build cache kept there too, so the
run reads and writes only inside the checkout. The program's stdout is
passed through; its last line is the JSON result. The exit code is the
program's: non-zero when the build or a correctness check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Seconds allowed for the build (a cold build compiles the standard
# library into the local cache) and for one run of the benchmark.
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["go", "build", "-o", BINARY, "."]
    try:
        done = subprocess.run(cmd, cwd=BENCH, env=go_env(), timeout=BUILD_TIMEOUT,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; nothing to benchmark",
              file=sys.stderr)
        return 2
    if not build():
        return 3
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
