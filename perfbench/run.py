#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload observed-2x128 --seed 1 --seconds 25 --trace 0

The Go toolchain's cache and the binary go to .bench_build/ in the
repository root, so the run reads and writes nothing outside it. The
benchmark's own output (a metrics table, an `env` line and, last, one JSON
object) is passed through unchanged; build output goes to standard error.
The exit code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    # Stdlib-only module: never reach for a proxy, another toolchain, a
    # workspace or the user's go env file.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOENV="off", GOFLAGS="")
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([exe, "--out", BUILD] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
