#!/usr/bin/env python3
"""Build and run sqlbarber's end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload rows-tpch --seed 1 --seconds 15 --trace 0

The Go toolchain's cache and the binary stay under .bench_build/ in the
checkout. Arguments pass through to the benchmark binary, whose last line of
standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(ROOT, ".bench_build", "gocache"),
        "GOPATH": os.path.join(ROOT, ".bench_build", "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded 170 s\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
