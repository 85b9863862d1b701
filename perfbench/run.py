#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload cifar-fit --seed 1 --seconds 15 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the repository root. Every argument is passed on to the
binary; see perfbench/main.go for their meaning. The exit code is the
binary's (0: all correctness gates passed, 1: a gate failed, 2: usage or
set-up error), or 2 when the build fails, as it does in a directory that
holds only the benchmark and not the repository it measures.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: %s holds no go.mod; run from the repository root" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    for sub in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    # The build's own output goes to stderr: stdout carries only the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary, "-root", root] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
