#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it once.

Usage, from the repository root:

    python3 perfbench/run.py --workload rmat-bsp --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary go under the build
directory ($CARGO_TARGET_DIR when set, else .bench_build) in the
repository root, so a run reads and writes only inside the checkout.
The benchmark's output (a host line, then the JSON result as the last
line) passes through unchanged, as does its exit code. A failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    out = build_dir()
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOENV="off",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr)
    return binary if r.returncode == 0 else None


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
