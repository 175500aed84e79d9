#!/usr/bin/env python3
"""Build and run the warehouse benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The Go build cache, temporary build files and the binary stay under
.bench_build/ in the current directory. Every argument is passed on to the
benchmark binary (see perfbench/main.go for the flags).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTMPDIR": tmp,
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    env["TMPDIR"] = tmp
    return subprocess.run([binary, "-workdir", out] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
