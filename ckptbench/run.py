#!/usr/bin/env python3
"""Build and run the checkpoint-trip benchmark from the root of a checkout.

    python3 ckptbench/run.py --workload ckpt_bulk --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (ckptbench/go.mod) over the source tree
one level up, so it always measures the program in the checkout it sits in.
The build stays inside the checkout: binary, Go build cache and module
cache all live under .bench_build/ (or $CARGO_TARGET_DIR when set). Every
argument is passed through to the benchmark binary, whose exit code this
script returns. The last line of its standard output is the result JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 800
RUN_TIMEOUT = 175


def main():
    go = shutil.which("go")
    if go is None:
        print("ckptbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    out = os.path.join(build, "ckptbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "ckptbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("ckptbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("ckptbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--root", ROOT, "--out", out] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("ckptbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
