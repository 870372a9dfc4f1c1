#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root; every argument is passed to the program:

    python3 perfbench/run.py --workload train-arxiv --seed 1 --seconds 10 --trace 0

The build cache, temporary files and the binary live under .bench_build
in the current directory, so nothing is written outside the checkout.
A tree without the repository's Go module fails the build, and the
script exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(".bench_build")
    for sub in ("gocache", "gomodcache", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, timeout=840)
    if built.returncode != 0:
        print("perfbench: build failed (is this the repository root?)", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
