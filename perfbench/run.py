#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7-reference --seed 1 --seconds 20 --trace 0

Arguments are passed to the benchmark (see main.go). The Go build cache,
temporary files and the binary stay in .bench_build/ at the checkout root.
The benchmark is a module of its own that builds the repository's packages
from the checkout, so it fails to build, and prints no result, when the
repository is not there.
"""

import os
import subprocess
import sys

# A run must end within 180 s; the build before it is not limited.
RUN_TIMEOUT_S = 170


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    # Offline and hermetic: no toolchain or module downloads, no user go.env.
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
