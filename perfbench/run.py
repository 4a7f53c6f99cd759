#!/usr/bin/env python3
"""Builds lagoon and its benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <fig-suite|build-graph|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default .bench_build); cargo's messages go to standard error, and the
last line of standard output is the benchmark's result object. Any
build or run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest)] + extra
    return subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = (build("Cargo.toml", ["--bin", "lagoon"], env)
                 and build(os.path.join("perfbench", "Cargo.toml"), [], env))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "lagoon-perfbench"),
           "--lagoon", os.path.join(release, "lagoon")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
