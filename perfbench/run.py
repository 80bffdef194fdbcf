#!/usr/bin/env python3
"""Build and run the dagfact end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-analysis --seed 1 --seconds 20 --trace 0

Builds the `perfbench` binary from source (release profile, offline,
into $CARGO_TARGET_DIR or ./.bench_build), then runs it with the given
arguments. The binary prints the input inventory and, as the last line
of standard output, the result JSON; its exit code is passed through.

The run uses one glibc malloc arena (MALLOC_ARENA_MAX=1). With the default
per-thread arenas, freed memory stays resident in whichever arena a
short-lived engine thread happened to use, and the peak resident set of
identical runs varied by up to 2x; with one arena it repeats.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    env["MALLOC_ARENA_MAX"] = "1"
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
