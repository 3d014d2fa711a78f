#!/usr/bin/env python3
"""Build bitfusion-cli and the perfbench harness from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); spans and sockets go under `<target>/perfbench`. The last
line of stdout is the result object. Exits non-zero, printing no result,
when the sources are missing or a build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: no Cargo.toml beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "bitfusion-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--cli", os.path.join(release, "bitfusion-cli"),
               "--out", os.path.join(target, "perfbench")]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
