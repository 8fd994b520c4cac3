#!/usr/bin/env python3
"""Build the ldb benchmark from source and run one workload.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `ldbd` (the repository's daemon)
and the `perfbench` binary in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it with the given arguments.
Its last line of output is the result object; see perfbench/README.md.
Build output goes to standard error so standard output stays the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"), ["--bin", "ldbd"]),
                            (os.path.join(HERE, "Cargo.toml"), [])):
        if not os.path.isfile(manifest):
            print(f"run.py: missing {manifest}", file=sys.stderr)
            return 1
        code = build(target, manifest, extra)
        if code != 0:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return code
    release = os.path.join(target, "release")
    args = sys.argv[1:] + ["--ldbd", os.path.join(release, "ldbd"),
                           "--out", os.path.join(target, "perfbench-spans")]
    return subprocess.run([os.path.join(release, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
