#!/usr/bin/env python3
"""Build and run the byzcount benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke    # every workload, both passes, tiny sizes

Builds the `byzcount-cli` binary (the `dist-unix` workload spawns its
shard worker) and the benchmark package into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark.  Its last stdout line is the
JSON result; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["counting-attack", "longhaul-async", "campaign-sweep", "dist-unix"]


def build(target):
    """Build both binaries; return their paths, or exit 2 on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "byzcount-cli"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for args in builds:
        manifest = os.path.join(ROOT, args[1])
        if not os.path.isfile(manifest):
            sys.exit(f"perfbench: {args[1]} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "byzcount-cli"), os.path.join(release, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cli, bench = build(target)
    common = ["--cli", cli, "--scratch", os.path.relpath(os.path.join(target, "perfbench"), ROOT)]
    if sys.argv[1:] == ["--smoke"]:
        code = 0
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
                print(f"== {workload} --trace {trace}", flush=True)
                run = subprocess.run([bench, *args, "--smoke", *common], cwd=ROOT)
                code = code or run.returncode
        return code
    return subprocess.run([bench, *sys.argv[1:], *common], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
