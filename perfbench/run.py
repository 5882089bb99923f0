#!/usr/bin/env python3
"""Build the control-plane benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn-100k --seed 1 --seconds 12 --trace 0

The Go program is built into the build directory ($CARGO_TARGET_DIR, else
.bench_build) with its Go caches kept there too, then run with the same
arguments. Its standard output, whose last line is the JSON result, is passed
through; the exit code is the program's.
"""
import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    for sub in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(build, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-trace-out", trace_out]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
