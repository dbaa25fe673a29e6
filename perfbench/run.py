#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark program is the Rust
package next to this file; it builds against the repository's crates by
path (into $CARGO_TARGET_DIR, else perfbench/target). Its last line of
output is one JSON object; this script checks that the object names
exactly the metrics BENCHMARK.json lists for the trace mode, with their
units, before passing it on. Any further arguments (--tiny, --inject)
go to the program unchanged. The exit status is the program's, or 1 if
the build fails or the result does not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(argv, flag, default=None):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else HERE / "target"


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    # Build output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")
    exe = target_dir() / "release" / "perfbench"
    if not exe.is_file():
        fail(f"built program not found at {exe}")
    return exe


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check(result, want):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}"
    return None


def main():
    argv = sys.argv[1:]
    workload = arg(argv, "--workload")
    trace = arg(argv, "--trace", "0")
    if workload is None:
        fail("--workload is required")
    want = expected_metrics(trace)
    exe = build()
    cmd = [str(exe)] + argv
    if trace == "1":
        seed = arg(argv, "--seed", "0")
        spans = target_dir() / "perfbench-spans" / f"{workload}-seed{seed}.tsv"
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"benchmark printed no result (status {done.returncode})")
    problem = check(result, want)
    for line in lines[:-1]:
        print(line)
    if problem:
        fail(problem)
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
