#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of the repository. It checks that:

* a tiny run of every workload, traced and untraced, exits 0, reports
  correct results and prints every metric BENCHMARK.json names, with
  its unit (run.py enforces the names; this re-checks them);
* the books digest is identical across same-seed reruns and between
  the untraced and the traced run, and differs between seeds on the
  service workloads;
* a deliberately leaked region reference (svc-churn) and a doctored
  stored checksum (paper-suite) each make the run fail;
* a directory holding only BENCHMARK.json and perfbench/ makes the run
  exit non-zero without printing a result.

Scratch files go under the benchmark's build directory.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def run(args, cwd=ROOT, env=None):
    cmd = ["python3", "perfbench/run.py"] + args
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    digest = next((l.split("=")[1].strip() for l in lines if l.startswith("# books digest")), None)
    return done.returncode, result, digest


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny(workload, seed, trace, *extra):
    return run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--tiny", *extra])


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, digests[trace] = tiny(name, 7, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result is not None and result["correct"],
                   f"{name} --trace {trace}: exits 0 with a correct result")
            expect(got == want, f"{name} --trace {trace}: prints every {key} metric with its unit")
        _, _, again = tiny(name, 7, 0)
        expect(digests[0] is not None and digests[0] == again,
               f"{name}: same-seed reruns give identical books")
        expect(digests[0] == digests[1], f"{name}: traced and untraced books are identical")
        if name.startswith("svc-"):
            _, _, other = tiny(name, 8, 0)
            expect(other != digests[0], f"{name}: another seed gives other books")

    code, result, _ = tiny("svc-churn", 7, 0, "--inject", "leak")
    expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
           "svc-churn: a leaked region reference fails the run")
    code, result, _ = tiny("paper-suite", 7, 0, "--inject", "checksum")
    expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
           "paper-suite: a doctored checksum fails the run")

    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target")).resolve()
    bare = target / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / "build"))
    code, result, _ = run(["--workload", "svc-churn", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env)
    expect(code != 0 and result is None,
           "a tree without the repository's crates fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
