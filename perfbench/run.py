#!/usr/bin/env python3
"""Build and run the distserv benchmark for one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --update-reference   # rewrite reference.json

The first call configures and builds perfbench/ (the library sources under
src/ plus the harness) into .bench_build/perfbench (or under
$CARGO_TARGET_DIR when set). The harness's output is passed through; its last
line is the JSON result. Reference digests for the stored seeds come from
perfbench/reference.json. The exit code is not 0 when the build or the
harness fails; then no result line is printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["paper-sweep", "stream-h1024", "control-h1024", "churn-h32"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "distserv.hpp")):
        sys.exit("perfbench: no distserv sources under src/ next to perfbench/")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake is required")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, (os.cpu_count() or 2) // 2)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.isfile(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            steps.append(["cmake", *generator, "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def run_harness(binary, workload, seed, seconds, trace, expect, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for run, digest in sorted(expect.items()):
        cmd += ["--expect", f"{run}={digest}"]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: harness exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        sys.exit("perfbench: harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return lines, result


def update_reference(binary):
    """Recomputes the stored digests for the default and held-out seeds."""
    ref = load_reference()
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in (ref["default_seed"], ref["heldout_seed"]):
            lines, result = run_harness(binary, workload, seed, 1, 0, {}, None)
            if not result["correct"]:
                sys.stdout.write("\n".join(lines) + "\n")
                sys.exit(f"perfbench: {workload} seed {seed} is not correct")
            runs = {}
            for line in lines:
                if line.startswith("digest "):
                    _, run, digest = line.split()
                    runs[run] = digest
            digests[workload][str(seed)] = runs
    ref["digests"] = digests
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if args.update_reference:
        update_reference(binary)
        return
    if args.workload is None:
        parser.error("--workload is required")
    ref = load_reference()
    seed = ref["default_seed"] if args.seed is None else args.seed
    expect = ref["digests"].get(args.workload, {}).get(str(seed), {})
    spans = os.path.join(out, f"spans-{args.workload}-{seed}.jsonl") \
        if args.trace else None
    lines, result = run_harness(binary, args.workload, seed, args.seconds,
                               args.trace, expect, spans)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
