#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures a Release build of perfbench/ (which compiles the library from
src/) under .bench_build/, builds it when sources changed, runs one workload
and relays its output. The last line of standard output is the benchmark's
one-line JSON result.

Determinism witness across runs: the sim-clock digest a run prints is stored
under .bench_build/witness/, keyed by a hash of the sources, the workload, the
seed and the trace mode. A later run of the same code and seed whose digest
differs is reported and marked incorrect.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("rpc_active", "kv_shard_fleet", "adaptive_burst", "chaos_fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = pathlib.Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = out_dir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def source_hash():
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_witness(out_dir, args, digest):
    """Returns an error string when this code and seed once gave another digest."""
    key = f"{source_hash()}-{args.workload}-{args.seed}-{args.trace}"
    store = out_dir / "witness"
    store.mkdir(parents=True, exist_ok=True)
    record = store / f"{key}.txt"
    if record.is_file():
        previous = record.read_text().strip()
        if previous != digest:
            return (f"determinism witness: digest {digest} differs from {previous} "
                    f"recorded by an earlier run of the same code and seed")
        return None
    record.write_text(digest + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        fail("the last output line is not a JSON result")
    match = re.search(r"^determinism digest: ([0-9a-f]+)$", done.stdout, re.MULTILINE)
    if match is None:
        fail("no determinism digest in the output")
    problem = check_witness(out_dir, args, match.group(1))

    for line in lines[:-1]:
        print(line)
    if problem is not None:
        print(f"check failed: {problem}")
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
