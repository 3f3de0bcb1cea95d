#!/usr/bin/env python3
"""Benchmark entry point: builds the project and the benchmark harness
(Release) from source, runs one workload and prints its result.

Run from the repository root:

    python3 perfbench/run.py --serve-rate 30 \
        --workload characterize --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--smoke` runs a seconds-long
miniature of the workload (format checks only). Build output goes to
stderr; everything the run writes stays under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("characterize", "learn", "serve_mixed")
BUILD_ROOT = ".bench_build"
# Sources that define what is measured; their digest identifies the
# code when the checkout is not a git repository.
DIGEST_DIRS = ("src", "tools", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                if name.endswith((".pyc",)) or "__pycache__" in path:
                    continue
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(jobs):
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    configure = ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", str(jobs), "--target", "perfbench_harness"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    harness = os.path.join(build_dir, "perfbench_harness")
    caml = os.path.join(build_dir, "caml_tools", "caml")
    for path in (harness, caml):
        if not os.path.isfile(path):
            fail(f"build did not produce {path}")
    return harness, caml


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--serve-rate", required=True, type=float,
                        help="serve_mixed open-loop offered rate, requests/s")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/caml_cli.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full source checkout")

    jobs = os.cpu_count() or 1
    harness, caml = build(jobs)

    work_dir = os.path.join(BUILD_ROOT, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--jobs", str(jobs),
           "--work-dir", work_dir, "--caml", caml,
           "--serve-rate", str(args.serve_rate),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail(f"harness exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("harness printed nothing")
        result = json.loads(lines[-1])
        trace = os.path.join(work_dir, "trace.json")
        if os.path.isfile(trace):
            keep = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(trace, os.path.join(keep, f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
