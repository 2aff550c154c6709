#!/usr/bin/env python3
"""Builds the host-time benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
`adapt` library and the `adapt_perfbench` binary (RelWithDebInfo) under
$CARGO_TARGET_DIR, default `.bench_build`; later runs rebuild incrementally.
Build output goes to stderr, so the binary's stdout ends with its one-line
JSON result. A traced run (--trace 1) also writes its span log to
<build dir>/spans/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = [
    "fabric_bcast_1024",
    "adapt_percall_64",
    "adapt_persistent_64",
    "sharded_bcast_4096",
]
BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
# Every run must end within 180 s; the binary itself stays well inside it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else REPO / path


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"{REPO} holds no src/CMakeLists.txt to build")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "adapt_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "adapt_perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the adapt simulator "
                    "(see perfbench/README.md).",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(BENCH_DIR / "reference.json")]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.json"
        cmd += ["--spans", str(spans / name)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
