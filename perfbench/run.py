#!/usr/bin/env python3
"""Build and run the ncl serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload coding_backlog --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds `perfbench/` (which pulls in the
repository's own CMake tree) into `.bench_build/`; later calls rebuild
incrementally. The benchmark binary then sets up the named workload, measures
it for `--seconds`, checks every answer, and prints one JSON object as the
last line of standard output. Build output goes to standard error. All files
are written under `.bench_build/`.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on a non-zero exit."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the ncl sources (CMakeLists.txt, src/) are missing from "
             f"{ROOT}; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "ncl_perfbench",
                "perfbench_test", "-j", jobs], BUILD_TIMEOUT_S)


def source_digest():
    """Commit id when the checkout is a git work tree, else a content hash
    of every source file (an exported source tree has no .git)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files.extend(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_test")],
                                cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    cmd = [str(BUILD_DIR / "ncl_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           # Relative to the checkout root (the child's cwd): Unix socket
           # paths under it must stay short.
           "--work-dir", ".bench_build/work",
           "--trace-dir", ".bench_build/traces",
           "--source", source_digest()]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
