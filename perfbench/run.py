#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_tcp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest        # build and run the unit tests

The library under ../src and the benchmark are built out of tree into
.bench_build/perfbench (Release). Build output goes to stderr; the
benchmark's last stdout line is its result object. Exits non-zero without
a result when the build or the run fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench/run.py: " + message, file=sys.stderr, flush=True)


def build(target, tests):
    jobs = str(os.cpu_count() or 1)
    configure = [
        "cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
        "-DPERFBENCH_BUILD_TESTS=" + ("ON" if tests else "OFF"),
    ]
    cached = os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    if not cached or tests:
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_test", tests=True):
            log("build failed")
            return 1
        binary = os.path.join(BUILD, "perfbench_test")
        return subprocess.run([binary], cwd=ROOT).returncode

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to the benchmark; nothing to build")
        return 1
    if not build("perfbench", tests=False):
        log("build failed")
        return 1
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + [
        "--work-dir", work, "--source-rev", source_rev()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
