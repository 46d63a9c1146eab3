#!/usr/bin/env python3
"""Builds and runs the router benchmark.

    python3 routebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 routebench/run.py --self-test

Run from the root of a source tree. The benchmark program is built with
optimisation on from routebench/CMakeLists.txt (which compiles ../src)
into $CARGO_TARGET_DIR/routebench, or .bench_build/routebench when that is
unset. Build output goes to standard error, so the last line of standard
output is the program's JSON result. --self-test builds and runs the plan
checker's corruption test instead.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("routebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "routebench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no router sources next to the benchmark (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "routebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none(sources-sha1:" + digest.hexdigest()[:12] + ")"


def run(argv):
    try:
        return subprocess.run(argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)


def main(args):
    if args == ["--self-test"]:
        return run([os.path.join(build(), "plan_check_test")])
    out = build()
    sys.stdout.flush()
    return run([os.path.join(out, "routebench")] + args +
               ["--revision", revision()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
