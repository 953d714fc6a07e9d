#!/usr/bin/env python3
"""Build and run the qpinn benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the qpinn library from src/ plus the
driver) under .bench_build/perfbench, then runs the driver with the same
arguments. Build output goes to standard error, so the last line of standard
output is the driver's JSON result. Exits with the driver's status, or 2
when the qpinn sources are missing or the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qpinn_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """The checkout's commit, or "none" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            return str(e)
        if done.returncode != 0:
            return "'%s' exited with %d" % (" ".join(cmd), done.returncode)
    return None


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("qpinn sources not found under " + ROOT)
    error = build()
    if error is not None:
        return fail("build failed: " + error)
    cmd = [BINARY] + argv + ["--out-dir", BUILD, "--git-sha", git_sha(),
                             "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
