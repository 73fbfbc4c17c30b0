#!/usr/bin/env python3
"""Builds and runs the serving benchmark from a checkout of the repository.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds the
`serve_bench` harness (plus the repository libraries it links) under
`$CARGO_TARGET_DIR/servebench`, default `.bench_build/servebench`; later calls
only re-check the build. Build output goes to stderr, so the last line of
stdout stays the harness's JSON result. The exit code is the harness's, or
nonzero when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: repository sources not found next to servebench/",
              file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "serve_bench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
