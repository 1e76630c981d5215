#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The simulator library and the harness
are built from source into $CARGO_TARGET_DIR (default .bench_build),
build output goes to stderr, and the harness's exit code is passed on;
the last line of standard output is the harness's JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kwargs):
    """Run cmd to completion; stop it too when this script is stopped."""
    child = subprocess.Popen(cmd, **kwargs)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward)
                for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    work = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(work) and work.startswith(os.getcwd() + os.sep):
        # Relative paths keep the service's AF_UNIX socket path short.
        work = os.path.relpath(work)
    build = os.path.join(work, "perfbench")
    os.makedirs(build, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", "perfbench",
                 "-j", jobs]):
        if run(cmd, stdout=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    return run([binary] + sys.argv[1:] + ["--work-dir", work])


if __name__ == "__main__":
    sys.exit(main())
