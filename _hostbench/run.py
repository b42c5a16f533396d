#!/usr/bin/env python3
"""Build and run the host-speed benchmark of the M3 simulator.

Run from the repository root:

    python3 _hostbench/run.py --workload meta --seed 1 --seconds 30 --trace 0

Every argument is passed to the Go program in this directory (see
README.md). The program is built from source on each call into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache kept there too, so nothing outside the checkout is written. Build
output goes to standard error; the program's last line of standard output
is the JSON result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "hostbench")
    try:
        built = subprocess.run([go, "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("run.py: cannot run go: %s" % e, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
