#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune (shared dune cache off, so nothing is written outside the checkout),
then runs it pinned to one CPU and passes its standard output through;
the last line is the JSON result.  Exits non-zero, printing no result,
when the checkout holds no sources, the build fails, the benchmark fails
or it overruns its time limit.
"""

import ctypes
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
# What a run spends besides its --seconds: the reference answers and the
# set-ups before the timed phase, the probes after it.
RUN_ALLOWANCE_S = 145
PR_SET_CHILD_SUBREAPER = 36
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def requested_seconds(argv):
    try:
        return max(0.0, float(argv[argv.index("--seconds") + 1]))
    except (ValueError, IndexError):
        return 0.0


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    # One CPU for the whole process: the serve workload's client and daemon
    # threads then hand requests over without cross-CPU wake-ups, whose
    # latency varies with the host's load.
    cpu = max(os.sched_getaffinity(0))
    # A process group of its own, so that a timeout also stops the part
    # processes the benchmark starts; and this process their subreaper, so
    # that it can wait for them once they are orphaned.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    run = subprocess.Popen(
        [EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = run.communicate(timeout=requested_seconds(sys.argv) + RUN_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
        fail("benchmark timed out")
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
