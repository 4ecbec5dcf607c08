#!/usr/bin/env python3
"""Build fmtk from source and run one benchmark workload.

    python3 perfbench/run.py --workload serve_read|serve_write|lib_batch|all \
        --seed N --seconds S --trace 0|1

Run it from the root of an fmtk checkout. The build goes to .bench_build,
run files to .bench_out (both inside the checkout). The last line of
standard output is the JSON result of the run; with --workload all, each
workload runs in its own process and the last line combines their metrics
as "<workload>.<metric>". The command exits non-zero, without a result
line, when the checkout cannot be built, a workload fails, or an answer
is wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORKLOADS = ["serve_read", "serve_write", "lib_batch"]
RUN_TIMEOUT_S = 170  # a run must end within 180 s; the build is not counted


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def build():
    for needed in ["dune-project", "bin/fmtk_cli.ml", "lib", "perfbench/dune"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not an fmtk checkout (missing %s)" % needed)
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "./bin/fmtk_cli.exe", "./perfbench/fmtk_bench.exe",
    ]
    # build output goes to stderr: stdout's last line is the result
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def pin_to_one_cpu():
    """Keeps the run, and every process and thread it starts, on one CPU.

    On a shared virtual machine a CPU that goes idle waits for the host to
    schedule it again when it is woken, for microseconds on a quiet host and
    milliseconds on a busy one. A client and server handing each request
    back and forth across two CPUs wake an idle CPU at every hand-off, so
    their times would follow the load of other tenants; on one CPU that
    never idles during the run, a hand-off is a context switch.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not on Linux, or not allowed: run unpinned


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns its stdout lines (already echoed)."""
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "fmtk_bench.exe")
    server = os.path.join(BUILD_DIR, "default", "bin", "fmtk_cli.exe")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--server-exe", server]
    # its own process group, so a hung run can be stopped with its server
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.splitlines()
    if proc.returncode != 0:
        print(out, end="")
        fail("%s exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    pin_to_one_cpu()
    if args.workload != "all":
        print(run_one(args.workload, args.seed, args.seconds, args.trace)[-1])
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result = json.loads(run_one(w, args.seed, args.seconds, args.trace)[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
