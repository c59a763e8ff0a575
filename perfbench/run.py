#!/usr/bin/env python3
"""Run one workload of the Shredder serving benchmark.

    python3 perfbench/run.py --workload edge-lenet --seed 1 --seconds 20 --trace 0

Builds the library, the shipped `shredder_serve` front door and the
benchmark runner from this checkout's sources into .bench_build/perfbench
(a no-op once built), prints the host provenance, then runs `perfbench_runner`.
The runner's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 it carries
the end-to-end metrics, with --trace 1 the per-layer ones (and the spans
go to .bench_out/trace-<workload>.json). Exit status is the runner's;
a failed build exits 1 without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
# A run measures --seconds of traffic plus set-up and output checks; the
# runner is stopped (with every server it started) well inside the
# 180 s a run may take.
RUNNER_TIMEOUT_S = 160


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def local_env():
    """Keep compiler temporaries and any compiler cache inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")


def build():
    """Configure (first time only) and build; True on success."""
    jobs = str(os.cpu_count() or 1)
    env = local_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs,
           "--target", "perfbench_runner", "shredder_serve"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance():
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except OSError:
        commit = ""
    return ("provenance: nproc=%d compiler=%r build_type=%s commit=%s"
            % (os.cpu_count() or 0, version,
               cache_value("CMAKE_BUILD_TYPE"),
               commit or "unknown (not a git checkout)"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        log("perfbench: build failed")
        return 1
    print(provenance(), flush=True)
    cmd = [os.path.join(BUILD, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(BUILD, "tools", "shredder_serve"),
           "--out", OUT]
    # Own process group: on a timeout the runner and the servers it
    # spawned are stopped together.
    runner = subprocess.Popen(cmd, start_new_session=True, env=local_env())
    try:
        return runner.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
