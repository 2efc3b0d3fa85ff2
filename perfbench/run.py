#!/usr/bin/env python3
"""IoTLS benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt over the repository's src/)
into the build directory, then runs one workload and relays its output; the
last line of stdout is the JSON result.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test        # tests of the harness itself
    python3 perfbench/run.py --record           # rewrite perfbench/golden.txt

Run it from the repository root. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; everything the benchmark writes stays there.

Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
error, 3 when the benchmark cannot be built, 4 when a run timed out (no
result line is printed then).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
# A run measures --seconds of units after its setup, and its last unit may
# overrun; allow three times that plus a minute for slow phases of the host.
RUN_OVERHEAD_S = 60
RUN_SECONDS_FACTOR = 3
# Record mode runs all 16 inputs of a workload, whatever --seconds says.
RECORD_TIMEOUT_S = 600
SELF_TEST_TIMEOUT_S = 120
JOBS = "4"


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no IoTLS sources (src/CMakeLists.txt) next to perfbench/", 3)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", JOBS, "--target"]
                     + targets)
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out", 3)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})", 3)


def run(command, cwd, timeout):
    """Runs `command`, waits for it, and returns its exit code. The child is
    killed and waited for on every way out, a timeout included."""
    proc = subprocess.Popen(command, cwd=cwd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run timed out after {timeout:.0f} s", 4)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def on_sigterm(signum, frame):
    # SystemExit unwinds through run() and main()'s finally: the child is
    # killed and the scratch store removed.
    sys.exit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "fleet", "handshake"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_sigterm)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if args.self_test:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(run([os.path.join(build_dir, "perfbench_selftest")],
                     build_dir, SELF_TEST_TIMEOUT_S))

    if args.record:
        workloads = ["paper", "fleet"]
        extra = ["--seed", "0", "--seconds", "1", "--trace", "0", "--record"]
        timeout = RECORD_TIMEOUT_S
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        workloads = [args.workload]
        extra = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        timeout = RUN_OVERHEAD_S + RUN_SECONDS_FACTOR * args.seconds

    build(build_dir, ["perfbench"])
    scratch = os.path.join(build_dir, f"scratch-{os.getpid()}")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    code = 0
    try:
        for workload in workloads:
            spans = os.path.join(spans_dir, f"{workload}-seed{args.seed}.jsonl")
            code = run([os.path.join(build_dir, "perfbench"),
                        "--workload", workload,
                        "--golden", os.path.join(BENCH, "golden.txt"),
                        "--scratch", scratch, "--spans", spans] + extra,
                       ROOT, timeout)
            if code != 0:
                break
    finally:
        # The fleet store is temporary on every exit path, a crash included.
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
