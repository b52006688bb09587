#!/usr/bin/env python3
"""Build and run one workload of the voprof end-to-end benchmark.

    python3 e2e/run.py --workload train|simulate|serve --seed N \
        --seconds S --trace 0|1
    python3 e2e/run.py --self-test

Builds the package in e2e/ (CMake, Release: the voprof libraries,
voprofd and the voprof-bench driver) into $CARGO_TARGET_DIR, or
.bench_build at the repository root, then runs the driver from the
repository root. The driver's last stdout line is the JSON result.

--self-test runs the driver's own unit checks, then a short smoke
configuration of every workload, traced and untraced, and checks each
result line against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("train", "simulate", "serve")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out_dir):
    """Configure (once) and build; False with the log tail on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: voprof sources not found at " + ROOT, file=sys.stderr)
        return False
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DVOPROF_WERROR=OFF"])
    steps.append(["cmake", "--build", out_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                print("run.py: build failed, see " + log_path,
                      file=sys.stderr)
                return False
    return True


def run_driver(out_dir, args):
    """Run voprof-bench in its own session so that a timeout also stops
    any voprofd it spawned. Returns (exit code, stdout)."""
    work = os.path.join(out_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out_dir, "voprof-bench")] + args + [
        "--work-dir", os.path.relpath(work, ROOT),
        "--scenarios", "scenarios"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: voprof-bench timed out", file=sys.stderr)
        return 1, ""
    finally:
        # A driver that crashed may have left a daemon in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def self_test(out_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": sorted(m["name"] for m in spec["end_to_end"]),
        "1": sorted(m["name"] for m in spec["per_layer"]),
    }
    rc, out = run_driver(out_dir, ["--self-test"])
    sys.stdout.write(out)
    failures = 0 if rc == 0 else 1
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            rc, out = run_driver(out_dir, [
                "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", trace, "--smoke"])
            lines = out.strip().splitlines()
            problem = "exit code %d" % rc if rc else ""
            if not problem:
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                if not result or result.get("correct") is not True:
                    problem = "no correct result line"
                elif sorted(result["metrics"]) != expected[trace]:
                    problem = "metrics differ from BENCHMARK.json"
                elif result["attempted"] < 1 or result["failed"] != 0:
                    problem = "attempted %s, failed %s" % (
                        result["attempted"], result["failed"])
            print("smoke %-8s trace=%s: %s" % (workload, trace,
                                                problem or "ok"))
            failures += bool(problem)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    if args.self_test:
        return self_test(out_dir)
    rc, out = run_driver(out_dir, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace])
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
