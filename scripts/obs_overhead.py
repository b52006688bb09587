#!/usr/bin/env python3
"""Gate on what observability costs the simulate path under parallel load.

Runs the four shipped scenarios (`scenarios/*.conf`, 16 replications
each) through two `voprofctl` builds of the same source: one with the
observability layer compiled in (the default, tracing off) and one
configured with -DVOPROF_OBS=OFF. One rep is a pass over the scenario
set; the two binaries alternate rep by rep, which of them goes first
alternates too, and every rep runs at --jobs 1 and at --jobs 4. The
script prints the median ON/OFF wall-time ratio for each jobs value
and exits 1 when the --jobs 4 ratio exceeds BOUND. It also checks
that both builds print byte-identical results, and that each binary
reports the observability state its flag claims.

    cmake -B build-perf -DCMAKE_BUILD_TYPE=Release
    cmake -B build-obsoff -DCMAKE_BUILD_TYPE=Release -DVOPROF_OBS=OFF
    cmake --build build-perf --target voprofctl
    cmake --build build-obsoff --target voprofctl
    python3 scripts/obs_overhead.py \\
        --on build-perf/tools/voprofctl --off build-obsoff/tools/voprofctl

Exit codes: 0 within the bound, 1 over the bound, 2 bad input or
mismatched outputs.
"""

import argparse
import glob
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = (1, 4)
REPLICATIONS = 16
# Interleaved reps per binary and jobs value.
REPS = 15
# Set from the measured spread on a 4-thread Xeon host, 15 reps a run:
# one binary against itself (A/A) gave median --jobs 4 ratios of
# 0.94-1.01 over six runs, so 1.15 is about twice the largest A/A
# deviation. Counters shared by all workers read 1.36-1.49 there;
# per-thread counter shards read 1.01-1.04.
BOUND = 1.15


def fail(msg):
    print(f"obs_overhead: {msg}", file=sys.stderr)
    sys.exit(2)


def obs_state(binary):
    out = subprocess.run([binary, "version"], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        if line.strip().startswith("observability:"):
            return line.split(":", 1)[1].strip()
    fail(f"{binary} version does not report its observability state")
    return ""


def run_pass(binary, scenarios, jobs):
    """Wall seconds for one pass over the scenarios, plus their output."""
    outputs = []
    t0 = time.perf_counter()
    for scenario in scenarios:
        proc = subprocess.run(
            [binary, "simulate", "--scenario", scenario,
             "--replications", str(REPLICATIONS), "--jobs", str(jobs)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"{binary} failed on {scenario}: {proc.stderr.strip()}")
        outputs.append(proc.stdout)
    return time.perf_counter() - t0, outputs


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--on", required=True,
                        help="voprofctl built with observability compiled in")
    parser.add_argument("--off", required=True,
                        help="voprofctl built with -DVOPROF_OBS=OFF")
    args = parser.parse_args()
    # Scenarios name their trace files relative to the repository root,
    # where the runs happen.
    args.on = os.path.abspath(args.on)
    args.off = os.path.abspath(args.off)

    if obs_state(args.on) != "compiled in":
        fail(f"--on {args.on} does not have observability compiled in")
    if obs_state(args.off) != "compiled out":
        fail(f"--off {args.off} does not have observability compiled out")
    scenarios = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.conf")))
    if len(scenarios) != 4:
        fail(f"expected the 4 shipped scenarios, found {len(scenarios)}")

    ratios = {jobs: [] for jobs in JOBS}
    walls = {(b, jobs): [] for b in ("on", "off") for jobs in JOBS}
    reference = None
    for rep in range(REPS):
        order = ("on", "off") if rep % 2 == 0 else ("off", "on")
        for jobs in JOBS:
            wall = {}
            for which in order:
                binary = args.on if which == "on" else args.off
                wall[which], outputs = run_pass(binary, scenarios, jobs)
                walls[(which, jobs)].append(wall[which])
                if reference is None:
                    reference = outputs
                elif outputs != reference:
                    fail(f"{which} build at --jobs {jobs} printed different "
                         f"results (rep {rep})")
            ratios[jobs].append(wall["on"] / wall["off"])

    print(f"{'jobs':>4}  {'on_ms':>8}  {'off_ms':>8}  {'ratio':>6}  "
          f"{'ratio_q1':>8}  {'ratio_q3':>8}")
    for jobs in JOBS:
        q1, q3 = quartiles(ratios[jobs])
        print(f"{jobs:>4}  "
              f"{statistics.median(walls[('on', jobs)]) * 1e3:>8.1f}  "
              f"{statistics.median(walls[('off', jobs)]) * 1e3:>8.1f}  "
              f"{statistics.median(ratios[jobs]):>6.3f}  "
              f"{q1:>8.3f}  {q3:>8.3f}")
    ratio4 = statistics.median(ratios[4])
    if ratio4 > BOUND:
        print(f"FAIL: median ON/OFF ratio {ratio4:.3f} at --jobs 4 exceeds "
              f"the bound {BOUND:.3f}")
        return 1
    print(f"ok: median ON/OFF ratio {ratio4:.3f} at --jobs 4 is within "
          f"{BOUND:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
