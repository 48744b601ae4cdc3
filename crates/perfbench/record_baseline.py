#!/usr/bin/env python3
"""Record a reference run of every workload into baseline.json.

Runs each workload once untraced and once traced with the same seed,
and stores both result lines together with the benchmark's settings (as
the benchmark prints them) and a description of the box. Run from the
repository root:

    python3 crates/perfbench/record_baseline.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scan_mix", "scan_large", "day_publish"]


def box():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as f:
        mem_kib = int(f.readline().split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "mem_gib": round(mem_kib / 2**20, 1),
        "kernel": platform.release(),
    }


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    settings = next(json.loads(l[len("settings: "):]) for l in lines if l.startswith("settings: "))
    return settings, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args()
    baseline = {"box": box(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        settings, untraced = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        baseline["workloads"][workload] = {
            "settings": settings,
            "untraced": untraced,
            "traced": traced,
        }
        print(f"{workload}: correct={untraced['correct'] and traced['correct']}", file=sys.stderr)
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
