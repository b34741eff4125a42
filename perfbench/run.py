"""sepseg benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a worker process of its own (``worker.py``), with
the BLAS thread count capped at the number of usable cores. This process
waits for the worker, echoes its report, and prints the result as the
last line of standard output. When the worker dies, for instance killed
for lack of memory, the result says so with ``correct: false`` instead
of the benchmark crashing. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-proposed-64", "infer-proposed-256", "infer-unet-256")
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Keep freed memory in the process instead of returning large arrays
    # to the kernel, so that each op does not fault its memory in again.
    # On a shared host that fault time varies from run to run by more
    # than the kernels being measured; peak_rss_mb still shows memory.
    env["MALLOC_MMAP_THRESHOLD_"] = str(2**32)
    env["MALLOC_TRIM_THRESHOLD_"] = str(2**36)
    return env


def run_workload(name, args):
    """Run one workload in a worker; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        print(f"[{name}] worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
    lines = stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    for line in lines:
        print(line)
    if result is None:
        print(f"[{name}] worker ended with code {proc.returncode} and no result", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="shrunken sizes, for selftest.py")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sepseg", "cli.py")):
        print(f"error: no sepseg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args)
        print()
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
