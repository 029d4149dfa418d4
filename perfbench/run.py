"""mmcl benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs every workload in turn. Each workload runs in a
child process of its own (bench.py), so its peak RSS is its own, with mmcl
imported from src/ and the child's environment from child_env(). The exit
code is nonzero when any output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("semi-pool", "infonce-gd", "bsgmp-sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 175
# glibc keeps freed memory in the heap instead of returning it to the kernel,
# so each op reuses the pages its warm-up op faulted in. Without this, an op
# on semi-pool faults about 1 GB afresh, and that kernel time (page faults,
# huge-page compaction) varied from 0.1 to 0.7 s per op on a shared VM.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 36)}


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env.pop("MMCL_THREADS", None)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "mmcl", "__init__.py")):
        print(f"error: no mmcl sources under {ROOT}/src", file=sys.stderr)
        return 2
    code = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:  # negative when the child died of a signal
            code = proc.returncode if proc.returncode > 0 else 1
    return code


if __name__ == "__main__":
    sys.exit(main())
