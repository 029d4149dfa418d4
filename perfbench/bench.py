"""Runs one workload in this process and prints its metrics.

Started by run.py, which sets the BLAS thread count and the import path.
Usage: bench.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run sets up three times (setup_s is the median) and
then runs a timed closed loop; no wrapper is installed. With --trace 1
it runs an untraced loop, a traced set-up and loop, and a tracemalloc
pass over one op, then checks that every expected layer was reached and
that both loops gave bit-identical quality metrics. The last line of
standard output is the result as one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import mmcl  # noqa: E402
import tracing  # noqa: E402
from workloads import COVERAGE, QUALITY_METRICS, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 3
MAX_OPS = 1000  # op seeds stay distinct up to this count (workloads.op_seed)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "fraction",
    "edge_recall": "fraction",
    "sin_theta_g1": "sin",
    "final_loss": "loss",
    "downstream_accuracy": "fraction",
}


class Pass:
    """Outcome of one closed loop: op times, quality values and failures."""

    def __init__(self):
        self.durations = []
        self.quality = []
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run_pass(wl, seconds: float, tracer=None) -> Pass:
    """Run ops until `seconds` of op time have passed and every quality op ran.

    At most MAX_OPS ops, which also bounds a loop of ops that fail at once.
    """
    res = Pass()
    i = 0
    while (sum(res.durations) < seconds or i < wl.quality_ops) and i < MAX_OPS:
        if tracer is not None:
            tracer.op = i
        error = None
        start = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:  # a raising op is counted as failed; the loop goes on
            error = traceback.format_exc()
        res.durations.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                quality = wl.check(i, out)
                if quality is not None:
                    res.quality.append(quality)
            except Exception:  # CheckFailed, or output that could not be read
                error = traceback.format_exc()
        if error is not None:
            res.failures.append(f"op {i}: {error}")
        i += 1
    return res


def set_up(wl) -> float:
    """Generate inputs and run one untimed warm-up op; returns seconds taken."""
    start = time.perf_counter()
    wl.setup()
    wl.op(0)
    return time.perf_counter() - start


def tail(durations):
    """(value, level %) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples that percentile lies below the median, so the
    median is reported instead and the level says so.
    """
    ordered = sorted(durations)
    rank = len(ordered) - 10  # 1-based rank with exactly ten samples above it
    if rank < (len(ordered) + 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def quality_means(wl, res: Pass) -> dict:
    """Mean of each quality metric over the workload's quality ops.

    A metric the workload does not produce is reported as 1.0, so every
    end-to-end metric is present and nonzero on every workload.
    """
    out = {}
    for name in QUALITY_METRICS:
        vals = [q[name] for q in res.quality if name in q]
        if name not in wl.quality:
            out[name] = 1.0
        elif len(vals) == wl.quality_ops:
            out[name] = float(np.mean(vals))
        else:
            out[name] = float("nan")
    return out


def end_to_end(wl, res: Pass, setups):
    ok = res.attempted - len(res.failures)
    value, level = tail(res.durations)
    metrics = {
        "ops_per_s": ok / sum(res.durations),
        "op_s_p50": statistics.median(res.durations),
        "op_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": IMPORT_S + statistics.median(setups),
        "success_rate": ok / res.attempted,
    }
    metrics.update(quality_means(wl, res))
    notes = {"ops": res.attempted, "op_s": res.durations, "op_s_tail_level": level,
             "error_rate": len(res.failures) / res.attempted,
             "import_s": IMPORT_S, "setup_reps_s": setups}
    return metrics, notes


def _blas_threads():
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                      "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def _l3_size():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mmcl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MALLOC_MMAP_MAX_": os.environ.get("MALLOC_MMAP_MAX_"),
        "MALLOC_TRIM_THRESHOLD_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l3": _l3_size(),
        "git_commit": _git_commit(),
        "mmcl_source_sha256": _source_sha256(),
        "MMCL_THREADS": os.environ.get("MMCL_THREADS", "unset (harness default 1)"),
    }


def run_untraced(wl, seconds: float):
    setups = [set_up(wl) for _ in range(SETUP_REPS)]
    res = run_pass(wl, seconds)
    metrics, notes = end_to_end(wl, res, setups)
    return metrics, notes, res.attempted, res.failures, []


def run_traced(wl, seconds: float):
    set_up(wl)
    plain = run_pass(wl, seconds / 2)
    tracer = tracing.Tracer()
    with tracer.patch():
        tracer.op = tracing.SETUP
        wl.setup()
        tracer.op = None
        traced = run_pass(wl, seconds / 2, tracer)
    probe = tracing.MemoryProbe()
    tracemalloc.start()
    try:
        with probe.patch():
            wl.op(0)
    finally:
        tracemalloc.stop()
    metrics = tracer.summary(traced.attempted)
    metrics["losses.peak_mb"] = probe.peak / tracing.MB
    metrics["trace.overhead"] = (statistics.median(traced.durations)
                                 / statistics.median(plain.durations))
    problems = []
    missing = [layer for layer in COVERAGE[wl.name] if metrics[layer + ".calls"] == 0]
    if missing:
        problems.append(f"self-check: no call recorded for {', '.join(missing)}")
    if quality_means(wl, plain) != quality_means(wl, traced):
        problems.append("self-check: traced quality metrics differ from untraced ones")
    spans = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    with open(spans, "w", encoding="utf-8") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
    notes = {"untraced_ops": plain.attempted, "traced_ops": traced.attempted,
             "spans": os.path.relpath(spans, ROOT)}
    return (metrics, notes, plain.attempted + traced.attempted,
            plain.failures + traced.failures, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(mmcl.__file__), src]) != src:
        print(f"error: mmcl was imported from {mmcl.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        metrics, notes, attempted, failures, problems = run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = (END_TO_END if not args.trace
             else {name: unit for name, unit, _ in tracing.per_layer_metrics()})
    bad = [name for name, v in metrics.items() if not np.isfinite(v)]
    if bad:
        problems.append(f"non-finite metrics: {bad}")
    problems = failures + problems
    for problem in problems:
        print(problem, file=sys.stderr)
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": wl.params(), "env": env, "notes": notes,
              "metrics": metrics, "problems": problems}
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"workload {wl.name} seed {args.seed}: " + json.dumps(notes, default=str))
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"  {name:<45} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
