#!/usr/bin/env python3
"""d2dshare benchmark: three workloads, oracle-checked ops, a per-layer traced run.

Usage (from the repository root):

    python3 benchmark/run.py --workload rate_sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs ops untraced
for half the time, then the same ops traced, and reports the per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload both ways in
child processes and prints one table.  ``mc_validate``
runs like the others but is not listed in BENCHMARK.json: on a shared 2-vCPU
virtual machine its figures spread too widely from run to run to carry a bound.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 and prints no result when that source is absent.
BLAS/OpenMP threads are pinned to 1.  Every op's output is checked against the
scipy oracle in ``oracle.py`` after the timed phase.  An op fails when it
raises, exits nonzero, returns a non-finite value or misses the oracle; each
failure is listed with its inputs and cause in the run record written under
``benchmark/out/``.  ``correct`` in the result line is true when every
attempted op was checked to completion: wrong answers are not hidden in it,
they are counted in ``failed``.

Timings are normalised to a reference host speed.  On a shared 2-vCPU virtual
machine (Xeon, 2.0 GHz) the same work ran up to 1.6x slower or faster from one
minute to the next, and drifted by up to 40% within seconds.  A fixed reference kernel (``kernel.py``) is timed
before every op, in an interpreter of its own so that nothing an op leaves in
the workload process can change it; its median time over ``KERNEL_REF_S`` is
the run's host slowdown, and every time is divided by it (throughputs
multiplied).  A change to the program moves the normalised figures as it
moves wall time.  Raw wall-clock figures, the slowdown and blocks of kernel
samples taken before and after the workload are in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from schedule import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STARTS = 7
CALIBRATION_SAMPLES = 50
# Time of the reference kernel on an unloaded host; it sets the normalised unit.
KERNEL_REF_S = 0.75e-3

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

# Prints the monotonic clock right after the import returns; exits 3 if the
# package came from anywhere but the given source directory.
_CHILD_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
import d2dshare
t = time.monotonic()
print(repr(t))
sys.exit(0 if d2dshare.__file__.startswith(sys.argv[1]) else 3)
"""


def tail_index(n: int) -> tuple[int, int]:
    """(percentile, 0-based index) of the highest whole percentile with >= 10 ops beyond it.

    Nearest rank: the p-th percentile of n sorted values is the value at rank
    ceil(p n / 100); the ops beyond it number n minus that rank.  With 10 ops
    or fewer no percentile qualifies, and the maximum is reported as p100.
    """
    if n <= 10:
        return 100, n - 1
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, rank - 1


class KernelProbe:
    """``kernel.py`` running in a child interpreter; ``sample()`` times the kernel once."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "kernel.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def calibration(self) -> dict:
        """A block of kernel samples, so host drift shows beside the metrics."""
        samples = [self.sample() for _ in range(CALIBRATION_SAMPLES)]
        return {"host_slowdown": host_slowdown(samples), "kernel_s": samples}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until ``import d2dshare`` returns."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _CHILD_IMPORT, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()) - t0)
    return times


def machine_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_phase(next_op, seconds: float, workdir: Path, probe: KernelProbe, tracer=None, period: int = 1):
    """Run ops ``next_op(0), next_op(1), ...`` in whole periods until ``seconds`` have
    passed, or until ``next_op`` returns None; a reference-kernel sample precedes
    each op, outside its timing.

    Returns the op records, the kernel samples and each whole period's wall time.
    """
    import ops

    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    records, kernel, marks, spent = [], [], [], 0.0
    try:
        start = time.perf_counter()
        while time.perf_counter() - start - spent < seconds or len(records) % period:
            if len(records) % period == 0:
                marks.append(time.perf_counter() - spent)
            op = next_op(len(records))
            if op is None:
                break
            t0 = time.perf_counter()
            kernel.append(probe.sample())
            spent += time.perf_counter() - t0
            call = ops.prepare(op)
            if tracer is not None:
                tracer.op_id = op["id"]
            records.append(ops.run_op(op, call))
        end = time.perf_counter() - spent
        for rec in records:
            ops.collect_files(rec)
    finally:
        os.chdir(cwd)
    return records, kernel, [b - a for a, b in zip(marks, marks[1:] + [end])]


def check_records(records: list) -> list[str]:
    """Oracle-check every successful op; return oracle breakdowns (benchmark faults)."""
    import ops
    from oracle import Oracle, OracleError

    oracle = Oracle()
    broken = []
    for rec in records:
        if rec.failed:
            continue
        try:
            cause = ops.check(rec, oracle)
        except OracleError as exc:
            broken.append(f"op {rec.op['id']}: {exc}")
            continue
        if cause:
            rec.error = f"oracle mismatch: {cause}"
    return broken


def _period_timings(records: list, period_s: list[float], slowdown: float) -> tuple[dict, list]:
    """Throughput and latency percentiles of each period (one full op mix, a fixed
    number of ops), divided by the host slowdown, and their medians over the run's
    periods: the percentile rule then picks the same rank however many periods a
    run holds."""
    period = len(records) // len(period_s)
    per = []
    for k, wall in enumerate(period_s):
        lat = sorted(r.latency_s * 1e3 / slowdown for r in records[k * period:(k + 1) * period])
        per.append({"ops_per_s": period * slowdown / wall, "op_p50_ms": statistics.median(lat),
                    "op_tail_ms": lat[tail_index(period)[1]]})
    return {k: statistics.median(p[k] for p in per) for k in per[0]}, per


def host_slowdown(kernel_s: list[float]) -> float:
    return statistics.median(kernel_s) / KERNEL_REF_S


def end_to_end(records: list, period_s: list[float], kernel_s: list[float],
               setup: list[float], rss: float) -> tuple[dict, dict]:
    """End-to-end metrics, timings normalised to the reference host speed.

    Set-up is normalised by the slowdown of the timed phase that follows it: a
    kernel sample taken right after a child interpreter exits would read the
    child's cache footprint as host slowness."""
    slowdown = host_slowdown(kernel_s)
    timings, per = _period_timings(records, period_s, slowdown)
    failed = sum(r.failed for r in records)
    values = {
        "setup_s": statistics.median(setup) / slowdown,
        **timings,
        "ops_ok_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": rss,
    }
    period = len(records) // len(period_s)
    pct, idx = tail_index(period)
    detail = {
        "op_tail_percentile": pct,
        "op_tail_ops_beyond_per_period": period - 1 - idx,
        "host_slowdown": slowdown,
        "periods": per,
        "raw_wall_clock": {"setup_s": statistics.median(setup), **_period_timings(records, period_s, 1.0)[0]},
        "ops_attempted": len(records),
        "ops_failed": failed,
        "ops_failed_frac": failed / len(records),
        "timed_phase_s": sum(period_s),
        "setup_samples_s": setup,
        "kernel_samples_s": kernel_s,
    }
    trials = sum(r.op["trials"] for r in records if r.op["kind"].startswith("validate_"))
    if trials:
        detail["mc_trials_per_s"] = trials * slowdown / sum(period_s)
    return values, detail


def _record_ops(records: list) -> dict:
    return {
        "failures": [{"id": r.op["id"], "kind": r.op["kind"], "inputs": r.op, "cause": r.error}
                     for r in records if r.failed],
        "latency_ms": {str(r.op["id"]): r.latency_s * 1e3 for r in records},
        "output_sha256": {str(r.op["id"]): r.digests for r in records},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "d2dshare" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    setup = None if trace else measure_setup()
    import d2dshare
    import schedule as sched

    if not d2dshare.__file__.startswith(str(SRC)):
        print(f"error: d2dshare imported from {d2dshare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    plan = sched.Schedule(workload, seed)
    work = OUT / f"work-{workload}-{seed}-{int(trace)}-{os.getpid()}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": sched.ops_digest(plan.prefix(sched.DIGEST_OPS)),
    }
    try:
        with KernelProbe() as probe:
            record["calibration_before"] = probe.calibration()
            if not trace:
                records, kernel, period_s = timed_phase(plan.op, seconds, work / "timed", probe,
                                                        period=plan.period)
                rss = peak_rss_mb()
            else:
                import tracing

                points = _probe_points(plan)
                cover_ops = tracing.coverage_ops(points[0])
                # Not whole periods: rate_sweep's period alone outlasts the run's
                # time limit when run twice.  The traced phase replays the same ops.
                records, kernel, period_s = timed_phase(plan.op, seconds / 2.0, work / "untraced", probe)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced, traced_kernel, traced_s = timed_phase(
                        lambda i: plan.op(i) if i < len(records) else None, float("inf"), work / "traced", probe,
                        tracer)
                    tracer.op_id = "coverage"
                    cover, _, _ = timed_phase(lambda i: cover_ops[i] if i < len(cover_ops) else None,
                                              float("inf"), work / "coverage", probe)
                    tracing.coverage_calls(points[0])
                finally:
                    tracer.uninstall()
                cli_jobs = [r.bytes_written for r in traced + cover if r.bytes_written]
                layer = tracing.span_metrics(tracer.spans, sum(cli_jobs) / len(cli_jobs))
                layer.update(tracing.probe_metrics(points))
                rates = [len(recs) * host_slowdown(k) / sum(s)
                         for recs, k, s in ((records, kernel, period_s), (traced, traced_kernel, traced_s))]
                layer["trace_overhead_frac"] = 1.0 - rates[1] / rates[0]
                _write_json(OUT / f"trace-{workload}-seed{seed}.json",
                            {"fields": ["name", "start", "end", "parent", "op_id", "attrs"], "spans": tracer.spans})
                records = records + traced
            record["calibration_after"] = probe.calibration()
        oracle_broken = check_records(records)
        record["machine"] = machine_context()
        record["executed_inputs_sha256"] = sched.ops_digest([r.op for r in records])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in records)
    if trace:
        names = tracing.PER_LAYER
        values = layer
        bad = [n for n, _ in names if not math.isfinite(values.get(n, math.nan))]
        if bad:
            oracle_broken.append(f"per-layer metrics not measured: {bad}")
    else:
        names = END_TO_END
        values, detail = end_to_end(records, period_s, kernel, setup, rss)
        record.update(detail)
    record["oracle_errors"] = oracle_broken
    record.update(_record_ops(records))
    record["metrics"] = {n: {"value": values.get(n), "unit": u} for n, u in names}
    path = OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    _write_json(path, record)

    for fail in record["failures"]:
        print(f"FAILED op {fail['id']} {fail['kind']}: {fail['cause']}")
    for n, u in names:
        print(f"{workload:12s} {n:50s} {values.get(n)!r} {u}")
    print(f"run record: {path.relative_to(ROOT)}")
    result = {
        "correct": not oracle_broken,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0


def _probe_points(plan) -> list:
    """The workload's own parameter points for the layer probes: the first op of each
    alpha stratum, ordered so that points with alpha >= 3 come first.

    oneshot_cli's lowest band thereby puts one small-alpha rate into the
    integrator probe, while coverage calls run on the first point.
    """
    import ops
    import schedule as sched
    from d2dshare.model import NetworkParams

    if plan.workload == "mc_validate":
        return [NetworkParams()]
    points = {}
    for op in plan.prefix(4 * sched.ROUND):
        stratum = op["band"] if "band" in op else op["block"] % sched.RATE_STRATA
        points.setdefault(stratum, ops.params_of(op))
    return sorted(points.values(), key=lambda p: (p.alpha < 3.0, p.alpha))


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own child process; one table."""
    table = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            table.setdefault(workload, {"attempted": 0, "failed": 0, "metrics": {}})
            table[workload]["metrics"].update(result["metrics"])
            if trace == 0:
                table[workload].update(attempted=result["attempted"], failed=result["failed"])
    for workload, res in table.items():
        print(f"== {workload}: attempted {res['attempted']}, failed {res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:50s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(table))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
