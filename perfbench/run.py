"""Run one benchmark workload of the ``schottky`` package and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload g3-correlators --seed 1 --seconds 15 --trace 0

Workloads: ``g3-correlators``, ``g3-sweep``, ``g3-lattice`` (see README.md).
One client sends requests in a closed loop, in whole rounds, until
``--seconds`` have passed.  Then a seeded sample is recomputed at a finer
policy and every request is classified; only passing requests count
toward throughput and latency.  BLAS threads and glibc's mmap threshold
are pinned, and timings are scaled by a calibration kernel run between
requests.  ``--trace 1`` runs the loop for half the time with per-layer
spans instead, replays the same requests untraced to measure the
tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# Set-up (import and fixed surfaces) is repeated this often; the median counts.
SETUP_REPEATS = 3

# Host-speed scaling.  On a shared host the time of one fixed computation
# drifts by up to 2x within a minute, and the requests drift with it.  The
# Calibration kernel runs every CAL_INTERVAL_S between requests; timings
# are divided by its time over CAL_REFERENCE_S (about its time on a quiet
# 2-vCPU virtual machine), so they read as on that machine.
CAL_REFERENCE_S = 0.007
CAL_INTERVAL_S = 0.25

# mallopt parameter number and value, see pin_mmap_threshold.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024

# latency_p90_ms needs ten passing samples beyond the 90th percentile.
P90_MIN_SAMPLES = 100

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import schottky.correlators; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Record:
    """One attempted request: its latency and either an answer or an error."""

    kind: str
    latency: float
    answer: object | None
    error: str | None
    slowness: float = 1.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("g3-correlators", "g3-sweep", "g3-lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold; False where there is no glibc.

    glibc raises the threshold the first time it frees a large block, after
    which large numpy temporaries come from the heap at addresses that
    differ from process to process, and with them the speed of the orbit
    sums: one run of g3-correlators read 120 requests/s and the next 95.
    Fixed at glibc's initial 128 KiB, every large array is mapped afresh,
    page-aligned, in every run.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"cannot import schottky from {SRC}:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    ) if shutil.which("git") else None
    return {
        "git_sha": git.stdout.strip() if git is not None and git.returncode == 0 else "unknown",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


@contextlib.contextmanager
def inputs_frozen():
    """Exempt what exists now, the generated inputs above all, from garbage
    collection for the duration, so that collection pauses scale with
    the work the loop does rather than with the input pool."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Calibration:
    """A fixed computation outside the library, timed next to the requests.

    It mixes the kinds of work the requests do (Python complex arithmetic,
    numpy array arithmetic, a LAPACK solve), so that contention on a
    shared host slows it as it slows them.  Calling it returns its time.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.rhs = rng.standard_normal(120) + 0j
        self.points = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        self.solve = np.linalg.solve

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0j
        for k in range(6000):
            acc += complex(k, 1.0) * 0.5
        for _ in range(6):
            self.solve(self.matrix, self.rhs)
            (1.0 / (self.points * self.points + 1.0)).sum()
        return time.perf_counter() - t0


def run_loop(workload, seconds: float, tracer=None, limit: int | None = None,
             calibrate: Calibration | None = None):
    """Closed loop over whole rounds until ``seconds`` (or ``limit`` requests).

    With ``calibrate``, the kernel runs before the first request, after
    any request that ends CAL_INTERVAL_S or more after the last run, and
    after the loop; each record's ``slowness`` is the mean of the two
    runs around it over CAL_REFERENCE_S.  Calibration time is left out
    of the wall time.  Returns the records, the wall time, and whether
    the pre-generated rounds ran out first.
    """
    records: list[Record] = []
    cal: list[float] = [calibrate()] if calibrate is not None else []
    window: list[int] = []
    spent = 0.0
    start = last_cal = time.perf_counter()
    exhausted = True
    for requests in workload.rounds:
        for request in requests:
            if tracer is not None:
                tracer.request = len(records)
            t0 = time.perf_counter()
            answer, error = None, None
            try:
                if tracer is None:
                    answer = workload.call(request)
                else:
                    with tracer.span("request"):
                        answer = workload.call(request)
            except Exception as exc:  # a failed request is counted, not fatal
                error = describe(exc)
            records.append(Record(request.kind, time.perf_counter() - t0, answer, error))
            if calibrate is not None:
                window.append(len(cal) - 1)
                if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                    cal.append(calibrate())
                    spent += cal[-1]
                    last_cal = time.perf_counter()
        wall = time.perf_counter() - start - spent
        if (len(records) >= limit) if limit is not None else wall >= seconds:
            exhausted = False
            break
    if calibrate is not None:
        cal.append(calibrate())
        for rec, w in zip(records, window):
            rec.slowness = (cal[w] + cal[w + 1]) / (2.0 * CAL_REFERENCE_S)
    return records, wall, exhausted


def describe(exc: BaseException) -> str:
    lines = str(exc).splitlines()
    return f"{type(exc).__name__}: {lines[0][:90] if lines else ''}"


def check_sample(workload, records: list[Record], seed: int) -> dict[int, object]:
    """Finer-policy answers for a seeded sample of answered requests.

    The sample takes requests of each kind in turn, so every kind is
    checked before any is checked twice.  A reference that raises maps
    to the error string.
    """
    rng = random.Random(seed)
    by_kind: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        if rec.answer is not None:
            by_kind.setdefault(rec.kind, []).append(i)
    pools = [rng.sample(idx, len(idx)) for _, idx in sorted(by_kind.items())]
    rng.shuffle(pools)
    chosen: list[int] = []
    while len(chosen) < workload.check_sample and any(pools):
        for pool in pools:
            if pool and len(chosen) < workload.check_sample:
                chosen.append(pool.pop())
    flat = [req for requests in workload.rounds for req in requests]
    fine: dict[int, object] = {}
    for i in chosen:
        try:
            fine[i] = workload.fine(flat[i])
        except Exception as exc:  # the reference itself failing is a finding
            fine[i] = describe(exc)
    return fine


def classify_all(workload, records: list[Record], fine: dict[int, object]):
    """Verdict per record, using the workload's target and the fine sample."""
    import workloads

    verdicts = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            verdicts.append(workloads.Verdict(rec.error))
        elif isinstance(fine.get(i), str):
            verdicts.append(workloads.Verdict(f"finer-policy reference raised {fine[i]}"))
        else:
            verdicts.append(workloads.classify(rec.answer, workload.target, fine.get(i)))
    return verdicts


def request_metrics(records, verdicts, wall: float) -> dict:
    """Throughput, latency and failure rate over passing requests only.

    ``req_per_s`` and the latencies are at reference host speed: each
    request's time is divided by its ``slowness``.  The ``*_raw`` values
    are the same figures unscaled.  With no passing request the whole
    measured interval stands in for the median latency, since a failed
    request misses any latency limit.
    """
    ok = [rec for rec, v in zip(records, verdicts) if v.ok]
    busy = sum(rec.latency / rec.slowness for rec in records)
    scaled = [rec.latency / rec.slowness * 1e3 for rec in ok]
    raw = [rec.latency * 1e3 for rec in ok]
    out = {
        "req_per_s": len(ok) / busy,
        "latency_p50_ms": statistics.median(scaled) if ok else busy * 1e3,
        "latency_p90_ms": None,
        "fail_rate": (len(records) - len(ok)) / len(records),
        "req_per_s_raw": len(ok) / wall,
        "latency_p50_ms_raw": statistics.median(raw) if ok else wall * 1e3,
        "host_slowness": statistics.median(rec.slowness for rec in records),
    }
    if len(ok) >= P90_MIN_SAMPLES:
        out["latency_p90_ms"] = statistics.quantiles(scaled, n=10)[-1]
    return out


UNITS = {
    "req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "fail_rate": "1", "setup_s": "s", "peak_rss_mb": "MB",
    "req_per_s_raw": "1/s", "latency_p50_ms_raw": "ms", "setup_s_raw": "s",
    "host_slowness": "1",
}

# The end-to-end metrics the last line carries (BENCHMARK.json end_to_end).
# latency_p90_ms and fail_rate are printed and reported but left out: the
# first lacks samples on two workloads, the second is 0 on g3-sweep (the
# result line's "failed" and "attempted" carry it).
RESULT_METRICS = ("req_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb")


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, check the anchors, run the loop, check the answers.

    Returns the full report and the result object of the last line.
    ``setup_s`` is the median import time in a fresh interpreter plus
    the median of SETUP_REPEATS builds of the fixed surfaces, scaled by
    the calibration kernel's median time around them.  With
    ``trace`` the set-up, anchors and a loop of half the time run under
    a :class:`tracing.Tracer`, the same requests run again untraced, and
    the metrics are the tracer's per-layer ones.
    """
    import tracing
    import workloads

    if not trace:
        calibrate = Calibration()
        setup_cal = [calibrate()]
        import_s = import_seconds()
        builds = []
        for _ in range(SETUP_REPEATS):
            setup_cal.append(calibrate())
            t0 = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - t0)
        setup_raw = import_s + statistics.median(builds)
        anchors = workloads.anchors()
        with inputs_frozen():
            records, wall, exhausted = run_loop(workload, seconds, calibrate=calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        with tracer:
            tracer.request = "setup"
            workload.build()
            tracer.request = "anchor"
            anchors = workloads.anchors()
            with inputs_frozen():
                records, wall, exhausted = run_loop(workload, seconds / 2, tracer)
        with inputs_frozen():
            _, untraced, _ = run_loop(workload, seconds, limit=len(records))
        overhead_pct = 100.0 * (wall / untraced - 1.0)

    fine = check_sample(workload, records, seed)
    verdicts = classify_all(workload, records, fine)
    failures = Counter(v.reason for v in verdicts if not v.ok)
    silent = sum(v.silent for v in verdicts)
    anchor_failures = {k: v for k, v in anchors.items() if v is not None}
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "rounds_exhausted": exhausted,
        "attempted": len(records), "failed": sum(failures.values()),
        "failures": dict(failures), "silent_wrong": silent,
        "checked": len(fine), "anchors": anchors,
    }
    if not trace:
        metrics = request_metrics(records, verdicts, wall)
        metrics["setup_s"] = setup_raw * CAL_REFERENCE_S / statistics.median(setup_cal)
        metrics["setup_s_raw"] = setup_raw
        metrics["peak_rss_mb"] = peak_rss_mb
        report["metrics"] = {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()}
        result_metrics = {n: report["metrics"][n] for n in RESULT_METRICS}
    else:
        spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.dump(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        result_metrics = report["metrics"] = tracer.metrics(overhead_pct)
    result = {
        "correct": not silent and not anchor_failures, "attempted": len(records),
        "failed": sum(failures.values()), "metrics": result_metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "schottky" / "__init__.py").is_file():
        raise SystemExit(f"no schottky sources under {SRC}; run from the repository root")
    pin_blas_threads()
    pinned = pin_mmap_threshold()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    report, result = measure(workload, args.seed, args.seconds, bool(args.trace))
    report["env"]["mmap_threshold"] = MMAP_THRESHOLD if pinned else "not pinned"
    for name, m in report["metrics"].items():
        shown = f"{m['value']:.6g} {m['unit']}" if m["value"] is not None \
            else f"n/a (fewer than {P90_MIN_SAMPLES} passing requests)"
        print(f"{name:<38} {shown}")
    for reason, count in sorted(report["failures"].items(), key=lambda kv: -kv[1]):
        print(f"failed {count:>6}  {reason}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
