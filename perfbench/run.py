"""qrs-sim benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload chsh_scan --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Result files and spans go to
``perfbench/results/``.  The package is imported from ``src/`` of the
checkout the runner sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
#: at least ten latency samples beyond p90
MIN_SAMPLES = 100
#: a run may overrun --seconds by this factor to reach MIN_SAMPLES
OVERRUN = 3
#: a run is cut into this many consecutive blocks of ops, and the timing
#: metrics are taken over the quietest QUIET_SHARE of them (ranked by block
#: median, at least MIN_SAMPLES ops): on a shared host other tenants slow
#: whole stretches of a run, which this leaves out, while slow ops scattered
#: through the run stay in every block
BLOCKS = 40
QUIET_SHARE = 0.1
#: traced ops per op/s of nominal rate and second of --seconds; the traced
#: run makes one untraced and two traced passes over them
TRACE_OPS_SHARE = 0.2
PROBE_TIMEOUT_S = 60
#: the package is single-caller dense linear algebra on <= 324 dims; pinning
#: BLAS to one thread keeps the load one process, one caller, no extra threads
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qrs-sim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a git repository has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(int(BLAS_THREADS), nproc),
        "nproc": nproc,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "load": "one process, one caller, closed loop",
    }


def measure_setup(args) -> float:
    """Median over fresh processes of the time from process start until
    the first op could be timed: interpreter start, imports, input
    generation and warm-up until the caches are filled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            try:
                line = probe.stdout.readline()
                ready = time.perf_counter()
                probe.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
        times.append(ready - begin)
    return statistics.median(times)


def _op(wl, inputs):
    """One program call; returns (seconds, output or the exception)."""
    begin = time.perf_counter()
    try:
        output = wl.call(inputs)
    except (Exception, SystemExit) as exc:  # argparse exits instead of raising
        output = exc
    return time.perf_counter() - begin, output


def _passes_check(wl, inputs, output, failures) -> bool:
    if isinstance(output, BaseException):
        failures.append(f"{type(output).__name__}: {output}")
        return False
    try:
        ok = wl.check(inputs, output)
    except Exception as exc:
        failures.append(f"check raised {type(exc).__name__}: {exc}")
        return False
    if not ok:
        failures.append(f"output check failed for {inputs[0]!r}")
    return ok


def run_untraced(wl, seconds: float):
    wl.reset()
    latencies, failures = [], []
    failed = 0
    begin = time.perf_counter()
    while True:
        inputs = wl.draw()
        elapsed, output = _op(wl, inputs)
        latencies.append(elapsed)
        failed += not _passes_check(wl, inputs, output, failures)
        spent = time.perf_counter() - begin
        if (spent >= seconds and len(latencies) >= MIN_SAMPLES) or spent >= OVERRUN * seconds:
            return latencies, failed, failures


def quiet_latencies(latencies: list[float]) -> list[float]:
    """The ops of the quietest blocks of the run; see BLOCKS."""
    k = max(1, len(latencies) // BLOCKS)
    blocks = sorted((latencies[i:i + k] for i in range(0, len(latencies) - k + 1, k)), key=statistics.median)
    kept: list[float] = []
    for count, block in enumerate(blocks, start=1):
        kept += block
        if count >= QUIET_SHARE * len(blocks) and len(kept) >= MIN_SAMPLES:
            break
    return kept


def end_to_end(args, wl):
    setup_s = measure_setup(args)
    latencies, failed, failures = run_untraced(wl, args.seconds)
    n = len(latencies)
    quiet = quiet_latencies(latencies)
    p90 = statistics.quantiles(quiet, n=10, method="inclusive")[8]
    metrics = {
        "throughput_ops_s": (len(quiet) / sum(quiet), "1/s"),
        "latency_p50_ms": (statistics.median(quiet) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_op_share": ((n - failed) / n, "ratio"),
    }
    details = {
        "samples": n,
        "samples_timed": len(quiet),
        "samples_beyond_p90": sum(t > p90 for t in quiet),
        "all_ops_p50_ms": statistics.median(latencies) * 1e3,
        "all_ops_throughput_ops_s": n / sum(latencies),
        "failures": failures[:5],
    }
    return n, failed, metrics, details


@dataclass
class Pass:
    """One pass over the first ops of the stream, traced or not."""

    wall: float
    failed: int
    failures: list
    hit_ratio: float = 0.0
    rec: spans.SpanRecorder | None = None
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly across traced passes."""
        out = {f"{name}.calls": self.calls.get(name, 0) for name in spans.SPAN_NAMES}
        out.update(self.rec.counts)
        out.update(self.rec.maxima)
        return out


def run_pass(wl, n_ops: int, rec=None) -> Pass:
    from workloads import embed_cache

    wl.reset()
    wl.recorder = rec
    cache = embed_cache()
    before = cache.cache_info() if cache else None
    failures, failed = [], 0
    begin = time.perf_counter()
    with spans.Instrumentation(rec) if rec else contextlib.nullcontext():
        for i in range(n_ops):
            if rec:
                rec.current_op = i
                root = rec.open(spans.OP_SPAN)
            inputs = wl.draw()
            failed += not _passes_check(wl, inputs, _op(wl, inputs)[1], failures)
            if rec:
                rec.close(root)
    result = Pass(time.perf_counter() - begin, failed, failures, rec=rec)
    wl.recorder = None
    if cache is not None:
        after = cache.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        result.hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    if rec:
        result.calls, result.self_s = rec.span_totals()
    return result


def per_layer(args, wl):
    n_ops = max(2, round(args.seconds * wl.nominal_ops_per_s * TRACE_OPS_SHARE))
    untraced = run_pass(wl, n_ops)
    traced = [run_pass(wl, n_ops, spans.SpanRecorder()) for _ in range(2)]
    first = traced[0]

    def self_ms(names) -> float:
        """Mean over the traced passes of the summed self time, per op."""
        return statistics.fmean(sum(p.self_s.get(n, 0.0) for n in names) for p in traced) * 1e3 / n_ops

    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (first.calls.get(name, 0) / n_ops, "count/op")
        metrics[f"{name}.self_ms"] = (self_ms([name]), "ms/op")
    for key, unit in spans.COUNTERS.items():
        if unit == "dim":
            metrics[key] = (float(first.rec.maxima.get(key, 0.0)), unit)
        else:
            metrics[key] = (first.rec.counts.get(key, 0.0) / n_ops, unit)
    metrics["bell.embed_cache.hit_ratio"] = (first.hit_ratio, "ratio")
    for layer in spans.LAYERS:
        names = {n for p in traced for n in p.self_s if n.split(".")[0] == layer}
        metrics[f"{layer}.self_ms"] = (self_ms(names), "ms/op")
    metrics["trace.overhead_ratio"] = (statistics.fmean(p.wall for p in traced) / untraced.wall, "ratio")

    a, b = (p.exact_counts() for p in traced)
    span_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.json.gz"
    first.rec.write(str(span_file))
    passes = [untraced, *traced]
    details = {
        "traced_ops": n_ops,
        "absent": spans.absent_targets(),
        "count_mismatches": sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k)),
        "spans": len(first.rec.start),
        "span_file": str(span_file.relative_to(ROOT)),
        "failures": [f for p in passes for f in p.failures][:5],
    }
    return len(passes) * n_ops, sum(p.failed for p in passes), metrics, details


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "qrs_sim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/qrs_sim; run from a qrs-sim checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            wl.reset()
            print("ready", flush=True)
            return 0
        attempted, failed, metrics, details = (per_layer if args.trace else end_to_end)(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    result = {
        "correct": failed == 0 and not details.get("count_mismatches"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "details": details, **result}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("details " + json.dumps(details))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
