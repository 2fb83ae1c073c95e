"""stagecal benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, sets up several times (the
median is ``setup_s``), then runs ops in a closed loop with one client for S
seconds, checking every op's outputs outside the timed region. It prints one
line of detail (machine, inputs, sample counts) and, last, one JSON result:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics, from a run whose odd ops are traced and whose even ops are not, so
the tracing overhead is measured in the same run. The program is imported
from ``src/`` of the checkout this file sits in; scratch files go to
``.bench_work/`` there and are removed on exit.

Workloads: fixture-solve, content-4k, capture-solve (see workloads.py).
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    if name.endswith(("share", "ratio", "frac")):
        return "ratio"
    return "count"


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile): the (TAIL_BEYOND + 1)-th largest sample and
    the share of samples at or below it. With TAIL_BEYOND samples or fewer no
    percentile qualifies, and the smallest sample is returned at percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[0], 0.0
    k = n - TAIL_BEYOND  # 1-based rank
    return xs[k - 1], 100.0 * k / n


def measure(workload, seconds: float, trace: bool, tracer):
    """Ops in a closed loop for `seconds`; with tracing, every odd op is traced."""
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        use = trace and i % 2 == 1
        if use:
            tracer.op = i
        op = workload.op(i, tracer if use else None)
        (traced if use else plain).append(op)
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return plain, traced


def end_to_end(ops, setup_s):
    times = [op.seconds for op in ops]
    value, pct = tail(times)
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(times),
        "op_s.tail": value,
        "ops_per_s": len(ops) / sum(times),
        "cpu_s_per_op": sum(op.cpu_s for op in ops) / len(ops),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024.0,
    }
    return metrics, {"op_s.tail_percentile": pct, "op_s.samples": len(times)}


def per_layer(plain, traced, tracer):
    import spans

    by_op = {}
    for s in tracer.spans:
        by_op.setdefault(s["op"], []).append(s)
    rows = [spans.layer_metrics(spans.op_profile(by_op.get(op_id, []))) for op_id in sorted(by_op)]
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        metrics[name] = sum(values) if name.endswith(".errors") else statistics.median(values)
    p_plain = statistics.median(op.seconds for op in plain)
    p_traced = statistics.median(op.seconds for op in traced)
    metrics["trace.overhead_ms"] = 1e3 * (p_traced - p_plain)
    metrics["trace.overhead_frac"] = (p_traced - p_plain) / p_plain
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stagecal" / "__init__.py").is_file():
        print(f"error: no stagecal sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    import envinfo

    for var in envinfo.BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import stagecal

    if Path(stagecal.__file__).resolve().parent != SRC / "stagecal":
        print(f"error: imported stagecal from {stagecal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup()
            setups.append(time.perf_counter() - t0)
        tracer = spans.Tracer()
        plain, traced = measure(workload, args.seconds, bool(args.trace), tracer)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    ops = plain + traced
    failed = sum(1 for op in ops if op.problems)
    for k, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {k}: {problem}", file=sys.stderr)
    e2e, tail_info = end_to_end(plain, import_s + statistics.median(setups))
    if args.trace:
        metrics = per_layer(plain, traced, tracer)
        metrics["fail_frac"] = failed / len(ops)
    else:
        metrics = e2e
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.record(),
        "inputs": inputs,
        "import_s": import_s,
        "setup_samples_s": setups,
        "ops_untraced": len(plain),
        "ops_traced": len(traced),
        **tail_info,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    units = {name: END_TO_END.get(name) or per_layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
