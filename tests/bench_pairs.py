"""Run the benchmark from two checkouts in alternating pairs and write the paired results.

    python tests/bench_pairs.py PARENT CHANGE --out BENCH_N.json --claim TEXT \\
        [--what TEXT] [--workloads W1,W2] [--pairs 10] [--seed 0] [--trace 0]

PARENT and CHANGE are the roots of two checkouts. The command, the run length
and the default workloads (all of them, in the file's order) come from
CHANGE's BENCHMARK.json. Pair i (1-based) runs every workload, in the order
given, with seed SEED + i on both sides; odd pairs run PARENT first, even pairs
CHANGE first. Each run is ``COMMAND --workload W --seed N --seconds
RUN_SECONDS --trace T`` from its checkout's root, one at a time. The output
file holds what was compared, the command, the machine (from the first run's
detail), the claim (name it before the runs), how the quartiles are taken,
one summary per trace setting and every run. An existing output file keeps its runs, claim and description: the
new runs are added to them and everything is summarized again, so untraced and
traced pairs can share one file. Nothing under bench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
QUARTILES = "numpy.percentile 25/50/75 over each side's runs, one run per pair"


def better_of(benchmark: dict) -> dict:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json document."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def run_once(root: Path, command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from `root`: its return code, wall time, result and detail."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    detail = next((line for line in lines if "detail" in line), None)
    result = lines[-1] if proc.returncode == 0 and lines and "metrics" in lines[-1] else None
    if result is None:
        print(proc.stderr, file=sys.stderr)
    return {"returncode": proc.returncode, "wall_s": round(wall, 1), "result": result, "detail": detail}


def quartiles(values) -> list:
    return [round(float(v), 6) for v in np.percentile(values, [25, 50, 75])]


def summarize(runs: list, better: dict) -> dict:
    """Per workload: the pairs, ops attempted and failed, whether every run was correct, and per metric
    each side's quartiles, the pairs the change wins and the change's median relative to the parent's."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["pair"]: r["result"] for r in runs if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        done = {side: [by_side[side][p] for p in pairs if by_side[side][p] is not None] for side in SIDES}
        entry = {
            "pairs": len(pairs),
            "attempted": {side: sum(r["attempted"] for r in done[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in done[side]) for side in SIDES},
            "correct": {side: len(done[side]) == len(pairs) and all(r["correct"] for r in done[side])
                        for side in SIDES},
            "metrics": {},
        }
        both = [(by_side["parent"][p], by_side["change"][p]) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        names = dict.fromkeys(n for a, _ in both for n in a["metrics"])
        for name in names:
            values = [(a["metrics"][name], b["metrics"][name]) for a, b in both
                      if name in a["metrics"] and name in b["metrics"]]
            parent = [a["value"] for a, _ in values]
            change = [b["value"] for _, b in values]
            sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_med, c_med = float(np.median(parent)), float(np.median(change))
            entry["metrics"][name] = {
                "unit": values[0][0]["unit"],
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "change_better_pairs": f"{wins}/{len(values)}",
                "median_change_rel": round((c_med - p_med) / p_med, 4) if p_med else None,
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--what", default="")
    parser.add_argument("--workloads", help="comma-separated; default every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = better_of(benchmark)
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": args.what, "command": "", "machine": None, "claim": args.claim, "quartiles": QUARTILES, "runs": []}
    # pairs are numbered on from those already run with the same trace setting
    first = 1 + max((r["pair"] for r in doc["runs"] if r["trace"] == args.trace), default=0)
    last = first + args.pairs - 1
    doc["command"] = (doc["command"] + " " if doc["command"] else "") + (
        f"{' '.join(command)} --workload W --seed N --seconds {seconds:g} --trace {args.trace}, run by "
        f"tests/bench_pairs.py from each checkout's root: pair i ({first}-{last}) uses seed {args.seed}+i on both "
        f"sides and runs {', '.join(workloads)} in that order; odd pairs run the parent first, even pairs the "
        "change first.")
    for pair in range(first, last + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                seed = args.seed + pair
                run = run_once(roots[side], command, workload, seed, seconds, args.trace)
                doc["runs"].append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                    "trace": args.trace, **run})
                if doc["machine"] is None and run["detail"]:
                    doc["machine"] = run["detail"]["detail"]["environment"]
                print(f"pair {pair} {workload} {side}: returncode {run['returncode']}, {run['wall_s']} s",
                      file=sys.stderr)
                write(args.out, doc, better)
    return 0


def write(path: Path, doc: dict, better: dict) -> None:
    """Write `doc` to `path`, its summaries recomputed from its runs, untraced and traced apart."""
    for trace, key in ((0, "summary_untraced"), (1, "summary_traced")):
        runs = [r for r in doc["runs"] if r["trace"] == trace]
        if runs:
            doc[key] = summarize(runs, better)
    runs = doc.pop("runs")
    doc["runs"] = runs  # kept last, after the summaries
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
