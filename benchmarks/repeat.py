"""Repeat the benchmark over seeds and summarise each metric's median and spread.

Run from the root of a checkout:

    python3 benchmarks/repeat.py --workloads sweep_grid,point_eval --seeds 1-10

For every (workload, seed) it runs ``benchmarks/bench.py`` once, seeds in the
outer loop so slow drift of the machine spreads over all workloads, and reads
the last stdout line and the run record.  For each metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread (Q3 - Q1) / median.  ``--out FILE`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    root = Path.cwd()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    named: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    raw: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    records: list[dict] = []
    failed = 0
    for seed in seed_list(args.seeds):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=root, check=False,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            document = json.loads(
                (root / ".bench_results" / f"{workload}-seed{seed}-trace{args.trace}.json")
                .read_text())
            records.append(document["record"])
            for name, entry in document["named_metrics"].items():
                named[workload].setdefault(name, []).append(entry["value"])
                units.setdefault(name, entry["unit"])
            for name, entry in document["record"].get("raw_metrics", {}).items():
                raw[workload].setdefault(name, []).append(entry["value"])
            print(f"{workload:<14} seed {seed:<3} failed {result['failed']}/{result['attempted']}  "
                  + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {"seconds": seconds, "trace": args.trace, "failed_ops": failed, "workloads": {}}
    for workload in workloads:
        print(f"\n{workload}")
        entry = summary["workloads"][workload] = {"metrics": {}, "named_metrics": {},
                                                  "raw_metrics": {}}
        for group, table in (("metrics", values[workload]), ("named_metrics", named[workload]),
                             ("raw_metrics", raw[workload])):
            for name, series in table.items():
                stats = summarise(series) if len(series) > 1 else {"median": series[0], "runs": 1}
                stats["unit"] = units[name]
                entry[group][name] = stats
                if len(series) > 1:
                    print(f"  {group[:5]} {name:<22} median {stats['median']:<12.6g} "
                          f"{stats['unit']:<9} Q1 {stats['q1']:<12.6g} Q3 {stats['q3']:<12.6g} "
                          f"spread {stats['spread']:.4f}  n={len(series)}")
    summary["records"] = records
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
