"""Smoke test of the benchmark itself: every workload at minimal size.

Run from the root of a checkout (about a minute):

    python3 benchmarks/smoke.py

It asserts that
  * each workload, untraced and traced, emits every metric BENCHMARK.json
    names, with the unit BENCHMARK.json gives, in a result line of exactly the
    contracted keys;
  * a reference value perturbed here, in the test, makes exactly the
    operation it belongs to count as failed;
  * traced counts repeat exactly between two runs, a default-channel search
    at 100 km makes 236 closed-form evaluations, and one oracle point makes 62
    beamsplitter applications.
Exits 0 when all hold; an AssertionError says which did not.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import bench

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, references: dict) -> dict:
    args = argparse.Namespace(workload=workload, seed=bench.DEFAULT_SEED, seconds=0.01, trace=trace)
    return bench.run(args, Path.cwd(), references)


def assert_emitted(result: dict, declared: list[dict], context: str) -> None:
    assert set(result) == RESULT_KEYS, f"{context}: result keys {sorted(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, context
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{context}: {metric['name']} not emitted"
        assert got["unit"] == metric["unit"], f"{context}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{context}: {metric['name']} not a number"


def perturbed(references: dict, workload: str) -> dict:
    changed = copy.deepcopy(references)
    first = changed[workload][0]
    first[-1] += max(abs(first[-1]), 1.0) * 1e-6
    return changed


def minimal_sizes(root: Path) -> None:
    """One setup and import probe, and the shortest traced operation lists."""
    bench.load_package(root)
    import workloads

    bench.SETUP_PROBES = bench.IMPORT_PROBES = 1
    workloads.SweepGrid.traced_ops = 3
    workloads.PointEval.traced_ops = 4
    workloads.OracleVerify.traced_ops = 2


def main() -> int:
    root = Path.cwd()
    minimal_sizes(root)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    references = json.loads((bench.HERE / "references.json").read_text())
    traced = {}
    for workload in (w["name"] for w in declared["workloads"]):
        document = run(workload, 0, perturbed(references, workload))
        result = document["result"]
        assert_emitted(result, declared["end_to_end"], f"{workload} trace 0")
        assert result["failed"] == 1 and not result["correct"], (
            f"{workload}: perturbed reference gave {result['failed']} failed ops: "
            f"{document['failures'][:3]}")
        assert "recorded reference" in document["failures"][0], document["failures"][:3]

        document = run(workload, 1, references)
        result = document["result"]
        assert_emitted(result, declared["per_layer"], f"{workload} trace 1")
        assert result["correct"], f"{workload} traced run failed: {document['failures'][:3]}"
        traced[workload] = result["metrics"]
        print(f"{workload}: ok", flush=True)

    again = run("point_eval", 1, references)["result"]["metrics"]
    for name, entry in traced["point_eval"].items():
        if entry["unit"] == "count":
            assert again[name]["value"] == entry["value"], f"{name} did not repeat"

    from ecs_diqkd import cli, optimize, oracle, rates
    from tracer import Tracer

    tracer = Tracer()
    modules = {"cli": cli, "optimize": optimize, "oracle": oracle, "rates": rates}
    with tracer.installed(modules):
        optimize.optimize_mu(100.0, 0.2, 0.8, 1e-7, 0.0)
    assert tracer.layer_metrics()["optimize.evals_per_search"] == 236
    tracer = Tracer()
    with tracer.installed(modules):
        oracle.verify_grid(points=[(0.1, 0.5, 1e-7, 0.01)])
    assert tracer.calls("fock.beamsplitter_apply") == 62
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
