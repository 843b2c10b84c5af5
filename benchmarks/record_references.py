"""Record the default seed's reference outputs into benchmarks/references.json.

Run from the root of a checkout, only when a change to the program's outputs
is deliberate:

    python3 benchmarks/record_references.py

For each workload it runs the first ``reference_ops`` operations of the
default seed's stream and stores each output's ``summary``.  bench.py compares
the same operations of a default-seed run with these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench import DEFAULT_SEED, HERE, Harness, load_package

from spec import WORKLOADS


def main() -> int:
    root = Path.cwd()
    load_package(root)
    import workloads

    harness = Harness(root)
    references = {}
    for name in WORKLOADS:
        workload = workloads.make(name, harness.python, harness.env, str(root))
        summaries = []
        for op in workload.ops(DEFAULT_SEED):
            if len(summaries) == workload.reference_ops:
                break
            output, _ = workload.run(op)
            failures = workload.check(op, output)
            if failures:
                raise SystemExit(f"{name}: reference output fails its checks: {failures[:3]}")
            summaries.append(workload.summary(op, output))
        references[name] = summaries
        print(f"{name}: {len(summaries)} operations", flush=True)
    (HERE / "references.json").write_text(json.dumps(references) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
