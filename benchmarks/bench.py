"""Benchmark of the ecs_diqkd simulator: one workload per run, every output checked.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload sweep_grid --seed 0 --seconds 20 --trace 0

Load is a closed loop from one process and one client: each operation starts
when the previous one has finished, no threads are used, and at most one
child process runs at a time.  ``--trace 0`` times the workload for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1`` runs a
fixed, seed-determined list of operations untraced and then traced, and
reports the per-layer metrics.  Either way every output is checked outside
the timed region, a human-readable table goes to stdout, the full result with
its run record is written to ``.bench_results/``, and the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from spec import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS
from speed import Calibrated

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_PROBES = 3
IMPORT_PROBES = 3


class Harness:
    """Paths and environment of one benchmark run inside a checkout."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.python = sys.executable

    def child(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        done = subprocess.run([self.python, *args], capture_output=True, text=True,
                              env=self.env, cwd=self.root, check=False)
        return done, time.perf_counter() - start


def load_package(root: Path):
    """Import ecs_diqkd from the checkout's own source tree, or fail."""
    package = root / "src" / "ecs_diqkd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no ecs_diqkd sources under {root / 'src'}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    import ecs_diqkd

    if Path(ecs_diqkd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported ecs_diqkd from {ecs_diqkd.__file__}, not {package}")
    return ecs_diqkd


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the one the calibration kernel times."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_average() -> list[float] | None:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def machine_record(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "load_average_before": load_average(),
    }


def import_profile(harness: Harness) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c 'import ecs_diqkd'``, scaled.

    scipy loads ``scipy.stats`` lazily, so importtime prints no line for it;
    its cost is the sum of the outermost ``scipy.stats.*`` entries.
    """
    clock = Calibrated("process")
    for _ in range(IMPORT_PROBES):
        done, _ = harness.child(["-X", "importtime", "-c", "import ecs_diqkd"])
        if done.returncode != 0:
            raise RuntimeError(f"import failed: {done.stderr[-500:]}")
        entries = []
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                depth = (len(name) - len(name.lstrip())) // 2
                entries.append((depth, name.strip(), int(cumulative) * 1e-6))
        totals = dict.fromkeys(("ecs_diqkd", "ecs_diqkd.fock", "scipy.stats"), 0.0)
        ancestors: list[tuple[int, str]] = []
        # importtime prints a module after its children, so walk backwards.
        for depth, name, seconds in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            in_stats = any(a == "scipy.stats" or a.startswith("scipy.stats.") for _, a in ancestors)
            if name in ("ecs_diqkd", "ecs_diqkd.fock"):
                totals[name] += seconds
            elif (name == "scipy.stats" or name.startswith("scipy.stats.")) and not in_stats:
                totals["scipy.stats"] += seconds
            ancestors.append((depth, name))
        clock.add(totals)
    clock.calibrate()
    return {
        "import.ecs_diqkd_s": statistics.median(clock.scaled["ecs_diqkd"]),
        "import.fock_s": statistics.median(clock.scaled["ecs_diqkd.fock"]),
        "import.scipy_stats_s": statistics.median(clock.scaled["scipy.stats"]),
    }


def measure_setup(harness: Harness, workload, first_op) -> tuple[float, float, dict]:
    """Median time of fresh processes that import the package and make the first call.

    Returns the scaled and the raw median, and the probes' own timings.
    """
    spec = json.dumps(workload.probe(first_op))
    clock = Calibrated("process")
    details = []
    for _ in range(SETUP_PROBES):
        done, wall = harness.child([str(HERE / "setup_probe.py"), spec])
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr[-500:]}")
        clock.add({"setup": wall})
        details.append(json.loads(done.stdout.strip().splitlines()[-1]))
    clock.calibrate()
    return (statistics.median(clock.scaled["setup"]), statistics.median(clock.raw["setup"]),
            {"probes": details, "speed": clock.record()})


class Checker:
    """Checks operation outputs and counts failed operations."""

    def __init__(self, workload, references: list | None) -> None:
        self.workload = workload
        self.references = references or []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, index: int, op, output, error: str | None) -> None:
        from workloads import close

        self.attempted += 1
        if error is not None:
            failures = [error]
        else:
            try:
                failures = self.workload.check(op, output)
                if index < len(self.references) and not close(
                    self.workload.summary(op, output), self.references[index]
                ):
                    failures.append("output differs from the recorded reference")
            except Exception:
                failures = [f"checking raised {traceback.format_exc(limit=3)}"]
        if failures:
            self.failed += 1
            self.messages.extend(f"op {index}: {m}" for m in failures)


def run_op(workload, op):
    """Run one operation; an exception is the operation's failure, not the benchmark's.

    Returns (output, {sample name: seconds}, error or None, wall seconds).
    """
    start = time.perf_counter()
    try:
        output, timing = workload.run(op)
        return output, timing, None, time.perf_counter() - start
    except Exception:
        return None, {}, traceback.format_exc(limit=5), time.perf_counter() - start


def timed_run(workload, seed: int, seconds: float, checker: Checker) -> tuple[dict, dict, dict]:
    """Closed loop until ops have kept the program busy for ``seconds``.

    Stops only where ``ends_cycle`` allows.  Each output is checked right
    after its op, outside the timed region, and then dropped, so memory does
    not grow with the run.  Returns the named metrics from scaled and from
    raw times, and the speed record.
    """
    clock = Calibrated(workload.kernel)
    busy = 0.0
    for index, op in enumerate(workload.ops(seed)):
        output, timing, error, elapsed = run_op(workload, op)
        clock.add(timing)
        busy += elapsed
        checker.record(index, op, output, error)
        if workload.ends_cycle(op) and busy >= seconds:
            break
    clock.calibrate()
    return workload.metrics(clock.scaled), workload.metrics(clock.raw), clock.record()


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(harness: Harness, workload, seed: int, checker: Checker, modules) -> dict:
    """Fixed operation list: untraced, then traced; per-layer metrics and tracing overhead."""
    from tracer import Tracer
    from workloads import in_process_cli

    ops = []
    for op in workload.ops(seed):
        ops.append(op)
        if len(ops) == workload.traced_ops:
            break
    layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer.update(import_profile(harness))

    # The passes run in this process, so CLI argv is timed like library code.
    pass_kernel = workload.kernel if workload.in_process else "python"
    if workload.in_process:
        def call(op):
            return run_op(workload, op)
    else:
        # The subprocess pass supplies the outputs to check and the call
        # times; the in-process passes run the same argv through cli.main.
        calls = Calibrated(workload.kernel)
        subprocess_results = []
        for op in ops:
            subprocess_results.append(run_op(workload, op))
            calls.add({"op": subprocess_results[-1][3]})
        calls.calibrate()

        def call(op):
            return in_process_cli(op["argv"])

    def one_pass() -> tuple[list, list[float]]:
        clock = Calibrated(pass_kernel)
        results = []
        for op in ops:
            start = time.perf_counter()
            results.append(call(op))
            clock.add({"op": time.perf_counter() - start})
        clock.calibrate()
        return results, clock.scaled["op"]

    warm, _ = one_pass()  # fills the program's caches so both timed passes start warm
    _, untraced = one_pass()
    tracer = Tracer()
    with tracer.installed(modules):
        _, traced = one_pass()
    layer.update(tracer.layer_metrics())
    layer["trace.overhead_s"] = sum(traced) - sum(untraced)

    if workload.in_process:
        for index, (op, (output, _, error, _)) in enumerate(zip(ops, warm)):
            checker.record(index, op, output, error)
    else:
        overheads = []
        for index, (op, (output, _, error, _), (code, stdout), call_s, main_s) in enumerate(
            zip(ops, subprocess_results, warm, calls.scaled["op"], untraced)
        ):
            if error is None and (code != output.returncode or stdout != output.stdout):
                error = f"{op['kind']}: in-process cli.main output differs from the CLI process"
            checker.record(index, op, output, error)
            layer[f"cli.main_s.{op['kind']}"] = main_s
            if error is None:
                overheads.append(call_s - main_s)
        layer["cli.process_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return layer


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def entries(named: dict[str, tuple]) -> dict[str, dict]:
    """Named metrics as {name: {value, unit, samples, statistic}}."""
    return {k: dict(zip(("value", "unit", "samples", "statistic"), v)) for k, v in named.items()}


def run(args: argparse.Namespace, root: Path, references: dict | None = None) -> dict:
    """Run one workload; return the result document (also used by smoke.py)."""
    load_package(root)
    from ecs_diqkd import cli, optimize, oracle, rates
    import workloads

    harness = Harness(root)
    record = machine_record(root)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  pinned_cpu=pin_to_one_cpu())
    workload = workloads.make(args.workload, harness.python, harness.env, str(root))
    if references is None:
        references = json.loads((HERE / "references.json").read_text())
    refs = references.get(args.workload) if args.seed == DEFAULT_SEED else None
    checker = Checker(workload, refs)
    start = time.perf_counter()

    named: dict[str, tuple] = {}
    if args.trace:
        modules = {"cli": cli, "optimize": optimize, "oracle": oracle, "rates": rates}
        layer = traced_run(harness, workload, args.seed, checker, modules)
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        first_op = next(iter(workload.ops(args.seed)))
        setup_s, setup_raw_s, record["setup"] = measure_setup(harness, workload, first_op)
        named, raw, record["speed"] = timed_run(workload, args.seed, args.seconds, checker)
        named["setup_s"] = (setup_s, "s", SETUP_PROBES, "p50 of fresh processes")
        raw["setup_s"] = (setup_raw_s, "s", SETUP_PROBES, "p50 of fresh processes")
        named["peak_rss_mb"] = (peak_rss_mb(workload), "MB", 1, "max resident set")
        record["raw_metrics"] = entries(raw)
        source = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                  "op_p50_s": workload.primary, "ops_per_s": workload.throughput}
        metrics = {name: (named[source[name]][0], unit) for name, unit in END_TO_END_UNITS.items()}
    named["failed_frac"] = (checker.failed / max(checker.attempted, 1), "fraction",
                            checker.attempted, "failed / attempted")
    record["wall_s"] = time.perf_counter() - start
    record["load_average_after"] = load_average()
    return {
        "record": record,
        "named_metrics": entries(named),
        "failures": checker.messages[:50],
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    document = run(args, root)
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")

    result = document["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {document['record']['commit'][:12]}")
    raw = document["record"].get("raw_metrics", {})
    for name, entry in document["named_metrics"].items():
        raw_text = f"raw {raw[name]['value']:<12.6g}" if name in raw else " " * 16
        print(f"  {name:<22} {entry['value']:<12.6g} {entry['unit']:<9} {raw_text} "
              f"n={entry['samples']:<6} {entry['statistic']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<36} {entry['value']:<14.6g} {entry['unit']}")
    for message in document["failures"][:10]:
        print(f"  FAILED {message}")
    print(f"  run record: {path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
