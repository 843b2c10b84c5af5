"""The four benchmark workloads: seeded inputs, timed operations and output checks.

Every workload is a deterministic stream of operations built from the seed
alone; the program sees only the generated parameters.  ``run`` is the timed
part.  ``check`` runs afterwards, outside the timed region, and returns the
ways an output is wrong.  ``summary`` condenses an output to the numbers that
are compared with the references recorded for the default seed.
"""

from __future__ import annotations

import io
import math
import random
import re
import statistics
import subprocess
import time
from contextlib import redirect_stdout
from typing import NamedTuple

from ecs_diqkd import cli, optimize, oracle, params, rates
from spec import CLI_KINDS

BETA = 0.2
AUDIT_POINTS = 200
# The optimizer's bracket is refined to 1e-9 in mu, so the rate it returns
# sits within rounding of the true maximum; an audit point above it by more
# than this share means the search missed the best basin.
AUDIT_REL_SLACK = 1e-9
FINE_STEP_KM = 2.0
FINE_MAX_KM = 700.0
ROWS_PER_SWEEP = int(FINE_MAX_KM / FINE_STEP_KM) + 1
CROSSOVER_TOL_KM = 0.5
POINT_MUS = 32
# The mix of oracle traffic follows the repository's own use.  One pytest run
# of tests/ sends 193 points through ``oracle_stats`` without error: 186 on the
# acceptance grid and 7 off it, and 6 of the 193 miss the beamsplitter-block
# cache (counted by wrapping ``oracle_stats`` for that run).  The default
# ``verify`` command sends the 180 grid points alone.  So the oracle workload
# sends one seeded point, always a cache miss, per 26 grid points (186 / 7,
# rounded down): 3.7% misses.
GRID_POINTS_PER_SEEDED = 26


class Channel(NamedTuple):
    e_d: float
    p_d: float
    eta_d: float

    def flags(self) -> list[str]:
        return ["--eta-d", repr(self.eta_d), "--p-d", repr(self.p_d), "--e-d", repr(self.e_d)]


def channels(rng: random.Random, block: int = 8):
    """Latin-hypercube channels: every block of ``block`` covers each range evenly.

    e_d in [0, 0.07], p_d log-uniform in [1e-8, 1e-5], eta_d in [0.5, 0.99].
    eta_d stays below 1 because the capacity bound diverges at unit
    transmittance, which a sweep from 0 km would reach.
    """
    while True:
        columns = []
        for _ in range(3):
            strata = list(range(block))
            rng.shuffle(strata)
            columns.append([(s + rng.random()) / block for s in strata])
        for u_e, u_p, u_eta in zip(*columns):
            yield Channel(e_d=0.07 * u_e, p_d=10.0 ** (-8.0 + 3.0 * u_p), eta_d=0.5 + 0.49 * u_eta)


def oracle_point(rng: random.Random) -> tuple[float, float, float, float]:
    """A point inside the region the acceptance grid certifies."""
    p_d = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-8.0, -5.0)
    return (rng.uniform(0.01, 0.5), rng.uniform(0.05, 1.0), p_d, rng.uniform(0.0, 0.07))


def audit_best(distance_km: float, channel: Channel) -> float:
    """Best rate on a log grid offset by half a cell from the optimizer's seed grid."""
    lo, hi = optimize.MU_SEARCH_BOUNDS
    eta = rates.channel_efficiency(distance_km, BETA, channel.eta_d)
    return max(
        rates.key_rate(
            rates.ecs_misaligned_stats(
                lo * (hi / lo) ** ((i + 0.5) / AUDIT_POINTS), eta, channel.p_d, channel.e_d
            )
        )
        for i in range(AUDIT_POINTS)
    )


def audit_failure(distance_km: float, channel: Channel, rate: float) -> str | None:
    best = audit_best(distance_km, channel)
    if rate < best * (1.0 - AUDIT_REL_SLACK):
        return f"rate {rate!r} at {distance_km} km below audit-grid best {best!r}"
    return None


def row_failures(row, channel: Channel, audit: bool) -> list[str]:
    """Recompute one sweep row through the public closed forms."""
    failures = []
    eta = rates.channel_efficiency(row.distance_km, BETA, channel.eta_d)
    stats = rates.ecs_misaligned_stats(row.mu, eta, channel.p_d, channel.e_d)
    if (row.q_zz, row.s, row.e_zz) != (stats.q_zz, stats.s, stats.e_zz):
        failures.append(f"row {row.distance_km} km: stats differ from the closed form")
    if row.rate_ecs != rates.key_rate(stats):
        failures.append(f"row {row.distance_km} km: rate_ecs differs from key_rate")
    if row.rate_bell != rates.key_rate(rates.bell_state_stats(eta, channel.p_d)):
        failures.append(f"row {row.distance_km} km: rate_bell differs from the closed form")
    if row.rate_plob != rates.plob_bound(row.distance_km, BETA, channel.eta_d):
        failures.append(f"row {row.distance_km} km: rate_plob differs from the bound")
    if audit:
        message = audit_failure(row.distance_km, channel, row.rate_ecs)
        if message:
            failures.append(message)
    return failures


def csv_failures(rows) -> list[str]:
    text = cli.rows_to_csv(rows)
    if cli.rows_to_csv(cli.rows_from_csv(text)) != text:
        return ["CSV re-emit is not byte-identical"]
    return []


def crossover_failures(crossing, pair: tuple[str, str], rows, bracket) -> list[str]:
    """Check a crossover against the rate difference along the sweep rows."""
    first, second = pair
    diffs = [
        (row.distance_km, getattr(row, f"rate_{first}") - getattr(row, f"rate_{second}"))
        for row in rows
        if bracket[0] <= row.distance_km <= bracket[1]
    ]
    if crossing is None:
        # Not checked against the rows: the 65-point coarse scan can step over
        # a pair of crossings closer together than its spacing, and then
        # reports none although the rows change sign twice.
        return []
    if not bracket[0] <= crossing <= bracket[1]:
        return [f"{first}-vs-{second}: crossover {crossing} outside {bracket}"]
    below = [d for x, d in diffs if x <= crossing - CROSSOVER_TOL_KM]
    above = [d for x, d in diffs if x >= crossing + CROSSOVER_TOL_KM]
    if below and above:
        lo, hi = below[-1], above[0]
        if lo != 0.0 and hi != 0.0 and (lo > 0.0) == (hi > 0.0):
            return [f"{first}-vs-{second}: no sign change around {crossing} km"]
    return []


def close(actual: list[float], expected: list[float], rel: float = 1e-9) -> bool:
    """Equal lengths, and each value equal to its reference within ``rel`` (NaN matches NaN)."""
    return len(actual) == len(expected) and all(
        math.isclose(a, e, rel_tol=rel, abs_tol=0.0) or (math.isnan(a) and math.isnan(e))
        for a, e in zip(actual, expected)
    )


class Workload:
    """One seeded operation stream and what is measured on it."""

    name = ""
    in_process = True
    traced_ops = 1
    reference_ops = 0
    primary = ""  # the named timing behind op_p50_s
    throughput = ""  # the named rate behind ops_per_s
    kernel = "python"  # the speed.py calibration kernel that resembles the work

    def ops(self, seed: int):
        raise NotImplementedError

    def run(self, op):
        """Perform the operation; return (output, {sample name: seconds})."""
        raise NotImplementedError

    def check(self, op, output) -> list[str]:
        raise NotImplementedError

    def summary(self, op, output) -> list[float]:
        raise NotImplementedError

    def probe(self, op) -> list:
        """The first-call warm-up a fresh process performs for ``setup_s``."""
        raise NotImplementedError

    def metrics(self, samples: dict[str, list[float]]) -> dict:
        """Named end-to-end metrics: name -> (value, unit, sample count, statistic)."""
        raise NotImplementedError

    def ends_cycle(self, op) -> bool:
        return True


class CliCalls(Workload):
    """Fresh ``python -m ecs_diqkd.cli`` processes, one after another."""

    name = "cli_calls"
    in_process = False
    traced_ops = 6
    reference_ops = 6
    primary = "call_p50_s"
    throughput = "calls_per_s"
    kernel = "process"
    KINDS = CLI_KINDS

    def __init__(self, python: str, env: dict[str, str], cwd: str) -> None:
        self.python, self.env, self.cwd = python, env, cwd

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        stream = channels(rng)
        while True:
            channel = next(stream)
            flags = channel.flags()
            points = [oracle_point(rng) for _ in range(rng.choice((1, 2)))]
            argvs = (
                ["rates", "--mu", repr(rng.uniform(0.01, 0.5)),
                 "--distance", repr(rng.uniform(1.0, 400.0)), *flags],
                ["rates", "--optimize", "--protocol", "ecs,bell,plob",
                 "--distance", repr(rng.uniform(1.0, 400.0)), *flags],
                ["crossover", "--pair", "ecs-vs-plob", "--bracket", "1", "400", *flags],
                ["crossover", "--pair", "bell-vs-plob", "--bracket", "1", "400", *flags],
                ["sweep", *flags],
                ["verify", *[a for p in points for a in ("--point", ",".join(map(repr, p)))],
                 "--eta-d", repr(channel.eta_d)],
            )
            for kind, argv in zip(self.KINDS, argvs):
                yield {"kind": kind, "channel": channel, "argv": argv, "points": points}

    def ends_cycle(self, op) -> bool:
        return op["kind"] == self.KINDS[-1]

    def run(self, op):
        start = time.perf_counter()
        done = subprocess.run(
            [self.python, "-m", "ecs_diqkd.cli", *op["argv"]],
            capture_output=True, text=True, env=self.env, cwd=self.cwd, check=False,
        )
        return done, {"call": time.perf_counter() - start}

    @staticmethod
    def report(stdout: str) -> dict[str, str]:
        return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)

    def expected(self, op):
        """The in-process library result the call's output must equal."""
        ch = op["channel"]
        argv = op["argv"]
        if op["kind"].startswith("rates"):
            distance = float(argv[argv.index("--distance") + 1])
            eta = rates.channel_efficiency(distance, BETA, ch.eta_d)
            values = {"distance_km": distance}
            if op["kind"] == "rates_mu":
                mu = float(argv[2])
            else:
                optimum = optimize.optimize_mu(distance, BETA, ch.eta_d, ch.p_d, ch.e_d)
                mu = optimum.mu_star
                if optimum.flagged:
                    values["optimizer_flagged"] = True
            stats = rates.ecs_misaligned_stats(mu, eta, ch.p_d, ch.e_d)
            values.update(mu=mu, q_zz=stats.q_zz, s=stats.s, e_zz=stats.e_zz,
                          rate_ecs=rates.key_rate(stats))
            if op["kind"] == "rates_optimize":
                bell = rates.bell_state_stats(eta, ch.p_d)
                values.update(bell_q_zz=bell.q_zz, bell_s=bell.s, bell_e_zz=bell.e_zz,
                              rate_bell=rates.key_rate(bell),
                              rate_plob=rates.plob_bound(distance, BETA, ch.eta_d))
            return values
        if op["kind"].startswith("crossover"):
            pair = tuple(argv[2].split("-vs-"))
            config = optimize.SweepConfig(l_min_km=1.0, l_max_km=400.0, beta_db_per_km=BETA,
                                          eta_d=ch.eta_d, p_d=ch.p_d, e_d=ch.e_d)
            return optimize.find_crossover(pair, config, (1.0, 400.0))
        if op["kind"] == "sweep":
            return optimize.sweep(optimize.SweepConfig(
                beta_db_per_km=BETA, eta_d=ch.eta_d, p_d=ch.p_d, e_d=ch.e_d))
        return oracle.verify_grid(points=op["points"], eta_d_literal=ch.eta_d)

    def check(self, op, output) -> list[str]:
        if output.returncode != 0:
            return [f"{op['kind']}: exit code {output.returncode}: {output.stderr.strip()[-300:]}"]
        if output.stderr:
            return [f"{op['kind']}: unexpected stderr: {output.stderr.strip()[-300:]}"]
        expected = self.expected(op)
        kind, out = op["kind"], output.stdout
        if kind.startswith("rates"):
            got = self.report(out)
            want = {k: ("True" if v is True else v) for k, v in expected.items()}
            if set(got) != set(want):
                return [f"{kind}: printed keys {sorted(got)} != {sorted(want)}"]
            bad = [k for k, v in want.items()
                   if (got[k] != v if isinstance(v, str) else float(got[k]) != v)]
            return [f"{kind}: {k} = {got[k]} but the library gives {want[k]!r}" for k in bad]
        if kind.startswith("crossover"):
            got = self.report(out).get("crossover_km")
            if expected is None:
                return [] if got is None and out.startswith("no crossover") else [
                    f"{kind}: printed {out.strip()!r}, the library finds no crossover"]
            if got is None or float(got) != expected:
                return [f"{kind}: printed {out.strip()!r}, the library gives {expected!r}"]
            return []
        if kind == "sweep":
            failures = csv_failures(expected)
            if out != cli.rows_to_csv(expected):
                failures.append("sweep: CSV differs from the in-process sweep")
            for index, row in enumerate(expected):
                failures += row_failures(row, op["channel"], audit=index % 8 == 0)
            return failures
        failures = []
        if not expected.passed or not out.rstrip().splitlines()[-1].startswith("PASS"):
            failures.append(f"verify: report did not pass: {out.strip()[-300:]!r}")
        for label, value in (("dQ_zz", expected.max_dev_q_zz), ("dS", expected.max_dev_s),
                             ("de_zz", expected.max_dev_e_zz)):
            match = re.search(rf"max \|{label}\| *= (\S+)", out)
            if match is None or float(match.group(1)) != float(f"{value:.3e}"):
                failures.append(f"verify: max |{label}| differs from the in-process report")
        return failures

    def summary(self, op, output) -> list[float]:
        if op["kind"] == "verify":
            # Oracle deviations are rounding noise; keep the exit code, the
            # point count and the literal-reading deviation, which is not.
            match = re.search(r"literal eta_d dev (\S+)\)", output.stdout)
            return [float(output.returncode), float(len(op["points"])),
                    float(match.group(1)) if match else math.nan]
        numbers = re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", output.stdout)
        return [float(output.returncode)] + [float(x) for x in numbers]

    def probe(self, op) -> list:
        return ["cli", op["argv"]]

    def metrics(self, samples) -> dict:
        calls = samples["call"]
        return {
            "call_p50_s": (statistics.median(calls), "s", len(calls), "p50"),
            "calls_per_s": (len(calls) / sum(calls), "1/s", len(calls), "calls / busy time"),
        }


class SweepGrid(Workload):
    """Fine 0-700 km sweeps and two crossovers per seeded channel, in process.

    Each channel is three ops: the sweep, then one crossover per pair, so a
    calibration of the machine's speed brackets each of them.  A crossover is
    checked against the rows of its channel's sweep, which ran just before.
    ``rows_per_s`` divides by the time of all three, so a slower crossover
    search shows in it as well as in ``crossover_p50_s``.
    """

    name = "sweep_grid"
    traced_ops = 6
    reference_ops = 12
    primary = "sweep_p50_s"
    throughput = "rows_per_s"
    PARTS = ("sweep", ("ecs", "plob"), ("ecs", "bell"))

    def __init__(self) -> None:
        self.rows: tuple[int, list] | None = None  # (channel index, rows) of the last sweep

    def ops(self, seed: int):
        for index, channel in enumerate(channels(random.Random(f"{self.name}:{seed}"))):
            for part in self.PARTS:
                yield {"index": index, "channel": channel, "part": part}

    def ends_cycle(self, op) -> bool:
        return op["part"] == self.PARTS[-1]

    @staticmethod
    def config(channel: Channel):
        return optimize.SweepConfig(
            l_min_km=0.0, l_max_km=FINE_MAX_KM, l_step_km=FINE_STEP_KM, beta_db_per_km=BETA,
            eta_d=channel.eta_d, p_d=channel.p_d, e_d=channel.e_d,
        )

    def run(self, op):
        config = self.config(op["channel"])
        start = time.perf_counter()
        if op["part"] == "sweep":
            rows = optimize.sweep(config, jobs=1)
            return rows, {"sweep": time.perf_counter() - start}
        crossing = optimize.find_crossover(op["part"], config, (0.0, FINE_MAX_KM))
        return crossing, {"crossover": time.perf_counter() - start}

    def check(self, op, output) -> list[str]:
        if op["part"] != "sweep":
            if self.rows is None or self.rows[0] != op["index"]:
                return ["crossover checked without its channel's sweep rows"]
            return crossover_failures(output, op["part"], self.rows[1], (0.0, FINE_MAX_KM))
        self.rows = (op["index"], output)
        failures = []
        distances = optimize.sweep_distances(self.config(op["channel"]))
        if len(distances) != ROWS_PER_SWEEP or [row.distance_km for row in output] != distances:
            failures.append("sweep rows do not follow the distance grid")
        for index, row in enumerate(output):
            failures += row_failures(row, op["channel"], audit=index % 4 == op["index"] % 4)
        return failures + csv_failures(output)

    def summary(self, op, output) -> list[float]:
        if op["part"] != "sweep":
            return [math.nan if output is None else output]
        values = [float(len(output))]
        for row in output[::10]:
            values += [row.mu, row.rate_ecs, row.rate_bell, row.rate_plob]
        return values

    def probe(self, op) -> list:
        channel = op["channel"]
        return ["sweep", {"l_min_km": 100.0, "l_max_km": 100.0, "beta_db_per_km": BETA,
                          "eta_d": channel.eta_d, "p_d": channel.p_d, "e_d": channel.e_d}]

    def metrics(self, samples) -> dict:
        sweeps = samples["sweep"]
        crossovers = samples["crossover"]
        return {
            "sweep_p50_s": (statistics.median(sweeps), "s", len(sweeps), "p50"),
            "rows_per_s": (ROWS_PER_SWEEP * len(sweeps) / (sum(sweeps) + sum(crossovers)),
                           "1/s", len(sweeps), "rows / sweep and crossover time"),
            "crossover_p50_s": (statistics.median(crossovers), "s", len(crossovers), "p50"),
        }


class PointEval(Workload):
    """Single-point closed forms and one intensity search per seeded distance."""

    name = "point_eval"
    traced_ops = 64
    reference_ops = 200
    primary = "closed_form_p50_s"
    throughput = "closed_forms_per_s"

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for index, channel in enumerate(channels(rng)):
            yield {
                "index": index,
                "channel": channel,
                "distance": rng.uniform(0.0, FINE_MAX_KM),
                "mus": [10.0 ** rng.uniform(-3.0, math.log10(0.5)) for _ in range(POINT_MUS)],
            }

    def run(self, op):
        ch, distance = op["channel"], op["distance"]
        eta = rates.channel_efficiency(distance, BETA, ch.eta_d)
        start = time.perf_counter()
        values = [rates.key_rate(rates.ecs_misaligned_stats(mu, eta, ch.p_d, ch.e_d))
                  for mu in op["mus"]]
        closed = time.perf_counter() - start
        bell = rates.key_rate(rates.bell_state_stats(eta, ch.p_d))
        plob = rates.plob_bound(distance, BETA, ch.eta_d)
        start = time.perf_counter()
        optimum = optimize.optimize_mu(distance, BETA, ch.eta_d, ch.p_d, ch.e_d)
        search = time.perf_counter() - start
        return (values, bell, plob, optimum), {
            "closed_form": closed / len(op["mus"]), "optimize": search}

    def check(self, op, output) -> list[str]:
        values, bell, plob, optimum = output
        ch, distance = op["channel"], op["distance"]
        failures = []
        for mu, value in zip(op["mus"], values):
            point = rates.ecs_point(params.ProtocolParams(
                mu=mu, beta_db_per_km=BETA, eta_d=ch.eta_d, p_d=ch.p_d, e_d=ch.e_d,
                distance_km=distance))
            if point.rate != value:
                failures.append(f"rate at mu={mu!r}, {distance} km differs from ecs_point")
        eta = rates.channel_efficiency(distance, BETA, ch.eta_d)
        if not 0.0 <= bell <= rates.bell_state_stats(eta, ch.p_d).q_zz:
            failures.append(f"Bell rate {bell!r} outside [0, gain]")
        if not plob > 0.0:
            failures.append(f"capacity bound {plob!r} not positive")
        lo, hi = optimize.MU_SEARCH_BOUNDS
        if not (isinstance(optimum.mu_star, float) and lo <= optimum.mu_star <= hi):
            failures.append(f"mu* {optimum.mu_star!r} outside the search bounds")
        # The audit costs as much as the search, so every fourth search gets it.
        if op["index"] % 4 == 0:
            message = audit_failure(distance, ch, optimum.rate_star)
            if message:
                failures.append(message)
        return failures

    def summary(self, op, output) -> list[float]:
        values, bell, plob, optimum = output
        return [*values[:4], bell, plob, float(optimum.mu_star), optimum.rate_star]

    def probe(self, op) -> list:
        ch = op["channel"]
        return ["point", [op["mus"][0], op["distance"], BETA, ch.eta_d, ch.p_d, ch.e_d]]

    def metrics(self, samples) -> dict:
        closed = samples["closed_form"]
        searches = samples["optimize"]
        return {
            "closed_form_p50_s": (statistics.median(closed), "s", len(closed), "p50 of per-call block means"),
            "closed_forms_per_s": (1.0 / statistics.fmean(closed), "1/s",
                                   len(closed) * POINT_MUS, "calls / busy time"),
            "optimize_p50_s": (statistics.median(searches), "s", len(searches), "p50"),
        }


class OracleVerify(Workload):
    """One point per call of the public ``verify_grid``: the acceptance grid plus seeded points."""

    name = "oracle_verify"
    traced_ops = GRID_POINTS_PER_SEEDED + 1
    reference_ops = 10 * (GRID_POINTS_PER_SEEDED + 1)
    primary = "point_p50_s"
    throughput = "points_per_s"
    kernel = "numpy"

    def ops(self, seed: int):
        """Acceptance-grid points, and one seeded point after every ``GRID_POINTS_PER_SEEDED``.

        The grid is walked in a fresh seeded order on every pass, so every run
        has the same share of cache hits (grid) and misses (seeded eta).
        """
        rng = random.Random(f"{self.name}:{seed}")
        grid: list[tuple[float, float, float, float]] = []
        while True:
            for _ in range(GRID_POINTS_PER_SEEDED):
                if not grid:
                    grid = oracle.acceptance_grid()
                    rng.shuffle(grid)
                yield {"point": grid.pop()}
            yield {"point": oracle_point(rng)}

    def run(self, op):
        start = time.perf_counter()
        report = oracle.verify_grid(points=[op["point"]])
        return report, {"point": time.perf_counter() - start}

    def check(self, op, output) -> list[str]:
        if len(output.points) != 1:
            return [f"verify_grid returned {len(output.points)} checks for one point"]
        if not output.passed:
            check = output.points[0]
            return [f"point {op['point']} failed: error={check.error} max dev={check.max_dev()}"]
        return []

    def summary(self, op, output) -> list[float]:
        return [output.points[0].dev_e_zz_literal]

    def probe(self, op) -> list:
        return ["oracle", list(op["point"])]

    def metrics(self, samples) -> dict:
        points = samples["point"]
        named = {
            "point_p50_s": (statistics.median(points), "s", len(points), "p50"),
            "points_per_s": (len(points) / sum(points), "1/s", len(points), "points / busy time"),
        }
        if len(points) >= 100:
            named["point_p90_s"] = (statistics.quantiles(points, n=10)[8], "s", len(points), "p90")
        return named


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in this process with stdout captured; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def make(name: str, python: str, env: dict[str, str], cwd: str) -> Workload:
    if name == CliCalls.name:
        return CliCalls(python, env, cwd)
    return {w.name: w for w in (SweepGrid, PointEval, OracleVerify)}[name]()
