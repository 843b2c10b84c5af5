"""Command-line surface: point evaluation, sweeps, verification, crossovers.

Exit codes are a stable contract for CI: 0 success, 1 usage error,
2 computation or domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import oracle
from .optimize import SweepConfig, SweepRow, find_crossover, sweep, sweep_row
from .params import ParameterError
from .rates import bell_state_stats, channel_efficiency

# Unused here; bound because benchmarks/tracer.py wraps these names on this module.
from .optimize import optimize_mu  # noqa: E402, F401
from .rates import ecs_misaligned_stats, key_rate, plob_bound  # noqa: E402, F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

CSV_HEADER = "distance_km,mu,q_zz,s,e_zz,rate_ecs,rate_bell,rate_plob"
CSV_FIELDS = tuple(CSV_HEADER.split(","))

# Defaults mirror the reference operating point: standard fiber loss, an
# 80% threshold detector, and a 1e-7 dark count rate.
DEFAULTS: dict[str, object] = {
    "mu": None,
    "distance": 0.0,
    "beta": 0.2,
    "eta_d": 0.8,
    "p_d": 1e-7,
    "e_d": 0.0,
    "optimize": False,
    "protocol": "ecs",
    "protocols": "ecs,bell,plob",
    "l_min": 0.0,
    "l_max": 600.0,
    "l_step": 5.0,
    "output": "-",
    "format": "csv",
    "jobs": 1,
    "tol": 1e-8,
    "n_max": 30,
    "point": None,
    "pair": None,
    "bracket": None,
}


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we want 1
        raise UsageError(message)


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="fiber loss in dB/km (default 0.2)")
    parser.add_argument("--eta-d", dest="eta_d", type=float, help="detector efficiency (default 0.8)")
    parser.add_argument("--p-d", dest="p_d", type=float, help="dark count probability (default 1e-7)")
    parser.add_argument("--e-d", dest="e_d", type=float, help="misalignment error (default 0)")
    parser.add_argument("--config", type=Path, help="JSON file of defaults; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ecs-diqkd",
        description="Heralded device-independent QKD rates from entangled coherent states.",
    )
    sub = parser.add_subparsers(dest="command")

    rates_p = sub.add_parser("rates", help="evaluate one (distance, mu) point")
    rates_p.add_argument("--mu", type=float, help="coherent-state intensity")
    rates_p.add_argument("--distance", type=float, help="total distance in km (default 0)")
    rates_p.add_argument("--optimize", action="store_true", default=None,
                         help="optimize mu instead of passing --mu")
    rates_p.add_argument("--protocol", type=str,
                         help="comma list from ecs,bell,plob (default ecs)")
    _add_channel_flags(rates_p)

    sweep_p = sub.add_parser("sweep", help="rate-versus-distance table (CSV or JSON)")
    sweep_p.add_argument("--l-min", dest="l_min", type=float, help="first distance, km (default 0)")
    sweep_p.add_argument("--l-max", dest="l_max", type=float, help="last distance, km (default 600)")
    sweep_p.add_argument("--l-step", dest="l_step", type=float, help="grid step, km (default 5)")
    sweep_p.add_argument("--mu", type=float, help="fix the intensity; omit to optimize per distance")
    sweep_p.add_argument("--protocols", type=str,
                         help="comma list from ecs,bell,plob (default all)")
    sweep_p.add_argument("--output", type=str, help="output path, or - for stdout")
    sweep_p.add_argument("--format", type=str, choices=("csv", "json"), help="output format")
    sweep_p.add_argument("--jobs", type=int, help="ignored; kept so older scripts still run")
    _add_channel_flags(sweep_p)

    verify_p = sub.add_parser("verify", help="compare closed forms against the Fock oracle")
    verify_p.add_argument("--point", action="append",
                          help="mu,eta,p_d,e_d tuple; repeatable (default: acceptance grid)")
    verify_p.add_argument("--tol", type=float, help="per-field tolerance (default 1e-8)")
    verify_p.add_argument("--n-max", dest="n_max", type=int, help="Fock cutoff (default 30)")
    _add_channel_flags(verify_p)

    cross_p = sub.add_parser("crossover", help="locate where one protocol overtakes another")
    cross_p.add_argument("--pair", type=str,
                         choices=("ecs-vs-bell", "ecs-vs-plob", "bell-vs-plob"))
    cross_p.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"),
                         help="distance bracket in km")
    cross_p.add_argument("--mu", type=float, help="fix the ECS intensity; omit to optimize")
    _add_channel_flags(cross_p)

    return parser


def _resolve(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Layer defaults, then the JSON config file, then explicit flags."""
    values = {key: DEFAULTS[key] for key in keys}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(data) - set(keys)
        if unknown:
            raise UsageError(f"config keys not valid here: {sorted(unknown)}")
        values.update(data)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _parse_protocols(raw: object) -> tuple[str, ...]:
    """Split a comma list of protocol names; :class:`SweepConfig` checks them."""
    names = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    return tuple(n.strip() for n in names if n.strip())


def _sweep_config(values: dict, **grid) -> SweepConfig:
    """The validated config of ``rates``, ``sweep`` and ``crossover``.

    Every bad value is a usage error (exit 1), whichever subcommand got it.
    """
    try:
        return SweepConfig(beta_db_per_km=values["beta"], eta_d=values["eta_d"],
                           p_d=values["p_d"], e_d=values["e_d"], mu=values["mu"], **grid)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def format_value(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format_value(getattr(row, f)) for f in CSV_FIELDS))
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_FIELDS):
            raise ParameterError(f"malformed CSV row: {line!r}")
        kwargs = {
            f: (None if cell == "" else float(cell))
            for f, cell in zip(CSV_FIELDS, cells)
        }
        rows.append(SweepRow(**kwargs))
    return rows


def rows_to_json(rows: list[SweepRow]) -> str:
    payload = [{f: getattr(row, f) for f in CSV_FIELDS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _cmd_rates(args: argparse.Namespace) -> int:
    values = _resolve(
        args, ("mu", "distance", "beta", "eta_d", "p_d", "e_d", "optimize", "protocol")
    )
    protocols = _parse_protocols(values["protocol"])
    distance = values["distance"]
    config = _sweep_config(values, l_min_km=distance, l_max_km=distance, protocols=protocols)
    if "ecs" in protocols and values["mu"] is None and not values["optimize"]:
        raise UsageError("--mu is required for the ecs protocol unless --optimize is given")

    # Compute every line before printing any, so a failure leaves no partial output.
    row = sweep_row(config, distance)
    lines = [f"distance_km = {format_value(row.distance_km)}"]
    if row.flagged:
        lines.append("optimizer_flagged = True")
    if "ecs" in protocols:
        lines += [f"{key} = {format_value(getattr(row, key))}"
                  for key in ("mu", "q_zz", "s", "e_zz", "rate_ecs")]
    if "bell" in protocols:
        eta = channel_efficiency(distance, config.beta_db_per_km, config.eta_d)
        stats = bell_state_stats(eta, config.p_d)
        lines += [f"bell_{key} = {format_value(getattr(stats, key))}"
                  for key in ("q_zz", "s", "e_zz")]
        lines.append(f"rate_bell = {format_value(row.rate_bell)}")
    if "plob" in protocols:
        lines.append(f"rate_plob = {format_value(row.rate_plob)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = _resolve(
        args,
        ("l_min", "l_max", "l_step", "beta", "eta_d", "p_d", "e_d",
         "mu", "protocols", "output", "format", "jobs"),
    )
    config = _sweep_config(
        values,
        l_min_km=values["l_min"],
        l_max_km=values["l_max"],
        l_step_km=values["l_step"],
        protocols=_parse_protocols(values["protocols"]),
    )
    rows = sweep(config)
    text = rows_to_csv(rows) if values["format"] == "csv" else rows_to_json(rows)
    _emit(text, str(values["output"]))
    return EXIT_OK


def _parse_points(raw: list[str]) -> list[tuple[float, float, float, float]]:
    points = []
    for item in raw:
        parts = item.split(",")
        if len(parts) != 4:
            raise UsageError(f"--point expects mu,eta,p_d,e_d, got {item!r}")
        try:
            points.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise UsageError(f"bad --point value {item!r}") from exc
    return points


def _cmd_verify(args: argparse.Namespace) -> int:
    values = _resolve(args, ("point", "tol", "n_max", "eta_d"))
    points = _parse_points(values["point"]) if values["point"] else None
    tol, n_max = float(values["tol"]), int(values["n_max"])
    try:
        oracle.check_verify_settings(tol, n_max)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    report = oracle.verify_grid(
        points=points, tol=tol, n_max=n_max, eta_d_literal=float(values["eta_d"])
    )
    print(f"points checked: {len(report.points)} (n_max={report.n_max})")
    for check in report.errors:
        print(
            f"ERROR at (mu={check.mu}, eta={check.eta}, p_d={check.p_d}, "
            f"e_d={check.e_d}): {check.error}"
        )
    print(f"max |dQ_zz| = {report.max_dev_q_zz:.3e}")
    print(f"max |dS|    = {report.max_dev_s:.3e}")
    print(f"max |de_zz| = {report.max_dev_e_zz:.3e}")
    print(
        "misaligned e_zz reading supported by oracle: "
        f"{report.supported_e_zz_reading} "
        f"(eta dev {report.max_dev_e_zz:.3e}, "
        f"literal eta_d dev {report.max_dev_e_zz_literal:.3e})"
    )
    if report.errors:
        print("FAIL: truncation certificate failures")
        return EXIT_COMPUTE
    if report.failures:
        for check in report.failures:
            print(
                f"FAIL at (mu={check.mu}, eta={check.eta}, p_d={check.p_d}, "
                f"e_d={check.e_d}): dQ={check.dev_q_zz:.3e} dS={check.dev_s:.3e} "
                f"de={check.dev_e_zz:.3e}"
            )
        print(f"FAIL: deviations at or above {report.tol:g}")
        return EXIT_VERIFY
    print(f"PASS: all deviations below {report.tol:g}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    values = _resolve(
        args, ("pair", "bracket", "mu", "beta", "eta_d", "p_d", "e_d")
    )
    if values["pair"] is None:
        raise UsageError("--pair is required")
    if values["bracket"] is None:
        raise UsageError("--bracket is required")
    first, _, second = str(values["pair"]).partition("-vs-")
    pair = (first, second)
    lo, hi = (float(x) for x in values["bracket"])
    config = _sweep_config(values, l_min_km=lo, l_max_km=hi, protocols=pair)
    crossing = find_crossover(pair, config, (lo, hi))
    if crossing is None:
        print(f"no crossover in bracket [{lo:g}, {hi:g}] km")
    else:
        print(f"crossover_km = {crossing}")
    return EXIT_OK


_HANDLERS = {
    "rates": _cmd_rates,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "crossover": _cmd_crossover,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (rates, sweep, verify, crossover)")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"error: arithmetic failure ({type(exc).__name__}: {exc}); "
              "the inputs are outside the range the model can evaluate", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
