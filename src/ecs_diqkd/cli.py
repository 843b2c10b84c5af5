"""Command-line surface: point evaluation, sweeps, verification, crossovers.

Exit codes are a stable contract for CI: 0 success, 1 usage error,
2 computation or domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .optimize import PROTOCOLS, SweepConfig, SweepRow, find_crossover, sweep, sweep_row
from .params import DEFAULT_ETA_D_LITERAL, DEFAULT_N_MAX, DEFAULT_TOL, ParameterError

# Unused here; bound because benchmarks/tracer.py wraps these names on this module.
from .optimize import optimize_mu  # noqa: E402, F401
from .rates import bell_state_stats, channel_efficiency  # noqa: E402, F401
from .rates import ecs_misaligned_stats, key_rate, plob_bound  # noqa: E402, F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

CSV_HEADER = "distance_km,mu,q_zz,s,e_zz,rate_ecs,rate_bell,rate_plob"
CSV_FIELDS = tuple(CSV_HEADER.split(","))
# The SweepRow fields ``rates`` prints for each protocol; protocols print in PROTOCOLS order.
_RATES_FIELDS = {"ecs": ("mu", "q_zz", "s", "e_zz", "rate_ecs"), "plob": ("rate_plob",),
                 "bell": ("bell_q_zz", "bell_s", "bell_e_zz", "rate_bell")}

class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # subcommand name to its parser

    def error(self, message: str) -> None:  # argparse would exit(2); we want 1
        raise UsageError(message)


def _protocol_list(text: str) -> tuple[str, ...]:
    """A comma list of protocol names; :class:`SweepConfig` checks them."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _point(text: str) -> tuple[float, float, float, float]:
    """One ``mu,eta,p_d,e_d`` tuple; :func:`oracle.verify_grid` checks its ranges."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expects mu,eta,p_d,e_d, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}") from None


# The SweepConfig defaults; its class attributes are the field accessors.
_DEFAULT = SweepConfig._field_defaults


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    """The channel flags, with the :class:`SweepConfig` defaults."""
    parser.add_argument("--beta", type=float, default=_DEFAULT["beta_db_per_km"],
                        help="fiber loss in dB/km (default %(default)g)")
    parser.add_argument("--eta-d", dest="eta_d", type=float, default=_DEFAULT["eta_d"],
                        help="detector efficiency (default %(default)g)")
    parser.add_argument("--p-d", dest="p_d", type=float, default=_DEFAULT["p_d"],
                        help="dark count probability (default %(default)g)")
    parser.add_argument("--e-d", dest="e_d", type=float, default=_DEFAULT["e_d"],
                        help="misalignment error (default %(default)g)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ecs-diqkd",
        description="Heralded device-independent QKD rates from entangled coherent states.",
    )
    sub = parser.add_subparsers(dest="command")

    rates_p = sub.add_parser("rates", help="evaluate one (distance, mu) point")
    intensity = rates_p.add_mutually_exclusive_group()
    intensity.add_argument("--mu", type=float, help="coherent-state intensity")
    intensity.add_argument("--optimize", action="store_true",
                           help="optimize mu instead of passing --mu")
    rates_p.add_argument("--distance", type=float, default=0.0,
                         help="total distance in km (default %(default)g)")
    rates_p.add_argument("--protocol", type=_protocol_list, default="ecs",
                         help="comma list from ecs,bell,plob (default %(default)s)")
    _add_channel_flags(rates_p)

    sweep_p = sub.add_parser("sweep", help="rate-versus-distance table (CSV or JSON)")
    sweep_p.add_argument("--l-min", dest="l_min", type=float, default=_DEFAULT["l_min_km"],
                         help="first distance, km (default %(default)g)")
    sweep_p.add_argument("--l-max", dest="l_max", type=float, default=_DEFAULT["l_max_km"],
                         help="last distance, km (default %(default)g)")
    sweep_p.add_argument("--l-step", dest="l_step", type=float, default=_DEFAULT["l_step_km"],
                         help="grid step, km (default %(default)g)")
    sweep_p.add_argument("--mu", type=float, help="fix the intensity; omit to optimize per distance")
    sweep_p.add_argument("--protocols", type=_protocol_list, default=_DEFAULT["protocols"],
                         help="comma list from ecs,bell,plob (default all)")
    sweep_p.add_argument("--output", default="-", help="output path, or - for stdout")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    _add_channel_flags(sweep_p)

    verify_p = sub.add_parser("verify", help="compare closed forms against the Fock oracle")
    verify_p.add_argument("--point", action="append", type=_point,
                          help="mu,eta,p_d,e_d tuple; repeatable (default: acceptance grid)")
    verify_p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                          help="per-field tolerance (default %(default)g)")
    verify_p.add_argument("--n-max", dest="n_max", type=int, default=DEFAULT_N_MAX,
                          help="Fock cutoff (default %(default)s)")
    verify_p.add_argument("--eta-d", dest="eta_d", type=float,
                          default=DEFAULT_ETA_D_LITERAL,
                          help="detector efficiency of the literal e_zz reading "
                               "(default %(default)g)")

    cross_p = sub.add_parser("crossover", help="locate where one protocol overtakes another")
    cross_p.add_argument("--pair", choices=("ecs-vs-bell", "ecs-vs-plob", "bell-vs-plob"))
    cross_p.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"),
                         help="distance bracket in km")
    cross_p.add_argument("--mu", type=float, help="fix the ECS intensity; omit to optimize")
    _add_channel_flags(cross_p)

    for command_p in sub.choices.values():
        command_p.add_argument("--config", type=Path,
                               help="JSON file of flag values; flags given here override it")
    parser.commands = sub.choices
    return parser


def _config_tokens(path: Path, command_p: argparse.ArgumentParser) -> list[str]:
    """The flag tokens a JSON config file stands for.

    Key ``eta_d`` is flag ``--eta-d``. ``true`` gives a switch and ``false``
    leaves the key out; a list gives one ``--point`` per item, a comma list
    for ``--protocol``/``--protocols``, and the flag's arguments otherwise
    (``--bracket LO HI``); any other value is passed as its text.  A key names
    a flag exactly, not by a prefix argparse would expand; a flag that takes
    numbers needs JSON numbers; ``null``, objects and the keys ``config`` and
    ``help`` are refused.
    """
    import json  # only a config file needs it

    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {flag: action for action in command_p._actions for flag in action.option_strings}
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        items = value if isinstance(value, list) else [value]
        if flag == "--config":
            raise UsageError("a config file cannot name another")
        if flag == "--help":  # argparse would print usage and exit 0, computing nothing
            raise UsageError("a config file cannot ask for --help")
        if flag not in actions:
            raise UsageError(f"config key {key!r} is not a flag of {command_p.prog}")
        if value is None or isinstance(value, dict):
            raise UsageError(f"config key {key!r} cannot be {json.dumps(value)}")
        numeric = actions[flag].type in (float, int)
        if numeric and not all(type(item) in (int, float) for item in items):
            raise UsageError(f"config key {key!r} takes numbers, got {json.dumps(value)}")
        if value is True:
            tokens.append(flag)
        elif flag == "--point":
            tokens += [f"{flag}={item}" for item in items]
        elif flag in ("--protocol", "--protocols") and isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        elif value is not False:
            tokens.append(f"{flag}={value}")
    return tokens


# The flag that sets each library field, so that a usage error names what
# the user typed; some subcommands set a field through another flag.
_FLAGS = {"beta_db_per_km": "--beta", "eta_d": "--eta-d", "p_d": "--p-d", "e_d": "--e-d",
          "mu": "--mu", "l_min_km": "--l-min", "l_max_km": "--l-max", "l_step_km": "--l-step",
          "tol": "--tol", "n_max": "--n-max"}
_COMMAND_FLAGS = {
    "rates": {"l_min_km": "--distance", "l_max_km": "--distance"},
    "crossover": {"l_min_km": "--bracket LO", "l_max_km": "--bracket HI",
                  "l_step_km": "--bracket HI - LO"},
    "verify": {field: f"--point {field}" for field in ("mu", "eta", "p_d", "e_d")},
}


def _usage_error(exc: ParameterError, command: str) -> UsageError:
    """``exc`` as a usage error; a leading field name (see ``check_point``) becomes its flag."""
    field, space, rest = str(exc).partition(" ")
    flags = {**_FLAGS, **_COMMAND_FLAGS.get(command, {})}
    return UsageError(flags.get(field, field) + space + rest)


def _sweep_config(args: argparse.Namespace, **grid) -> SweepConfig:
    """The validated config of ``rates``, ``sweep`` and ``crossover``.

    Every bad value is a usage error (exit 1), whichever subcommand got it.
    """
    try:
        return SweepConfig(beta_db_per_km=args.beta, eta_d=args.eta_d, p_d=args.p_d,
                           e_d=args.e_d, mu=args.mu, **grid)
    except ParameterError as exc:
        raise _usage_error(exc, args.command) from exc


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
    import json  # only JSON output needs it

    payload = [{f: getattr(row, f) for f in CSV_FIELDS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _cmd_rates(args: argparse.Namespace) -> int:
    protocols, distance = args.protocol, args.distance
    config = _sweep_config(args, l_min_km=distance, l_max_km=distance, protocols=protocols)
    if "ecs" in protocols and args.mu is None and not args.optimize:
        raise UsageError("--mu is required for the ecs protocol unless --optimize is given")
    # Compute every line before printing any, so a failure leaves no partial output.
    row = sweep_row(config, distance)
    lines = [f"distance_km = {format_value(row.distance_km)}"]
    if row.flagged:
        lines.append("optimizer_flagged = True")
    lines += [f"{key} = {format_value(getattr(row, key))}"
              for name in PROTOCOLS if name in protocols for key in _RATES_FIELDS[name]]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args, l_min_km=args.l_min, l_max_km=args.l_max,
                           l_step_km=args.l_step, protocols=args.protocols)
    rows = sweep(config)
    _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle  # the one subcommand that needs the oracle, and numpy

    try:
        report = oracle.verify_grid(
            points=args.point, tol=args.tol, n_max=args.n_max, eta_d_literal=args.eta_d
        )
    except ParameterError as exc:  # verify_grid raises one only for its settings
        raise _usage_error(exc, args.command) from exc

    def where(check: oracle.PointCheck) -> str:
        return f"at (mu={check.mu}, eta={check.eta}, p_d={check.p_d}, e_d={check.e_d})"

    def dev(value: float) -> str:
        """A maximum over the read-out points; NaN when no point was read out."""
        return "absent" if math.isnan(value) else f"{value:.3e}"

    print(f"points checked: {len(report.points)} (n_max={report.n_max})")
    for check in report.errors:
        print(f"ERROR {where(check)}: {check.error}")
    print(f"max |dQ_zz| = {dev(report.max_dev_q_zz)}")
    print(f"max |dS|    = {dev(report.max_dev_s)}")
    print(f"max |de_zz| = {dev(report.max_dev_e_zz)}")
    print(
        "misaligned e_zz reading supported by oracle: "
        f"{report.supported_e_zz_reading} "
        f"(eta dev {dev(report.max_dev_e_zz)}, "
        f"literal eta_d dev {dev(report.max_dev_e_zz_literal)})"
    )
    if report.errors:
        print(f"FAIL: the oracle could not read out {len(report.errors)} of "
              f"{len(report.points)} points")
        return EXIT_COMPUTE
    if report.failures:
        for check in report.failures:
            print(f"FAIL {where(check)}: dQ={check.dev_q_zz:.3e} dS={check.dev_s:.3e} "
                  f"de={check.dev_e_zz:.3e}")
        print(f"FAIL: deviations at or above {report.tol:g}")
        return EXIT_VERIFY
    print(f"PASS: all deviations below {report.tol:g}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    if args.pair is None:
        raise UsageError("--pair is required")
    if args.bracket is None:
        raise UsageError("--bracket is required")
    pair = tuple(args.pair.split("-vs-"))
    lo, hi = args.bracket
    # The step is the whole bracket, so the grid rules of SweepConfig read
    # 0 <= LO < HI < inf; find_crossover scans its own grid.
    config = _sweep_config(args, l_min_km=lo, l_max_km=hi, l_step_km=hi - lo, protocols=pair)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (rates, sweep, verify, crossover)")
        if args.config is not None:
            # The file's flags go first, so the command line's replace them.
            tokens = _config_tokens(args.config, parser.commands[args.command])
            if getattr(args, "point", None):  # --point appends, so drop the file's
                tokens = [token for token in tokens if not token.startswith("--point=")]
            try:
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            except UsageError as exc:
                raise UsageError(f"config file {args.config}: {exc}") from exc
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
