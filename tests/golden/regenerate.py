"""The golden-output corpus: what the program prints, and how to print it again.

``tests/test_golden.py`` re-runs every case below and compares it with the
file of the same name here.  Cases of kind ``bytes`` come from the closed
forms and must match byte for byte.  Cases of kind ``oracle`` come from the
Fock oracle, which may move at rounding level, so their numbers are compared
one by one to ``ORACLE_ABS_TOL`` and the text around them must match.

After a deliberate output change, regenerate the corpus from the repository
root and name the diff in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py

With ``--check`` it writes nothing: it names each case whose output differs
from its file, with the largest numeric move of an ``oracle`` case, and
exits with 1 if a ``bytes`` case differs or an ``oracle`` case moves by more
than ``ORACLE_ABS_TOL`` or changes its text.

``versions.json`` records the Python and numpy that wrote the corpus: the
closed forms call libm, so the bytes are those of one platform.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import random
import re
import sys
from pathlib import Path

import numpy

from ecs_diqkd import cli
from ecs_diqkd.optimize import SweepConfig, sweep
from ecs_diqkd.oracle import acceptance_grid, oracle_stats, verify_grid

GOLDEN = Path(__file__).resolve().parent
ORACLE_ABS_TOL = 1e-14
# A number standing on its own: not a digit inside a name such as d1_only.
_NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])"
)

# A channel on which the ECS rate beats PLOB only between about 199 and
# 207 km: narrower than the crossover scan's spacing, so the crossover
# search reports none although the 2 km sweep changes sign twice.
NARROW_WINDOW = ("--e-d", "0.027001023328068474", "--p-d", "9.510356531350182e-06",
                 "--eta-d", "0.8967793831163791")


def seeded_channels(count: int = 3, seed: int = 20261019) -> list[tuple[str, ...]]:
    """Channel flags of ``count`` seeded channels, each value as its shortest repr."""
    rng = random.Random(seed)
    return [
        ("--e-d", repr(rng.uniform(0.0, 0.07)), "--p-d", repr(10.0 ** rng.uniform(-8.0, -5.0)),
         "--eta-d", repr(rng.uniform(0.5, 0.99)))
        for _ in range(count)
    ]


def cli_stdout(*argv: str) -> str:
    """Standard output of one in-process CLI call that must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"ecs-diqkd {' '.join(argv)} exited with {code}")
    return out.getvalue()


def flagged_rows() -> str:
    """The rows past the optimizer's reach, with the ``flagged`` field both writers drop."""
    config = SweepConfig(l_min_km=590.0, l_max_km=700.0, l_step_km=30.0, protocols=("ecs",))
    return "".join(f"{row!r}\n" for row in sweep(config))


def oracle_points(count: int = 60, seed: int = 20261019) -> list[tuple[float, ...]]:
    """The acceptance grid, then ``count`` seeded points with eta down to 1e-8."""
    rng = random.Random(seed)
    seeded = [
        (10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-8.0, 0.0),
         10.0 ** rng.uniform(-9.0, -5.0), rng.uniform(0.0, 0.5))
        for _ in range(count)
    ]
    return acceptance_grid() + seeded


def oracle_values() -> str:
    """One ``oracle_stats`` call per point: the point, then its statistics."""
    return "".join(f"{point!r} {oracle_stats(*point)!r}\n" for point in oracle_points())


def verify_grid_repr() -> str:
    return f"{verify_grid()!r}\n"


def _channel_sweep(flags: tuple[str, ...]) -> str:
    return cli_stdout("sweep", "--l-min", "0", "--l-max", "700", "--l-step", "10", *flags)


# (file name, kind, producer of its text)
CASES = [
    ("sweep_default.csv", "bytes", lambda: cli_stdout("sweep")),
    ("sweep_default.json", "bytes", lambda: cli_stdout("sweep", "--format", "json")),
    *[(f"sweep_channel_{k}.csv", "bytes", lambda flags=flags: _channel_sweep(flags))
      for k, flags in enumerate(seeded_channels(), start=1)],
    ("narrow_window_crossover.txt", "bytes",
     lambda: cli_stdout("crossover", "--pair", "ecs-vs-plob", "--bracket", "0", "700",
                        *NARROW_WINDOW)),
    ("narrow_window_sweep.csv", "bytes",
     lambda: cli_stdout("sweep", "--l-min", "190", "--l-max", "216", "--l-step", "2",
                        *NARROW_WINDOW)),
    ("flagged_rows.csv", "bytes",
     lambda: cli_stdout("sweep", "--l-min", "590", "--l-max", "700", "--l-step", "30",
                        "--protocols", "ecs")),
    ("flagged_rows.txt", "bytes", flagged_rows),
    ("rates_mu.txt", "bytes",
     lambda: cli_stdout("rates", "--mu", "0.25", "--distance", "50", "--protocol", "ecs,bell,plob")),
    ("rates_optimize.txt", "bytes",
     lambda: cli_stdout("rates", "--optimize", "--distance", "100",
                        "--protocol", "ecs,bell,plob")),
    ("rates_protocol_order.txt", "bytes",
     lambda: cli_stdout("rates", "--mu", "0.1", "--distance", "50", "--protocol", "plob,bell")),
    ("crossover_ecs_plob.txt", "bytes",
     lambda: cli_stdout("crossover", "--pair", "ecs-vs-plob", "--bracket", "1", "700")),
    ("crossover_ecs_bell.txt", "bytes",
     lambda: cli_stdout("crossover", "--pair", "ecs-vs-bell", "--bracket", "1", "400")),
    ("oracle_stats.txt", "oracle", oracle_values),
    ("verify_grid_repr.txt", "oracle", verify_grid_repr),
    ("verify_stdout.txt", "oracle", lambda: cli_stdout("verify")),
]


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    parts = _NUMBER.split(text)
    return parts[0::2], [float(number) for number in parts[1::2]]


def oracle_move(actual: str, expected: str) -> float | None:
    """Largest move of any number between two oracle outputs; None if their text differs."""
    skeleton, numbers = split_numbers(actual)
    expected_skeleton, expected_numbers = split_numbers(expected)
    if skeleton != expected_skeleton:
        return None
    move = 0.0
    for got, want in zip(numbers, expected_numbers):
        if not (got == want or (math.isnan(got) and math.isnan(want))):
            gap = abs(got - want)
            move = max(move, math.inf if math.isnan(gap) else gap)  # a NaN against a number
    return move


def check() -> int:
    """Compare every case with its file and write nothing: 1 on a failing difference."""
    failed = False
    for name, kind, produce in CASES:
        actual, expected = produce(), (GOLDEN / name).read_text()
        if actual == expected:
            print(f"{name}: unchanged")
        elif kind == "bytes":
            failed = True
            print(f"{name}: differs")
        else:
            move = oracle_move(actual, expected)
            if move is None:
                failed = True
                print(f"{name}: text differs")
            else:
                failed = failed or move > ORACLE_ABS_TOL
                print(f"{name}: numbers differ, largest move {move:.3g} "
                      f"(tolerance {ORACLE_ABS_TOL:g})")
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden corpus, or check it.")
    parser.add_argument("--check", action="store_true",
                        help="compare the outputs with the corpus and write nothing")
    if parser.parse_args(argv).check:
        return check()
    for name, _, produce in CASES:
        (GOLDEN / name).write_text(produce())
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
