"""Command-line surface: flags, exit codes, artifacts, round trips."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecs_diqkd
from ecs_diqkd import cli, optimize, oracle
from ecs_diqkd.optimize import SweepConfig, sweep_row
from ecs_diqkd.params import DetectorStats, ParameterError

SRC = str(Path(ecs_diqkd.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False, timeout=120
    )


def _parse_report(output: str) -> dict[str, float]:
    values = {}
    for line in output.splitlines():
        if " = " in line:
            key, _, raw = line.partition(" = ")
            try:
                values[key.strip()] = float(raw)
            except ValueError:
                pass
    return values


def test_rates_ideal_point(capsys):
    code = cli.main(
        ["rates", "--mu", "0.25", "--distance", "0", "--eta-d", "1",
         "--p-d", "0", "--e-d", "0"]
    )
    assert code == 0
    report = _parse_report(capsys.readouterr().out)
    assert report["s"] == pytest.approx(2.271977447333802, abs=1e-12)
    assert report["q_zz"] == pytest.approx(0.3934693402873666, abs=1e-12)
    assert report["e_zz"] == 0.0
    assert report["rate_ecs"] == pytest.approx(0.08698712742165916, abs=1e-12)


def test_rates_at_a_bright_pulse_whose_gain_once_rounded_past_one(capsys):
    code = cli.main(["rates", "--mu", "19.09", "--eta-d", "1", "--p-d", "0", "--distance", "0"])
    assert code == cli.EXIT_OK
    assert _parse_report(capsys.readouterr().out)["q_zz"] == 1.0


def test_rates_requires_mu_or_optimize(capsys, tmp_path):
    assert cli.main(["rates", "--distance", "100"]) == cli.EXIT_USAGE
    # Exactly one of the two: a fixed mu with --optimize is refused, whichever
    # flag comes from a config file.
    mu_file, optimize_file = tmp_path / "mu.json", tmp_path / "optimize.json"
    mu_file.write_text('{"mu": 0.1}')
    optimize_file.write_text('{"optimize": true}')
    for argv in (
        ["rates", "--mu", "0.1", "--optimize", "--distance", "100"],
        ["rates", "--optimize", "--mu", "0.1"],
        ["rates", "--config", str(mu_file), "--optimize"],
        ["rates", "--config", str(optimize_file), "--mu", "0.1"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "not allowed with argument" in err


def test_rates_optimize_flag(capsys):
    code = cli.main(["rates", "--optimize", "--distance", "100"])
    assert code == 0
    report = _parse_report(capsys.readouterr().out)
    assert report["rate_ecs"] > 0.0
    assert 0.0 < report["mu"] <= 1.0


def test_rates_optimize_flagged_far_beyond_cutoff(capsys):
    code = cli.main(["rates", "--optimize", "--distance", "900"])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimizer_flagged = True" in out
    assert _parse_report(out)["rate_ecs"] == 0.0


def test_rates_plob_only(capsys):
    code = cli.main(
        ["rates", "--protocol", "plob", "--distance", "100",
         "--beta", "0.2", "--eta-d", "0.8"]
    )
    assert code == 0
    report = _parse_report(capsys.readouterr().out)
    assert report["rate_plob"] == pytest.approx(0.011587974275211835, abs=1e-15)
    assert "s" not in report


def test_rates_all_protocols(capsys):
    code = cli.main(["rates", "--mu", "0.1", "--distance", "50",
                     "--protocol", "ecs,bell,plob"])
    assert code == 0
    report = _parse_report(capsys.readouterr().out)
    for key in ("rate_ecs", "rate_bell", "rate_plob", "bell_s"):
        assert key in report


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["rates", "--mu", "0.1", "--warp", "9"]) == cli.EXIT_USAGE


def test_unknown_protocol_is_usage_error(capsys):
    assert cli.main(["rates", "--mu", "0.1", "--protocol", "morse"]) == cli.EXIT_USAGE


def test_invalid_parameter_value_is_usage_error(capsys):
    assert cli.main(["rates", "--mu", "0.1", "--eta-d", "2.0"]) == cli.EXIT_USAGE
    assert cli.main(["rates", "--mu", "0"]) == cli.EXIT_USAGE
    assert cli.main(["rates", "--mu", "-1", "--protocol", "bell"]) == cli.EXIT_USAGE
    # Each message is the library's rule, named by the flag the user typed,
    # not by the grid field it sets.
    for argv, message in (
        (["rates", "--mu", "0.1", "--distance", "-1"], "--distance must be >= 0, got -1.0"),
        (["rates", "--mu", "0.1", "--distance", "nan"], "--distance must be finite, got nan"),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "-5", "100"],
         "--bracket LO must be >= 0, got -5.0"),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "nan", "100"],
         "--bracket LO must be finite, got nan"),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "200", "100"],
         "--bracket LO must not exceed 100.0, got 200.0"),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "100", "100"],
         "--bracket HI - LO must be > 0, got 0.0"),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "0", "inf"],
         "--bracket HI must be finite, got inf"),
        (["sweep", "--l-min", "-5"], "--l-min must be >= 0, got -5.0"),
        (["sweep", "--l-min", "nan"], "--l-min must be finite, got nan"),
        (["sweep", "--l-min", "10", "--l-max", "0"], "--l-min must not exceed 0.0, got 10.0"),
        (["sweep", "--l-max", "inf"], "--l-max must be finite, got inf"),
        (["sweep", "--l-step", "0"], "--l-step must be > 0, got 0.0"),
        (["sweep", "--l-step", "nan"], "--l-step must be finite, got nan"),
        (["sweep", "--l-step", "1e-11"],
         "the distance grid exceeds 100000 rows; use a larger step or a shorter range"),
    ):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
    # Past about 32,361 km at 0.2 dB/km the arm transmittance underflows to 0.
    for argv in (
        ["rates", "--mu", "0.1", "--distance", "40000"],
        ["sweep", "--l-max", "40000", "--l-step", "10000"],
        ["crossover", "--pair", "bell-vs-plob", "--bracket", "100", "40000"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "underflows to 0 at 40000.0 km" in capsys.readouterr().err
    # The capacity bound alone is still defined there.
    assert cli.main(["rates", "--optimize", "--distance", "40000", "--protocol", "plob"]) == 0
    assert capsys.readouterr().out.endswith("rate_plob = 0.0\n")
    # The bell rate squares the transmittance, which leaves the normal floats
    # past about 15,373 km; the ecs rate still runs there.
    for distance, argv in (
        (16000, ["sweep", "--l-min", "16000", "--l-max", "16000", "--p-d", "0", "--mu", "0.1"]),
        (20000, ["rates", "--mu", "0.1", "--p-d", "0", "--distance", "20000",
                 "--protocol", "ecs,bell"]),
        (15374, ["rates", "--mu", "0.1", "--distance", "15374", "--protocol", "bell"]),
        (16000, ["crossover", "--pair", "ecs-vs-bell", "--bracket", "100", "16000"]),
    ):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"squared arm transmittance underflows at {distance}.0 km" in err
    assert cli.main(["rates", "--mu", "0.1", "--distance", "15372", "--protocol", "bell"]) == 0
    assert cli.main(["rates", "--mu", "0.1", "--p-d", "0", "--distance", "16000",
                     "--protocol", "ecs"]) == 0


# One cheap valid invocation of each subcommand that takes channel flags
# into a SweepConfig.
CHANNEL_COMMANDS = (
    ["rates", "--mu", "0.1", "--distance", "50"],
    ["sweep", "--mu", "0.1", "--l-max", "10"],
    ["crossover", "--pair", "ecs-vs-plob", "--bracket", "100", "250", "--mu", "0.1"],
)


@pytest.mark.parametrize(
    "flag",
    [["--eta-d", "0"], ["--p-d", "nan"], ["--e-d", "0.6"], ["--beta", "nan"], ["--beta", "inf"]],
    ids=" ".join,
)
def test_bad_channel_value_is_the_same_usage_error_everywhere(flag, capsys):
    messages = set()
    for argv in CHANNEL_COMMANDS:
        assert cli.main(argv + flag) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.add(captured.err)
    assert len(messages) == 1
    assert messages.pop().startswith(f"usage error: {flag[0]} ")


def test_config_file_value_error_names_the_flag(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"beta": -1}))
    for argv in CHANNEL_COMMANDS:
        assert cli.main([*argv, "--config", str(config)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --beta must be finite and >= 0, got -1.0\n"


@pytest.mark.parametrize("mu_flags, mu", [(["--mu", "0.07"], 0.07), (["--optimize"], None)])
def test_rates_prints_the_sweep_row(mu_flags, mu, capsys):
    argv = ["rates", *mu_flags, "--distance", "230", "--e-d", "0.02",
            "--protocol", "ecs,bell,plob"]
    assert cli.main(argv) == 0
    report = _parse_report(capsys.readouterr().out)
    row = sweep_row(SweepConfig(l_min_km=230.0, l_max_km=230.0, e_d=0.02, mu=mu), 230.0)
    for field in cli.CSV_FIELDS:
        assert report[field] == getattr(row, field)


def test_rates_evaluates_the_bell_statistics_once(monkeypatch, capsys):
    # The Bell lines are the row's fields: sweep_row is the one rate path.
    calls = []
    bell_state_stats = optimize.bell_state_stats

    def counted(*args):
        calls.append(args)
        return bell_state_stats(*args)

    for module in (optimize, cli):
        monkeypatch.setattr(module, "bell_state_stats", counted)
    argv = ["rates", "--optimize", "--distance", "100", "--protocol", "ecs,bell,plob"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    report = _parse_report(capsys.readouterr().out)
    assert [report[f"bell_{key}"] for key in ("q_zz", "s", "e_zz")] == list(
        bell_state_stats(*calls[0]))


def test_plob_divergence_is_compute_error(capsys):
    code = cli.main(
        ["rates", "--protocol", "plob", "--distance", "0", "--beta", "0",
         "--eta-d", "1.0"]
    )
    assert code == cli.EXIT_COMPUTE


def test_sweep_past_the_horizon_still_fails_where_eta_underflows(capsys):
    # At p_d 0 and e_d 0.4 no seed reaches s > 2 from 0 km on, so most rows
    # skip the search; near 32,300 km the arm transmittance is subnormal, the
    # search runs again, and its bracket is below the smallest normal double
    # at the smallest seed.
    argv = ["sweep", "--l-min", "0", "--l-max", "32300", "--l-step", "100",
            "--p-d", "0", "--e-d", "0.4", "--protocols", "ecs"]
    assert cli.main(argv) == cli.EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degenerate denominator in misaligned statistics\n"


def test_crossover_stops_before_the_rows_where_eta_underflows(capsys):
    # At p_d 0 and e_d 0.3 the ECS rate is 0 and the PLOB bound underflows
    # to 0 by 16,500 km, so the scan stops at its first pair of zero values
    # and never reaches the 32,000 km row, whose search raises `degenerate
    # denominator` (a sweep that far still does, as tested above).
    argv = ["crossover", "--pair", "ecs-vs-plob", "--bracket", "0", "32000",
            "--p-d", "0", "--e-d", "0.3"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "no crossover in bracket [0, 32000] km\n"
    assert captured.err == ""


def test_arithmetic_overflow_is_compute_error():
    for argv in (
        ["rates", "--mu", "400", "--e-d", "0.01", "--eta-d", "1"],
        ["crossover", "--pair", "ecs-vs-plob", "--bracket", "100", "250", "--mu", "1e308"],
    ):
        done = _python("-m", "ecs_diqkd.cli", *argv)
        assert done.returncode == cli.EXIT_COMPUTE
        assert "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1  # no numpy warnings
        assert done.stdout == ""


# Runs one CLI command in a fresh interpreter and reports the heavy modules
# loaded by `import ecs_diqkd`, then by the command, then by asking the
# package for a Fock-space name.  `dataclasses` (with `inspect`) and `json`
# count as heavy because they cost start-up time on every call; the probe
# imports `json` for its report only after the last measurement.
_LOAD_PROBE = (
    "import runpy, sys\n"
    "def heavy():\n"
    "    roots = ('numpy', 'scipy', 'concurrent', 'multiprocessing', 'dataclasses', 'json')\n"
    "    return sorted({m.split('.')[0] for m in sys.modules} & set(roots))\n"
    "import ecs_diqkd\n"
    "after_import = heavy()\n"
    "sys.argv = ['ecs_diqkd.cli', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('ecs_diqkd.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "after_cli = heavy()\n"
    "assert ecs_diqkd.verify_grid is ecs_diqkd.oracle.verify_grid\n"
    "after_lazy = heavy()\n"
    "import json\n"
    "print(json.dumps([after_import, after_cli, code, after_lazy]), file=sys.stderr)\n"
)


def _load_probe(*argv: str) -> tuple[list[str], list[str], int, list[str], str]:
    done = _python("-c", _LOAD_PROBE, *argv)
    after_import, after_cli, code, after_lazy = json.loads(done.stderr.strip().splitlines()[-1])
    return after_import, after_cli, code, after_lazy, done.stdout


def test_import_and_cli_load_no_scipy():
    """Neither the import nor a ``rates`` call loads scipy, numpy, dataclasses or json."""
    after_import, after_cli, code, _, out = _load_probe("rates", "--mu", "0.1", "--distance", "100")
    assert code == 0
    assert "rate_ecs = " in out
    assert after_import == [] and after_cli == []


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["rates", "--optimize", "--distance", "100", "--protocol", "ecs,bell,plob"],
         "rate_plob = "),
        (["sweep", "--l-max", "20"], cli.CSV_HEADER),
        (["crossover", "--pair", "ecs-vs-plob", "--bracket", "1", "400"], "crossover_km = "),
        (["verify", "--point", "0.1,0.5,1e-7,0.01"], "PASS: "),
    ],
    ids=["rates", "sweep", "crossover", "verify"],
)
def test_closed_form_path_loads_no_numpy(argv, printed):
    """Only the oracle needs numpy: the closed-form subcommands never load it.
    None of these commands loads dataclasses or json."""
    after_import, after_cli, code, after_lazy, out = _load_probe(*argv)
    assert code == 0
    assert printed in out
    assert after_import == []
    assert after_cli == (["numpy"] if argv[0] == "verify" else [])
    assert after_lazy == ["numpy"]  # the lazy names still resolve, and bring numpy


def _tracer_bindings(monkeypatch) -> tuple[tuple[str, str, str], ...]:
    """The ``BINDINGS`` of ``benchmarks/tracer.py``: (module, name, span name)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    return tracer.BINDINGS


def test_library_keeps_every_binding_the_benchmark_tracer_wraps(monkeypatch):
    """``benchmarks/tracer.py`` replaces module attributes by name; a rename
    in the library would break its ``--trace 1`` runs, not these tests."""
    for module_name, attr, _ in _tracer_bindings(monkeypatch):
        module = importlib.import_module(f"ecs_diqkd.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _literal_all(tree: ast.Module) -> set[str]:
    """The names a module's top-level ``__all__ = [...]`` lists; empty without one."""
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            if [getattr(target, "id", None) for target in statement.targets] == ["__all__"]:
                return set(ast.literal_eval(statement.value))
    return set()


def test_every_module_level_import_is_used_exported_or_traced(monkeypatch):
    """A name a module imports at its top level is used there, listed in its
    ``__all__``, or a binding ``benchmarks/tracer.py`` wraps on it."""
    traced = {(module_name, attr) for module_name, attr, _ in _tracer_bindings(monkeypatch)}
    unused = []
    for path in sorted(Path(ecs_diqkd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = _literal_all(tree)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used | exported and (path.stem, name) not in traced:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def _sweep_args(tmp_path, fmt="csv", name="out"):
    path = tmp_path / f"{name}.{fmt}"
    return path, [
        "sweep", "--l-min", "0", "--l-max", "40", "--l-step", "20",
        "--mu", "0.2", "--output", str(path), "--format", fmt,
    ]


def test_sweep_csv_round_trip(tmp_path, capsys):
    path, args = _sweep_args(tmp_path)
    assert cli.main(args) == 0
    text = path.read_text()
    assert text.splitlines()[0] == cli.CSV_HEADER
    rows = cli.rows_from_csv(text)
    assert len(rows) == 3
    assert cli.rows_to_csv(rows) == text  # byte-identical re-emission
    header, first, *_ = text.splitlines()
    with pytest.raises(ParameterError, match="^unrecognized CSV header$"):
        cli.rows_from_csv(header.replace("mu", "intensity") + "\n" + first + "\n")
    short = first.rsplit(",", 1)[0]
    with pytest.raises(ParameterError, match="^malformed CSV row: "):
        cli.rows_from_csv(f"{header}\n{short}\n")


def test_sweep_json_isomorphism(tmp_path, capsys):
    csv_path, csv_args = _sweep_args(tmp_path, "csv", "a")
    json_path, json_args = _sweep_args(tmp_path, "json", "b")
    assert cli.main(csv_args) == 0
    assert cli.main(json_args) == 0
    csv_rows = cli.rows_from_csv(csv_path.read_text())
    json_rows = json.loads(json_path.read_text())
    assert [list(r) for r in map(dict.keys, json_rows)] == [
        list(cli.CSV_FIELDS)
    ] * len(json_rows)
    for row, parsed in zip(csv_rows, json_rows):
        for field in cli.CSV_FIELDS:
            assert getattr(row, field) == parsed[field]


def test_sweep_default_grid_shape(tmp_path, capsys):
    path = tmp_path / "default.csv"
    assert cli.main(["sweep", "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 121  # 0 to 600 km in 5 km steps
    assert lines[1].startswith("0.0,")
    assert lines[-1].startswith("600.0,")


def test_sweep_empty_protocols_usage_error(tmp_path, capsys):
    assert cli.main(["sweep", "--protocols", ""]) == cli.EXIT_USAGE


def test_sweep_grid_over_the_row_cap_is_usage_error(monkeypatch, capsys):
    def refuse(config):
        raise AssertionError("the distance grid was built")

    monkeypatch.setattr(optimize, "sweep_distances", refuse)
    assert cli.main(["sweep", "--l-step", "1e-11"]) == cli.EXIT_USAGE
    assert f"{optimize.MAX_SWEEP_ROWS} rows" in capsys.readouterr().err


def test_sweep_unwritable_path(tmp_path, capsys):
    args = ["sweep", "--l-min", "0", "--l-max", "0", "--mu", "0.2",
            "--output", str(tmp_path / "missing" / "out.csv")]
    assert cli.main(args) == cli.EXIT_COMPUTE


def test_sweep_stdout(capsys):
    code = cli.main(["sweep", "--l-min", "0", "--l-max", "0", "--mu", "0.2",
                     "--protocols", "plob"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == cli.CSV_HEADER
    assert out.splitlines()[1].startswith("0.0,,,,,")


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mu": 0.25, "distance": 0.0, "eta_d": 1.0,
                                  "p_d": 0.0}))
    code = cli.main(["rates", "--config", str(config), "--mu", "0.1"])
    assert code == 0
    report = _parse_report(capsys.readouterr().out)
    assert report["mu"] == 0.1  # flag wins over the file value
    # A repeatable flag replaces the file's list rather than adding to it.
    config.write_text(json.dumps({"point": ["0.1,0.5,0,0.01", "0.25,1,0,0"], "n_max": 12}))
    assert cli.main(["verify", "--config", str(config), "--point", "0.25,1,0,0"]) == 0
    assert "points checked: 1 (n_max=12)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, data",
    [
        (["sweep"], {"beta": "x"}),
        (["sweep"], {"l_step": None}),
        (["sweep", "--l-max", "0"], {"format": "xml"}),
        (["verify"], {"tol": "x"}),
        (["verify", "--point", "0.25,1,0,0"], {"n_max": 30.7}),
        (["verify", "--point", "0.25,1,0,0"], {"n_max": True}),
        (["verify", "--point", "0.25,1,0,0"], {"beta": 0.2}),
        (["crossover", "--pair", "ecs-vs-plob"], {"bracket": [1]}),
        (["crossover", "--pair", "ecs-vs-plob"], {"bracket": "ab"}),
        (["crossover", "--bracket", "100", "250"], {"pair": "ecs-vs-ecs"}),
        (["rates"], {"mu": "0.25"}),
        (["rates", "--mu", "0.1"], {"distance": "x"}),
        (["rates", "--distance", "100"], {"optimize": "no"}),
        (["rates", "--mu", "0.1"], {"output": {"path": "x"}}),
        (["rates", "--mu", "0.1"], {"config": "other.json"}),
        (["rates", "--mu", "0.1"], {"help": True}),
        # A key names a flag exactly, not by a prefix argparse would expand.
        (["rates", "--mu", "0.1"], {"eta": "0.9"}),
        (["rates", "--mu", "0.1"], {"eta": 0.9}),
        (["rates", "--mu", "0.1"], {"dist": 100}),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else " ".join(v),
)
def test_config_value_is_checked_like_its_flag(command, data, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(data))
    assert cli.main([*command, "--config", str(config)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_sweep_from_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "l_min": 0.0, "l_max": 10.0, "l_step": 5.0,
        "mu": 0.2, "protocols": ["ecs"],
    }))
    path = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--config", str(config), "--output", str(path)])
    assert code == 0
    rows = cli.rows_from_csv(path.read_text())
    assert len(rows) == 3
    assert all(row.mu == 0.2 and row.rate_bell is None for row in rows)


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mu": 0.25, "flux": 1}))
    assert cli.main(["rates", "--config", str(config)]) == cli.EXIT_USAGE


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    for text, message in (
        (None, "usage error: cannot read config file: "),
        ("{mu: 0.25}", "usage error: cannot read config file: "),
        ("[0.25]", "usage error: config file must hold a JSON object"),
    ):
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        assert cli.main(["rates", "--config", str(config)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(message)


def test_verify_single_ideal_point(capsys):
    code = cli.main(["verify", "--point", "0.25,1,0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "points checked: 1" in out
    assert "reading supported by oracle: eta" in out


def test_verify_malformed_point(capsys):
    assert cli.main(["verify", "--point", "0.25,1,0"]) == cli.EXIT_USAGE
    assert cli.main(["verify", "--point", "0.25,x,0,0"]) == cli.EXIT_USAGE
    assert "bad value '0.25,x,0,0'" in capsys.readouterr().err


def test_verify_catches_corrupted_closed_form(monkeypatch, capsys):
    def corrupted(mu, eta, p_d, e_d):
        stats = oracle.rates.ecs_misaligned_stats(mu, eta, p_d, e_d)
        return DetectorStats(q_zz=stats.q_zz, s=stats.s, e_zz=stats.e_zz + 1e-4)

    monkeypatch.setattr(oracle, "ecs_misaligned_stats", corrupted)
    code = cli.main(["verify", "--point", "0.1,0.5,0,0.01", "--point", "0.25,1,0,0"])
    assert code == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "mu=0.1" in out  # the offending tuple is identified
    # A tolerance that every deviation passes is refused, not a PASS.
    for tol in ("nan", "inf"):
        code = cli.main(["verify", "--point", "0.1,0.5,0,0.01", "--tol", tol])
        assert code == cli.EXIT_USAGE
        assert "PASS" not in capsys.readouterr().out


def test_verify_cutoff_out_of_range_is_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle work started")

    monkeypatch.setattr(oracle, "_optical_state", refuse)
    for flags, message in (
        (["--n-max", "100000"], "usage error: --n-max must be in [1, 200]"),
        (["--n-max", "0"], "usage error: --n-max must be in [1, 200]"),
        (["--eta-d", "nan"], "usage error: --eta-d must be in (0, 1]"),
        (["--eta-d", "0"], "usage error: --eta-d must be in (0, 1]"),
        (["--eta-d", "2"], "usage error: --eta-d must be in (0, 1]"),
        (["--point", "nan,1,0,0"], "usage error: --point mu must be finite and > 0"),
        (["--point", "0.25,1,0,0.9"], "usage error: --point e_d must be in [0, 0.5]"),
        (["--tol", "nan"], "usage error: --tol must be finite and > 0"),
    ):
        assert cli.main(["verify", "--point", "0.25,1,0,0", *flags]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


def test_verify_cutoff_failure_is_compute_error(capsys):
    code = cli.main(["verify", "--point", "1.0,0.5,0,0", "--n-max", "10"])
    assert code == cli.EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("ERROR at (mu=1.0, eta=0.5, p_d=0.0, e_d=0.0): n_max=10")
    assert lines[-1] == "FAIL: the oracle could not read out 1 of 1 points"


def test_verify_with_no_point_read_out_reports_no_maxima(capsys):
    # A maximum over no read-out point is absent, not 0, and no e_zz
    # reading is supported.
    code = cli.main(["verify", "--point", "0.5,0.5,1e-7,0.01", "--n-max", "5"])
    assert code == cli.EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("ERROR at (mu=0.5, eta=0.5, p_d=1e-07, e_d=0.01): n_max=5")
    assert lines[2:6] == [
        "max |dQ_zz| = absent",
        "max |dS|    = absent",
        "max |de_zz| = absent",
        "misaligned e_zz reading supported by oracle: undetermined "
        "(eta dev absent, literal eta_d dev absent)",
    ]
    assert lines[-1] == "FAIL: the oracle could not read out 1 of 1 points"


def test_verify_reports_a_readout_out_of_range_and_checks_the_other_points(capsys):
    # At mu 22.5 the oracle's q_zz rounds past 1; that point carries the error,
    # and the other point is still compared.
    code = cli.main(["verify", "--point", "22.5,1,0,0", "--point", "0.1,0.5,0,0", "--n-max", "120"])
    assert code == cli.EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "points checked: 2 (n_max=120)"
    errors = [line for line in lines if line.startswith("ERROR")]
    assert len(errors) == 1
    assert errors[0].startswith("ERROR at (mu=22.5, eta=1.0, p_d=0.0, e_d=0.0): q_zz must be")
    deviations = [float(line.partition("=")[2]) for line in lines if line.startswith("max |d")]
    assert len(deviations) == 3 and max(deviations) < 1e-12  # the other point's
    assert lines[-1] == "FAIL: the oracle could not read out 1 of 2 points"


def test_verify_reports_an_arithmetic_failure_and_checks_the_other_points(capsys):
    # At mu 1e-300 and eta 1e-30 the oracle's gain underflows to 0 and its
    # e_zz divides by it; that point carries the failure, and the other point
    # is still compared.
    code = cli.main(["verify", "--point", "1e-300,1e-30,0,0", "--point", "0.25,1,0,0"])
    assert code == cli.EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    errors = [line for line in lines if line.startswith("ERROR")]
    assert len(errors) == 1
    assert errors[0].startswith(
        "ERROR at (mu=1e-300, eta=1e-30, p_d=0.0, e_d=0.0): arithmetic failure "
        "(ZeroDivisionError"
    )
    deviations = [float(line.partition("=")[2]) for line in lines if line.startswith("max |d")]
    assert len(deviations) == 3 and max(deviations) < 1e-12  # the other point's
    assert lines[-1] == "FAIL: the oracle could not read out 1 of 2 points"


def test_verify_reads_a_parameter_error_of_the_optical_state_as_a_point_error(
        monkeypatch, capsys):
    # verify_grid raises a ParameterError only for its settings; one from a
    # point's optical state is the error of each point of that group.
    optical_state = oracle._optical_state

    def refuse_faint(mu, eta, e_d, n_max):
        if mu < 0.2:
            raise ParameterError("no state for this point")
        return optical_state(mu, eta, e_d, n_max)

    monkeypatch.setattr(oracle, "_optical_state", refuse_faint)
    points = [(0.1, 0.5, p_d, 0.01) for p_d in (0.0, 1e-7)] + [(0.25, 1.0, 0.0, 0.0)]
    report = oracle.verify_grid(points=points)
    assert [check.error for check in report.points] == ["no state for this point"] * 2 + [None]
    argv = ["verify", *(f"--point={','.join(map(str, point))}" for point in points)]
    assert cli.main(argv) == cli.EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[1] == "ERROR at (mu=0.1, eta=0.5, p_d=0.0, e_d=0.01): no state for this point"
    assert lines[-1] == "FAIL: the oracle could not read out 2 of 3 points"


def test_crossover_found(capsys):
    code = cli.main(["crossover", "--pair", "ecs-vs-plob",
                     "--bracket", "100", "250"])
    assert code == 0
    out = capsys.readouterr().out
    crossing = float(out.partition("=")[2])
    assert 130.0 <= crossing <= 170.0


def test_crossover_upper_bell_window(capsys):
    code = cli.main(["crossover", "--pair", "ecs-vs-bell",
                     "--bracket", "350", "550"])
    assert code == 0
    crossing = float(capsys.readouterr().out.partition("=")[2])
    assert 382.5 <= crossing <= 517.5


def test_crossover_empty_bracket(capsys):
    code = cli.main(["crossover", "--pair", "ecs-vs-bell",
                     "--bracket", "5", "30"])
    assert code == 0
    assert "no crossover in bracket" in capsys.readouterr().out


def test_crossover_bracket_builds_no_sweep_grid(capsys):
    # find_crossover scans 65 points of any bracket, so a bracket of more
    # than MAX_SWEEP_ROWS default steps is no grid error.
    argv = ["crossover", "--beta", "0.001", "--pair", "ecs-vs-plob", "--bracket", "0", "600000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("crossover_km = ")
    assert float(out.partition("=")[2]) == pytest.approx(27144.527435302734, abs=1e-6)
    # Too far for any grid: the far end's transmittance underflow is the error.
    argv = ["crossover", "--pair", "ecs-vs-plob", "--bracket", "0", "1e300"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: the arm transmittance underflows to 0 at 1e+300 km; "
        "the ecs and bell rates need a shorter distance\n"
    )


def test_crossover_requires_pair_and_bracket(capsys):
    assert cli.main(["crossover", "--bracket", "5", "30"]) == cli.EXIT_USAGE
    assert cli.main(["crossover", "--pair", "ecs-vs-bell"]) == cli.EXIT_USAGE
    for bracket in (["100", "100"], ["250", "100"]):
        argv = ["crossover", "--pair", "ecs-vs-bell", "--bracket", *bracket]
        assert cli.main(argv) == cli.EXIT_USAGE


# Each subcommand's fixed arguments, then its numeric flags with one valid
# value per position.  Grids stay a few rows wide and mu is always given, so
# no example runs the intensity search and one example takes milliseconds.
_FUZZ_CHANNEL = {"--beta": ["0.2"], "--eta-d": ["0.8"], "--p-d": ["1e-7"], "--e-d": ["0.01"]}
FUZZ_COMMANDS = {
    "rates": (["rates", "--protocol", "ecs,bell,plob"],
              {"--mu": ["0.1"], "--distance": ["50"], **_FUZZ_CHANNEL}),
    "sweep": (["sweep", "--protocols", "ecs,bell,plob"],
              {"--l-min": ["0"], "--l-max": ["20"], "--l-step": ["10"], "--mu": ["0.1"],
               **_FUZZ_CHANNEL}),
    "verify": (["verify", "--point", "0.25,1,0,0"],
               {"--tol": ["1e-8"], "--n-max": ["12"], "--eta-d": ["0.8"]}),
    "crossover": (["crossover", "--pair", "ecs-vs-plob"],
                  {"--bracket": ["100", "250"], "--mu": ["0.1"], **_FUZZ_CHANNEL}),
}
FUZZ_BAD = ("0", "-1", "nan", "inf", "-inf", "1e308")
# Config-file values of the wrong JSON type, besides the flag's own numbers
# and those numbers as a string.
FUZZ_FILE_VALUES = ("x", None, True, False, [0.1, 1], {"a": 1})


def _json_number(text: str) -> float | int:
    number = float(text)
    return int(number) if number.is_integer() else number


@st.composite
def _fuzzed_call(draw) -> tuple[list[str], dict]:
    """One subcommand with up to three flag values swapped for a bad one,
    and some of its flags moved into a config file, with any JSON value.

    Few bad values per call keep most examples past the first check.
    """
    fixed, flags = FUZZ_COMMANDS[draw(st.sampled_from(sorted(FUZZ_COMMANDS)))]
    slots = [(flag, i) for flag, valid in flags.items() for i in range(len(valid))]
    bad = draw(st.dictionaries(st.sampled_from(slots), st.sampled_from(FUZZ_BAD), max_size=3))
    values = {flag: [bad.get((flag, i), value) for i, value in enumerate(valid)]
              for flag, valid in flags.items()}
    config = {}
    for flag in sorted(draw(st.sets(st.sampled_from(sorted(flags))))):
        texts = values.pop(flag)
        numbers = [_json_number(text) for text in texts]
        choices = [numbers if len(numbers) > 1 else numbers[0], " ".join(texts), *FUZZ_FILE_VALUES]
        config[flag[2:].replace("-", "_")] = draw(st.sampled_from(choices))
    argv = list(fixed)
    for flag, texts in values.items():
        argv += [flag, *texts]
    return argv, config


@settings(max_examples=300, deadline=None)
@given(call=_fuzzed_call())
def test_main_fuzz_exits_with_a_documented_code(call):
    argv, config = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if config:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_COMPUTE, cli.EXIT_VERIFY)
    assert "Traceback" not in err.getvalue()
