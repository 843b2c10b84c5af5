"""Golden outputs: what the program prints now, held against the committed corpus.

The corpus and the script that writes it live in ``tests/golden``; see its
``regenerate.py`` for the cases and for how to record a deliberate change.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def _recorded_with() -> str:
    return f"corpus written with {json.loads((GOLDEN / 'versions.json').read_text())}"


def test_number_split_keeps_names_and_reads_every_value():
    skeleton, numbers = corpus.split_numbers("PointCheck(mu=0.01, d1_only=-1.5e-16, s=nan) 180\n")
    assert skeleton == ["PointCheck(mu=", ", d1_only=", ", s=", ") ", "\n"]
    assert numbers[:2] == [0.01, -1.5e-16] and math.isnan(numbers[2]) and numbers[3] == 180


def test_oracle_move_is_the_largest_gap_and_none_for_other_text():
    assert corpus.oracle_move("a=1.0 b=nan 2\n", "a=1.0 b=nan 2\n") == 0.0
    assert corpus.oracle_move("a=1.5 b=2e-15\n", "a=1.0 b=1e-15\n") == 0.5
    assert corpus.oracle_move("a=nan\n", "a=0.0\n") == math.inf
    assert corpus.oracle_move("a=1.0\n", "b=1.0\n") is None


def test_check_names_each_difference_and_writes_nothing(tmp_path, monkeypatch, capsys):
    files = {"same.txt": "x 1\n", "close.txt": "x 1.0\n", "far.txt": "x 1.0\n",
             "bytes.txt": "x 1.0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(corpus, "GOLDEN", tmp_path)

    def cases(**outputs):
        return [(name, "bytes" if name == "bytes.txt" else "oracle", lambda text=text: text)
                for name, text in outputs.items()]

    monkeypatch.setattr(corpus, "CASES", cases(**{"same.txt": "x 1\n",
                                                   "close.txt": "x 1.000000000000001\n"}))
    assert corpus.main(["--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "same.txt: unchanged" and out[-1] == "OK"
    assert out[1].startswith("close.txt: numbers differ, largest move 1.")
    for failing in ({"far.txt": "x 1.1\n"}, {"bytes.txt": "x 1.000000000000001\n"},
                    {"same.txt": "y 1\n"}):
        monkeypatch.setattr(corpus, "CASES", cases(**failing))
        assert corpus.main(["--check"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize(
    "name, kind, produce", corpus.CASES, ids=[name for name, *_ in corpus.CASES]
)
def test_output_matches_golden(name, kind, produce):
    expected = (GOLDEN / name).read_text()
    actual = produce()
    if kind == "bytes":
        assert actual == expected, f"{name} differs; {_recorded_with()}"
        return
    move = corpus.oracle_move(actual, expected)
    assert move is not None, f"{name}: text differs; {_recorded_with()}"
    assert move <= corpus.ORACLE_ABS_TOL, (
        f"{name}: a number moved by {move!r}, more than {corpus.ORACLE_ABS_TOL}; "
        f"{_recorded_with()}"
    )
