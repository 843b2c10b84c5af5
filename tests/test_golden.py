"""Golden outputs: what the program prints now, held against the committed corpus.

The corpus and the script that writes it live in ``tests/golden``; see its
``regenerate.py`` for the cases and for how to record a deliberate change.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

# A number standing on its own: not a digit inside a name such as d1_only.
_NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])"
)


def _recorded_with() -> str:
    return f"corpus written with {json.loads((GOLDEN / 'versions.json').read_text())}"


def _split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    parts = _NUMBER.split(text)
    return parts[0::2], [float(number) for number in parts[1::2]]


def test_number_split_keeps_names_and_reads_every_value():
    skeleton, numbers = _split_numbers("PointCheck(mu=0.01, d1_only=-1.5e-16, s=nan) 180\n")
    assert skeleton == ["PointCheck(mu=", ", d1_only=", ", s=", ") ", "\n"]
    assert numbers[:2] == [0.01, -1.5e-16] and math.isnan(numbers[2]) and numbers[3] == 180


@pytest.mark.parametrize(
    "name, kind, produce", corpus.CASES, ids=[name for name, *_ in corpus.CASES]
)
def test_output_matches_golden(name, kind, produce):
    expected = (GOLDEN / name).read_text()
    actual = produce()
    if kind == "bytes":
        assert actual == expected, f"{name} differs; {_recorded_with()}"
        return
    skeleton, numbers = _split_numbers(actual)
    expected_skeleton, expected_numbers = _split_numbers(expected)
    assert skeleton == expected_skeleton, f"{name}: text differs; {_recorded_with()}"
    for got, want in zip(numbers, expected_numbers):
        same = got == want or (math.isnan(got) and math.isnan(want))
        assert same or abs(got - want) <= corpus.ORACLE_ABS_TOL, (
            f"{name}: {got!r} is not within {corpus.ORACLE_ABS_TOL} of {want!r}; "
            f"{_recorded_with()}"
        )
