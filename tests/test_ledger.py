import json
import math

import numpy as np
import pytest
from ledger import TIMING, AcceptanceLedger, differences, main


def write(tmp_path, name, values, timing=0.5):
    book = AcceptanceLedger()
    book.record(7, values, {"drift_at_most": 1e-12}, timing={"elapsed_s": timing})
    path = tmp_path / name
    book.write(path)
    return path


def test_floats_read_back_bit_for_bit(tmp_path):
    x = 0.1 + 0.2
    values = {"drift": np.float64(x), "counts": np.arange(3), "ok": np.bool_(True)}
    path = write(tmp_path, "a.json", values)
    book = json.loads(path.read_text())
    values = book["criteria"]["07"]["values"]
    assert values == {"drift": x, "counts": [0, 1, 2], "ok": True}
    assert float.hex(values["drift"]) == float.hex(x)
    assert book[TIMING] == {"07": {"elapsed_s": 0.5}}


def test_non_finite_values_are_strict_json(tmp_path):
    path = write(tmp_path, "a.json", {"ratio": math.nan, "slopes": [math.inf, -math.inf]})
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    values = json.loads(text)["criteria"]["07"]["values"]
    assert values == {"ratio": "nan", "slopes": ["inf", "-inf"]}


def test_timing_alone_differs(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"drift": 1e-13}, timing=0.5)
    b = write(tmp_path, "b.json", {"drift": 1e-13}, timing=0.7)
    assert main([str(a), str(b)]) == 0
    assert "agree bit for bit" in capsys.readouterr().out


def test_a_differing_value_is_named_with_its_relative_difference(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"drift": 1.0, "ratios": [1.0, 2.0]})
    b = write(tmp_path, "b.json", {"drift": 1.0, "ratios": [1.0, 2.0 + 2.0**-51]})
    assert main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "criteria.07.values.ratios[1]" in out
    assert "relative 2.22e-16" in out
    assert "drift" not in out


@pytest.mark.parametrize(
    "parent, change, expect",
    [
        ({"a": 1}, {"a": 1, "b": 2}, ["b: only in change"]),
        ({"a": [1, 2]}, {"a": [1]}, ["a: 2 entries against 1"]),
        ({"a": 1}, {"a": 1.0}, ["a: 1 -> 1.0"]),
        ({"a": "nan"}, {"a": "nan"}, []),
    ],
)
def test_differences(parent, change, expect):
    assert differences(parent, change) == expect
