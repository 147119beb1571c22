import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from ledger import TIMING, AcceptanceLedger, differences, main, summary

from degenwave.carleman import ComponentIntegrals


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
        ({"a": 1}, {"a": 1, "b": 2}, [("b: only in change", None)]),
        ({"a": [1, 2]}, {"a": [1]}, [("a: 2 entries against 1", None)]),
        ({"a": 1}, {"a": 1.0}, [("a: 1 -> 1.0", None)]),
        ({"a": "nan"}, {"a": "nan"}, []),
        ({"a": 4}, {"a": 5}, [("a: 4 -> 5 (relative 2.00e-01)", 0.2)]),
        ({"a": 2.0}, {"a": "inf"}, [("a: 2.0 -> 'inf'", None)]),
    ],
)
def test_differences(parent, change, expect):
    assert differences(parent, change) == expect


def integrals(lam, s, chat):
    return ComponentIntegrals(
        lhs_gradient=1.5, lhs_zero_order=0.1 + 0.2, rhs_trace=math.inf, rhs_interior=2.0,
        rhs_commutator=0.25, chat=chat, s=s, lam=lam, log_offset=2.0 * s * math.exp(2.0 * lam),
    )


def write_beside(tmp_path, name, chat, line, rho=(1.0, 2.0)):
    book = AcceptanceLedger()
    book.record(7, {"drift": 1e-13}, {"drift_at_most": 1e-12})
    book.record_carleman(integrals(0.5, 2.0, chat))
    basis = SimpleNamespace(rho=np.array(rho), R=np.eye(2), flux=np.array([1.5, -1.5]))
    book.record_basis(0.5, 64, 2, basis)
    book.record_demo("04_carleman_weight", f"derived weight parameters:\n{line}\n")
    path = tmp_path / name
    book.write(path)
    return path


def test_carleman_values_and_demos_sit_beside_the_criteria(tmp_path):
    x = 0.1 + 0.2
    book = json.loads(write_beside(tmp_path, "a.json", x, "  gamma = 1.9800").read_text())
    assert sorted(book) == ["bases", "carleman", "criteria", "demos", TIMING]
    fields = book["carleman"]["lam 0.5 s 2.0"]
    assert float.hex(fields["chat"]) == float.hex(x)
    assert fields["rhs_trace"] == "inf"
    assert (fields["lam"], fields["s"]) == (0.5, 2.0)
    assert book["demos"] == {"04_carleman_weight": ["derived weight parameters:", "  gamma = 1.9800"]}
    hashes = book["bases"]["alpha 0.5 N 64 k_max 2"]
    assert hashes["rho"] == hashlib.sha256(np.array([1.0, 2.0]).tobytes()).hexdigest()
    assert sorted(hashes) == ["R", "flux", "rho"]


def test_a_differing_carleman_value_or_demo_line_is_named(tmp_path, capsys):
    a = write_beside(tmp_path, "a.json", 0.3, "  gamma = 1.9800")
    assert main([str(a), str(write_beside(tmp_path, "b.json", 0.3, "  gamma = 1.9800"))]) == 0
    b = write_beside(tmp_path, "c.json", 0.3 + 2.0**-54, "  gamma = 1.9801")
    assert main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3].startswith("carleman.lam 0.5 s 2.0.chat: 0.3 -> 0.30000000000000004")
    assert out[-2] == "demos.04_carleman_weight[1]: '  gamma = 1.9800' -> '  gamma = 1.9801'"
    assert out[-1] == (
        "2 values differ: 1 numbers, largest relative difference 1.85e-16; "
        "1 text values, keys, lengths or kinds"
    )


def test_a_basis_that_moves_by_one_bit_is_named(tmp_path, capsys):
    a = write_beside(tmp_path, "a.json", 0.3, "  gamma = 1.9800")
    b = write_beside(tmp_path, "b.json", 0.3, "  gamma = 1.9800", rho=(1.0, 2.0 + 2.0**-51))
    assert main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("bases.alpha 0.5 N 64 k_max 2.rho: ")
    assert out[-1] == "1 values differ: 0 numbers; 1 text values, keys, lengths or kinds"


def test_summary_sets_roundoff_apart_from_text(tmp_path, capsys):
    """Numbers that moved by roundoff read as such: the summary gives their
    largest relative difference and counts the text that differs apart."""
    a = write_beside(tmp_path, "a.json", 0.3, "  gamma = 1.9800")
    b = write_beside(tmp_path, "b.json", 0.3 + 2.0**-54, "  gamma = 1.9800")
    assert main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 values differ: 1 numbers, largest relative difference 1.85e-16; "
        "0 text values, keys, lengths or kinds"
    )
    c = write_beside(tmp_path, "c.json", 0.3 + 2.0**-50, "  gamma = 1.98", rho=(1.0, 2.5))
    d = write(tmp_path, "d.json", {"drift": 1.25e-13})
    found = differences(json.loads(b.read_text()), json.loads(c.read_text()))
    found += differences(json.loads(b.read_text()), json.loads(d.read_text()))
    # the text: the demo line, the rho hash and the three sections d lacks
    assert summary(found) == (
        "7 values differ: 2 numbers, largest relative difference 2.00e-01; "
        "5 text values, keys, lengths or kinds"
    )
