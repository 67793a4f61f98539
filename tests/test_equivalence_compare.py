"""``scripts/equivalence.py compare`` on small dumps: its exit rule, and a place only for a gap."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "equivalence.py"
CASES = {"case a": {"result": {"value": 1.5, "verdict": "Certified"}},
         "case b": {"result": [0.25, 2.0]}}


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("equivalence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(equivalence, tmp_path, capsys, b_cases):
    paths = []
    for name, cases in (("a", CASES), ("b", b_cases)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"cases": cases}))
    code = equivalence.compare(*map(str, paths))
    return code, capsys.readouterr().out


def test_identical_dumps_print_no_place(equivalence, tmp_path, capsys):
    code, out = compare(equivalence, tmp_path, capsys, CASES)
    assert code == 0
    assert out.splitlines() == ["2 common cases, 3 floats: max abs diff 0.000e+00",
                                "  max relative diff 0.00 u (u = 2^-53)",
                                "0 discrete differences"]


def test_a_gap_above_the_tolerance_fails_and_names_its_place(equivalence, tmp_path, capsys):
    gap = {**CASES, "case b": {"result": [0.25, 2.0 + 1e-11]}}
    code, out = compare(equivalence, tmp_path, capsys, gap)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("2 common cases, 3 floats: max abs diff 1.000e-11 at ")
    assert lines[0].endswith(" at case b.result[1]")
    assert lines[1].endswith(" u (u = 2^-53) at case b.result[1]")
    # only the case with a gap is listed among the worst
    assert lines[2:] == ["  1.000e-11  case b", "0 discrete differences"]


def test_a_discrete_difference_fails(equivalence, tmp_path, capsys):
    changed = {**CASES, "case a": {"result": {"value": 1.5, "verdict": "Failed"}}}
    code, out = compare(equivalence, tmp_path, capsys, changed)
    assert code == 1
    assert out.splitlines()[-2:] == ["1 discrete differences",
                                     "  case a.result.verdict: 'Certified' vs 'Failed'"]
