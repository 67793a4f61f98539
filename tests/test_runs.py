"""``scripts/runs.py``: its table parses, its checker refuses doctored reports, and a row's
peak RSS is its own child's."""

import importlib.util
import json
from pathlib import Path

import pytest

from starcert import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "runs.py"
REPORT = {"schema_version": 1, "verdict": "Certified", "part2": {"branch": "Plain"}}


@pytest.fixture(scope="module")
def runs():
    spec = importlib.util.spec_from_file_location("runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_parses_and_has_a_unique_name(runs):
    parser = cli.build_parser()
    table = runs.rows()
    for row in table:
        for line in (row.argv, *row.then):
            for fmt in row.formats:
                parser.parse_args(line.split() + ["--format", fmt])  # exits 2 on a stale flag
    names = [row.name for row in table]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("code, out", [
    (0, json.dumps({**REPORT, "verdict": "Failed"}) + "\n"),
    (0, json.dumps(REPORT)[:-1] + ', "distance": NaN}\n'),
    (0, json.dumps(REPORT) + "\n\n"),
    (0, json.dumps({**REPORT, "schema_version": 2}) + "\n"),
    (1, json.dumps(REPORT) + "\n"),
], ids=["verdict", "nan-literal", "two-lines", "schema-version-2", "exit-code"])
def test_the_checker_refuses_a_doctored_report(runs, code, out):
    row = runs.Row("doctored", "certify", verdict="Certified", branch="Plain")
    assert runs.mismatches(row, "structured", 0, json.dumps(REPORT) + "\n", "", 30.0)[1] == []
    assert runs.mismatches(row, "structured", code, out, "", 30.0)[1]


def test_a_small_child_after_a_large_one_reads_its_own_peak(runs, tmp_path):
    large, small = (next(row for row in runs.rows() if row.name == name)
                    for name in ("prepare-n7-peak", "json-bounds-n3"))
    large_mb = runs.run(large, "structured", str(tmp_path))[3]
    code, _, _, small_mb = runs.run(small, "structured", str(tmp_path))
    assert code == 0
    assert small_mb < large_mb / 2, (small_mb, large_mb)
