"""Closed forms of the ideal family's noise scans at every N, through ``noise_scan`` and the CLI.

For ``ideal_scenario(n)`` at noise level v every label reads
B(v) = (N-1)(2 v^N + v^2) under isotropic sources and B(v) = 3(N-1) v under
effects noise, and P(l | 0) = 2^-N at every level.  Each value may miss its
form by at most C N u (u = 2^-53), and each P(l | 0) by C N u 2^-N.  With
C = 64, the worst gaps seen over N = 2..7 on six levels in both models were
13.7 N u = 1.07e-14 (N = 7) for a Bell value and 1.5 u (N = 2) for P(l | 0).
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from starcert import cli
from starcert.certify import noise_scan
from starcert.presets import ideal_scenario

U = 2.0**-53
C = 64
FORMS = {
    "isotropic": lambda n, v: (n - 1) * (2 * v**n + v**2),
    "effects": lambda n, v: 3 * (n - 1) * v,
}
GRID = (0.0, 0.13, 0.5, 0.77, 0.9, 1.0)


def assert_closed_form(n, model, rows):
    """Every row (level, Bell values, P(l | 0) deviation) matches its model's closed form."""
    for level, values, deviation in rows:
        gap = np.abs(np.array(values) - FORMS[model](n, level))
        assert len(values) == 2**n and gap.max() <= C * n * U, (n, model, level, gap.max())
        assert deviation <= C * n * U * 2.0**-n, (n, model, level, deviation)


def scan(n, model, grid):
    report = noise_scan(ideal_scenario(n), model, grid)
    assert [row.level for row in report.rows] == sorted(grid)
    assert_closed_form(n, model, [(r.level, r.bell_values, r.pbar_deviation) for r in report.rows])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), model=st.sampled_from(sorted(FORMS)),
       grid=st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_every_label_reads_the_closed_form_at_random_levels(n, model, grid):
    scan(n, model, grid)


def test_every_label_reads_the_closed_form_at_n_6_and_7():
    for n in (6, 7):
        for model in FORMS:
            scan(n, model, GRID)


def test_scan_on_the_command_line_reads_the_closed_form(capsys):
    for model in FORMS:
        assert cli.main(["scan", "--n", "5", "--noise", model, "--grid", ",".join(map(str, GRID)),
                         "--format", "structured"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert_closed_form(5, model, [(r["level"], r["bell_values"], r["pbar_deviation"])
                                      for r in rows])
