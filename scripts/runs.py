"""End-to-end runs of the ``starcert`` CLI: one table of rows and one runner.

    PYTHONPATH=src python scripts/runs.py check [NAME ...]

``check`` runs every row, or the named rows, prints one line per row and exits 1 on any mismatch.
A row is a command line, run in a new process once per output format with ``--format`` appended,
and what each run must show.  ``{fx}`` is the bundled fixtures directory, ``{work}`` the writers'.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import starcert
from starcert import MixedStateSpec, Povm, ghz_basis_measurement, ideal_scenario, save_scenario
from starcert.jsonio import mixed_state_spec_to_json, povm_to_json

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(starcert.__file__)), "fixtures")

# Spawns argv[1:] and appends its peak RSS in KB to stderr.  A child's ru_maxrss starts from
# the peak of the process that spawned it, so a row's child is spawned by this small process;
# wait4 reads that child alone, where RUSAGE_CHILDREN would read the largest child so far.
_LAUNCH = """import os, sys
_, status, usage = os.wait4(os.posix_spawn(sys.executable, sys.argv[1:], os.environ), 0)
sys.stderr.write(f"\\n{usage.ru_maxrss}")
sys.exit(os.waitstatus_to_exitcode(status))"""

# The child of a row with ``then``: each argument list through cli.main in this one process.
_SERIAL = """import contextlib, io, json, resource, sys
from starcert import cli
exits, peaks = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(argv))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps({"exits": exits, "peaks_mb": peaks}))
sys.exit(max(exits))"""


@dataclass(frozen=True)
class Row:
    name: str
    argv: str                          # one command line, split on whitespace
    files: object = None               # files(work) writes the row's input files
    formats: tuple = ("structured",)   # structured output is one line of strict JSON, schema 1
    strict: bool = False               # run under -W error
    exit: int = 0                      # exit 2 prints one "error:" line; no run prints a traceback
    verdict: str | None = None
    branch: str | None = None          # of part 2, or of part 3 when there is no part 2
    checks: tuple = ()                 # predicates of the report, each of which must hold
    peak_mb: float | None = None       # the child's peak RSS stays below this
    error: str | None = None           # text that the exit-2 error line holds
    then: tuple = ()                   # command lines that the same child runs next


def write_inputs(work: str) -> None:
    """Four state specs: rank 2 on C^3, pure on C^2, 1 x 1 of weight 1 + 5e-13 and rank 2 on C^2
    of weights (1 + 5e-13, 1e-13).  From the N = 2 fixtures: a 1e308 POVM entry, a source with
    a Hermitian pair of 1e308 entries, a NaN-literal POVM and a scenario with a duplicate key."""
    e = np.eye(2)
    rank2 = (np.array([1, 1j, 0]) / np.sqrt(2), np.array([1, -1j, 0]) / np.sqrt(2))
    for name, spec in (("rank2_d3", MixedStateSpec(3, (0.7, 0.3), rank2)),
                       ("pure_d2", MixedStateSpec(2, (1.0,), (np.array([0.6, 0.8j]),))),
                       ("heavy_d1", MixedStateSpec(1, (1 + 5e-13,), (np.array([1.0]),))),
                       ("heavy_rank2_d2", MixedStateSpec(2, (1 + 5e-13, 1e-13), (e[0], e[1])))):
        Path(work, f"{name}.statespec.json").write_text(json.dumps(mixed_state_spec_to_json(spec)))
    for name, entry, value in (("huge", 1, 1e308), ("nan", 0, float("nan"))):
        doc = json.loads(Path(FIXTURES, "ghz_n2.povm.json").read_text())
        doc["effects"][0]["entries"][entry] = [value, 0.0]
        Path(work, f"{name}.povm.json").write_text(json.dumps(doc))
    text = Path(FIXTURES, "ideal_n2_ghz.scenario.json").read_text()
    doc = json.loads(text)
    doc["sources"][0]["entries"][1] = doc["sources"][0]["entries"][4] = [1e308, 0.0]
    Path(work, "huge.scenario.json").write_text(json.dumps(doc))
    Path(work, "duplicate.scenario.json").write_text('{"n_parties": 2, ' + text[1:])


def write_n6(work: str) -> None:
    """Through jsonio at N = 6: the ideal scenario and GHZ reference, and dense against conjugate."""
    ghz = ghz_basis_measurement(6)
    dense = Povm(np.array(ghz.effects))
    for name, eve, ref in (("ideal", ghz, ghz), ("dense", dense, Povm(np.conj(dense.effects)))):
        save_scenario(ideal_scenario(6, eve_second=eve), f"{work}/{name}_n6.scenario.json")
        Path(work, f"{name}_n6.povm.json").write_text(json.dumps(povm_to_json(ref)))


def bell(form, levels=None):
    """64 Bell values form(v) within 1e-9: part 1's at v = 1, or the monotone scan's at ``levels``."""
    def holds(doc):
        rows = doc["rows"] if levels else [{"level": 1.0, **doc["part1"]}]
        return ((not levels or [r["level"] for r in rows] == levels and doc["bell_monotone"] is True)
                and all(len(r["bell_values"]) == 64 and all(
                    x is not None and abs(x - form(r["level"])) <= 1e-9 for x in r["bell_values"])
                    for r in rows))
    return holds


def rows() -> list:
    mixed, spec = "--state-spec {fx}/mixed_demo.statespec.json", "--state-spec {work}/%s.statespec.json"
    fx = "--scenario {fx}/%s.scenario.json --reference {fx}/%s.povm.json"
    n6 = "--scenario {work}/%s_n6.scenario.json --reference {work}/%s_n6.povm.json --mode %s"
    grid, levels = "0,0.25,0.5,0.75,1", [0.0, 0.25, 0.5, 0.75, 1.0]
    flags = {"scenario": "scenario", "povm": "reference", "statespec": "state-spec"}
    return [
        Row("prepare-n6-mixed-demo", f"prepare-state --n 6 {mixed}", verdict="Certified",
            branch="Conjugate", checks=(lambda doc: "part2" not in doc, bell(lambda v: 15.0))),
        *[Row(f"prepare-{name}", f"prepare-state {spec % name}", write_inputs, strict=True,
              verdict="Certified", checks=(lambda doc, out=out: doc["part3"]["outcomes"] == out,))
          for name, out in (("rank2_d3", [0, 3]), ("pure_d2", [0]), ("heavy_d1", [0]))],
        Row("prepare-heavy_rank2_d2", f"prepare-state {spec % 'heavy_rank2_d2'}", write_inputs,
            ("text",), strict=True, exit=2),
        Row("scan-n6-effects", f"scan --n 6 --noise effects --grid {grid}",
            checks=(bell(lambda v: 15 * v, levels),)),
        Row("scan-n6-isotropic", f"scan --n 6 --noise isotropic --grid {grid}",
            checks=(bell(lambda v: 5 * (2 * v**6 + v**2), levels),)),
        Row("prepare-n7-peak", f"prepare-state --n 7 {mixed}", peak_mb=125),
        Row("scan-n7-effects-peak", "scan --n 7 --noise effects --grid 0,0.5,1", peak_mb=120),
        Row("scan-n7-isotropic-peak", "scan --n 7 --noise isotropic --grid 0,0.5,1", peak_mb=110),
        Row("prepare-n7-three-in-one-process", f"prepare-state --n 7 {mixed}", write_inputs,
            ("text",), checks=(lambda doc: doc["peaks_mb"][-1] - doc["peaks_mb"][0] <= 2.0,),
            then=tuple(f"prepare-state --n 7 {spec % name}" for name in ("rank2_d3", "pure_d2"))),
        *[Row(f"json-{name}", f"{argv} --reproducible", formats=("structured", "text"), strict=True,
              exit=int(name == "certify-tampered")) for name, argv in (
            ("bounds-n3", "bounds --n 3"),
            ("certify-n3-povm", f"certify {fx % ('ideal_n3_ghz', 'ghz_n3')} --mode povm"),
            ("certify-tampered", f"certify {fx % ('tampered_n2_ghz', 'ghz_n2')}"),
            ("prepare-mixed-demo", f"prepare-state {mixed}"),
            ("scan-trine-effects", f"scan {fx % ('ideal_n2_trine', 'trine_n2')} --noise effects"
             " --grid 0,0.5,1"),
            ("scan-n3-isotropic", "scan --n 3 --noise isotropic --grid 0,0.5,1"),
            ("validate-three-kinds", f"validate {fx % ('ideal_n2_ghz', 'ghz_n2')} {mixed}"))],
        *[Row(f"validate-{name}", f"validate --{flags[name.split('.')[1]]} {{work}}/{name}.json",
              write_inputs, ("text",), strict=True, exit=2, error=error) for name, error in (
            ("huge.povm", None), ("huge.scenario", None),
            ("nan.povm", "not valid JSON"), ("duplicate.scenario", "not valid JSON"))],
        *[Row(f"certify-n6-{kind}-{mode}", f"certify {n6 % (kind, kind, mode)}", write_n6,
              verdict="Certified", branch="Plain", peak_mb=160 if kind == "dense" else None)
          for kind in ("ideal", "dense") for mode in ("povm", "projective")],
        *[Row(f"scan-n6-ideal-{mode}", f"scan {n6 % ('ideal', 'ideal', mode)} --noise effects"
              " --grid 0,0.5,1", write_n6) for mode in ("povm", "projective")],
        Row("bounds-n5", "bounds --n 5", checks=(lambda doc: doc["delta"] <= 1e-12,)),
        *[Row(f"validate-{name[:-5]}", f"validate --{flags[name.split('.')[1]]} {{fx}}/{name}",
              formats=("text",)) for name in sorted(os.listdir(FIXTURES)) if name.endswith(".json")],
    ]


def run(row: Row, fmt: str, work: str):
    """Run ``row`` once in ``fmt``: (exit code, stdout, stderr, the child's peak RSS in MB)."""
    lines = [[token.format(fx=FIXTURES, work=work) for token in line.split()] + ["--format", fmt]
             for line in (row.argv, *row.then)]
    child = ["-c", _SERIAL, json.dumps(lines)] if row.then else ["-m", "starcert.cli", *lines[0]]
    done = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable,
                           *(["-W", "error"] if row.strict else []), *child],
                          capture_output=True, text=True)
    err, _, kb = done.stderr.rpartition("\n")
    return done.returncode, done.stdout, err, int(kb) / 1024


def mismatches(row: Row, fmt: str, code: int, out: str, err: str, peak_mb: float):
    """What one run of ``row`` showed, and each way that it differs from the row."""
    seen, wrong, doc = [f"{fmt} exit {code}, peak {peak_mb:.0f} MB"], [], {}
    if code != row.exit:
        wrong.append(f"exit {code}, expected {row.exit}")
    elif code == 2 and (("\n" + err).count("\nerror: ") != 1 or (row.error or "") not in err):
        wrong.append(f"stderr {err.strip()!r}")
    elif fmt == "structured" or row.then:
        try:
            doc = json.loads(out, parse_constant=int)  # int() refuses NaN and Infinity
        except ValueError as exc:
            wrong.append(f"not strict JSON: {exc}")
    if fmt == "structured" and doc and (out.count("\n") != 1 or doc.get("schema_version") != 1):
        wrong.append(f"{out.count(chr(10))} lines, schema_version {doc.get('schema_version')}")
    got = {"verdict": doc.get("verdict"), "branch": doc.get("part2", doc.get("part3", {})).get("branch"),
           "peaks": doc.get("peaks_mb")}
    seen += [f"{k} {v}" for k, v in got.items() if v is not None]
    wrong += [f"{k} {got[k]}, expected {getattr(row, k)}" for k in ("verdict", "branch")
              if getattr(row, k) not in (None, got[k])]
    if "Traceback" in err:
        wrong.append("a traceback on stderr")
    if row.peak_mb is not None and peak_mb >= row.peak_mb:
        wrong.append(f"peak above {row.peak_mb:g} MB")
    for i, holds in enumerate(row.checks, 1):
        with contextlib.suppress(KeyError, TypeError, IndexError):
            if holds(doc):
                continue
        wrong.append(f"value check {i} of {len(row.checks)} fails")
    return seen, wrong


def check(names) -> int:
    table = [row for row in rows() if not names or row.name in names]
    unknown = sorted(set(names) - {row.name for row in table})
    if unknown:
        sys.exit(f"no row named {', '.join(unknown)}")
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for files in dict.fromkeys(row.files for row in table if row.files):
            files(work)
        for row in table:
            runs = [mismatches(row, fmt, *run(row, fmt, work)) for fmt in row.formats]
            seen, wrong = (sum(part, []) for part in zip(*runs))
            failed += bool(wrong)
            print(f"{'FAIL' if wrong else 'ok'} {row.name}: {'; '.join(seen + wrong)}", flush=True)
    print(f"{failed} of {len(table)} rows failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end runs of the starcert CLI.")
    parser.add_argument("mode", choices=["check"], help="run every row, or the named rows")
    parser.add_argument("names", nargs="*")
    return check(parser.parse_args(argv).names)


if __name__ == "__main__":
    sys.exit(main())
