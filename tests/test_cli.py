import dataclasses
import importlib
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import starcert.network
from starcert import cli
from starcert.certify import certify
from starcert.cli import main
from starcert.config import Tolerances
from starcert.fixtures import fixture_path
from starcert.jsonio import load_mixed_state_spec, load_povm, load_scenario, save_scenario
from starcert.measurements import Povm, embed_rank1_povm, ghz_basis_measurement, trine_povm
from starcert.network import Scenario
from starcert.presets import ideal_scenario

IDEAL = str(fixture_path("ideal_n2_ghz.scenario.json"))
GHZ_REF = str(fixture_path("ghz_n2.povm.json"))
TAMPERED = str(fixture_path("tampered_n2_ghz.scenario.json"))
TRINE_SCEN = str(fixture_path("ideal_n2_trine.scenario.json"))
TRINE_REF = str(fixture_path("trine_n2.povm.json"))
MIXED_SPEC = str(fixture_path("mixed_demo.statespec.json"))


def test_bounds_text(capsys):
    assert main(["bounds", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "2.414213562" in out
    assert "3.0" in out


def test_bounds_formula_only_marker(capsys):
    # N = 5 is enumerated like N = 2..4; the key stays for schema stability
    assert main(["bounds", "--n", "5"]) == 0
    assert "formula-only" not in capsys.readouterr().out
    assert main(["bounds", "--n", "5", "--format", "structured", "--reproducible"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula_only"] is False
    assert doc["classical_enumerated"] == pytest.approx(doc["classical_formula"], abs=1e-12)


def test_bounds_out_of_range():
    assert main(["bounds", "--n", "7"]) == 2


def test_certify_ideal_exits_zero(capsys):
    code = main([
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--mode", "projective",
    ])
    assert code == 0
    assert "Certified" in capsys.readouterr().out


def test_certify_tampered_exits_one(capsys):
    code = main([
        "certify", "--scenario", TAMPERED, "--reference", GHZ_REF,
        "--mode", "projective",
    ])
    assert code == 1
    assert "Failed" in capsys.readouterr().out


def test_certify_povm_mode(capsys):
    code = main([
        "certify", "--scenario", TRINE_SCEN, "--reference", TRINE_REF,
        "--mode", "povm",
    ])
    assert code == 0


def test_certify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_parties": 2, "sources": [')
    code = main([
        "certify", "--scenario", str(bad), "--reference", GHZ_REF,
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_certify_missing_file(capsys):
    assert main(["certify", "--scenario", "/no/such/file", "--reference", GHZ_REF]) == 2


def test_prepare_state(capsys):
    assert main(["prepare-state", "--state-spec", MIXED_SPEC]) == 0
    out = capsys.readouterr().out
    assert "Conjugate" in out


def test_prepare_state_reads_its_verdict_from_the_certify_rule(monkeypatch, capsys):
    # maximal Bell values with outcome weights off uniform: Inconclusive, as in certify
    # the module, not the function that ``starcert`` re-exports under its name
    certify_module = importlib.import_module("starcert.certify")
    real = certify_module.check_part1
    monkeypatch.setattr(certify_module, "check_part1",
                        lambda *args: dataclasses.replace(real(*args), pbar_passed=False))
    assert main(["prepare-state", "--state-spec", MIXED_SPEC, "--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Inconclusive" and doc["part3"]["passed"]


@pytest.mark.parametrize("n", [2, 3])
def test_prepare_state_reports_the_certify_report_of_its_scenario(n, capsys):
    # part 1 and part 3 of certify, no part 2, plus prepare-state's own n and part1_passed
    assert main(["prepare-state", "--n", str(n), "--state-spec", MIXED_SPEC,
                 "--format", "structured", "--reproducible"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    for key in ("tool", "version", "schema_version", "command", "inputs"):
        del doc[key]
    spec = load_mixed_state_spec(MIXED_SPEC)
    tol = cli.DEFAULT_TOL
    scenario = ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec, tol), n, tol))
    report = certify(scenario, None, "povm", tol, spec)
    expected = {"n": n, "part1_passed": report.part1.passed, **cli._report_body(report)}
    assert "part2" not in doc
    assert doc == json.loads(json.dumps(expected))


def test_prepare_state_text_shows_every_part1_label(capsys):
    assert main(["prepare-state", "--n", "3", "--state-spec", MIXED_SPEC]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("  l=") for line in out.splitlines()) == 8
    assert "part2" not in out
    assert f"total preparation probability: {0.125:.12f} (target {0.125:.12f})" in out


def test_structured_output_formats_no_text(monkeypatch, capsys):
    def forbidden(report):
        raise AssertionError("the text report was formatted for structured output")

    monkeypatch.setattr(cli, "_report_text", forbidden)
    assert main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF,
                 "--format", "structured"]) == 0
    assert main(["prepare-state", "--state-spec", MIXED_SPEC, "--format", "structured"]) == 0
    with pytest.raises(AssertionError, match="the text report was formatted"):
        main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF])


def test_prepare_state_invalid_weights(tmp_path):
    doc = {
        "d": 2,
        "weights": [0.5, 0.4],
        "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["prepare-state", "--state-spec", str(path)]) == 2


@pytest.fixture
def no_construction(monkeypatch):
    """Make every builder the CLI could reach fail the test if it is called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a scenario was built past the --n limit")

    for name in ("trine_povm", "embed_rank1_povm", "ideal_scenario", "certify",
                 "load_scenario", "noise_scan"):
        monkeypatch.setattr(cli, name, forbidden)


def test_n_above_limit_is_rejected_before_construction(no_construction, tmp_path, capsys):
    n = cli.MAX_PARTIES + 1
    assert main(["prepare-state", "--n", str(n), "--state-spec", MIXED_SPEC]) == 2
    assert main(["scan", "--n", str(n), "--grid", "0,1"]) == 2
    # a 65-dimensional target needs Eve dimension 130, so N = 8 is chosen automatically
    zero = [[0.0, 0.0]] * 64
    path = tmp_path / "d65.json"
    path.write_text(json.dumps({"d": 65, "weights": [1.0], "vectors": [[[1.0, 0.0]] + zero]}))
    assert main(["prepare-state", "--state-spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"N={n} is above the largest supported N={cli.MAX_PARTIES}") == 3


@pytest.mark.parametrize("n", [0, -1, 1])
def test_scan_n_below_two_is_rejected_before_construction(n, no_construction, capsys):
    assert main(["scan", "--n", str(n), "--grid", "0,1"]) == 2
    err = capsys.readouterr().err
    assert f"N={n} is outside the supported range 2..{cli.MAX_PARTIES}" in err


def test_scenario_file_above_limit_is_rejected_before_construction(monkeypatch, capsys):
    n = cli.MAX_PARTIES + 1

    def forbidden(*args, **kwargs):
        raise AssertionError("a Born table was built past the N limit")

    monkeypatch.setattr(cli, "load_scenario", lambda path, digests: SimpleNamespace(n_parties=n))
    for name in ("certify", "noise_scan"):
        monkeypatch.setattr(cli, name, forbidden)
    assert main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF]) == 2
    assert main(["scan", "--scenario", IDEAL, "--grid", "0,1"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"N={n} is above the largest supported N={cli.MAX_PARTIES}") == 2
    assert "2 * 8^N complex entries (0.5 GB)" in err


def _holders(name):
    """Every module of the package that holds ``name``: the one defining it and its importers."""
    return [m for key, m in sys.modules.items() if key.startswith("starcert.") and hasattr(m, name)]


# The dense reference layer: (a, l, x) tables, Kronecker products and the joint
# operators and states built from them.  Only the tests' oracles call it.
DENSE_LAYER = ("_dense_table", "kron", "kron_all", "partial_trace", "reorder_factors",
               "assemble_joint_state", "bell_operator", "sos_residuals", "max_bell_eigenvalue",
               "tilde_observables")


def test_production_paths_build_no_dense_table(monkeypatch, capsys):
    for name in DENSE_LAYER:
        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"the dense reference layer's {name} was called")

        assert _holders(name), name
        for module in _holders(name):
            monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="_dense_table"):
        starcert.network.born_table(ideal_scenario(2)).p0
    for mode in ("projective", "povm"):
        assert main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF, "--mode", mode]) == 0
    assert main(["certify", "--scenario", TAMPERED, "--reference", GHZ_REF]) == 1
    assert main(["prepare-state", "--n", "3", "--state-spec", MIXED_SPEC]) == 0
    for noise in ("isotropic", "effects"):
        assert main(["scan", "--scenario", IDEAL, "--noise", noise, "--grid", "0,0.5,1",
                     "--reference", GHZ_REF, "--mode", "povm"]) == 0
    assert main(["scan", "--n", "3", "--noise", "effects", "--grid", "0,1"]) == 0
    assert main(["bounds", "--n", "4"]) == 0
    assert main(["validate", "--scenario", IDEAL, "--reference", GHZ_REF,
                 "--state-spec", MIXED_SPEC]) == 0


def test_contract_parties_gets_only_real_operands(monkeypatch, capsys):
    # the Born factors and the Pauli expansions are contracted in real arithmetic
    contract, calls = starcert.network._contract_parties, []

    def real_only(t, maps, *args):
        assert not any(np.iscomplexobj(a) for a in (t, *maps)), "a complex operand"
        calls.append(t.shape)
        return contract(t, maps, *args)

    holders = _holders("_contract_parties")
    assert starcert.network in holders
    for module in holders:
        monkeypatch.setattr(module, "_contract_parties", real_only)
    for mode in ("projective", "povm"):
        assert main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF, "--mode", mode]) == 0
        assert main(["scan", "--scenario", IDEAL, "--noise", "effects", "--grid", "0,1",
                     "--reference", GHZ_REF, "--mode", mode]) == 0
    assert main(["certify", "--scenario", TRINE_SCEN, "--reference", TRINE_REF,
                 "--mode", "povm"]) == 0
    assert main(["prepare-state", "--n", "3", "--state-spec", MIXED_SPEC]) == 0
    assert main(["scan", "--n", "3", "--noise", "isotropic", "--grid", "0,0.5,1"]) == 0
    assert calls


def test_certify_never_calls_eigh(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for mode in ("projective", "povm"):
        assert main(["certify", "--scenario", IDEAL, "--reference", GHZ_REF, "--mode", mode]) == 0
        assert main(["certify", "--scenario", TAMPERED, "--reference", GHZ_REF,
                     "--mode", mode]) == 1
    assert main(["certify", "--scenario", TRINE_SCEN, "--reference", TRINE_REF,
                 "--mode", "povm"]) == 0


@pytest.mark.parametrize("n", [None, "3"])
def test_scan_reference_without_scenario_is_a_usage_error(n, no_construction, monkeypatch,
                                                          capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a reference was loaded for a scan that cannot use it")

    monkeypatch.setattr(cli, "load_povm", forbidden)
    argv = ["scan", "--grid", "0,1", "--reference", GHZ_REF] + ([] if n is None else ["--n", n])
    assert main(argv) == 2
    assert "scan --reference requires --scenario" in capsys.readouterr().err


def test_scan_rejects_n_that_disagrees_with_scenario(capsys):
    assert main(["scan", "--scenario", IDEAL, "--n", "3", "--grid", "0,1"]) == 2
    assert "--n 3 disagrees with the scenario file's N=2" in capsys.readouterr().err
    assert main(["scan", "--scenario", IDEAL, "--n", "2", "--grid", "0,1"]) == 0


def test_scan_row_count(capsys):
    assert main(["scan", "--n", "2", "--grid", "0,0.5,1"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 3


def test_scan_empty_grid():
    assert main(["scan", "--n", "2", "--grid", ""]) == 2


def test_scan_structured_endpoints(capsys):
    assert main([
        "scan", "--n", "2", "--grid", "0,1", "--format", "structured",
        "--reproducible",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bell_monotone"] is True
    assert doc["rows"][0]["min_bell"] == pytest.approx(0.0, abs=1e-9)
    assert doc["rows"][1]["min_bell"] == pytest.approx(3.0, abs=1e-9)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture
def zero_effect_scenario(tmp_path):
    """N = 2 with a zero e = 0 effect: label 01 can never be conditioned on."""
    scen = ideal_scenario(2, eve_second=ghz_basis_measurement(2))
    eve0 = Povm((
        np.diag([1.0, 1.0, 0.0, 0.0]), np.zeros((4, 4)),
        np.diag([0.0, 0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0]),
    ))
    path = tmp_path / "zero.scenario.json"
    save_scenario(
        Scenario(n_parties=2, sources=scen.sources,
                 alice_observables=scen.alice_observables, eve=(eve0, scen.eve[1])),
        path,
    )
    return str(path)


def test_certify_structured_zero_probability_is_strict_json(zero_effect_scenario, capsys):
    argv = ["certify", "--scenario", zero_effect_scenario, "--reference", GHZ_REF]
    assert main(argv + ["--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["verdict"] == "Failed"
    assert doc["part1"]["bell_values"][1] is None
    assert all(isinstance(v, float) for i, v in enumerate(doc["part1"]["bell_values"]) if i != 1)
    assert doc["part1"]["unconditionable_labels"] == ["01"]
    # the text report is unchanged
    assert main(argv) == 1
    assert "l=01  value=nan" in capsys.readouterr().out


def test_scan_structured_zero_probability_is_strict_json(zero_effect_scenario, capsys):
    assert main([
        "scan", "--scenario", zero_effect_scenario, "--grid", "0,1",
        "--format", "structured",
    ]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    for row in doc["rows"]:
        assert row["bell_values"][1] is None
        assert row["unconditionable_labels"] == ["01"]
        assert isinstance(row["min_bell"], float)


def test_validate(capsys):
    assert main(["validate", "--scenario", IDEAL, "--state-spec", MIXED_SPEC]) == 0
    assert main(["validate", "--scenario", TAMPERED]) == 0  # well-formed file
    assert main(["validate"]) == 2


def test_structured_report_reproducible_bytes(capsys):
    argv = [
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--format", "structured", "--reproducible",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert "timestamp" not in doc
    assert doc["verdict"] == "Certified"
    assert doc["inputs"]["scenario"]["sha256"]


@pytest.mark.parametrize("argv, given", [
    (["bounds", "--n", "2"], {}),
    (["certify", "--scenario", IDEAL, "--reference", GHZ_REF],
     {"scenario": IDEAL, "reference": GHZ_REF}),
    (["prepare-state", "--n", "2", "--state-spec", MIXED_SPEC], {"state_spec": MIXED_SPEC}),
    (["scan", "--n", "2", "--grid", "0,1"], {}),
    (["scan", "--scenario", IDEAL, "--reference", GHZ_REF, "--grid", "0,1"],
     {"scenario": IDEAL, "reference": GHZ_REF}),
    (["validate", "--reference", GHZ_REF], {"reference": GHZ_REF}),
    (["validate", "--scenario", IDEAL, "--state-spec", MIXED_SPEC],
     {"scenario": IDEAL, "state_spec": MIXED_SPEC}),
])
def test_structured_inputs_list_exactly_the_given_files(argv, given, capsys):
    assert main(argv + ["--format", "structured", "--reproducible"]) in (0, 1)
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert {label: entry["path"] for label, entry in inputs.items()} == given


def test_structured_report_has_timestamp(capsys):
    main([
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--format", "structured",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--format", "structured", "--reproducible", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["part2"]["branch"] == "Plain"


def test_tol_override_flag():
    # an absurdly tight tolerance makes even the ideal run fail
    code = main([
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--tol", "1e-18",
    ])
    assert code == 1
    code = main([
        "certify", "--scenario", IDEAL, "--reference", GHZ_REF,
        "--tol", "-1",
    ])
    assert code == 2


def test_fixture_round_trip():
    from starcert.jsonio import load_scenario, scenario_to_json, scenario_from_json

    for name in ("ideal_n2_ghz", "ideal_n3_ghz", "ideal_n2_trine", "tampered_n2_ghz"):
        scen = load_scenario(str(fixture_path(f"{name}.scenario.json")))
        doc = scenario_to_json(scen)
        again = scenario_from_json(doc)
        assert scenario_to_json(again) == doc


def _variant(source, edit):
    """A writer of ``source`` with ``edit`` applied to its JSON document."""
    def write(path):
        with open(source) as f:
            doc = json.load(f)
        edit(doc)
        path.write_text(json.dumps(doc))
    return write


def _with_literal(source, edit, literal):
    """A writer of ``source`` whose numbers set to inf by ``edit`` read ``literal``, such as 1e999.

    Python's parser reads a literal past the float64 range as inf, so the
    decoder's finiteness check, not the parser, refuses it.
    """
    def write(path):
        _variant(source, edit)(path)
        path.write_text(path.read_text().replace("Infinity", literal))
    return write


# case -> (flag, writer of the malformed file, what the error must name)
MALFORMED = {
    "reference-dim-not-an-integer": (
        "--reference", _variant(GHZ_REF, lambda d: d.update(dim="abc")), "povm.dim"),
    "alice-observables-not-a-list": (
        "--scenario", _variant(IDEAL, lambda d: d.update(alice_observables=5)),
        "scenario.alice_observables"),
    "sources-not-a-list": (
        "--scenario", _variant(IDEAL, lambda d: d.update(sources=5)), "scenario.sources"),
    "eve-measurements-not-a-list": (
        "--scenario", _variant(IDEAL, lambda d: d.update(eve_measurements=5)),
        "scenario.eve_measurements"),
    "non-finite-entry": (
        "--scenario",
        _with_literal(IDEAL, lambda d: d["sources"][0]["entries"][0].__setitem__(0, math.inf),
                      "1e999"),
        "scenario.sources[0].entries"),
    "non-finite-weight": (
        "--state-spec",
        _with_literal(MIXED_SPEC, lambda d: d["weights"].__setitem__(0, math.inf), "-1e999"),
        "state spec.weights"),
    "nan-literal": (
        "--scenario",
        _variant(IDEAL, lambda d: d["sources"][0]["entries"][0].__setitem__(0, math.nan)),
        "not valid JSON (NaN is not a JSON number)"),
    "duplicate-key": (
        "--state-spec",
        lambda path: path.write_text('{"d": 2, "weights": [1.0], "vectors": [], "d": 2}'),
        "not valid JSON (duplicate key 'd')"),
    "not-utf8": (
        "--state-spec",
        lambda path: path.write_bytes(b'{"d": 2, "weights": [1.0], "vectors": [], "x": "\xe9"}'),
        "not UTF-8 text"),
    "nested-too-deeply": (
        "--scenario", lambda path: path.write_text("[" * 100000 + "]" * 100000),
        "not valid JSON"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_validate_malformed_input_exits_two(case, tmp_path, capsys):
    flag, write, where = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    write(path)
    assert main(["validate", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("tol, scenario", [("inf", TAMPERED), ("nan", IDEAL), ("-inf", IDEAL)])
def test_non_finite_tol_exits_two(tol, scenario, capsys):
    assert main(["certify", "--scenario", scenario, "--reference", GHZ_REF, f"--tol={tol}"]) == 2
    assert "--tol: tolerance 'acceptance' must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["structural", "spectral", "acceptance", "rank", "probability"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_tolerances_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


SUBCOMMAND_FLAGS = {
    "bounds": {"--n", "--out", "--format", "--reproducible"},
    "certify": {"--scenario", "--reference", "--mode", "--tol",
                "--out", "--format", "--reproducible"},
    "prepare-state": {"--state-spec", "--n", "--tol", "--out", "--format", "--reproducible"},
    "scan": {"--scenario", "--reference", "--mode", "--n", "--tol", "--noise", "--grid",
             "--out", "--format", "--reproducible"},
    "validate": {"--scenario", "--reference", "--state-spec",
                 "--out", "--format", "--reproducible"},
}


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["bounds", "--n", "2"]) == 0
    assert main(["bounds", "--n", "3"]) == 0
    assert "N=3" in capsys.readouterr().out


def test_defaults_do_not_leak_between_calls(tmp_path):
    out = tmp_path / "report.json"
    argv = ["certify", "--scenario", TRINE_SCEN, "--reference", TRINE_REF,
            "--format", "structured", "--out", str(out)]
    main(argv + ["--mode", "povm"])
    assert json.loads(out.read_text())["part2"]["mode"] == "povm"
    main(argv)
    assert json.loads(out.read_text())["part2"]["mode"] == "projective"


def test_each_subcommand_has_only_its_flags():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert flags - {"--help"} == SUBCOMMAND_FLAGS[name]


@pytest.mark.parametrize("argv", [
    ["certify", "--scenario", IDEAL, "--reference", GHZ_REF, "--state-spec", MIXED_SPEC],
    ["bounds", "--n", "2", "--scenario", IDEAL],
    ["bounds", "--n", "2", "--seed", "1"],
])
def test_flag_a_subcommand_does_not_read_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "3"],
    ["certify", "--scenario", IDEAL, "--reference", GHZ_REF, "--mode", "povm"],
    ["certify", "--scenario", TAMPERED, "--reference", GHZ_REF],
    ["prepare-state", "--state-spec", MIXED_SPEC],
    ["scan", "--scenario", TRINE_SCEN, "--reference", TRINE_REF, "--noise", "effects",
     "--grid", "0,0.5,1"],
    ["validate", "--scenario", IDEAL, "--reference", GHZ_REF, "--state-spec", MIXED_SPEC],
])
def test_structured_report_is_one_line_of_strict_json_with_a_schema_version(argv, capsys):
    assert main(argv + ["--format", "structured", "--reproducible"]) in (0, 1)
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["schema_version"] == 1
    # compact, with sorted keys at every level
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_zero_effect_reports_are_one_line_of_strict_json(zero_effect_scenario, capsys):
    for argv in (["certify", "--scenario", zero_effect_scenario, "--reference", GHZ_REF],
                 ["scan", "--scenario", zero_effect_scenario, "--grid", "0,1"]):
        main(argv + ["--format", "structured", "--reproducible"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out, parse_constant=_reject_constant)["schema_version"] == 1


@pytest.mark.parametrize("flags, scenario, model, reference, mode", [
    (["--n", "3", "--noise", "effects"], 3, "effects", None, "projective"),
    (["--n", "2"], 2, "isotropic", None, "projective"),
    (["--scenario", IDEAL, "--reference", GHZ_REF, "--noise", "effects"],
     IDEAL, "effects", GHZ_REF, "projective"),
    (["--scenario", TRINE_SCEN, "--reference", TRINE_REF, "--mode", "povm"],
     TRINE_SCEN, "isotropic", TRINE_REF, "povm"),
])
def test_scan_rows_report_noise_scan_floats_bit_for_bit(flags, scenario, model, reference, mode,
                                                        capsys):
    grid = np.random.default_rng(5).random(9).tolist() + [0.0, 1.0]
    argv = ["scan", *flags, "--grid", ",".join(map(repr, grid)), "--format", "structured"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    scenario = ideal_scenario(scenario) if isinstance(scenario, int) else load_scenario(scenario)
    expected = cli.noise_scan(scenario, model, grid, mode=mode,
                              reference_effects=reference and load_povm(reference)).rows
    assert len(rows) == len(expected) == len(grid)

    def hexes(values):
        return [None if v is None else float.hex(v) for v in values]

    for row, exp in zip(rows, expected):
        assert hexes(row["bell_values"]) == hexes(exp.bell_values)
        assert hexes([row["level"], row["min_bell"], row["pbar_deviation"],
                      row["part2_max_residual"]]) == hexes(
            [exp.level, exp.min_bell, exp.pbar_deviation, exp.part2_max_residual])
        assert (row["part2_max_residual"] is None) == (reference is None)


@pytest.mark.parametrize("values", [
    [0.1, -2.5, 1e-300, 1.7976931348623157e308],
    [[0.1, 2.0], [3.0, -0.0]],
    np.arange(6.0).reshape(2, 3) / 7,
    [],
    np.empty((0, 4)),
])
def test_floats_returns_plain_python_floats_for_finite_input(values):
    out = cli._floats(values)
    expected = np.asarray(values, dtype=float)
    assert out == expected.tolist()
    flat = [v for row in out for v in row] if expected.ndim == 2 else out
    assert all(type(v) is float for v in flat)
    assert [float.hex(v) for v in flat] == [float.hex(v) for v in expected.ravel()]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_floats_turns_each_non_finite_value_into_none(bad):
    assert cli._floats([1.5, bad, -0.25]) == [1.5, None, -0.25]
    assert cli._floats(np.array([[bad, 2.0], [3.0, bad]])) == [[None, 2.0], [3.0, None]]
    out = cli._floats([[bad, 0.5]])
    assert out == [[None, 0.5]] and type(out[0][1]) is float
    assert cli._floats([bad]) == [None]


@pytest.mark.parametrize("grid, position", [
    ("0,,1", "entry 2 of 3"),
    ("0,1,", "entry 3 of 3"),
    ("0, ,1", "entry 2 of 3"),
    (",0.5", "entry 1 of 2"),
])
def test_scan_refuses_an_empty_grid_entry(grid, position, no_construction, capsys):
    assert main(["scan", "--n", "2", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: ") and position in err and "is empty" in err


@pytest.mark.parametrize("grid", ["", "  "])
def test_scan_with_no_grid_keeps_its_error(grid, capsys):
    assert main(["scan", "--n", "2", "--grid", grid]) == 2
    assert "scan requires a non-empty --grid" in capsys.readouterr().err
