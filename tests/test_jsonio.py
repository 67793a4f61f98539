import gc
import json
import math
import re
import warnings

import numpy as np
import pytest

import starcert.jsonio
import starcert.measurements
import starcert.tensor
from starcert.cli import main
from starcert.config import DEFAULT_TOL
from starcert.errors import StarcertError, ValidationError
from starcert.fixtures import fixture_path
from starcert.jsonio import (
    _holds_boolean,
    _matrices_from_json,
    load_mixed_state_spec,
    load_povm,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    mixed_state_spec_from_json,
    mixed_state_spec_to_json,
    povm_from_json,
    povm_to_json,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from starcert.measurements import Povm, ghz_basis_measurement
from starcert.presets import ideal_scenario

TOL = DEFAULT_TOL.structural
FIXTURES = sorted(p.name for p in fixture_path("").iterdir() if p.name.endswith(".json"))


def _unit(k, dim=4):
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return m


def _perturbed_basis(criterion, size):
    """The computational basis of C^4 with one criterion off by ``size``, the others exact."""
    effects = [_unit(k) for k in range(4)]
    if criterion == "min_eigenvalue":
        # diag(1 + s, 0, ...) and diag(-s, 1, 0, 0): eigenvalue -s, exact completeness
        effects[0] = effects[0] * (1 + size)
        effects[1] = effects[1] - size * _unit(0)
    elif criterion == "hermiticity":
        # +-eps in one off-diagonal slot: Frobenius defect eps * sqrt2 per effect
        eps = size / math.sqrt(2.0)
        effects[0][0, 1] += eps
        effects[1][0, 1] -= eps
    else:
        effects[0] = effects[0] * (1 + size)  # completeness residual s
    return effects


def _via_constructor(effects):
    return Povm(tuple(effects))


def _via_scenario_json(effects):
    doc = scenario_to_json(ideal_scenario(2))
    doc["eve_measurements"][0] = [matrix_to_json(m) for m in effects]
    return scenario_from_json(json.loads(json.dumps(doc)))


def _via_povm_json(effects):
    return povm_from_json({"dim": 4, "effects": [matrix_to_json(m) for m in effects]})


ROUTES = {
    "constructor": (_via_constructor, r"^invalid POVM"),
    "scenario_json": (_via_scenario_json, r"^scenario\.eve_measurements\[0\]: invalid POVM"),
    "povm_json": (_via_povm_json, r"^povm: invalid POVM"),
}


def _measured(effects):
    stack = np.array(effects)
    return {
        "min_eigenvalue": -np.linalg.eigvalsh(starcert.tensor.hermitian_part(stack))[:, 0].min(),
        "hermiticity": starcert.tensor.hermitian_defects(stack).max(),
        "completeness": np.linalg.norm(stack.sum(axis=0) - np.eye(len(stack[0]))),
    }


@pytest.mark.parametrize("criterion", ["min_eigenvalue", "hermiticity", "completeness"])
def test_perturbed_basis_moves_one_criterion(criterion):
    for size in (0.5 * TOL, 2 * TOL):
        measured = _measured(_perturbed_basis(criterion, size))
        assert measured.pop(criterion) == pytest.approx(size, rel=1e-4)
        assert max(measured.values()) < 1e-3 * TOL


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("criterion", ["min_eigenvalue", "hermiticity", "completeness"])
def test_povm_tolerance_boundary(route, criterion):
    build, message = ROUTES[route]
    build(_perturbed_basis(criterion, 0.5 * TOL))
    with pytest.raises(ValidationError, match=message):
        build(_perturbed_basis(criterion, 2 * TOL))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reserialises_identically(name):
    path = fixture_path(name)
    if name.endswith(".scenario.json"):
        doc = scenario_to_json(load_scenario(path))
    elif name.endswith(".povm.json"):
        doc = povm_to_json(load_povm(path))
    else:
        doc = mixed_state_spec_to_json(load_mixed_state_spec(path))
    assert json.dumps(doc) == path.read_text()


@pytest.mark.parametrize("entries, match", [
    ([[1.0, 0.0]] * 3 + [[float("nan"), 0.0]], "finite"),
    ([[1.0, 0.0, 0.0]] * 4, r"\[re, im\] pairs"),
    ([[1.0, 0.0]] * 3 + [["x", 0.0]], "malformed"),
    ([[1.0, 0.0]] * 3 + [[10**400, 0.0]], "malformed"),
    ("abcd", "malformed"),
    (7, r"\[re, im\] pairs"),
    ([["1.0", "0"], [0, 0], [0, 0], [1, 0]], "JSON numbers, got str"),
    ([[1, 0], [0, 0], [0, 0], [True, 0]], "JSON numbers, got bool"),
    ([[1, 0], [0, 0], [0, 0], 1], r"\[re, im\] pairs"),
], ids=["nan", "triple", "string", "overflow", "not-a-list", "scalar", "numeric-string",
        "boolean", "bare-number"])
def test_matrix_from_json_rejects_malformed_entries(entries, match):
    with pytest.raises(ValidationError, match=r"^doc\.m\.entries: .*" + match):
        matrix_from_json({"dim": 2, "entries": entries}, "doc.m")


@pytest.mark.parametrize("dim", ["2", 2.0, True, None])
def test_matrix_from_json_requires_an_integer_dim(dim):
    with pytest.raises(ValidationError, match=r"^doc\.m\.dim: must be an integer"):
        matrix_from_json({"dim": dim, "entries": [[1.0, 0.0]] * 4}, "doc.m")


def test_mixed_state_spec_rejects_non_finite_weight():
    doc = mixed_state_spec_to_json(load_mixed_state_spec(fixture_path("mixed_demo.statespec.json")))
    doc["weights"][0] = float("nan")
    with pytest.raises(ValidationError, match=r"^state spec\.weights: .*finite"):
        mixed_state_spec_from_json(doc)


@pytest.mark.parametrize("weight", ["0.5", True, None])
def test_mixed_state_spec_rejects_non_number_weight(weight):
    doc = mixed_state_spec_to_json(load_mixed_state_spec(fixture_path("mixed_demo.statespec.json")))
    doc["weights"][0] = weight
    with pytest.raises(ValidationError, match=r"^state spec\.weights: malformed .*JSON numbers"):
        mixed_state_spec_from_json(doc)


@pytest.mark.parametrize("dim", [0, -2])
def test_matrix_from_json_rejects_a_non_positive_dim(dim):
    with pytest.raises(ValidationError, match=r"^doc\.m\.dim: must be at least 1$"):
        matrix_from_json({"dim": dim, "entries": [[1.0, 0.0]] * 4}, "doc.m")


@pytest.fixture
def ghz_files(tmp_path):
    """An N = 4 GHZ scenario file and its GHZ reference, as the CLI reads them."""
    ghz = ghz_basis_measurement(4)
    scenario, reference = tmp_path / "ideal_n4.scenario.json", tmp_path / "ghz_n4.povm.json"
    save_scenario(ideal_scenario(4, eve_second=ghz), scenario)
    reference.write_text(json.dumps(povm_to_json(ghz)))
    return scenario, reference


@pytest.fixture
def gc_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _collections_during(call):
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return len(started)


def test_loaders_run_no_garbage_collection(ghz_files, gc_enabled):
    scenario, reference = ghz_files
    # The same documents decoded with the collector running do trigger collections.
    assert _collections_during(lambda: scenario_from_json(json.loads(scenario.read_text()))) > 0
    assert _collections_during(lambda: load_scenario(scenario)) == 0
    assert _collections_during(lambda: load_povm(reference)) == 0
    assert gc.isenabled()


def _nan_reference(tmp_path):
    doc = povm_to_json(ghz_basis_measurement(2))
    doc["effects"][0]["entries"][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.povm.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_restore_the_garbage_collector_state(tmp_path, ghz_files, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_scenario(ghz_files[0])
        assert gc.isenabled() is enabled
        load_mixed_state_spec(fixture_path("mixed_demo.statespec.json"))
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError,
                           match=r": not valid JSON \(NaN is not a JSON number\)$"):
            load_povm(_nan_reference(tmp_path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _fixture_doc(name):
    return json.loads(fixture_path(name).read_text())


def _set_entries(*cells):
    """Set entry k of matrix m of ``key`` to the real value x, for each (key, m, k, x)."""
    def edit(doc):
        for key, m, k, x in cells:
            doc[key][m]["entries"][k] = [x, 0.0]
    return edit


# (file, loader, entries near the float64 limit, the error): each overflows inside the checks
HUGE_ENTRIES = {
    "povm-lone-entry": ("ghz_n2.povm.json", load_povm,
                        _set_entries(("effects", 0, 1, 1e308)), "Hermiticity defect inf"),
    "povm-hermitian-pair": ("ghz_n2.povm.json", load_povm,
                            _set_entries(("effects", 0, 1, 1e308), ("effects", 0, 4, 1e308)),
                            "povm: invalid POVM: effect 0: Hermiticity defect 0.000e+00, "
                            "eigenvalues cannot be computed (tolerance 1.0e-10)"),
    "povm-two-diagonal-entries": ("ghz_n2.povm.json", load_povm,
                                  _set_entries(("effects", 0, 0, 1.7e308),
                                               ("effects", 1, 0, 1.7e308)),
                                  "povm: invalid POVM: effect 0: Hermiticity defect 0.000e+00, "
                                  "eigenvalues cannot be computed (tolerance 1.0e-10)"),
    "source-lone-entry": ("ideal_n2_ghz.scenario.json", load_scenario,
                          _set_entries(("sources", 0, 1, 1e308)), "not Hermitian"),
    "source-hermitian-pair": ("ideal_n2_ghz.scenario.json", load_scenario,
                              _set_entries(("sources", 0, 1, 1e308), ("sources", 0, 4, 1e308)),
                              "scenario: sources[0]: density operator is not positive semi-definite"),
    "state-spec-vector": ("mixed_demo.statespec.json", load_mixed_state_spec,
                          lambda doc: doc["vectors"][0].__setitem__(0, [1e308, 0.0]),
                          "state spec: "),
}


@pytest.mark.parametrize("case", HUGE_ENTRIES)
def test_an_entry_near_the_float64_limit_is_refused_with_no_warning(case, tmp_path):
    name, load, edit, message = HUGE_ENTRIES[case]
    doc = _fixture_doc(name)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(message)):
            load(path)


def test_cancelling_huge_effects_are_refused_by_their_spectra():
    # each Hermitian part overflows to an infinite diagonal, whose eigvalsh is NaN without
    # an error; the sum is complete, so only the spectrum check can refuse effect 1's -1.7e308
    effects = np.array([np.diag([1.7e308, 0.5]), np.diag([-1.7e308, 0.5]), np.diag([1.0, 0.0])])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match=r"^invalid POVM: effect 0: Hermiticity defect "
                           r"0\.000e\+00, eigenvalues cannot be computed"):
            Povm(effects)


# (fixture, loader): every loader reads its file through the same strict parser
LOADERS = [("ideal_n2_ghz.scenario.json", load_scenario), ("ghz_n2.povm.json", load_povm),
           ("mixed_demo.statespec.json", load_mixed_state_spec)]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name, load", LOADERS)
def test_a_non_finite_literal_is_refused_at_parse_time(name, load, constant, tmp_path):
    text = fixture_path(name).read_text()
    number = re.search(r"\d\.\d+(e-?\d+)?", text)
    path = tmp_path / name
    path.write_text(text[:number.start()] + constant + text[number.end():])
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON "
                       rf"\({constant} is not a JSON number\)$"):
        load(path)


@pytest.mark.parametrize("name, load", LOADERS)
def test_an_integer_literal_past_the_digit_limit_is_refused_at_parse_time(name, load, tmp_path):
    # Python's int() refuses more than 4300 digits with a bare ValueError
    text = fixture_path(name).read_text()
    number = re.search(r"\d\.\d+(e-?\d+)?", text)
    path = tmp_path / name
    path.write_text(text[:number.start()] + "1" + "0" * 5000 + text[number.end():])
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON "
                       r"\(Exceeds the limit \(4300 digits\)"):
        load(path)


@pytest.mark.parametrize("name, load", LOADERS)
def test_a_duplicate_key_is_refused_at_parse_time(name, load, tmp_path):
    # the repeat comes last, so a parser that kept the last value would read the same document
    text = fixture_path(name).read_text()
    path = tmp_path / name
    path.write_text(text[:text.index("{") + 1] + '"x": 1, "x": 2, ' + text[text.index("{") + 1:])
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(str(path))}: not valid JSON \\(duplicate key 'x'\\)$"):
        load(path)


def _entries(doc, *keys):
    for key in keys:
        doc = doc[key]
    return doc["entries"]


# (file, mutation of its document, the exact error): each fault sits in a later matrix of its list
LATER_FAULTS = {
    "string-in-a-later-eve-effect": (
        "ideal_n2_trine.scenario.json",
        lambda d: _entries(d, "eve_measurements", 1, 5)[7].__setitem__(0, "0.5"),
        "scenario.eve_measurements[1][5].entries: malformed numbers: "
        "entries must be JSON numbers, got str"),
    "boolean-in-a-later-reference-effect": (
        "trine_n2.povm.json",
        lambda d: _entries(d, "effects", 3)[0].__setitem__(1, True),
        "povm.effects[3].entries: malformed numbers: entries must be JSON numbers, got bool"),
    "three-element-pair-in-a-later-observable": (
        "ideal_n2_trine.scenario.json",
        lambda d: _entries(d, "alice_observables", 1, 2).__setitem__(1, [0.0, 0.0, 0.0]),
        "scenario.alice_observables[1][2].entries: expected a non-empty list of [re, im] pairs"),
    "entry-count-of-a-later-source": (
        "ideal_n2_trine.scenario.json",
        lambda d: _entries(d, "sources", 1).pop(),
        "scenario.sources[1]: expected 16 entries for dim 4, got 15"),
    "overflow-in-a-later-reference-effect": (
        "trine_n2.povm.json",
        lambda d: _entries(d, "effects", 2)[3].__setitem__(1, -10**400),
        "povm.effects[2].entries: malformed numbers (int too large to convert to float)"),
    "earlier-non-finite-before-later-string": (
        "trine_n2.povm.json",
        lambda d: (_entries(d, "effects", 1)[2].__setitem__(0, float("nan")),
                   _entries(d, "effects", 4)[0].__setitem__(0, "x")),
        "povm.effects[1].entries: entries must be finite numbers"),
    "earlier-boolean-before-later-entry-count": (
        "trine_n2.povm.json",
        lambda d: (_entries(d, "effects", 0)[5].__setitem__(1, False),
                   d["effects"][2].__setitem__("dim", 3)),
        "povm.effects[0].entries: malformed numbers: entries must be JSON numbers, got bool"),
    "earlier-entry-count-before-later-boolean": (
        "trine_n2.povm.json",
        lambda d: (_entries(d, "effects", 1).pop(),
                   _entries(d, "effects", 3)[0].__setitem__(0, True)),
        "povm.effects[1]: expected 16 entries for dim 4, got 15"),
}


@pytest.mark.parametrize("case", LATER_FAULTS)
def test_a_fault_in_a_later_matrix_names_its_node(case):
    name, mutate, message = LATER_FAULTS[case]
    doc = _fixture_doc(name)
    mutate(doc)
    decode = scenario_from_json if name.endswith(".scenario.json") else povm_from_json
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        decode(doc)


# Replacements for one number, one [re, im] pair, one dim or one matrix document
JUNK = ["x", True, None, float("nan"), -float("inf"), 10**400, 1.0, [0.0], [0.0, 0.0, 0.0],
        {}, 3, 0, -1]


def _decoded(decode):
    try:
        return decode()
    except Exception as exc:  # noqa: BLE001 - the exception is the result compared
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(120))
def test_a_matrix_list_decodes_as_its_matrices_one_at_a_time(seed):
    rng = np.random.default_rng([16, seed])
    dims = [int(rng.integers(1, 4))] * 5 if seed % 3 else rng.integers(1, 4, 5).tolist()
    docs = [matrix_to_json(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for d in dims]
    for _ in range(int(rng.integers(0, 3))):
        k, junk = int(rng.integers(len(docs))), JUNK[int(rng.integers(len(JUNK)))]
        entries = docs[k].get("entries") if isinstance(docs[k], dict) else None
        where = int(rng.integers(5))
        if where == 0 and isinstance(entries, list) and entries:
            entries[int(rng.integers(len(entries)))][int(rng.integers(2))] = junk
        elif where == 1 and isinstance(entries, list) and entries:
            entries[int(rng.integers(len(entries)))] = junk
        elif where == 2 and isinstance(docs[k], dict):
            docs[k]["dim"] = junk
        elif where == 3 and isinstance(entries, list) and entries:
            entries.pop()
        else:
            docs[k] = junk
    expected = _decoded(lambda: [matrix_from_json(m, f"m[{i}]") for i, m in enumerate(docs)])
    actual = _decoded(lambda: _matrices_from_json(docs, "m"))
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert [np.asarray(m).tolist() for m in actual] == [m.tolist() for m in expected]
        assert all(not m.flags.writeable for m in actual)


def test_loaders_decode_and_validate_each_list_as_one_stack(monkeypatch, ghz_files):
    def forbidden(*args, **kwargs):
        raise AssertionError("a matrix was decoded or validated alone")

    # the routes that check one effect or one observable at a time; each source is checked once
    monkeypatch.setattr(starcert.jsonio, "matrix_from_json", forbidden)
    monkeypatch.setattr(starcert.measurements, "require_hermitian", forbidden)
    monkeypatch.setattr(starcert.tensor, "_stack_one_at_a_time", forbidden)
    scenario, reference = ghz_files
    assert load_scenario(scenario).n_parties == 4
    assert load_povm(reference).outcome_count == 16
    assert load_scenario(fixture_path("ideal_n2_trine.scenario.json")).eve[1].outcome_count == 6


@pytest.mark.parametrize("raw, holds", [
    (b"true", True), (b"[false]", True), (b'{"note": "untrue"}', True), (b'"falsehood"', True),
    (b"tru", False), (b"alse", False), (b"u", False), (b'{"sources": [1e-17, 0.5]}', False),
])
def test_holds_boolean_finds_either_literal_anywhere(raw, holds):
    assert _holds_boolean(raw) is holds


def _sum_calls(monkeypatch) -> list:
    """The lengths of the lists that ``jsonio`` passes to ``sum`` from now on."""
    calls = []

    def spy(values, start):
        calls.append(len(values))
        return sum(values, start)

    monkeypatch.setattr(starcert.jsonio, "sum", spy, raising=False)
    return calls


@pytest.mark.parametrize("name, load", LOADERS + [("trine_n2.povm.json", load_povm)])
def test_a_file_without_a_boolean_checks_its_numbers_with_one_sum(name, load, monkeypatch):
    calls = _sum_calls(monkeypatch)
    load(fixture_path(name))
    assert calls and min(calls) > 0


def test_a_string_holding_true_loads_the_same_arrays(tmp_path, monkeypatch):
    # the file holds the bytes "true", so its numbers are checked by type, to the same result
    doc = _fixture_doc("trine_n2.povm.json")
    path = tmp_path / "noted.povm.json"
    path.write_text(json.dumps({"note": "true and false", **doc}))
    calls = _sum_calls(monkeypatch)
    noted = load_povm(path)
    assert calls == []
    plain = load_povm(fixture_path("trine_n2.povm.json"))
    assert calls
    assert noted.effects.tobytes() == plain.effects.tobytes()
    assert noted.spectrum.tobytes() == plain.spectrum.tobytes()


# The junk set at each node, as JSON text: every JSON kind, wrong shapes, and numbers past float64
FUZZ_JUNK = ["null", "true", "false", '"1"', "[]", "{}", "[[1, 2, 3]]", "1" + "0" * 400, "1e999",
             "0", "-1", "2.5"]
_HOLE = "__junk__"


def _fuzz_sites(node, path=()):
    """Each path to an object field, and to the first and last element of each list, depth first."""
    if isinstance(node, dict):
        children = list(node)
    elif isinstance(node, list):
        children = sorted({0, len(node) - 1}) if node else []
    else:
        return
    for key in children:
        yield path + (key,)
        yield from _fuzz_sites(node[key], path + (key,))


def _with_hole(doc, site) -> str:
    """The text of ``doc`` with the node at ``site`` replaced by a marker; ``doc`` is left as it was."""
    parent = doc
    for key in site[:-1]:
        parent = parent[key]
    kept, parent[site[-1]] = parent[site[-1]], _HOLE
    try:
        return json.dumps(doc)
    finally:
        parent[site[-1]] = kept


def _loader(name):
    """The loader of a fixture file, and the ``validate`` flag that reads it."""
    if name.endswith(".scenario.json"):
        return load_scenario, "--scenario"
    if name.endswith(".povm.json"):
        return load_povm, "--reference"
    return load_mixed_state_spec, "--state-spec"


@pytest.mark.parametrize("name", FIXTURES)
def test_every_junk_node_of_a_fixture_loads_or_raises_a_starcert_error(name, tmp_path, capsys):
    # and through the CLI: validate exits 0 on what loads, and 2 with one error line on
    # what is refused, never with a traceback
    doc, (load, flag) = _fixture_doc(name), _loader(name)
    path = tmp_path / name
    outcomes = set()
    for site in _fuzz_sites(doc):
        text = _with_hole(doc, site)
        for junk in FUZZ_JUNK:
            path.write_text(text.replace(f'"{_HOLE}"', junk))
            try:
                load(path)
                outcome = "loaded"
            except StarcertError:
                outcome = "refused"
            outcomes.add(outcome)
            code = main(["validate", flag, str(path)])
            err = capsys.readouterr().err
            if outcome == "loaded":
                assert (code, err) == (0, ""), (site, junk)
            else:
                assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 \
                    and err.endswith("\n"), (site, junk, err)
    assert outcomes == {"loaded", "refused"}
