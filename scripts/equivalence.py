"""Equivalence corpus: record every reported value of a fixed set of runs, and compare two records.

    PYTHONPATH=src python scripts/equivalence.py dump OUT.json
    python scripts/equivalence.py compare A.json B.json

``dump`` runs one fixed corpus in process through the public API and the CLI:

* ``certify`` on every bundled scenario/reference pair in both modes;
* ``prepare-state`` for N = 2..7 on the bundled state spec, and for each N
  up to 4 that fits on a seeded rank-2 spec on C^3 and a pure spec on C^2;
* ``scan`` in both noise models with ``--n`` 2..7, and on the bundled
  scenarios with and without a matching reference;
* ``bounds`` for N = 2..5 and ``validate`` on every bundled file;
* seeded random rank-one, trine, conjugated, visibility-0.9, zero-effect,
  random and non-qubit scenarios at N = 2..5, through ``certify`` (both
  modes, with part 3 where a state spec applies, the two seeded specs
  above among them), ``check_part1``,
  ``noise_scan`` (with and without a reference), ``post_measurement_state``
  and ``is_extremal_rank1``.

It records every float, verdict, branch, NaN position, exit code and
exception (class and message).  Every CLI run is made twice with
``--reproducible``, from the fixture directory so that input paths are file
names: ``--format structured``, with each input reduced to its SHA-256, and
``--format text``, whose stdout is stored verbatim.  A dump
holds 1008 cases and takes about 7 s with one BLAS thread.

``compare`` prints the largest absolute float difference, with its place
when it is not zero; next to it, the largest difference in units of
u = 2^-53 taken relative to the larger magnitude of each pair, so that lost
digits show even inside 1e-12; the five cases of largest nonzero gap; and
every discrete difference (a verdict, branch, string, exit code, exception,
NaN position or structure).  It exits 1 when a float differs by more than
1e-12 or anything discrete differs, and 0 otherwise.
Text output is a string, so any change of a printed digit is discrete.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

TOLERANCE = 1e-12
U = 2.0**-53
GRID = "0,0.25,0.5,0.75,1"
SCENARIOS = ("ideal_n2_ghz", "ideal_n2_trine", "ideal_n3_ghz", "ideal_n3_trine", "tampered_n2_ghz")
REFERENCES = ("ghz_n2", "ghz_n3", "trine_n2", "trine_n3")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def _plain(x):
    """A JSON-ready copy: dataclasses as dicts, arrays as lists, non-finite floats as strings."""
    import numpy as np

    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": _plain(float(x.real)), "im": _plain(float(x.imag))}
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else repr(float(x))
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"cannot record a {type(x).__name__}")


def _run(fn):
    """``fn()``'s result as plain data, or the exception it raised."""
    try:
        return {"result": _plain(fn())}
    except Exception as exc:  # noqa: BLE001 - the corpus records every failure
        return {"exception": type(exc).__name__, "message": str(exc)}


def _cli(argv):
    """One run per output format, each with its exit code and stderr.

    The structured report is parsed, each input reduced to its SHA-256; the
    text report is stdout verbatim.
    """
    from starcert.cli import main

    def run(fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", fmt, "--reproducible"])
        return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    structured = run("structured")
    doc = json.loads(structured["stdout"]) if structured["stdout"] else None
    if doc is not None:
        doc["inputs"] = {k: v["sha256"] for k, v in doc.get("inputs", {}).items()}
    return {"exit_code": structured["exit_code"], "output": _plain(doc),
            "stderr": structured["stderr"], "text": run("text")}


def _extra_specs():
    """A rank-2 spec on C^3 and a pure spec on C^2, each the leading components of a seeded one."""
    import numpy as np

    from starcert.measurements import MixedStateSpec
    from starcert.presets import random_mixed_state_spec

    rng = np.random.default_rng([2026, 0])
    specs = {}
    for name, d, r in (("rank2_d3", 3, 2), ("pure_d2", 2, 1)):
        full = random_mixed_state_spec(d, rng)
        weights = np.array(full.weights[:r])
        specs[name] = MixedStateSpec(d, tuple(weights / weights.sum()), full.vectors[:r])
    return specs


def _cli_cases(cases):
    """The CLI runs, each from its inputs' directory so that every path it prints is a file name.

    The bundled fixtures are read where they are; the extra state specs are
    written to a temporary directory first.
    """
    from starcert.fixtures import fixture_path
    from starcert.jsonio import mixed_state_spec_to_json

    with contextlib.chdir(os.path.dirname(str(fixture_path("mixed_demo.statespec.json")))):
        _cli_runs(cases)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, spec in _extra_specs().items():
            with open(f"{name}.statespec.json", "w") as fh:
                json.dump(mixed_state_spec_to_json(spec), fh)
            for n in range(max(2, (2 * spec.d - 1).bit_length()), 5):
                cases[f"cli prepare-state {name} n={n}"] = _cli(
                    ["prepare-state", "--n", str(n), "--state-spec", f"{name}.statespec.json"])


def _cli_runs(cases):
    def scen(name):
        return f"{name}.scenario.json"

    def ref(name):
        return f"{name}.povm.json"

    spec = "mixed_demo.statespec.json"
    for s in SCENARIOS:
        for r in REFERENCES:
            for mode in ("projective", "povm"):
                cases[f"cli certify {s} {r} {mode}"] = _cli(
                    ["certify", "--scenario", scen(s), "--reference", ref(r), "--mode", mode])
    for n in range(2, 8):
        cases[f"cli prepare-state n={n}"] = _cli(["prepare-state", "--n", str(n),
                                                   "--state-spec", spec])
    for model in ("isotropic", "effects"):
        for n in range(2, 8):
            cases[f"cli scan {model} n={n}"] = _cli(["scan", "--n", str(n), "--noise", model,
                                                      "--grid", GRID])
        for s in SCENARIOS:
            base = ["scan", "--scenario", scen(s), "--noise", model, "--grid", GRID]
            cases[f"cli scan {model} {s}"] = _cli(base)
            r = ("trine_" if "trine" in s else "ghz_") + s.split("_")[1]
            for mode in ("projective", "povm"):
                cases[f"cli scan {model} {s} {r} {mode}"] = _cli(
                    base + ["--reference", ref(r), "--mode", mode])
    for n in range(2, 6):
        cases[f"cli bounds n={n}"] = _cli(["bounds", "--n", str(n)])
    for s in SCENARIOS:
        cases[f"cli validate {s}"] = _cli(["validate", "--scenario", scen(s)])
    for r in REFERENCES:
        cases[f"cli validate {r}"] = _cli(["validate", "--reference", ref(r)])
    cases["cli validate mixed_demo"] = _cli(["validate", "--state-spec", spec])


def _scenario_reports(cases, name, scenario, reference=None, spec=None):
    """Every check of one scenario, each recorded on its own."""
    from starcert import born_table, certify, check_part1, noise_scan, post_measurement_state

    n = scenario.n_parties
    cases[f"{name} part1"] = _run(lambda: check_part1(born_table(scenario), n))
    for model in ("isotropic", "effects"):
        cases[f"{name} scan {model}"] = _run(
            lambda: noise_scan(scenario, model, [0.0, 0.3, 0.7, 1.0]))
    if reference is not None:
        for mode in ("projective", "povm"):
            cases[f"{name} certify {mode}"] = _run(
                lambda: certify(scenario, reference, mode, state_spec=spec))
            cases[f"{name} scan effects {mode}"] = _run(
                lambda: noise_scan(scenario, "effects", [0.0, 0.5, 1.0],
                                   reference_effects=reference, mode=mode))
    for l in range(scenario.eve[1].outcome_count):
        cases[f"{name} post_measurement_state l={l}"] = _run(
            lambda: post_measurement_state(scenario, l, 1))


def _certify_prepared(spec, n, mode):
    """``certify``, with ``spec``'s part 3, of the ideal scenario that holds ``spec``'s trine."""
    from starcert import certify, embed_rank1_povm, ideal_scenario, trine_povm

    trine = embed_rank1_povm(trine_povm(spec), n)
    return certify(ideal_scenario(n, eve_second=trine), trine.effects, mode, state_spec=spec)


def _api_cases(cases):
    import numpy as np

    from starcert import (
        Povm,
        Scenario,
        conjugate_scenario,
        embed_rank1_povm,
        ideal_scenario,
        is_extremal_rank1,
        trine_povm,
    )
    from starcert.presets import (
        random_density_matrix,
        random_mixed_state_spec,
        random_observable_triple,
        random_povm,
        random_projective_measurement,
        random_rank1_extremal_povm,
        random_scenario,
        symmetric_trine_qubit_povm,
    )

    cases["api symmetric trine extremality"] = _run(
        lambda: is_extremal_rank1(symmetric_trine_qubit_povm()))
    for n in range(2, 6):
        rng = np.random.default_rng([2026, n])
        d = 2**n
        # a random rank-one reference on C^d, and one embedded from C^3
        for kind, ref in (("rank1", random_rank1_extremal_povm(d, d + 2, rng)),
                          ("embedded", embed_rank1_povm(random_rank1_extremal_povm(3, 5, rng), n))):
            name = f"api n={n} {kind}"
            cases[f"{name} extremality"] = _run(lambda: is_extremal_rank1(ref))
            conj = tuple(np.conj(m) for m in ref.effects)
            _scenario_reports(cases, f"{name} plain", ideal_scenario(n, eve_second=conj),
                              ref.effects)
            _scenario_reports(cases, f"{name} conjugated", ideal_scenario(n, eve_second=ref),
                              ref.effects)
        spec = random_mixed_state_spec(2, rng)
        trine = embed_rank1_povm(trine_povm(spec), n)
        cases[f"api n={n} trine extremality"] = _run(lambda: is_extremal_rank1(trine))
        scen = ideal_scenario(n, eve_second=trine)
        _scenario_reports(cases, f"api n={n} trine", scen, trine.effects, spec)
        _scenario_reports(cases, f"api n={n} trine conjugate_scenario",
                          conjugate_scenario(scen), trine.effects, spec)
        _scenario_reports(cases, f"api n={n} trine visibility 0.9",
                          ideal_scenario(n, eve_second=trine, visibility=0.9), trine.effects,
                          spec)
        _scenario_reports(cases, f"api n={n} random", random_scenario(n, rng),
                          random_povm(d, 2, rng).effects)
        # non-qubit Eve factors, with a rank-one and a full-rank second measurement
        eve_dims = (3,) + (2,) * (n - 1)
        d_e = int(np.prod(eve_dims))
        sources = tuple(random_density_matrix(2 * b, rng) for b in eve_dims)
        triples = tuple(random_observable_triple(2, rng) for _ in eve_dims)
        eve0 = Povm(tuple(random_projective_measurement(d_e, [1] * (d - 1) + [d_e - d + 1],
                                                         rng)))
        for kind, eve1 in (("rank1", random_rank1_extremal_povm(d_e, d_e + 1, rng)),
                           ("full-rank", random_povm(d_e, 3, rng))):
            scen = Scenario(n_parties=n, sources=sources, alice_observables=triples,
                            eve=(eve0, eve1))
            reference = random_povm(d, eve1.outcome_count, rng).effects
            _scenario_reports(cases, f"api n={n} non-qubit {kind}", scen, reference)
    # the trine of a rank-deficient and of a pure spec, from their own seed
    for name, spec in _extra_specs().items():
        for n in range(max(2, (2 * spec.d - 1).bit_length()), 6):
            for mode in ("projective", "povm"):
                cases[f"api n={n} trine {name} certify {mode}"] = _run(
                    lambda: _certify_prepared(spec, n, mode))
    # an Eve outcome of probability zero: its Bell value is NaN
    zero = Povm((np.diag([1.0, 1.0, 0.0, 0.0]), np.zeros((4, 4)),
                 np.diag([0.0, 0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0])))
    base = ideal_scenario(2)
    scen = Scenario(n_parties=2, sources=base.sources, alice_observables=base.alice_observables,
                    eve=(zero, base.eve[1]))
    _scenario_reports(cases, "api n=2 zero effect", scen)


def dump(path: str) -> None:
    cases = {}
    _cli_cases(cases)
    _api_cases(cases)
    with open(path, "w") as fh:
        json.dump({"cases": cases}, fh, sort_keys=True, allow_nan=False)
    print(f"{len(cases)} cases written to {path}")


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _diff(a, b, where, floats, discrete):
    """Walk two records together: float gaps into ``floats``, anything else into ``discrete``.

    Each float pair gives (absolute gap, gap in u relative to the larger magnitude, where).
    """
    if isinstance(a, float) and isinstance(b, float):
        gap = abs(a - b)
        floats.append((gap, gap / max(abs(a), abs(b)) / U if gap else 0.0, where))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            discrete.append(f"{where}: fields {sorted(a.keys() ^ b.keys())} differ")
        for k in sorted(a.keys() & b.keys()):
            _diff(a[k], b[k], f"{where}.{k}", floats, discrete)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            discrete.append(f"{where}: length {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{where}[{i}]", floats, discrete)
    elif type(a) is not type(b) or a != b:
        discrete.append(f"{where}: {a!r} vs {b!r}")


def _place(gap: float, where: str) -> str:
    """The place of a nonzero gap; a zero gap ties every float, so it has none."""
    return f" at {where}" if gap else ""


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)["cases"]
    with open(path_b) as fh:
        b = json.load(fh)["cases"]
    floats, discrete = [], []
    for name in sorted(a.keys() ^ b.keys()):
        discrete.append(f"case {name!r} is only in {'A' if name in a else 'B'}")
    worst = {}
    for name in sorted(a.keys() & b.keys()):
        case_floats = []
        _diff(a[name], b[name], name, case_floats, discrete)
        floats += case_floats
        worst[name] = max((gap for gap, _, _ in case_floats), default=0.0)
    top = max(floats, default=(0.0, 0.0, ""))
    top_u = max(floats, key=lambda f: f[1], default=(0.0, 0.0, ""))
    print(f"{len(a.keys() & b.keys())} common cases, {len(floats)} floats: "
          f"max abs diff {top[0]:.3e}{_place(top[0], top[2])}")
    print(f"  max relative diff {top_u[1]:.2f} u (u = 2^-53){_place(top_u[1], top_u[2])}")
    for name in sorted((n for n in worst if worst[n]), key=worst.get, reverse=True)[:5]:
        print(f"  {worst[name]:.3e}  {name}")
    print(f"{len(discrete)} discrete differences")
    for line in discrete:
        print(f"  {line}")
    return 1 if top[0] > TOLERANCE or discrete else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
