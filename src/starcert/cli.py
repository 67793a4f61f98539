"""Command-line front end.

Subcommands: bounds, certify, prepare-state, scan, validate.  Exit codes:
0 success / certified, 1 certification failure or inconclusive, 2 invalid
input or usage.  Structured output is one line of compact, strict JSON with
sorted keys and a ``schema_version``: floats print as the shortest repr
that reads back to the same double, and NaN and infinities as null.  Pipe it
through ``python -m json.tool`` to indent it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bell import (
    classical_bound_bruteforce,
    classical_bound_formula,
    quantum_bound,
)
from .certify import CERTIFIED, CertificationReport, certify, noise_scan
from .config import DEFAULT_TOL, Tolerances
from .errors import StarcertError, ValidationError
from .jsonio import load_mixed_state_spec, load_povm, load_scenario
from .measurements import embed_rank1_povm, trine_povm
from .presets import ideal_scenario

# Largest N that any subcommand builds a Born table for; _check_parties states why.
MAX_PARTIES = 7

# The structured report's layout version.  _envelope is its only writer: every report,
# a certification body included, carries it through the envelope.
_SCHEMA_VERSION = 1


def _check_parties(n: int) -> None:
    if n < 2:
        raise ValidationError(
            f"N={n} is outside the supported range 2..{MAX_PARTIES}: a star network "
            "needs at least two parties"
        )
    if n > MAX_PARTIES:
        gb = 2 * 8**n * 16 / 1e9
        raise ValidationError(
            f"N={n} is above the largest supported N={MAX_PARTIES}: Eve's two measurements "
            f"of 2^N effects, each 2^N x 2^N, alone would hold 2 * 8^N complex entries "
            f"({gb:.1f} GB) before any check runs"
        )


def _tolerances(config: argparse.Namespace) -> Tolerances:
    if config.tol is None:
        return DEFAULT_TOL
    try:
        return dataclasses.replace(DEFAULT_TOL, acceptance=config.tol)
    except ValueError as exc:
        raise ValidationError(f"--tol: {exc}") from None


def _f(x) -> float | None:
    """A finite float as itself; NaN and inf become None (JSON null)."""
    x = float(x)
    return x if math.isfinite(x) else None


def _floats(values) -> list:
    """An array of floats as (nested) lists of Python floats; NaN and inf become None."""
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    return a.tolist() if finite.all() else np.where(finite, a, None).tolist()


def _unconditionable(values, n: int) -> list:
    """Bit strings of the labels whose Bell value could not be conditioned (NaN)."""
    return [format(l, f"0{n}b") for l, v in enumerate(values) if math.isnan(v)]


# Each input file's namespace attribute, with the loader that decodes and validates it.
_INPUTS = {"scenario": load_scenario, "reference": load_povm, "state_spec": load_mixed_state_spec}


def _envelope(config: argparse.Namespace, body: dict) -> dict:
    """The report's common fields; each input's SHA-256 is of the bytes its loader read."""
    doc = {
        "tool": "starcert",
        "version": __version__,
        "schema_version": _SCHEMA_VERSION,
        "command": config.command,
        "inputs": {},
    }
    for label in _INPUTS:
        path = getattr(config, label, None)
        if path:
            doc["inputs"][label] = {"path": path, "sha256": config.sha256[path]}
    if not config.reproducible:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc.update(body)
    return doc


def _emit(config: argparse.Namespace, text, structured: dict) -> None:
    """Print or write the report; ``text()`` formats the text form, only when it is asked for."""
    if config.format == "structured":
        # No indent: CPython's C encoder runs only then.
        payload = json.dumps(structured, sort_keys=True, allow_nan=False, separators=(",", ":"))
    else:
        payload = text()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _report_body(report: CertificationReport) -> dict:
    values = report.part1.bell_values
    part1 = {
        "bell_values": _floats(values),
        "unconditionable_labels": _unconditionable(values, len(values).bit_length() - 1),
        "pbar": _floats(report.part1.pbar),
        "bell_passed": report.part1.bell_passed,
        "pbar_passed": report.part1.pbar_passed,
        "passed": report.part1.passed,
    }
    body = {"part1": part1, "verdict": report.verdict,
            "tolerance": _f(report.tolerances.acceptance)}
    if report.part2 is not None:
        body["part2"] = {
            "mode": report.part2.mode,
            "residuals_plain": _floats(report.part2.residuals_plain),
            "residuals_conjugate": _floats(report.part2.residuals_conjugate),
            "branch": report.part2.branch,
            "passed": report.part2.passed,
        }
    if report.part3 is not None:
        p3 = report.part3
        body["part3"] = {
            "outcomes": list(p3.outcomes),
            "probabilities": _floats(p3.probabilities),
            "expected_probabilities": _floats(p3.expected_probabilities),
            "total_probability": _f(p3.total_probability),
            "branch": p3.branch.branch,
            "distance": _f(p3.branch.distance),
            "passed": p3.passed,
        }
    return body


def _report_text(report: CertificationReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    p1 = report.part1
    lines.append(
        f"part1: bell {'pass' if p1.bell_passed else 'FAIL'}, "
        f"outcome weights {'pass' if p1.pbar_passed else 'FAIL'}"
    )
    n = len(p1.bell_values).bit_length() - 1  # one value per label of N bits
    for l, (value, p) in enumerate(zip(p1.bell_values, p1.pbar)):
        lines.append(
            f"  l={l:0{n}b}  value={value:.12f}  bound={quantum_bound(n):.12f}  pbar={p:.12f}"
        )
    if report.part2 is not None:
        p2 = report.part2
        lines.append(
            f"part2 ({p2.mode}): {'pass' if p2.passed else 'FAIL'}, branch {p2.branch}"
        )
        lines.append(
            f"  max residual plain={max(p2.residuals_plain):.3e} "
            f"conjugate={max(p2.residuals_conjugate):.3e}"
        )
    if report.part3 is not None:
        p3 = report.part3
        lines.append(
            f"part3: {'pass' if p3.passed else 'FAIL'}, branch {p3.branch.branch}, "
            f"distance {p3.branch.distance:.3e}"
        )
        lines.append(
            f"total preparation probability: {p3.total_probability:.12f} "
            f"(target {2.0**-n:.12f})"
        )
    return "\n".join(lines)


def cmd_bounds(config: argparse.Namespace) -> int:
    n = config.n
    if n is None or not 2 <= n <= 5:
        raise ValidationError("bounds requires --n between 2 and 5")
    formula = classical_bound_formula(n)
    beta_q = quantum_bound(n)
    brute = classical_bound_bruteforce(n).bound
    delta = abs(brute - formula)
    text = (
        f"N={n}  classical(enumerated)={brute:.9f}  classical(formula)={formula:.9f}  "
        f"quantum={beta_q:.1f}  delta={delta:.3e}"
    )
    body = {
        "n": n,
        "classical_enumerated": _f(brute),
        "classical_formula": _f(formula),
        "quantum": _f(beta_q),
        "delta": _f(delta),
        "formula_only": False,
    }
    _emit(config, lambda: text, _envelope(config, body))
    return 0


def cmd_certify(config: argparse.Namespace) -> int:
    if not config.scenario or not config.reference:
        raise ValidationError("certify requires --scenario and --reference")
    scenario = load_scenario(config.scenario, config.sha256)
    _check_parties(scenario.n_parties)
    reference = load_povm(config.reference, config.sha256)
    report = certify(scenario, reference, config.mode, _tolerances(config))
    _emit(config, lambda: _report_text(report), _envelope(config, _report_body(report)))
    return 0 if report.verdict == CERTIFIED else 1


def cmd_prepare_state(config: argparse.Namespace) -> int:
    if not config.state_spec:
        raise ValidationError("prepare-state requires --state-spec")
    spec = load_mixed_state_spec(config.state_spec, config.sha256)
    n = max(2, (2 * spec.d - 1).bit_length()) if config.n is None else config.n
    if 2**n < 2 * spec.d:
        raise ValidationError(
            f"N={n} gives Eve dimension {2**n} < 2d = {2 * spec.d}"
        )
    _check_parties(n)
    tol = _tolerances(config)
    povm = embed_rank1_povm(trine_povm(spec, tol), n, tol)
    # no reference: part 2 would test Eve's measurement against itself
    report = certify(ideal_scenario(n, eve_second=povm), None, "povm", tol, spec)
    body = {"n": n, "part1_passed": report.part1.passed, **_report_body(report)}
    _emit(config, lambda: _report_text(report), _envelope(config, body))
    return 0 if report.verdict == CERTIFIED else 1


def cmd_scan(config: argparse.Namespace) -> int:
    if config.reference and not config.scenario:
        raise ValidationError(
            "scan --reference requires --scenario: the scenario built from --n has the "
            "one-outcome identity as its second measurement, with nothing to certify"
        )
    if not config.grid:
        raise ValidationError("scan requires a non-empty --grid")
    if config.n is not None:
        _check_parties(config.n)
    if config.scenario:
        scenario = load_scenario(config.scenario, config.sha256)
        _check_parties(scenario.n_parties)
        if config.n is not None and config.n != scenario.n_parties:
            raise ValidationError(
                f"--n {config.n} disagrees with the scenario file's N={scenario.n_parties}"
            )
    else:
        scenario = ideal_scenario(2 if config.n is None else config.n)
    reference = load_povm(config.reference, config.sha256) if config.reference else None
    tol = _tolerances(config)
    report = noise_scan(scenario, config.noise, config.grid,
                        reference_effects=reference, mode=config.mode, tol=tol)
    bell = _floats([row.bell_values for row in report.rows])  # (levels, 2^N) in one pass
    rows = [{
        "level": _f(row.level),
        "bell_values": values,
        "unconditionable_labels": _unconditionable(row.bell_values, scenario.n_parties),
        "min_bell": _f(row.min_bell),
        "pbar_deviation": _f(row.pbar_deviation),
        "part2_max_residual": (
            None if row.part2_max_residual is None else _f(row.part2_max_residual)
        ),
    } for row, values in zip(report.rows, bell)]

    def text() -> str:
        lines = ["level\tmin_bell\tpbar_deviation\tpart2_max_residual"]
        for row in report.rows:
            res = "" if row.part2_max_residual is None else f"{row.part2_max_residual:.6e}"
            lines.append(
                f"{row.level:.6f}\t{row.min_bell:.12f}\t{row.pbar_deviation:.6e}\t{res}"
            )
        lines.append(f"min_bell non-decreasing: {report.bell_monotone}")
        return "\n".join(lines)

    body = {"model": report.model, "rows": rows, "bell_monotone": report.bell_monotone}
    _emit(config, text, _envelope(config, body))
    return 0


def cmd_validate(config: argparse.Namespace) -> int:
    checked = [(kind, getattr(config, kind)) for kind in _INPUTS if getattr(config, kind)]
    if not checked:
        raise ValidationError(
            "validate requires at least one of --scenario, --reference, --state-spec"
        )
    for kind, path in checked:
        _INPUTS[kind](path, config.sha256)
    body = {"validated": [{"kind": k, "path": p} for k, p in checked]}
    _emit(config, lambda: "\n".join(f"{kind}: {path}: valid" for kind, path in checked),
          _envelope(config, body))
    return 0


def _parse_grid(raw: str):
    if not raw.strip():
        return ()  # cmd_scan refuses the empty grid
    entries = raw.split(",")
    for i, v in enumerate(entries, 1):
        if not v.strip():
            raise ValidationError(f"--grid: entry {i} of {len(entries)} in {raw!r} is empty")
    try:
        values = tuple(float(v) for v in entries)
    except ValueError:
        raise ValidationError(f"--grid: could not parse {raw!r}") from None
    if any(not 0 <= v <= 1 for v in values):
        raise ValidationError("--grid values must lie in [0, 1]")
    return values


# Every flag; argparse names its namespace attribute, with "-" read as "_".
_FLAGS = {
    "scenario": dict(help="scenario JSON file"),
    "reference": dict(help="reference measurement JSON file"),
    "mode": dict(choices=["projective", "povm"], default="projective"),
    "state-spec": dict(help="target state JSON file"),
    "n": dict(type=int, help="number of external parties"),
    "tol": dict(type=float, help="acceptance tolerance override"),
    "noise": dict(choices=["isotropic", "effects"], default="isotropic"),
    "grid": dict(default="", help="comma-separated noise levels in [0,1]"),
    "out": dict(help="write the report to this path instead of stdout"),
    "format": dict(choices=["text", "structured"], default="text"),
    "reproducible": dict(action="store_true",
                         help="suppress the timestamp field for byte-identical output"),
}
_OUTPUT_FLAGS = ("out", "format", "reproducible")

# Each subcommand: its handler and the flags it reads.
COMMANDS = {
    "bounds": (cmd_bounds, ("n",) + _OUTPUT_FLAGS),
    "certify": (cmd_certify, ("scenario", "reference", "mode", "tol") + _OUTPUT_FLAGS),
    "prepare-state": (cmd_prepare_state, ("state-spec", "n", "tol") + _OUTPUT_FLAGS),
    "scan": (cmd_scan, ("scenario", "reference", "mode", "n", "tol", "noise", "grid")
             + _OUTPUT_FLAGS),
    "validate": (cmd_validate, ("scenario", "reference", "state-spec") + _OUTPUT_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcert",
        description="Simulate and certify star-network self-testing scenarios.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# Built once per process: parsing fills a new namespace on every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    config = _PARSER.parse_args(argv)
    config.sha256 = {}  # each input path's digest, filled by its loader
    try:
        if "grid" in config:
            config.grid = _parse_grid(config.grid)
        return COMMANDS[config.command][0](config)
    except (StarcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
