"""Reachability report: every function of ``src/starcert`` that no command-line run enters.

    PYTHONPATH=src python scripts/reach.py

The script installs a ``sys.setprofile`` hook before it imports ``starcert``,
so import-time calls count too.  It then runs ``cli.main`` in process on the
bundled fixtures, each run in both output formats:

* ``bounds --n 3``;
* ``certify`` on every bundled scenario/reference pair of one N, in both modes
  (a pair whose outcome counts differ exits 2);
* ``prepare-state`` on the bundled state spec, at its own N, at N = 3 and at
  N = 5 (the first N at which its trine and the GHZ basis expand from
  their nonzero amplitudes);
* ``scan`` in both noise models: from ``--n 3``, and on every bundled scenario,
  alone and with its matching reference in both modes;
* ``validate`` on every bundled file, and on one file of each kind together.

It prints every function defined in the package that was never entered, as
``file:line name lines``, then their number and total line count.  A
function inside one never entered is counted with it, not listed again;
lambdas and comprehensions are not listed.  The script only reports: it
always exits 0, and a run that raises is printed and skipped.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import re
import sys
import types
from collections import Counter

def _runs(fixtures: str):
    """The argument lists of every run: each subcommand, mode, noise model and fixture."""
    names = sorted(os.listdir(fixtures))
    scenarios = [os.path.join(fixtures, f) for f in names if f.endswith(".scenario.json")]
    references = [os.path.join(fixtures, f) for f in names if f.endswith(".povm.json")]
    spec = os.path.join(fixtures, "mixed_demo.statespec.json")

    def n_of(path):
        return re.search(r"_n(\d+)", os.path.basename(path)).group(1)

    def matching(scenario):
        kind = "trine" if "trine" in os.path.basename(scenario) else "ghz"
        return os.path.join(fixtures, f"{kind}_n{n_of(scenario)}.povm.json")

    runs = [["bounds", "--n", "3"],
            ["prepare-state", "--state-spec", spec],
            ["prepare-state", "--n", "3", "--state-spec", spec],
            ["prepare-state", "--n", "5", "--state-spec", spec]]
    for scenario in scenarios:
        for reference in references:
            if n_of(reference) == n_of(scenario):
                for mode in ("projective", "povm"):
                    runs.append(["certify", "--scenario", scenario, "--reference", reference,
                                 "--mode", mode])
    for noise in ("isotropic", "effects"):
        grid = ["--noise", noise, "--grid", "0,0.5,1"]
        runs.append(["scan", "--n", "3", *grid])
        for scenario in scenarios:
            runs.append(["scan", "--scenario", scenario, *grid])
            for mode in ("projective", "povm"):
                runs.append(["scan", "--scenario", scenario, "--reference", matching(scenario),
                             "--mode", mode, *grid])
    runs += [["validate", "--scenario", s] for s in scenarios]
    runs += [["validate", "--reference", r] for r in references]
    runs += [["validate", "--state-spec", spec],
             ["validate", "--scenario", scenarios[0], "--reference", matching(scenarios[0]),
              "--state-spec", spec]]
    return runs


def _unreached(code: types.CodeType, entered: set, path: str, out: list) -> None:
    """Walk ``code``'s nested definitions: record each function never entered, with its span."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        key = (path, const.co_firstlineno, const.co_qualname)
        if const.co_flags & inspect.CO_NEWLOCALS and key not in entered:
            last = max(end for _, end, _, _ in const.co_positions() if end is not None)
            out.append((path, const.co_firstlineno, const.co_qualname,
                        last - const.co_firstlineno + 1))
        else:
            _unreached(const, entered, path, out)


def main() -> int:
    codes_entered = {}

    def hook(frame, event, arg):
        if event == "call":
            codes_entered[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    import starcert
    from starcert import cli

    package = os.path.dirname(os.path.realpath(starcert.__file__))
    exits = Counter()
    for argv in _runs(os.path.join(package, "fixtures")):
        for fmt in ("text", "structured"):
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    exits[cli.main([*argv, "--format", fmt])] += 1
            except Exception as exc:  # noqa: BLE001 - a report keeps going and names the failure
                exits["raised"] += 1
                print(f"run {' '.join(argv)} --format {fmt} raised {type(exc).__name__}: {exc}")
    sys.setprofile(None)

    entered = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)
               for code in codes_entered.values()}
    unreached = []
    for root, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    _unreached(compile(fh.read(), path, "exec"), entered, path, unreached)

    print(f"cli.main: {sum(exits.values())} runs, exit codes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(exits.items(), key=str)))
    print(f"functions of {package} never entered (file:line name lines):")
    for path, line, name, count in unreached:
        print(f"  {os.path.relpath(path, package)}:{line} {name} {count}")
    print(f"{len(unreached)} functions, {sum(u[3] for u in unreached)} lines never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
