"""Regenerate the bundled fixture files under src/starcert/fixtures/.

The fixtures double as CLI demo inputs and acceptance-test inputs:
ideal scenarios for N = 2, 3 in projective (GHZ-basis reference) and POVM
(embedded trine reference) modes, a tampered variant, and a mixed-state
preparation demo on C^2.
"""

import json
import pathlib

import numpy as np

from starcert import ghz_basis_measurement, ideal_scenario
from starcert.jsonio import mixed_state_spec_to_json, povm_to_json, save_scenario
from starcert.measurements import MixedStateSpec, embed_rank1_povm, trine_povm
from starcert.presets import flip_observable_sign

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "starcert" / "fixtures"


def demo_spec() -> MixedStateSpec:
    """A fixed complex rank-2 state on C^2 (conjugation-sensitive)."""
    v0 = np.array([0.6, 0.8j], dtype=complex)
    v1 = np.array([0.8, -0.6j], dtype=complex)
    return MixedStateSpec(d=2, weights=(0.7, 0.3), vectors=(v0, v1))


def dump(doc, name):
    with open(OUT / name, "w") as f:
        json.dump(doc, f)
    print("wrote", OUT / name)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for n in (2, 3):
        ghz = ghz_basis_measurement(n)
        scen = ideal_scenario(n, eve_second=tuple(np.conj(m) for m in ghz.effects))
        save_scenario(scen, OUT / f"ideal_n{n}_ghz.scenario.json")
        print("wrote", OUT / f"ideal_n{n}_ghz.scenario.json")
        dump(povm_to_json(ghz), f"ghz_n{n}.povm.json")

    spec = demo_spec()
    dump(mixed_state_spec_to_json(spec), "mixed_demo.statespec.json")
    for n in (2, 3):
        trine = embed_rank1_povm(trine_povm(spec), n)
        scen = ideal_scenario(n, eve_second=tuple(np.conj(m) for m in trine.effects))
        save_scenario(scen, OUT / f"ideal_n{n}_trine.scenario.json")
        print("wrote", OUT / f"ideal_n{n}_trine.scenario.json")
        dump(povm_to_json(trine), f"trine_n{n}.povm.json")

    ghz = ghz_basis_measurement(2)
    tampered = flip_observable_sign(
        ideal_scenario(2, eve_second=tuple(np.conj(m) for m in ghz.effects)), 1, 0
    )
    save_scenario(tampered, OUT / "tampered_n2_ghz.scenario.json")
    print("wrote", OUT / "tampered_n2_ghz.scenario.json")


if __name__ == "__main__":
    main()
