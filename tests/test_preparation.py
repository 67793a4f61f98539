"""Part 3 for every target state: rank-deficient and pure specs, through the CLI and the API."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcert.certify import CERTIFIED, CONJUGATE, PLAIN, certify
from starcert.cli import main
from starcert.config import Tolerances
from starcert.jsonio import mixed_state_spec_to_json
from starcert.measurements import MixedStateSpec, embed_rank1_povm, trine_povm
from starcert.presets import conjugate_scenario, ideal_scenario, random_mixed_state_spec


def spec_of_rank(d, r, rng):
    """The first r components of a random full-rank spec on C^d, weights renormalised."""
    full = random_mixed_state_spec(d, rng)
    weights = np.array(full.weights[:r])
    return MixedStateSpec(d, tuple(weights / weights.sum()), full.vectors[:r])


def _prepare_state(spec, n, tmp_path, capsys):
    """Exit code and structured report of ``prepare-state`` on ``spec`` at N = n."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mixed_state_spec_to_json(spec)))
    code = main(["prepare-state", "--n", str(n), "--state-spec", str(path),
                 "--format", "structured"])
    return code, json.loads(capsys.readouterr().out)


# (d, r, N) with r < d (rank-deficient) or r = 1 (pure), and 2d <= 2^N, N = 2..4
PREPARE_CASES = [(d, r, n) for n in (2, 3, 4) for d in range(1, 5) for r in range(1, d + 1)
                 if (r < d or r == 1) and 2 * d <= 2**n]


@pytest.mark.parametrize("d, r, n", PREPARE_CASES)
def test_prepare_state_certifies_rank_deficient_and_pure_specs(d, r, n, tmp_path, capsys):
    spec = spec_of_rank(d, r, np.random.default_rng([d, r, n]))
    code, doc = _prepare_state(spec, n, tmp_path, capsys)
    assert code == 0 and doc["verdict"] == CERTIFIED
    # the target is complex unless d = 1, where it is the real 1 x 1 state [1]
    assert doc["part3"]["branch"] == (CONJUGATE if d > 1 else PLAIN)
    assert doc["part3"]["outcomes"] == [3 * k for k in range(r)]


def test_prepare_state_certifies_a_pure_weight_just_above_one(tmp_path, capsys):
    # inside MixedStateSpec's 1e-12 of 1: the pure pair, not sqrt(1 - p) of a trine
    spec = MixedStateSpec(1, (1 + 5e-13,), ([1.0],))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _prepare_state(spec, 2, tmp_path, capsys)
    assert code == 0 and doc["verdict"] == CERTIFIED
    assert doc["part3"]["outcomes"] == [0]


# weight 1 + 5e-13 passes MixedStateSpec's 1e-12 of 1, and 1 - p < 0 is no square root
HEAVY_RANK2 = MixedStateSpec(2, (1 + 5e-13, 1e-13), ([1.0, 0.0], [0.0, 1.0]))


def test_prepare_state_refuses_a_tiny_weight_after_a_heavy_one(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mixed_state_spec_to_json(HEAVY_RANK2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["prepare-state", "--state-spec", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: weight p_1 = 1e-13 too small for the trine construction\n"


def test_trine_povm_of_a_weight_just_above_one_has_finite_rows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        povm = trine_povm(HEAVY_RANK2, Tolerances(probability=1e-14))
    assert np.isfinite(povm.vectors).all()
    # the (k, 1) effects keep their weights; the heavy trine's companions coincide
    assert povm.spectrum[[0, 3], 1].tolist() == pytest.approx(HEAVY_RANK2.weights, rel=1e-12)
    assert povm.vectors[1].tobytes() == povm.vectors[2].tobytes()


# (d, r, N) with a complex rank-deficient or pure target at N = 2 and 3
CONJUGATION_CASES = [(d, r, n) for n in (2, 3) for d in range(2, 5) for r in range(1, d)
                     if 2 * d <= 2**n]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(CONJUGATION_CASES))
def test_conjugation_flips_only_the_part3_branch_of_rank_deficient_specs(seed, case):
    d, r, n = case
    spec = spec_of_rank(d, r, np.random.default_rng(seed))
    scen = ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec), n))
    plain, conj = (certify(s, None, "povm", state_spec=spec)
                   for s in (scen, conjugate_scenario(scen)))
    assert plain.verdict == conj.verdict == CERTIFIED
    assert (plain.part3.branch.branch, conj.part3.branch.branch) == (CONJUGATE, PLAIN)
    for a, b in ((plain.part1.bell_values, conj.part1.bell_values),
                 (plain.part1.pbar, conj.part1.pbar),
                 (plain.part3.probabilities, conj.part3.probabilities),
                 ((plain.part3.total_probability, plain.part3.branch.distance),
                  (conj.part3.total_probability, conj.part3.branch.distance))):
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12
