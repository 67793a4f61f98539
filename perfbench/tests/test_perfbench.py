"""Tests of the benchmark's own generator, checker and span bookkeeping.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import argparse
import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import starcert.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run_cli(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = starcert.cli.main(job.argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    def jobs(seed):
        return [workloads.make_job(workload, seed, k, str(tmp_path)) for k in range(-1, 9)]

    first, again, other = jobs(7), jobs(7), jobs(8)
    for a, b in zip(first, again):
        assert (a.argv, a.files, a.expect) == (b.argv, b.files, b.expect)
    assert [(a.argv, a.files) for a in first] != [(c.argv, c.files) for c in other]
    # distinct inputs for every job of a run
    docs = [json.dumps([a.argv[-3:], a.files], sort_keys=True) for a in first]
    assert len(set(docs)) == len(docs)


@pytest.fixture(scope="module")
def certified_job(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("jobs"))
    job = next(j for j in (workloads.make_job("certify-n4", 3, k, workdir) for k in range(64))
               if j.expect["variant"] == "conjugate" and j.expect["kind"] == "projective")
    job.write()
    code, stdout = _run_cli(job)
    job.remove()
    return job, code, stdout


def test_checker_accepts_the_real_report(certified_job):
    job, code, stdout = certified_job
    assert workloads.check(job, code, stdout) is None


def test_checker_flags_wrong_verdict_branch_and_nan(certified_job):
    job, code, stdout = certified_job
    doc = json.loads(stdout)

    wrong_verdict = dict(doc, verdict="Failed")
    assert "verdict" in workloads.check(job, code, json.dumps(wrong_verdict))

    wrong_branch = dict(doc, part2=dict(doc["part2"], branch="Plain"))
    assert "branch" in workloads.check(job, code, json.dumps(wrong_branch))

    nan_report = dict(doc, part1=dict(doc["part1"], bell_values=[float("nan")] * 16))
    assert "strict JSON" in workloads.check(job, code, json.dumps(nan_report))

    assert "exit code" in workloads.check(job, 2, stdout)


def test_cycle_times_are_scaled_by_the_reference_kernel(tmp_path, monkeypatch):
    kernel = reference.KERNEL_OF["scan-n3"]
    monkeypatch.setattr(reference, "kernel_ms", lambda name: 2 * reference.REFERENCE_MS[name])
    args = argparse.Namespace(workload="scan-n3", seed=5, workdir=str(tmp_path))
    client = worker.Client(workloads, args)
    client.run_cycle()
    assert not client.failures and client.kernel_ms == [2 * reference.REFERENCE_MS[kernel]] * 5
    assert client.scaled == pytest.approx([t / 2 for t in client.latencies])
    assert client.scaled_cpu == pytest.approx(client.cpu / 2)
    metrics = run.end_to_end_metrics(
        {"scaled_s": client.scaled, "scaled_cpu_s": client.scaled_cpu, "peak_rss_kb": 1024},
        setups=[0.5])
    assert metrics["jobs_per_s"]["value"] == pytest.approx(8 / sum(client.latencies))


def test_missing_functions_report_zero_and_names_match_benchmark_json():
    metrics = run.per_layer_metrics({}, jobs=4, overhead=0.1)
    assert all(m["value"] == 0 for k, m in metrics.items() if k != "trace.overhead_frac")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["per_layer"]:
        assert m["unit"] == metrics[m["name"]]["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("m.outer", outer_body)
    outer()
    summary = tracer.summary()
    assert summary["m.inner"]["calls"] == 2 and summary["m.outer"]["calls"] == 1
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert summary["m.outer"]["self_s"] + summary["m.inner"]["self_s"] == pytest.approx(
        durations[0])
