"""starcert benchmark launcher.

    python3 perfbench/run.py --workload certify-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; starcert is imported from ``src/``.
Each workload runs in fresh worker processes (see worker.py) with one BLAS
thread.

--trace 0  launches SETUP_SAMPLES workers; each pays process start,
           ``import starcert`` and one untimed warm-up job (``setup_s`` is the
           median, each scaled to the reference host speed by the kernel
           timed for 0.15 s right after it).  The last one then runs jobs for
           ``--seconds``, each followed by a reference kernel, and reports
           the end-to-end metrics with job and CPU times at the reference
           host speed (see reference.py).
--trace 1  starts a traced and an untraced worker on the same jobs; they
           take turns, one cycle each, until the traced one has run for half
           of ``--seconds``.  Reports per-layer metrics per job from the
           traced worker, and the tracing overhead from the pair.

The last line of standard output is the result object; the line before it
holds run metadata (git commit, versions, BLAS, cores, the unscaled times
and the quartiles of the reference kernel's time, which show host speed).
Details and spans are written under ``.perfbench_out/``; inputs live in
``.perfbench_work/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# One BLAS thread: with two, a job's time also depends on whether a neighbour
# on the shared host holds the second core, which no single-core reference
# kernel can gauge (certify-n4 at 2 threads: CPU/wall 1.46 in some runs,
# 1.0 in others, and a 0.17 spread of the scaled p50 over 5 seeds).
BLAS_THREADS = 1
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Each name is <span name>.<stat>, or <module>.self_ms for a module's total.
PER_LAYER = (
    "certify.check_povm_conditions.self_ms",
    "certify.check_projective_conditions.self_ms",
    "certify.reference_ranks.self_ms",
    "network.CorrelationTable.correlator.calls",
    "network.CorrelationTable.correlator.self_ms",
    "measurements.pauli_coeffs.calls",
    "measurements.pauli_coeffs.self_ms",
    "measurements.pauli_coeffs.useful_frac",
    "certify.post_measurement_state.calls",
    "certify.post_measurement_state.self_ms",
    "certify.certify_state_preparation.self_ms",
    "network.assemble_joint_state.calls",
    "tensor.kron.calls",
    "tensor.kron.out_mb",
    "tensor.partial_trace.self_ms",
    "network.Scenario.init.self_ms",
    "network.EveMeasurement.init.calls",
    "network.EveMeasurement.init.self_ms",
    "measurements.Povm.init.calls",
    "measurements.Povm.init.self_ms",
    "measurements.trine_povm.self_ms",
    "measurements.embed_rank1_povm.self_ms",
    "presets.ideal_scenario.self_ms",
    "tensor.hermitian_eig.calls",
    "tensor.is_psd.calls",
    "network.born_table.calls",
    "network.born_table.self_ms",
    "bell.bell_value.calls",
    "bell.bell_value.self_ms",
    "bell.evaluate_bell.errors",
    "certify.check_part1.self_ms",
    "certify.noise_scan.self_ms",
    "network.load_scenario.self_ms",
    "measurements.load_povm.self_ms",
    "cli.main.self_ms",
    "cli.self_ms",
    "network.self_ms",
    "bell.self_ms",
    "measurements.self_ms",
    "certify.self_ms",
    "presets.self_ms",
    "tensor.self_ms",
    "trace.overhead_frac",
)

UNITS = {"calls": "count", "errors": "count", "self_ms": "ms", "out_mb": "MB",
         "useful_frac": "frac", "overhead_frac": "frac"}


class RunError(Exception):
    pass


def per_layer_metrics(layers: dict, jobs: int, overhead: float) -> dict:
    """Per-job layer metrics from a traced worker's span summary."""
    def total(label, field):
        return layers.get(label, {}).get(field, 0.0)

    out = {}
    for metric in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if stat == "overhead_frac":
            value = overhead
        elif stat == "useful_frac":
            computed = total(head, "p1")
            value = total(head, "p0") / computed if computed else 0.0
        elif stat == "out_mb":
            value = total(head, "p0") / 1e6 / jobs
        elif stat == "self_ms" and "." not in head:
            value = 1e3 * sum(v["self_s"] for k, v in layers.items()
                              if k.startswith(head + ".")) / jobs
        elif stat == "self_ms":
            value = 1e3 * total(head, "self_s") / jobs
        else:
            value = total(head, stat) / jobs
        out[metric] = {"value": value, "unit": UNITS[stat]}
    return out


def job_times(latencies_s: list, cpu_s: float) -> dict:
    lat_ms = [1e3 * s for s in latencies_s]
    return {
        "jobs_per_s": len(lat_ms) / sum(latencies_s),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "cpu_ms_per_job": 1e3 * cpu_s / len(lat_ms),
    }


def end_to_end_metrics(run: dict, setups: list) -> dict:
    """Job and CPU times at the reference host speed (see reference.py)."""
    values = dict(job_times(run["scaled_s"], run["scaled_cpu_s"]),
                  peak_rss_mb=run["peak_rss_kb"] / 1024.0,
                  setup_s=statistics.median(setups))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def raw_times(run: dict) -> dict:
    """The measured times before scaling, and the host speed beside them."""
    raw = {f"raw_{k}": v for k, v in job_times(run["latencies_s"], run["cpu_s"]).items()}
    return dict(raw, kernel_ms_quartiles=statistics.quantiles(run["kernel_ms"], n=4))


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


class Worker:
    """A worker.py process; its standard error goes to a file in the work dir."""

    def __init__(self, name, ctx, mode, *options):
        self.name, self.ctx = name, ctx
        self.out = os.path.join(ctx.workdir, f"{name}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--warm", ctx.warm_path, "--out", self.out, "--workload", ctx.workload,
               "--seed", str(ctx.seed), "--workdir", ctx.workdir, *options]
        self.stderr = open(os.path.join(ctx.workdir, f"{name}.err"), "w+")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=ctx.env, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr)

    def command(self, line):
        """Send one line (None: just read) and wait for the one-line answer."""
        if line is not None:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.ctx.deadline - time.monotonic()))
        answer = self.proc.stdout.readline() if ready else ""
        if not answer:
            raise RunError(f"{self.name} worker did not answer {line!r}{self._tail()}")
        return answer.strip()

    def result(self) -> dict:
        """Close standard input, wait for the exit and read the results."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=max(1.0, self.ctx.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"{self.name} worker timed out") from None
        if code != 0:
            raise RunError(f"{self.name} worker exited {code}{self._tail()}")
        with open(self.out) as fh:
            result = json.load(fh)
        result["raw_setup_s"] = result["ready"] - self.started
        scale = self.ctx.reference_ms / result["setup_kernel_ms"]
        result["setup_s"] = result["raw_setup_s"] * scale
        return result

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self.stderr):
            if not pipe.closed:
                pipe.close()

    def _tail(self):
        self.stderr.seek(0)
        return ":\n" + self.stderr.read()[-2000:]


def measure(ctx) -> tuple:
    """--trace 0: set-up samples, then the closed loop for ``ctx.seconds``."""
    runs = []
    for k in range(SETUP_SAMPLES):
        last = k == SETUP_SAMPLES - 1
        worker = ctx.start(f"run{k}", "measure" if last else "probe",
                           "--seconds", str(ctx.seconds))
        runs.append(worker.result())
    setups = [r["setup_s"] for r in runs]
    extra = {"setup_samples_s": setups,
             "raw_setup_samples_s": [r["raw_setup_s"] for r in runs]}
    return end_to_end_metrics(runs[-1], setups), runs, extra


def trace(ctx) -> tuple:
    """--trace 1: a traced and an untraced worker take turns, one cycle each,
    until the traced one has run jobs for half of ``ctx.seconds``."""
    spans_path = os.path.join(ctx.out_dir, f"spans-{ctx.workload}.npz")
    traced = ctx.start("traced", "step", "--traced", "--spans", spans_path)
    plain = ctx.start("plain", "step")
    pair, turn, traced_s = (traced, plain), 0, 0.0
    for worker in pair:
        worker.command(None)
    while traced_s < ctx.seconds / 2:
        for worker in (pair if turn % 2 == 0 else pair[::-1]):
            answer = worker.command("cycle")
            if worker is traced:
                traced_s = float(answer.split()[1])
        turn += 1
    runs = [traced.result(), plain.result()]
    p50 = [statistics.median(r["scaled_s"]) for r in runs]
    overhead = (p50[0] - p50[1]) / p50[1]
    metrics = per_layer_metrics(runs[0]["layers"], runs[0]["jobs"], overhead)
    extra = {"spans": runs[0]["spans"], "wrapped": runs[0]["wrapped"],
             "spans_file": os.path.relpath(spans_path, ROOT),
             "traced_p50_ms": 1e3 * p50[0], "untraced_p50_ms": 1e3 * p50[1]}
    return metrics, runs, extra


class Context:
    """What every worker of one run shares."""

    def __init__(self, args, env, out_dir, workdir):
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.env, self.out_dir, self.workdir = env, out_dir, workdir
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.warm_path = os.path.join(workdir, "warm.json")
        self.reference_ms = reference.REFERENCE_MS[reference.KERNEL_OF[self.workload]]
        self.workers = []

    def start(self, name, mode, *options) -> Worker:
        self.workers.append(Worker(name, self, mode, *options))
        return self.workers[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "starcert", "cli.py")):
        print(f"error: no starcert sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(args, env, out_dir, workdir)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_build(), "nproc": nproc, "blas_threads": BLAS_THREADS,
        "reference_kernel": reference.KERNEL_OF[args.workload],
        "reference_ms": reference.REFERENCE_MS[reference.KERNEL_OF[args.workload]],
    }
    try:
        warm = workloads.make_job(args.workload, args.seed, -1, workdir)
        warm.write()
        with open(ctx.warm_path, "w") as fh:
            json.dump({"workload": warm.workload, "argv": warm.argv,
                       "expect": warm.expect}, fh)
        metrics, runs, extra = (trace if args.trace else measure)(ctx)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for worker in ctx.workers:
            worker.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    main_run = runs[0] if args.trace else runs[-1]
    meta.update(
        extra, jobs=main_run["jobs"], job_samples=len(main_run["latencies_s"]),
        attempted=attempted, failed=len(failures),
        failed_frac=len(failures) / attempted, failures=failures[:20],
        **raw_times(main_run),
    )
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "latencies_s": main_run["latencies_s"],
                   "scaled_s": main_run["scaled_s"],
                   "kernel_ms": main_run["kernel_ms"]}, fh)
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
