"""One fresh benchmark process: set up starcert, then run jobs in a closed loop.

A single client calls ``starcert.cli.main(argv)`` in-process for one job after
another, as a user would run ``starcert certify|prepare-state|scan``.  Modes:

  probe    import starcert and run the warm-up job, then stop;
  measure  then run whole cycles of jobs until ``--seconds`` have passed;
  step     then print ``ready`` and run one cycle per ``cycle`` line read
           from standard input, answering ``done <seconds so far>``,
           until standard input closes.  The launcher alternates a traced
           and an untraced ``step`` worker this way, so both see the same
           host conditions.

``--traced`` records spans around starcert's public calls (see spans.py) from
the first measured job on.  Inputs of each cycle are generated and written
before the cycle is timed; outputs are checked after it.  The warm-up job's
files are written by the launcher, so input generation stays out of the
set-up time.  Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import starcert.cli  # noqa: E402  (set-up cost is part of what is measured)
import reference  # noqa: E402  (numpy only; its own directory is on the path)

# How long the kernel runs right after set-up to gauge the host for setup_s;
# the host's speed moves within tenths of a second.
SETUP_GAUGE_S = 0.15


def run_job(argv):
    """Call the CLI once; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = starcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising job counts as failed, the run goes on
            code = None
            err.write(repr(exc))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Client:
    """The closed loop: runs whole cycles of jobs and keeps their results.

    A reference kernel (reference.py) is timed before the first job of a
    cycle and after every job; job and CPU times are also kept scaled to the
    reference host speed."""

    def __init__(self, workloads, args, tracer=None):
        self.workloads, self.args, self.tracer = workloads, args, tracer
        self.kernel = reference.KERNEL_OF[args.workload]
        self.latencies, self.scaled, self.kernel_ms, self.failures = [], [], [], []
        self.elapsed = self.cpu = self.scaled_cpu = 0.0
        self.next_job = 0

    def fail(self, job_id, reason, stderr):
        self.failures.append({"job": job_id, "reason": reason, "stderr": stderr[-500:]})

    def run_cycle(self):
        wl, args = self.workloads, self.args
        batch = [wl.make_job(args.workload, args.seed, self.next_job + k, args.workdir)
                 for k in range(wl.CYCLE[args.workload])]
        for job in batch:
            job.write()
        outputs, cpu = [], []
        start = time.perf_counter()
        gauges = [reference.kernel_ms(self.kernel)]
        for job in batch:
            if self.tracer is not None:
                self.tracer.job_id = job.job_id
            cpu0 = time.process_time()
            outputs.append(run_job(job.argv))
            cpu.append(time.process_time() - cpu0)
            gauges.append(reference.kernel_ms(self.kernel))
        self.elapsed += time.perf_counter() - start
        self.kernel_ms += gauges
        # each job is scaled by the mean of the kernel times just before and after it
        reference_ms = reference.REFERENCE_MS[self.kernel]
        scales = [2 * reference_ms / (a + b) for a, b in zip(gauges, gauges[1:])]
        for job, (code, stdout, stderr, seconds), job_cpu, scale in zip(
                batch, outputs, cpu, scales):
            self.cpu += job_cpu
            self.latencies.append(seconds)
            self.scaled.append(seconds * scale)
            self.scaled_cpu += job_cpu * scale
            reason = wl.check(job, code, stdout)
            if reason:
                self.fail(job.job_id, reason, stderr)
            job.remove()
        self.next_job += len(batch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["probe", "measure", "step"], required=True)
    parser.add_argument("--warm", required=True, help="warm-up job manifest")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="where a traced worker saves its spans")
    args = parser.parse_args(argv)

    with open(args.warm) as fh:
        warm = json.load(fh)
    code, stdout, stderr, _ = run_job(warm["argv"])
    ready = time.monotonic()

    import workloads  # after set-up: generation is not part of it

    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        wrapped = spans.install(tracer)
    client = Client(workloads, args, tracer)
    warm_job = workloads.Job(warm["workload"], -1, warm["argv"], expect=warm["expect"])
    reason = workloads.check(warm_job, code, stdout)
    if reason:
        client.fail(-1, reason, stderr)

    setup_kernel_ms = reference.median_ms(client.kernel, SETUP_GAUGE_S)
    if args.mode == "measure":
        while client.elapsed < args.seconds:
            client.run_cycle()
    elif args.mode == "step":
        print("ready", flush=True)
        for line in sys.stdin:
            if line.strip() != "cycle":
                break
            client.run_cycle()
            print(f"done {client.elapsed!r}", flush=True)

    result = {
        "ready": ready,
        "setup_kernel_ms": setup_kernel_ms,
        "attempted": 1 + client.next_job,
        "failures": client.failures,
        "jobs": client.next_job,
        "latencies_s": client.latencies,
        "scaled_s": client.scaled,
        "kernel_ms": client.kernel_ms,
        "cpu_s": client.cpu,
        "scaled_cpu_s": client.scaled_cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result.update(spans=len(tracer), wrapped=wrapped, layers=tracer.summary())
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
