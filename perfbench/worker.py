"""One workload process: a closed loop of one client running CLI commands in-process.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``ready`` once ``ncsums.cli`` is imported and the first command is
built (run.py times launch-to-ready as set-up), then runs the workload's
two-command job back to back until ``--seconds`` is used, checks the
outputs, and prints one JSON line of results.  Each command is bracketed by
the reference loop of hostspeed.py, so its time is also reported corrected
for host speed.  ``--probe`` exits right
after ``ready``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import numpy
from ncsums import cli

import hostspeed
import spans
import workloads

MIN_JOBS = 3  # e2e runs: at least this many jobs, however long they take
MIN_TRACED = 2  # traced runs: counts must repeat across at least two traced jobs


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_job(commands, tracer=None) -> dict:
    """Run the command list once; returns per-command wall and corrected times,
    exit codes and outputs.  Neither the reference loops around the commands
    nor the garbage collection before each one is part of any time, so no
    command pays for garbage that an earlier one left."""
    times, codes, outs = [], [], []
    refs = [hostspeed.loop_s()]
    for cmd in commands:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, out, _ = run_cli(cmd.argv)
            else:
                tracer.op += 1
                with tracer.span("cli.command"):
                    code, out, _ = run_cli(cmd.argv)
        except Exception as exc:  # a crash counts as a failed command
            code, out = f"exception {type(exc).__name__}: {exc}", ""
        times.append(time.perf_counter() - t0)
        refs.append(hostspeed.loop_s())
        codes.append(code)
        outs.append(out)
    fixed = [hostspeed.corrected(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]
    return {
        "job_s": sum(times),
        "cmd_s": times,
        "job_fixed_s": sum(fixed),
        "cmd_fixed_s": fixed,
        "codes": codes,
        "outs": outs,
        "ops": set(range(tracer.op - len(commands) + 1, tracer.op + 1)) if tracer else set(),
    }


def count_rows(out: str) -> int:
    """Data rows in one output: CSV lines after the header, or JSON row entries."""
    if out.startswith("{"):
        doc = json.loads(out)
        return len(doc.get("rows") or doc.get("points") or [])
    return max(0, out.count("\n") - 1)


class Verdicts:
    """Checks each distinct output once; a command fails on a non-zero exit,
    a failed check, or output that differs from its first run."""

    def __init__(self, commands):
        self.commands = commands
        self.first_hash: list[str | None] = [None] * len(commands)
        self.seen: dict[tuple[int, str], tuple[bool, int]] = {}  # -> (ok, rows)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, job: dict):
        """Judge the job's outputs, then replace them by their (bytes, rows) sizes."""
        sizes = []
        for i, (cmd, code, out) in enumerate(zip(self.commands, job["codes"], job["outs"])):
            self.attempted += 1
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.first_hash[i] is None:
                self.first_hash[i] = digest
            key = (i, digest)
            if key not in self.seen:
                problems = [] if code == 0 else [f"exit {code}"]
                if code == 0:
                    try:
                        problems += cmd.check(out, run_cli)
                    except Exception as exc:  # malformed output fails its check
                        problems.append(f"check raised {type(exc).__name__}: {exc}")
                if digest != self.first_hash[i]:
                    problems.append("output differs from the first run of the same command")
                self.problems += [f"{cmd.label}: {p}" for p in problems]
                self.seen[key] = (not problems, count_rows(out) if code == 0 else 0)
            ok, rows = self.seen[key]
            self.failed += not ok
            sizes.append((len(out.encode()), rows))
        job["outs"] = sizes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out", default=None, help="file for the traced run's spans")
    args = ap.parse_args()
    seed = workloads.workload_seed(args.seed)
    commands = workloads.WORKLOADS[args.workload](seed, args.smoke)
    print("ready", flush=True)
    if args.probe:
        return

    verdicts = Verdicts(commands)
    min_jobs = 1 if args.smoke else MIN_JOBS
    jobs, traced_jobs, peak_rss_mb = [], [], None
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
    t_start = time.perf_counter()
    while True:
        # e2e: one untraced job per round; traced: an untraced and a traced job
        job = run_job(commands)
        if peak_rss_mb is None:  # the job's own peak, before any check runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs.append(job)
        round_s = job["job_s"]
        if tracer is not None:
            with spans.patched(tracer):
                tjob = run_job(commands, tracer)
            traced_jobs.append(tjob)
            round_s += tjob["job_s"]
        verdicts.record(job)
        if tracer is not None:
            verdicts.record(tjob)
        done = len(traced_jobs) if tracer else len(jobs)
        enough = done >= (MIN_TRACED if tracer else min_jobs)
        if enough and time.perf_counter() - t_start + round_s > args.seconds:
            break

    result = {
        "peak_rss_mb": peak_rss_mb,
        "job_s": [j["job_s"] for j in jobs],
        "cmd_s": [[j["cmd_s"][i] for j in jobs] for i in range(len(commands))],
        "job_fixed_s": [j["job_fixed_s"] for j in jobs],
        "cmd_fixed_s": [[j["cmd_fixed_s"][i] for j in jobs] for i in range(len(commands))],
        "labels": [c.label for c in commands],
        "argv": [" ".join(c.argv) for c in commands],
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "traced_jobs": len(traced_jobs),
        "problems": verdicts.problems,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        per_job = []
        for tj in traced_jobs:
            layers = spans.job_layers(tracer.spans, tj["ops"], tj["job_s"])
            layers["cli.out_bytes"] = sum(b for b, _ in tj["outs"])
            layers["cli.rows"] = sum(r for _, r in tj["outs"])
            per_job.append(layers)
        layers, mismatched = spans.summarize(per_job)
        layers["trace.overhead_s"] = layers["trace.job_s"] - statistics.median(result["job_s"])
        result["layers"] = layers
        result["problems"] += [f"count {name} differs between traced jobs" for name in mismatched]
        if args.spans_out:
            tracer.dump(args.spans_out, {"workload": args.workload, "seed": seed})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
