"""ncsums benchmark: times CLI workloads end to end, or per layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload theory-l3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload theory-l3 --seed 1 --seconds 2 --trace 0 --smoke

Each run launches fresh worker processes (see worker.py) with BLAS/OpenMP
pinned to one thread and NCSUMS_THREADS unset, all on one CPU.  Set-up time
is measured on ten launches that exit once ready; one more launch then runs
the workload's job in a closed loop for --seconds.  Every time reported with
tracing off is corrected for host speed (see hostspeed.py); the printed
table gives the plain wall-time medians beside them.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the line before it carries the run
metadata.  Exits non-zero without a result when the checkout has no
``src/ncsums`` to benchmark or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from metrics import DERIVED, E2E_METRICS, LAYER_METRICS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ncsums"
OUT_DIR = ROOT / ".bench_out"

SETUP_LAUNCHES = 10  # timed set-up probes per run
RUN_DEADLINE_S = 170.0  # the whole run, set-up included, must end within this


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NCSUMS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"  # the same str hashing, so the same dict layouts, in every process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def launch(worker_args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the time from launch until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return its stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker still running after {RUN_DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def metadata(args, worker: dict, setup: list[float]) -> dict:
    files = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "src_ncsums_lines": sum(len(f.read_text().splitlines()) for f in files),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "jobs": len(worker["job_s"]),
        "setup_launches": len(setup),
        "commands": {
            slot: {"label": label, "argv": argv_text}
            for slot, label, argv_text in zip(("cmd1", "cmd2"), worker["labels"], worker["argv"])
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; a run takes seconds")
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"no ncsums sources under {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    hostspeed.pin_to_one_cpu()
    env = child_env()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        worker_args.append("--smoke")
    launches = 1 if args.smoke else SETUP_LAUNCHES
    setup, setup_fixed = [], []
    try:
        # an untimed first launch writes bytecode caches, as an installed package has them
        finish(launch(worker_args + ["--probe"], env)[0], RUN_DEADLINE_S)
        ref = hostspeed.loop_s()
        for _ in range(launches):
            probe, setup_s = launch(worker_args + ["--probe"], env)
            finish(probe, RUN_DEADLINE_S - (time.perf_counter() - t_run))
            ref_after = hostspeed.loop_s()
            setup.append(setup_s)
            setup_fixed.append(hostspeed.corrected(setup_s, ref, ref_after))
            ref = ref_after
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans_out = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            worker_args += ["--spans-out", str(spans_out)]
        proc, _ = launch(worker_args, env)
        out = finish(proc, RUN_DEADLINE_S - (time.perf_counter() - t_run))
        worker = json.loads(out.splitlines()[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: worker["layers"][name] for name in LAYER_METRICS}
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(setup_fixed),
            "job_s": statistics.median(worker["job_fixed_s"]),
            "peak_rss_mb": worker["peak_rss_mb"],
            "cmd1_s": statistics.median(worker["cmd_fixed_s"][0]),
            "cmd2_s": statistics.median(worker["cmd_fixed_s"][1]),
        }
        units = E2E_METRICS
        wall = {
            "setup_s": statistics.median(setup),
            "job_s": statistics.median(worker["job_s"]),
            "cmd1_s": statistics.median(worker["cmd_s"][0]),
            "cmd2_s": statistics.median(worker["cmd_s"][1]),
        }
    jobs = worker["traced_jobs"] if args.trace else len(worker["job_s"])
    samples = {"setup_s": len(setup), "peak_rss_mb": 1}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {jobs} jobs")
    for slot, label, argv_text in zip(("cmd1", "cmd2"), worker["labels"], worker["argv"]):
        print(f"  {slot} ({label}): ncsums {argv_text}")
    for name, value in values.items():
        note = " (derived)" if name in DERIVED else ""
        n = samples.get(name, jobs)
        if not args.trace and name in wall:
            note += f" (wall {wall[name]:.6g} s)"
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} median of {n}{note}")
    for problem in worker["problems"]:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(metadata(args, worker, setup)))
    print(json.dumps({
        "correct": worker["failed"] == 0 and not worker["problems"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
