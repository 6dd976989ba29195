"""The benchmark's workloads: two ncsums CLI commands each, with their checks.

Every workload runs exactly two commands, reported as ``cmd1_s`` and
``cmd2_s`` so that all workloads share one set of end-to-end metrics; the
table in README.md maps each slot to its command.  ``smoke=True`` shrinks
every input so a whole run takes seconds; the checks are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks
from metrics import WORKLOAD_NAMES

PRESET = ("--preset", "rademacher-product")
COMMON = ("--no-timestamp", "--threads", "1")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    # check(stdout, run_cli) -> problems; run_cli(argv) -> (exit code, stdout, stderr)
    check: Callable[[str, Callable], list[str]]


def _cmd(label, argv, check) -> Command:
    return Command(label, tuple(argv) + PRESET + COMMON, check)


def theory_l3(seed: int, smoke: bool) -> list[Command]:
    # No random input: the seed is ignored.
    p_tol, lambdas = (1e-2 if smoke else 2e-3), (0.5, 1.0)
    j_tol, us = (5e-2 if smoke else 2e-2), (0.5,)
    return [
        _cmd(
            "pressure_l3",
            ["pressure", "--ell", "3", "--lambda", "0.5,1", "--tol", str(p_tol)],
            lambda out, run: checks.check_pressure_l3(out, p_tol, lambdas),
        ),
        _cmd(
            "rate_j_l3",
            ["rate-j", "--ell", "3", "--u", "0.5", "--tol", str(j_tol), "--lambda-cap", "1.5"],
            lambda out, run: checks.check_rate_j_l3(out, j_tol, us),
        ),
    ]


def window_law(seed: int, smoke: bool) -> list[Command]:
    alpha = 0.5
    ns = (1_000, 10_000) if smoke else (10_000, 1_000_000)
    seeds = tuple(range(seed, seed + (2 if smoke else 3)))
    n_arg = ",".join(str(n) for n in ns)
    seed_arg = ",".join(str(s) for s in seeds)
    return [
        _cmd(
            f"erlaw_l{ell}",
            ["erlaw", "--ell", str(ell), "--alpha", str(alpha), "--n", n_arg,
             "--seed-list", seed_arg],
            lambda out, run, ell=ell: checks.check_erlaw(out, ell, alpha, ns, seeds),
        )
        for ell in (2, 3)
    ]


def tail_mc(seed: int, smoke: bool) -> list[Command]:
    N, u, theory_tol = 60, 0.3, 1e-6
    replicas = 20_000 if smoke else 300_000
    j_tol = 1e-10
    us = [round(0.1 + 0.2 * k, 2) for k in range(5)] if smoke else [
        round(0.005 * k, 3) for k in range(1, 200)
    ]
    u_arg = "0.1:0.9:0.2" if smoke else "0.005:0.995:0.005"
    ldp = ["ldp-check", "--ell", "2", "--N", str(N), "--u", str(u), "--seed", str(seed)]

    def check_ldp(out, run):
        problems = checks.check_ldp(out, N, u, replicas, theory_tol)
        prefix_argv = ldp + ["--replicas", str(checks.LDP_SCALAR_REPLICAS), "--skip-theory"]
        code, prefix_out, err = run(tuple(prefix_argv) + PRESET + COMMON)
        if code != 0:
            return problems + [f"prefix ldp-check exited {code}: {err.strip()}"]
        return problems + checks.check_ldp_prefix(prefix_out, seed, N, u, 2)

    return [
        _cmd("ldp_check", ldp + ["--replicas", str(replicas)], check_ldp),
        _cmd(
            "rate_j_l2",
            ["rate-j", "--ell", "2", "--u", u_arg, "--tol", str(j_tol)],
            lambda out, run: checks.check_rate_j_l2(out, j_tol, us),
        ),
    ]


def trajectory_dump(seed: int, smoke: bool) -> list[Command]:
    # CSV renders about 2.5x faster per row than JSON, so it gets more rows
    # and the two commands take about as long.
    n_csv, n_json = (40_000, 15_000) if smoke else (400_000, 150_000)
    return [
        _cmd(
            "simulate_csv",
            ["simulate", "--n", str(n_csv), "--seed", str(seed)],
            lambda out, run: checks.check_simulate_csv(out, seed, n_csv, 2),
        ),
        _cmd(
            "simulate_json",
            ["simulate", "--n", str(n_json), "--seed", str(seed), "--format", "json"],
            lambda out, run: checks.check_simulate_json(out, seed, n_json, 2),
        ),
    ]


WORKLOADS = dict(zip(WORKLOAD_NAMES, (theory_l3, window_law, tail_mc, trajectory_dump)))


def workload_seed(seed: int) -> int:
    """The program's seed for a benchmark seed: small enough to survive the
    CLI's float parsing of --seed-list exactly."""
    return 1 + seed % 1_000_000
