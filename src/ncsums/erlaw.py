"""Sliding-window maxima at the rate-matched window length.

The window length b_n = floor(ln n / I(alpha)) ties the window count to the
tail decay rate, which makes the maximal window average converge to alpha.
Experiments sweep (alpha, n, seed) grids with one trajectory per seed,
reused across all smaller n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import FiniteDistribution, Observable
from .rates import CramerRate
from .simulate import _BLOCK, MASK64, _thread_map, trajectory


def window_max(prefix, b: int) -> float:
    """Largest increment prefix[m+b] - prefix[m] over 0 <= m <= n-b.

    The increments are formed _BLOCK windows at a time in one buffer, so the
    memory it takes does not grow with n.
    """
    arr = np.asarray(prefix, dtype=np.float64)
    n = arr.size - 1
    if b < 1:
        raise InputError("window length b must be >= 1")
    if b > n:
        raise InputError(f"window length {b} exceeds trajectory length {n}")
    diff, best = np.empty(min(n - b + 1, _BLOCK)), -math.inf
    for m0 in range(0, n - b + 1, _BLOCK):
        d = diff[: min(_BLOCK, n - b + 1 - m0)]
        np.subtract(arr[m0 + b : m0 + b + d.size], arr[m0 : m0 + d.size], out=d)
        best = max(best, float(d.max()))
    return best


def b_window(n: int, i_alpha: float) -> int:
    """floor(ln n / I(alpha)), clamped to >= 1.

    The floor carries a few-ulp guard so a quotient that is an integer up to
    floating-point rounding is not knocked down a full unit.
    """
    if n < 3:
        raise InputError("n must be >= 3")
    if not (i_alpha > 0.0 and math.isfinite(i_alpha)):
        raise InputError("I(alpha) must be finite and positive (alpha inside (0, sup_pos))")
    x = math.log(n) / i_alpha
    b = math.floor(x + 4.0 * math.ulp(x))
    return max(1, b)


@dataclass(frozen=True)
class ErPoint:
    """One (alpha, n, seed) sliding-window measurement."""

    n: int
    alpha: float
    i_alpha: float
    b_n: int
    seed: int
    mode: str
    max_increment: float
    statistic: float  # max_increment / b_n
    normalized: float  # i_alpha * max_increment / ln n


@dataclass(frozen=True)
class ErSummary:
    alpha: float
    n: int
    mean_statistic: float
    min_statistic: float
    max_statistic: float
    mean_abs_dev: float
    max_abs_dev: float


@dataclass(frozen=True)
class ExperimentResult:
    points: tuple[ErPoint, ...]
    summaries: tuple[ErSummary, ...]


def experiment(
    dist: FiniteDistribution,
    obs: Observable,
    alpha_grid,
    n_grid,
    seeds,
    mode: str = "nonconventional",
    threads: int = 1,
) -> ExperimentResult:
    """Window statistics over an (alpha, n, seed) grid.

    One trajectory per seed is built at max(n_grid); smaller n reuse its
    prefix.  Rows are sorted by (alpha, n, seed), so the output does not
    depend on the thread count.
    """
    alpha_grid = [float(a) for a in alpha_grid]
    n_grid = [int(n) for n in n_grid]
    seeds = [int(s) for s in seeds]
    if not alpha_grid or not n_grid or not seeds:
        raise InputError("alpha_grid, n_grid and seeds must be non-empty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InputError("n_grid must be strictly increasing")
    # a repeat would be run again and counted twice; seed s + 2**64 is seed s
    streams = [s & MASK64 for s in seeds]
    for name, grid, keys in (("alpha_grid", alpha_grid, alpha_grid), ("seeds", seeds, streams)):
        first = {}
        for v, k in zip(grid, keys):
            if k in first:
                raise InputError(f"{name} must not repeat a value, but {v} repeats {first[k]}")
            first[k] = v
    rate = CramerRate(dist, obs)  # rejects zero-variance observables
    i_of: dict[float, float] = {}
    for a in alpha_grid:
        if not 0.0 < a < obs.sup_pos:
            raise InputError(f"alpha={a} outside (0, sup_pos={obs.sup_pos})")
        i_of[a] = rate(a)
        if not (math.isfinite(i_of[a]) and i_of[a] > 0.0):
            raise InputError(f"I({a}) = {i_of[a]} is not finite positive")
    n_max = n_grid[-1]

    def rows_for_seed(seed: int) -> list[ErPoint]:
        prefix = trajectory(dist, obs, seed, n_max, mode)
        out = []
        for a in alpha_grid:
            for n in n_grid:
                b = b_window(n, i_of[a])
                mx = window_max(prefix[: n + 1], b)
                out.append(
                    ErPoint(
                        n=n,
                        alpha=a,
                        i_alpha=i_of[a],
                        b_n=b,
                        seed=seed,
                        mode=mode,
                        max_increment=mx,
                        statistic=mx / b,
                        normalized=i_of[a] * mx / math.log(n),
                    )
                )
        return out

    chunks = _thread_map(rows_for_seed, seeds, threads)
    points = sorted(
        (p for chunk in chunks for p in chunk), key=lambda p: (p.alpha, p.n, p.seed)
    )
    summaries = []
    for a in sorted(alpha_grid):
        for n in n_grid:
            stats = [p.statistic for p in points if p.alpha == a and p.n == n]
            devs = [abs(x - a) for x in stats]
            summaries.append(
                ErSummary(
                    alpha=a,
                    n=n,
                    mean_statistic=math.fsum(stats) / len(stats),
                    min_statistic=min(stats),
                    max_statistic=max(stats),
                    mean_abs_dev=math.fsum(devs) / len(devs),
                    max_abs_dev=max(devs),
                )
            )
    return ExperimentResult(points=tuple(points), summaries=tuple(summaries))
