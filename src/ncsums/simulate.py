"""Reproducible trajectories and Monte-Carlo tail estimation.

Randomness is addressed by counter, not by stream: draw i of stream ``seed``
is fin(seed + i*GAMMA) where fin is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64 and GAMMA = 0x9E3779B97F4A7C15.  The top
53 bits map to a uniform in [0, 1), which selects a support index through
the cumulative probabilities.  Replica seeds derive the same way,
seed_r = fin(root + r*GAMMA), so replicas are order-independent.  Dilated
sums need draws at indices up to ell*n; counter addressing keeps that O(1)
in memory and identical across runs, platforms, and thread counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lattice import PrimeBasis
from .model import FiniteDistribution, Observable

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)

TRAJECTORY_MODES = ("nonconventional", "iid")

_BLOCK = 1 << 18
_LDP_CHUNK = 1 << 15


def mix64(key: int, counter: int) -> int:
    """Reference scalar mixer; the batch path must match it bit for bit."""
    z = (key + counter * GAMMA) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix_batch(keys, counters: np.ndarray) -> np.ndarray:
    """Vectorized mix64, broadcasting ``keys`` against the ``counters`` array.

    ``keys`` is one Python-int seed or an array of stream keys.  A Python
    int is reduced modulo 2**64 first, so negative and oversized seeds
    address the same stream as in mix64 (numpy refuses to convert them).
    """
    if isinstance(keys, int):
        keys = np.uint64(keys & MASK64)
    z = np.asarray(keys, dtype=np.uint64) + counters.astype(np.uint64) * _U_GAMMA
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


def x_value(dist: FiniteDistribution, seed: int, i: int) -> int:
    """Support index of draw i >= 1 of the stream ``seed``."""
    if i < 1:
        raise InputError("draw index i must be >= 1")
    u = (mix64(seed, i) >> 11) * 2.0**-53
    cum = dist.cumulative().tolist()
    return bisect_right(cum, u)


def sample_indices(dist: FiniteDistribution, keys, counters: np.ndarray) -> np.ndarray:
    """Support indices of draws ``counters`` of streams ``keys`` (see mix_batch)."""
    u = (mix_batch(keys, counters) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.searchsorted(dist.cumulative(), u, side="right").astype(np.int64)


def term_values(dist: FiniteDistribution, obs: Observable, keys, ms, mode: str) -> np.ndarray:
    """F at 1-based term numbers ``ms`` of streams ``keys``, broadcast against ``ms``.

    This is the draw-addressing contract, written once: for j = 1..ell a
    nonconventional term m reads draw j*m, an i.i.d. term reads draw
    (m-1)*ell + j.
    """
    ms = np.asarray(ms, dtype=np.uint64)
    code = 0
    for j in range(1, obs.ell + 1):
        if mode == "nonconventional":
            counters = ms * np.uint64(j)
        else:
            counters = (ms - np.uint64(1)) * np.uint64(obs.ell) + np.uint64(j)
        code = code * dist.size + sample_indices(dist, keys, counters)
    return obs.table[code]


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    seed: int
    n: int
    dist: FiniteDistribution
    obs: Observable
    mode: str = "nonconventional"

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.mode not in TRAJECTORY_MODES:
            raise InputError(f"mode must be one of {TRAJECTORY_MODES}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    spec: TrajectorySpec
    prefix: np.ndarray  # S_0 = 0, S_1, ..., S_n

    @property
    def increments(self) -> np.ndarray:
        return self.prefix[1:] - self.prefix[:-1]


def trajectory(spec: TrajectorySpec) -> Trajectory:
    """Prefix sums of the sum that ``spec.mode`` names (see term_values).

    In mode "nonconventional" term m reads draws m, 2m, ..., ell*m; in mode
    "iid" each term reads a fresh ell-tuple of draws.
    """
    n = spec.n
    prefix = np.empty(n + 1, dtype=np.float64)
    prefix[0] = 0.0
    total = 0.0
    comp = 0.0  # Kahan compensation keeps long prefixes exact-ish
    pos = 1
    for m0 in range(1, n + 1, _BLOCK):
        m1 = min(n + 1, m0 + _BLOCK)
        ms = np.arange(m0, m1, dtype=np.uint64)
        block = term_values(spec.dist, spec.obs, spec.seed, ms, spec.mode)
        for x in block.tolist():
            y = x - comp
            t = total + y
            comp = (t - total) - y
            total = t
            prefix[pos] = total
            pos += 1
    return Trajectory(spec=spec, prefix=prefix)


@dataclass(frozen=True)
class LdpEstimate:
    N: int
    u: float
    replicas: int
    p_hat: float
    rate_hat: float
    ci_low: float
    ci_high: float
    zero_count: bool


def _ldp_chunk_count(
    dist: FiniteDistribution,
    obs: Observable,
    N: int,
    u: float,
    seed: int,
    r0: int,
    r1: int,
    mode: str,
) -> int:
    keys = mix_batch(seed, np.arange(r0, r1, dtype=np.uint64))
    total = np.zeros(r1 - r0, dtype=np.float64)
    for m in range(1, N + 1):
        total += term_values(dist, obs, keys, [m], mode)
    return int(np.count_nonzero((total / N) >= u))


def ldp_estimate(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    N: int,
    u: float,
    replicas: int,
    seed: int,
    mode: str = "nonconventional",
    threads: int = 1,
) -> LdpEstimate:
    """Empirical tail P{S_N / N >= u} over independent replicas.

    rate_hat = -ln(p_hat)/N, reported as +inf with the zero_count flag when
    no replica exceeds.  The confidence interval is the binomial normal
    approximation on p_hat mapped through -ln(.)/N.  Replica seeds are
    derived by index, so the result is independent of thread count.
    """
    if basis.ell != obs.ell:
        raise InputError(f"basis ell={basis.ell} does not match observable ell={obs.ell}")
    if replicas < 1000:
        raise InputError("replicas must be >= 1000")
    if not u > 0:
        raise InputError("u must be positive")
    if mode not in TRAJECTORY_MODES:
        raise InputError(f"mode must be one of {TRAJECTORY_MODES}")
    bounds = [(r0, min(replicas, r0 + _LDP_CHUNK)) for r0 in range(0, replicas, _LDP_CHUNK)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(
                pool.map(
                    lambda b: _ldp_chunk_count(dist, obs, N, u, seed, b[0], b[1], mode),
                    bounds,
                )
            )
    else:
        counts = [_ldp_chunk_count(dist, obs, N, u, seed, r0, r1, mode) for r0, r1 in bounds]
    hits = sum(counts)
    p_hat = hits / replicas
    zero = hits == 0
    rate_hat = math.inf if zero else -math.log(p_hat) / N
    se = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    p_lo = max(0.0, p_hat - 1.96 * se)
    p_hi = min(1.0, p_hat + 1.96 * se)
    ci_low = math.inf if p_hi <= 0.0 else max(0.0, -math.log(p_hi) / N)
    ci_high = math.inf if p_lo <= 0.0 else -math.log(p_lo) / N
    return LdpEstimate(
        N=N,
        u=u,
        replicas=replicas,
        p_hat=p_hat,
        rate_hat=rate_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        zero_count=zero,
    )
