"""Reproducible trajectories and Monte-Carlo tail estimation.

Randomness is addressed by counter, not by stream: draw i of stream ``seed``
is fin(seed + i*GAMMA) where fin is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64 and GAMMA = 0x9E3779B97F4A7C15.  The top
53 bits map to a uniform u = (z >> 11) * 2**-53 in [0, 1), which selects the
support index #{i : cum_i <= u} through the cumulative probabilities.  The
batch path never forms u: u is exact and cum_i * 2**53 is exact, so
cum_i <= u exactly when the word z reaches T_i = ceil(cum_i * 2**53) * 2**11,
and the index is the number of integer thresholds T_i <= z.  Replica seeds
derive the same way, seed_r = fin(root + r*GAMMA), so replicas are
order-independent.  Dilated sums need draws at indices up to ell*n; counter
addressing keeps that O(1) in memory and identical across runs, platforms,
and thread counts.

``trajectory`` returns the float64 prefix array S_0 = 0, ..., S_n, summed
block by block with the compensated prefix form of Sum2 (see its docstring).

The draw kernel (mix_batch, sample_indices, term_values) writes every
intermediate array into a ``Workspace``: one reusable buffer per role, grown
to the largest batch it has served.  A call without a workspace makes a fresh
one.  ``trajectory`` keeps one workspace for the whole call and works in
blocks of _BLOCK = 2**15 terms, so a block's working arrays (256 KB each)
stay in a per-core L2 cache instead of being mapped and faulted in afresh on
every block.  ``trajectory`` and ``replica_sums`` build the thresholds once
per call and hand them to every batch.

``replica_sums``, the replica loop of ``ldp_estimate`` and ``rates.r_l_mc``,
computes each distinct draw of its batch once while its draw table has
room.  Dilated terms share draws:
at ell = 2, terms 1..60 read 120 draws, of which 90 are distinct.  A plan
gives each distinct draw a slot of a small-int table; the draw is computed
just before the first term that reads it, and its slot is freed once the
last term that reads it has been added, so those terms need 17 slots (28
at ell = 3).  Each term gathers its table code from its slots, and the
terms are added in the given order, so every sum equals the per-term
loop's bit for bit.  The keys are walked in column blocks of _LDP_CHUNK and
the table is capped at _TABLE_BYTES (1 MiB, 32 slots of a block): when the
terms would hold more draws at once, a draw that finds the table full is
computed again by its next reader.  Narrowing the blocks instead would
keep every draw once, but their per-call cost grows with N: at ell = 2,
N = 3000 a 2**15-key chunk took 4.3 s that way, against 2.1 s for the
per-term loop and 1.3 s for the capped table (2-core x86 host).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .model import FiniteDistribution, Observable

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)

TRAJECTORY_MODES = ("nonconventional", "iid")

_BLOCK = 1 << 15
_LDP_CHUNK = 1 << 15
_TABLE_BYTES = 1 << 20

# A sum of n terms is allowed while n * sup|F| does not exceed this: then
# every partial sum, and every difference of two, is finite in float64.
SUM_LIMIT = 2.0**1022


def mix64(key: int, counter: int) -> int:
    """Reference scalar mixer; the batch path must match it bit for bit."""
    z = (key + counter * GAMMA) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    return z ^ (z >> 31)


class Workspace:
    """Reusable buffers of the draw kernel, one per role.

    ``take`` returns the leading bytes of the role's buffer viewed as an
    array of ``dtype`` and ``shape``, growing the buffer when a batch is
    larger than any before.  So a result that a kernel function wrote into a
    workspace stays valid only until the next call on the same workspace,
    and concurrent callers each need their own.  A caller may take a role
    with another dtype while its contents are dead.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(role)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[role] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def mix_batch(keys, counters, ws: Workspace | None = None) -> np.ndarray:
    """Vectorized mix64 of ``keys`` against ``counters``.

    ``keys`` is one Python-int seed or an array of stream keys.  A Python
    int is reduced modulo 2**64 first, so negative and oversized seeds
    address the same stream as in mix64 (numpy refuses to convert them).
    ``counters`` is an array, broadcast against ``keys``, or one Python int,
    whose step counter*GAMMA mod 2**64 is added to every key in one pass.
    The words are built in the workspace's "word" buffer and the finalizer
    rounds run on it in place, with the "shifted" buffer as scratch.
    """
    ws = Workspace() if ws is None else ws
    if isinstance(keys, int):
        keys = np.uint64(keys & MASK64)
    keys = np.asarray(keys, dtype=np.uint64)
    if isinstance(counters, int):
        z = ws.take("word", np.uint64, keys.shape)
        np.add(keys, np.uint64(counters * GAMMA & MASK64), out=z)
    else:
        counters = counters.astype(np.uint64, copy=False)
        z = ws.take("word", np.uint64, np.broadcast_shapes(keys.shape, counters.shape))
        np.multiply(counters, _U_GAMMA, out=z)
        z += keys
    shifted = ws.take("shifted", np.uint64, z.shape)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def x_value(dist: FiniteDistribution, seed: int, i: int) -> int:
    """Support index of draw i >= 1 of the stream ``seed``."""
    if i < 1:
        raise InputError("draw index i must be >= 1")
    u = (mix64(seed, i) >> 11) * 2.0**-53
    cum = dist.cumulative().tolist()
    return bisect_right(cum, u)


def _thresholds(dist: FiniteDistribution) -> np.ndarray:
    """Words T_i = ceil(cum_i * 2**53) * 2**11, dropping those that reach 2**64.

    cum_i * 2**53 is exact (a power-of-two scaling), so T_i is exact too.
    A dropped T_i belongs to a cum_i >= 1 (the pinned last entry, or a partial
    sum that rounded up to 1), which no u < 1 reaches.
    """
    words = [math.ceil(c * 2.0**53) << 11 for c in dist.cumulative().tolist()]
    return np.array([w for w in words if w <= MASK64], dtype=np.uint64)


def sample_indices(
    dist: FiniteDistribution,
    keys,
    counters,
    ws: Workspace | None = None,
    *,
    thresholds: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Support indices of draws ``counters`` of streams ``keys`` (see mix_batch).

    Each index is #{i : z >= T_i} over the integer thresholds of _thresholds,
    which a caller drawing many batches builds once and passes as
    ``thresholds``.  The indices are counted into ``out``, or else into the
    workspace's int64 "count" buffer, with one in-place compare per threshold;
    a uint8 ``out`` takes the first compare as its initial count.  Each
    index equals x_value's float rule (see the module docstring).
    """
    ws = Workspace() if ws is None else ws
    if thresholds is None:
        thresholds = _thresholds(dist)
    z = mix_batch(keys, counters, ws)
    count = ws.take("count", np.int64, z.shape) if out is None else out
    hit = ws.take("hit", np.bool_, z.shape)
    rest = thresholds
    if count.dtype == np.uint8 and thresholds.size:
        np.greater_equal(z, thresholds[0], out=count.view(np.bool_))
        rest = thresholds[1:]
    else:
        count.fill(0)
    for t in rest:
        count += np.greater_equal(z, t, out=hit).view(np.uint8)
    return count


def _check_sum_range(obs: Observable, n: int) -> None:
    if n * obs.sup_abs > SUM_LIMIT:
        raise CapacityError(
            f"sums of {n} terms with |F| up to {obs.sup_abs:.6g} can overflow float64"
            f" (n * sup|F| may not exceed {SUM_LIMIT:.6g})"
        )


def _check_draw_range(obs: Observable, n: int) -> None:
    """Terms 1..n read draws up to ell*n in either mode; draw i + 2**64 would be draw i."""
    if obs.ell * n > MASK64:
        raise InputError(f"terms up to {n} read draw {obs.ell * n}, past 2**64 - 1")


def _check_mode(mode: str) -> None:
    if mode not in TRAJECTORY_MODES:
        raise InputError(f"mode must be one of {TRAJECTORY_MODES}")


def _draw_numbers(ms: np.ndarray, j: int, ell: int, mode: str, out=None) -> np.ndarray:
    """The draw that factor j of each term in ``ms`` reads: the addressing contract.

    For j = 1..ell a nonconventional term m reads draw j*m, an i.i.d. term
    reads draw (m-1)*ell + j.  ``ms`` is a uint64 array.
    """
    if mode == "nonconventional":
        return np.multiply(ms, np.uint64(j), out=out)
    out = np.subtract(ms, np.uint64(1), out=out)
    out *= np.uint64(ell)
    out += np.uint64(j)
    return out


def term_values(
    dist: FiniteDistribution,
    obs: Observable,
    keys,
    ms,
    mode: str,
    ws: Workspace | None = None,
    *,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """F at 1-based term numbers ``ms`` of streams ``keys``, broadcast against ``ms``.

    Term m reads the ell draws that _draw_numbers addresses.  They share the
    workspace (and ``thresholds``, see sample_indices); their support indices
    combine into a row-major table code in its "code" buffer, and the values
    are gathered into its "value" buffer.
    """
    _check_mode(mode)
    ws = Workspace() if ws is None else ws
    ms = np.asarray(ms, dtype=np.uint64)
    counters = ws.take("counter", np.uint64, ms.shape)
    for j in range(1, obs.ell + 1):
        _draw_numbers(ms, j, obs.ell, mode, out=counters)
        idx = sample_indices(dist, keys, counters, ws, thresholds=thresholds)
        if j == 1:
            code = ws.take("code", np.int64, idx.shape)
            np.copyto(code, idx)
        else:
            code *= dist.size
            code += idx
    # every code is below size**ell, so "clip" never clips; it only lets take
    # write straight into the buffer, where the default mode would buffer it
    return np.take(obs.table, code, out=ws.take("value", np.float64, code.shape), mode="clip")


def _draw_plan(terms, ell: int, mode: str, slots: int) -> tuple[list, int]:
    """How a draw table of ``slots`` slots serves ``terms`` in order.

    Per term the plan lists the (slot, draw number) pairs to compute before
    the term and the slots of the term's ell draws, and it returns the
    number of slots it uses.  A new draw with a later reader stays in its
    slot until its last reader has been planned while fewer than
    ``slots - ell`` draws are so held; otherwise its slot is freed after
    this term and its next reader draws it again.  So when ``slots`` is
    large enough every distinct draw is computed once.  ``slots`` must be
    at least ell.
    """
    ms = np.asarray(terms, dtype=np.uint64)
    reads = np.stack(
        [_draw_numbers(ms, j, ell, mode) for j in range(1, ell + 1)], axis=-1
    ).tolist()
    last = {d: t for t, row in enumerate(reads) for d in row}
    slot_of: dict[int, int] = {}
    held: set[int] = set()
    free: list[int] = []
    used = 0
    steps = []
    for t, row in enumerate(reads):
        new = []
        for d in row:
            if d not in slot_of:
                if free:
                    slot_of[d] = free.pop()
                else:
                    slot_of[d] = used
                    used += 1
                new.append((slot_of[d], d))
                if last[d] > t and len(held) < slots - ell:
                    held.add(d)
        steps.append((new, [slot_of[d] for d in row]))
        for d in dict.fromkeys(row):
            if last[d] == t or d not in held:
                held.discard(d)
                free.append(slot_of.pop(d))
    return steps, used


def replica_sums(
    dist: FiniteDistribution, obs: Observable, keys: np.ndarray, terms, mode: str
) -> np.ndarray:
    """Per key of the 1-d array ``keys``, the sum of F over the term numbers ``terms``.

    The keys are walked in column blocks of _LDP_CHUNK.  The terms are added
    in the given order, each from a draw table of at most _TABLE_BYTES (see
    _draw_plan) whose slots hold support indices, as uint8 while the support
    has at most 256 points: a term gathers its table code from its slots.
    All draws of the call share one workspace.
    """
    _check_mode(mode)
    small = dist.size <= 256
    dtype = np.dtype(np.uint8 if small else np.int64)
    # a code below 256 is built in uint8 and widened once for the gather
    code_dtype = dtype if small and dist.size**obs.ell <= 256 else np.dtype(np.int64)
    block = max(1, min(_LDP_CHUNK, keys.size))
    capacity = max(obs.ell, _TABLE_BYTES // (block * dtype.itemsize))
    steps, slots = _draw_plan(terms, obs.ell, mode, capacity)
    thresholds = _thresholds(dist)
    ws = Workspace()
    total = np.zeros(keys.shape, dtype=np.float64)
    for c0 in range(0, keys.size, block):
        kb = keys[c0 : c0 + block]
        part = total[c0 : c0 + block]
        # a buffer per slot: one table-sized buffer (557 KB at ell = 2,
        # N = 60) raised glibc's mmap threshold, and the tail-mc job then
        # peaked 0.5 MB higher in RSS than with per-slot buffers
        table = [ws.take(f"slot {i}", dtype, kb.shape) for i in range(slots)]
        code = ws.take("code", code_dtype, kb.shape)
        # mix_batch's "word" and "shifted" buffers are dead from a term's
        # last draw to the next term's first; the gather reuses them
        index = code if code_dtype == np.int64 else ws.take("shifted", np.int64, kb.shape)
        value = ws.take("word", np.float64, kb.shape)
        for new, reads in steps:
            for slot, d in new:
                sample_indices(dist, kb, d, ws, thresholds=thresholds, out=table[slot])
            np.copyto(code, table[reads[0]])
            for slot in reads[1:]:
                code *= dist.size
                code += table[slot]
            if index is not code:
                np.copyto(index, code)
            # see term_values for mode="clip"
            part += np.take(obs.table, index, out=value, mode="clip")
    return total


def trajectory(
    dist: FiniteDistribution, obs: Observable, seed: int, n: int, mode: str = "nonconventional"
) -> np.ndarray:
    """Prefix sums S_0 = 0, S_1, ..., S_n of the sum that ``mode`` names (see term_values).

    In mode "nonconventional" term m reads draws m, 2m, ..., ell*m; in mode
    "iid" each term reads a fresh ell-tuple of draws.  S_k is the prefix form
    of Sum2 (Ogita, Rump and Oishi, "Accurate sum and dot product", 2005):
    the running float sum plus the float sum of the exact TwoSum rounding
    errors of its steps, as accurate as summing in twice the working
    precision.  Both sums carry across blocks, so the result does not depend
    on the block size; when every running sum is exact in float64 (integer
    or dyadic terms) all errors are 0 and S_k is the plain float sum.  Every
    S_k is finite: an n that could overflow raises CapacityError.  One
    workspace serves the draws and the sums of every block.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    _check_sum_range(obs, n)
    _check_draw_range(obs, n)
    ws = Workspace()
    thresholds = _thresholds(dist)
    prefix = np.empty(n + 1, dtype=np.float64)
    prefix[0] = s = e = 0.0
    terms = np.arange(1, min(n, _BLOCK) + 1, dtype=np.uint64)
    for m0 in range(1, n + 1, _BLOCK):
        m1 = min(n + 1, m0 + _BLOCK)
        k = m1 - m0
        x = term_values(dist, obs, seed, terms[:k], mode, ws, thresholds=thresholds)
        terms += np.uint64(_BLOCK)
        acc = ws.take("acc", np.float64, (k + 1,))
        comp = ws.take("comp", np.float64, (k + 1,))
        z = ws.take("twosum_z", np.float64, (k,))
        r = ws.take("twosum_r", np.float64, (k,))
        acc[0] = s
        acc[1:] = x
        np.cumsum(acc, out=acc)  # add.accumulate runs left to right
        prev, t = acc[:-1], acc[1:]
        # TwoSum, so that prev + x == t + err exactly:
        # z = t - prev;  err = (prev - (t - z)) + (x - z)
        np.subtract(t, prev, out=z)
        np.subtract(t, z, out=r)
        np.subtract(prev, r, out=r)
        np.subtract(x, z, out=z)
        comp[0] = e
        np.add(r, z, out=comp[1:])
        np.cumsum(comp, out=comp)
        np.add(t, comp[1:], out=prefix[m0:m1])
        s, e = acc[-1], comp[-1]
    return prefix


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
    total = replica_sums(dist, obs, keys, range(1, N + 1), mode)
    return int(np.count_nonzero((total / N) >= u))


def ldp_estimate(
    dist: FiniteDistribution,
    obs: Observable,
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
    if N < 1:
        raise InputError("N must be >= 1")
    if replicas < 1000:
        raise InputError("replicas must be >= 1000")
    if not u > 0:
        raise InputError("u must be positive")
    _check_sum_range(obs, N)
    _check_draw_range(obs, N)
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
