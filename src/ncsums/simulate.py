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
and the index is the number of integer thresholds T_i <= z.  The last
round flips bits 32..0 of z only, so no compare with a T_i whose low 33
bits are 0 can see it: z ^ (z >> 31) >= T_i exactly when z >= T_i, as
both compare the top 31 bits.  When every T_i is such a word (every cum_i
a multiple of 2**-31, as in every preset) the draws skip that round; the
words of mix_batch, replica seeds among them, keep it.  Replica seeds
derive the same way, seed_r = fin(root + r*GAMMA), so replicas are
order-independent.  Dilated sums read draws at indices up to ell*n; counter
addressing keeps them identical across runs, platforms, and thread counts.

``trajectory`` returns the float64 prefix array S_0 = 0, ..., S_n.  Dilated
terms share draws (draw 2m is factor 2 of term m and factor 1 of term 2m),
so ``trajectory`` first computes draws 1..n once, block by block, into the
last w*(n+1) bytes of the prefix array itself, w the itemsize of a support
index: nothing is allocated for them.  One loop over blocks of terms then
reads each term's draws up to n from that store, draws only those past n,
and gathers the block's values straight into the prefix array and sums
them there, with the compensated prefix form of Sum2 (see its docstring).
Block m0..m1-1 writes bytes below 8*m1 of the array, which hold no store
entry at or past m1 because m1 <= n + 1, and every term m reads draws
at or past m.  When every partial sum is exact in float64, Sum2 is
the plain float sum and one in-place cumsum per block computes it: every
entry of F is an integer multiple of 2**-q for a least q, and with
M = sup|F| * 2**q the sums of n terms are exact when n * M <= 2**53, which
is decided once per call in exact integer arithmetic.

The draw kernel (mix_batch, sample_indices) writes every intermediate
array into a ``Workspace``: one reusable buffer per role, grown to the
largest batch it has served.  A call without a workspace makes a fresh
one.  Support indices are counted in uint8 while size <= 256, and a table
code is built in uint8 while size**ell <= 256 and widened once for the
gather.  ``trajectory`` keeps one workspace for the whole call and works in
blocks of _BLOCK = 2**15 terms, so a block's working arrays (256 KB each at
most) stay in a per-core L2 cache instead of being mapped and faulted in
afresh on every block.  ``trajectory`` and ``_ReplicaPlan`` build the
thresholds once and hand them to every batch.

``_ReplicaPlan``, the replica loop of ``ldp_estimate``, computes each
distinct draw of its batch once while its draw table has room.  Dilated
terms share draws: at ell = 2, terms 1..60 read 120 draws, of which 90
are distinct.  When every sum of the terms is exact in float64 (the test
above), the loop adds g consecutive terms with one gather: a group's code
is built by Horner over its g*ell slot digits and indexes a table of
group sums, F summed over g terms, built by np.add.outer.  g is the most
terms whose code still fits uint8, (size**ell)**g <= 256: 4 at ell = 2
and 2 at ell = 3 on two points, and a short last group has its own
table.  Exact sums take one value in any order and the total starts at
+0.0, so every sum equals the per-term loop's bit for bit.  Otherwise g
is 1 and each term gathers its own code, in the given order.  A plan
gives each distinct draw a slot of a small-int table; the draw is
computed just before the first group that reads it, and its slot is
freed once the last group that reads it has been added.  With exact
sums, dilated terms are planned fiber by fiber (lattice.fiber_order): the
skeleton's a ascending, and within fiber a the terms a*h for smooth h
ascending.  Every draw j*a*h of term a*h lies in fiber a, so a fiber's
terms share draws among themselves only, and the large fibers, whose
terms cost the fewest new draws each, come first.  Terms 1..60 then need
8 slots at ell = 2 and at ell = 3, against 20 and 30 in the order 1..60
(17 and 28 one term at a time), which i.i.d. terms and inexact sums keep.
``ldp_estimate`` hands the plan one chunk of at most _LDP_CHUNK keys at a
time, and the table is capped at _TABLE_BYTES (1 MiB, 32 slots of a
chunk): when the groups would hold more draws at once, a draw that finds
the table full is computed again by its next reader.  Narrowing the
chunks instead would keep every draw once, but their per-call cost grows
with N: at ell = 2, N = 3000 a 2**15-key chunk took 4.3 s that way,
against 2.1 s for the per-term loop and 1.3 s for the capped table, one
term per gather (2-core x86 host).  In fiber order the table holds one
fiber's live draws, and at N = 1e5 no draw is computed twice: 150 000
draws per replica at ell = 2 and 200 000 at ell = 3, against 199 714 and
299 671 in the order 1..N.  With exact sums the loop also drops, at group
boundaries, every replica that can no longer reach S_N >= N*u, and later
groups draw only for the rest (see _ReplicaPlan).  ``ldp_estimate`` plans
the table once and sums every chunk of replicas, on every thread,
through that plan, which at ell = 2, N = 1e5 takes about 0.26 s to build
in fiber order (0.28 s in the order 1..N; 2-core host).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .lattice import fiber_order, primes_up_to
from .model import FiniteDistribution, Observable

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_LOW33 = (1 << 33) - 1

TRAJECTORY_MODES = ("nonconventional", "iid")

_BLOCK = 1 << 15
_LDP_CHUNK = 1 << 15
_TABLE_BYTES = 1 << 20
# a checked group boundary compacts the replica loop's keys when at least
# this share of them can no longer reach the mean u (see _ReplicaPlan)
_DROP_SHARE = 0.125

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
    with another dtype while its contents are dead.  Views are kept by
    (role, dtype, shape), so taking a role again with the same dtype and
    shape returns the same array; a role's views are dropped when its
    buffer grows, so the old buffer can be freed.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def take(self, role: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
        key = (role, dtype, shape)
        view = self._views.get(key)
        if view is None:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            buf = self._buffers.get(role)
            if buf is None or buf.size < nbytes:
                buf = self._buffers[role] = np.empty(nbytes, dtype=np.uint8)
                self._views = {k: v for k, v in self._views.items() if k[0] != role}
            view = self._views[key] = buf[:nbytes].view(dtype).reshape(shape)
        return view


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
    return _mix(keys, counters, Workspace() if ws is None else ws, last_round=True)


def _mix(keys, counters, ws: Workspace, last_round: bool) -> np.ndarray:
    """mix_batch's words, without the last round z ^= z >> 31 unless
    ``last_round`` (see _thresholds for when no compare can see it)."""
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
    if last_round:
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def x_value(dist: FiniteDistribution, seed: int, i: int) -> int:
    """Support index of draw i >= 1 of the stream ``seed``."""
    if i < 1:
        raise InputError("draw index i must be >= 1")
    u = (mix64(seed, i) >> 11) * 2.0**-53
    cum = dist.cumulative().tolist()
    return bisect_right(cum, u)


def _thresholds(dist: FiniteDistribution) -> tuple[np.ndarray, bool]:
    """Words T_i = ceil(cum_i * 2**53) * 2**11, dropping those that reach
    2**64, and whether a compare with them needs the mixer's last round.

    cum_i * 2**53 is exact (a power-of-two scaling), so T_i is exact too.
    A dropped T_i belongs to a cum_i >= 1 (the pinned last entry, or a partial
    sum that rounded up to 1), which no u < 1 reaches.  The last round is
    not needed when every T_i has its low 33 bits 0 (see the module
    docstring).
    """
    words = [math.ceil(c * 2.0**53) << 11 for c in dist.cumulative().tolist()]
    words = [w for w in words if w <= MASK64]
    last_round = any(w & _LOW33 for w in words)
    return np.array(words, dtype=np.uint64), last_round


def sample_indices(
    dist: FiniteDistribution,
    keys,
    counters,
    ws: Workspace | None = None,
    *,
    thresholds: tuple[np.ndarray, bool] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Support indices of draws ``counters`` of streams ``keys`` (see mix_batch).

    Each index is #{i : z >= T_i} over the integer thresholds of _thresholds,
    which a caller drawing many batches builds once and passes as
    ``thresholds``; the mixer's last round runs only when a threshold can
    see it.  The indices are counted into ``out``, or else into the
    workspace's int64 "count" buffer, with one in-place compare per threshold;
    a uint8 ``out`` takes the first compare as its initial count.  Each
    index equals x_value's float rule (see the module docstring).
    """
    ws = Workspace() if ws is None else ws
    words, last_round = _thresholds(dist) if thresholds is None else thresholds
    z = _mix(keys, counters, ws, last_round)
    count = ws.take("count", np.int64, z.shape) if out is None else out
    hit = ws.take("hit", np.bool_, z.shape)
    rest = words
    if count.dtype == np.uint8 and words.size:
        np.greater_equal(z, words[0], out=count.view(np.bool_))
        rest = words[1:]
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


def _draw_step(j: int, ell: int, mode: str) -> tuple[int, int]:
    """The (a, c) with which factor j of term m reads draw a*m - c: the
    addressing contract.

    For j = 1..ell a nonconventional term m reads draw j*m, an i.i.d. term
    reads draw (m-1)*ell + j.
    """
    return (j, 0) if mode == "nonconventional" else (ell, ell - j)


def _draw_numbers(ms: np.ndarray, j: int, ell: int, mode: str, out=None) -> np.ndarray:
    """The draws that factor j of the uint64 term numbers ``ms`` reads (see _draw_step)."""
    a, c = _draw_step(j, ell, mode)
    out = np.multiply(ms, np.uint64(a), out=out)
    if c:
        out -= np.uint64(c)
    return out


def _index_dtypes(dist: FiniteDistribution, ell: int) -> tuple[np.dtype, np.dtype]:
    """The dtypes of one support index and of a row-major code of ell of them.

    Each is uint8 while every value it holds is below 256, else int64.
    """
    small = dist.size <= 256
    index = np.dtype(np.uint8 if small else np.int64)
    code = index if small and dist.size**ell <= 256 else np.dtype(np.int64)
    return index, code


def _draw_plan(
    terms, ell: int, mode: str, slots: int, group: int = 1, live: list | None = None
) -> tuple[list, int]:
    """How a draw table of ``slots`` slots serves ``terms`` in order, in
    groups of ``group`` consecutive terms (the last group may be shorter).

    Per group the plan lists the (slot, draw number) pairs to compute before
    the group and the slots of its group*ell draws, term by term, and it
    returns the number of slots it uses.  A new draw with a later reader
    stays in its slot until its last reader has been planned while fewer
    than ``slots - group*ell`` draws are so held; otherwise its slot is freed
    after this group and its next reader draws it again.  So when ``slots``
    is large enough every distinct draw is computed once.  ``slots`` must be
    at least group*ell.  A ``live`` list receives, per group, the slots
    still held after it: those whose draws a later group reads.
    """
    ms = np.asarray(terms, dtype=np.uint64)
    width = group * ell
    flat = np.stack(
        [_draw_numbers(ms, j, ell, mode) for j in range(1, ell + 1)], axis=-1
    ).ravel().tolist()
    reads = [flat[i : i + width] for i in range(0, len(flat), width)]
    last = {d: t for t, row in enumerate(reads) for d in row}
    slot_of: dict[int, int] = {}
    held: set[int] = set()
    free: list[int] = []
    used = 0
    room = slots - width
    steps = []
    for t, row in enumerate(reads):
        new = []
        for d in row:
            if d not in slot_of:
                if free:
                    slot = free.pop()
                else:
                    slot = used
                    used += 1
                slot_of[d] = slot
                new.append((slot, d))
                if last[d] > t and len(held) < room:
                    held.add(d)
        steps.append((new, [slot_of[d] for d in row]))
        for d in row:  # a draw read twice in the row is freed at most once
            if d in slot_of and (last[d] == t or d not in held):
                held.discard(d)
                free.append(slot_of.pop(d))
        if live is not None:
            live.append(list(slot_of.values()) if slot_of else ())
    return steps, used


def _group_size(dist: FiniteDistribution, obs: Observable, n: int) -> int:
    """How many consecutive terms of ``n`` the replica loop adds with one gather.

    When every sum of at most n terms is exact (see _sums_are_exact), a
    group's sum is one float whatever the order of its terms, so the group
    gathers it from a table of group sums at its code, the row-major code
    of its terms' codes.  The group is the largest, up to 8 terms, whose
    code is below 256 and so built in uint8: (size**ell)**g <= 256.
    Otherwise every term is its own group.
    """
    cells = dist.size**obs.ell
    g = 1
    if _sums_are_exact(obs, n):
        while g < min(n, 8) and cells ** (g + 1) <= 256:
            g += 1
    return g


class _ReplicaPlan:
    """The draw table of the replica loop for the sequence ``terms``,
    planned once for batches of at most ``block`` keys.

    ``sums`` adds the terms over one batch of keys in the given order, in
    groups of _group_size terms, each group from a draw table of at most
    _TABLE_BYTES (see _draw_plan) whose slots hold support indices, as uint8
    while the support has at most 256 points: a group builds its code from
    its slots and gathers its sum.  All draws of a call share one
    workspace.  ``sums`` reads the plan and nothing else that it does not
    build itself, so one plan serves any number of batches and threads.

    When every sum of the n terms is exact (_sums_are_exact), ``sums``
    given a mean u drops, at group boundaries, each key that can no longer
    reach it.  After k terms, with r = n - k to come, a key with partial
    sum S_k ends with S_n <= S_k + r*sup_pos, sup_pos = max(0, max F), and
    it is dropped when (S_k + r*sup_pos) / n < u, computed in float64 with
    the division and compare of the final test.  That is exact: r*sup_pos
    and every partial sum are integer multiples of 2**-q of magnitude at
    most n*M (see _sums_are_exact), so S_k + r*sup_pos is computed without
    rounding, and fl(x / n) is monotone in x, so a dropped key has
    fl(S_n / n) < u as well.  The count of keys that reach u is the same
    bit for bit.  A boundary is checked when a key with S_k = -k*sup_neg,
    at or below every partial sum, could be dropped there, and the keys
    are compacted when at least _DROP_SHARE of them are dropped: the keys,
    their sums and the slots that a later group reads (``live``) are
    gathered into the dead "word" buffer and copied back to their heads
    (the keys to a workspace buffer of their own), so a drop allocates only
    its index array, and later groups draw only for the keys left.
    """

    def __init__(self, dist: FiniteDistribution, obs: Observable, terms, mode: str, block: int):
        _check_mode(mode)
        self.dist = dist
        # a code below 256 is built in uint8 and widened once for the gather
        self.dtype, self.code_dtype = _index_dtypes(dist, obs.ell)
        group = _group_size(dist, obs, len(terms))
        width = group * obs.ell
        capacity = max(width, _TABLE_BYTES // (max(1, block) * self.dtype.itemsize))
        self.n = len(terms)
        self.exact = _sums_are_exact(obs, self.n)
        self.live = [] if self.exact else None
        self.steps, self.slots = _draw_plan(terms, obs.ell, mode, capacity, group, self.live)
        # group_sums[w]: F summed over w // ell terms, at the code of their w draws
        self.group_sums = {obs.ell: obs.table}
        for w in range(2 * obs.ell, width + 1, obs.ell):
            self.group_sums[w] = np.add.outer(self.group_sums[w - obs.ell], obs.table).ravel()
        self.thresholds = _thresholds(dist)
        if self.exact:
            # after each step: r*sup_pos, and the bound at S_k = -k*sup_neg
            done = np.minimum(np.arange(1, len(self.steps) + 1) * group, self.n)
            slack = (self.n - done) * obs.sup_pos
            self.slack, self.least = slack.tolist(), done * -obs.sup_neg + slack

    def sums(self, keys: np.ndarray, u: float | None = None) -> np.ndarray:
        """Per key of the 1-d array ``keys``, at most ``block`` of them, the sum
        of F over the planned terms.

        Given ``u`` and exact sums, only the sums of the keys not dropped,
        in key order; every dropped key's sum / n is below u.
        """
        dist, thresholds, group_sums = self.dist, self.thresholds, self.group_sums
        ws = Workspace()
        total = np.zeros(keys.shape, dtype=np.float64)
        # a buffer per slot: one table-sized buffer (557 KB at ell = 2,
        # N = 60) raised glibc's mmap threshold, and the tail-mc job then
        # peaked 0.5 MB higher in RSS than with per-slot buffers
        table = [ws.take(f"slot {i}", self.dtype, keys.shape) for i in range(self.slots)]
        code = ws.take("code", self.code_dtype, keys.shape)
        # mix_batch's "word" and "shifted" buffers are dead from a group's
        # last draw to the next group's first; the gather reuses them
        widen = code.dtype != np.int64
        index = ws.take("shifted", np.int64, keys.shape) if widen else code
        value = ws.take("word", np.float64, keys.shape)
        checks = ()
        if u is not None and self.exact:  # every step but the last where a key may drop
            checks = set(np.flatnonzero(self.least[:-1] / self.n < u).tolist())
        for t, (new, reads) in enumerate(self.steps):
            for slot, d in new:
                sample_indices(dist, keys, d, ws, thresholds=thresholds, out=table[slot])
            np.copyto(code, table[reads[0]])
            for slot in reads[1:]:
                code *= dist.size
                code += table[slot]
            if widen:
                np.copyto(index, code)
            # see _fill_prefix for mode="clip"
            total += np.take(group_sums[len(reads)], index, out=value, mode="clip")
            if t not in checks:
                continue
            # the bounds go to the dead "word" buffer, the mask to the dead "code"
            bound = np.add(total, self.slack[t], out=value)
            bound /= self.n
            keep = np.greater_equal(bound, u, out=ws.take("code", np.bool_, total.shape))
            m = int(np.count_nonzero(keep))
            if total.size - m < _DROP_SHARE * total.size:
                continue
            keep = np.flatnonzero(keep)
            # each array is gathered into the dead "word" buffer (np.take
            # writes in place there, and mode="clip" never clips) and copied
            # back to its head; the keys to a buffer of their own, which
            # left the tail-mc job's peak RSS lower than packing the caller's
            heads = [(keys, ws.take("keys", np.uint64, keys.shape)[:m]), (total, total[:m])]
            heads += [(table[s], table[s][:m]) for s in self.live[t]]
            for arr, head in heads:
                scratch = ws.take("word", arr.dtype, (m,))
                np.copyto(head, np.take(arr, keep, out=scratch, mode="clip"))
            keys, total = heads[0][1], heads[1][1]
            table = [x[:m] for x in table]
            code, index, value = code[:m], index[:m], value[:m]
            if not m:
                break
        return total


def _sums_are_exact(obs: Observable, n: int) -> bool:
    """Whether every sum of at most n terms of F is exact in float64.

    Each term is an integer k times 2**-q, q = obs.dyadic_exponent, with
    |k| <= M = sup|F| * 2**q.  A sum of at most n terms is then an integer
    K times 2**-q with |K| <= n*M, exact in float64 while n*M <= 2**53: K
    fits the significand, q <= 1074 keeps 2**-q in range, and SUM_LIMIT
    keeps the sum finite.  Decided in exact integer arithmetic.
    """
    a, b = obs.sup_abs.as_integer_ratio()  # sup|F| = a / b, b a power of two
    q = obs.dyadic_exponent
    return (n * a) << max(q, 0) <= b << (53 + max(-q, 0))


def _fill_prefix(dist, obs, seed, mode, prefix, exact: bool) -> None:
    """Fill prefix[1:] in blocks of at most _BLOCK terms (see trajectory).

    Draws 1..n go first into ``store``, the prefix array's tail bytes.
    Block m0..m1-1 reads its draws up to n from there, draws the rest, and
    gathers its values straight into prefix[m0:m1].  When the sums are
    ``exact``, one in-place cumsum over prefix[m0-1:m1] carries S_{m0-1}
    into them; otherwise the prefix form of Sum2 runs on the block,
    carrying the running sum s and error e across blocks.
    """
    n = prefix.size - 1
    index_dtype, code_dtype = _index_dtypes(dist, obs.ell)
    store = prefix.view(np.uint8)[(8 - index_dtype.itemsize) * (n + 1) :].view(index_dtype)
    ws = Workspace()
    thresholds = _thresholds(dist)
    terms = np.arange(1, min(n, _BLOCK) + 1, dtype=np.uint64)  # advanced block by block
    for d0 in range(1, n + 1, _BLOCK):
        # draw d0 - 1 + t of stream seed is draw t of key seed + (d0 - 1)*GAMMA
        d1 = min(n + 1, d0 + _BLOCK)
        key = seed + (d0 - 1) * GAMMA
        sample_indices(dist, key, terms[: d1 - d0], ws, thresholds=thresholds, out=store[d0:d1])
    s = e = 0.0
    for m0 in range(1, n + 1, _BLOCK):
        m1 = min(n + 1, m0 + _BLOCK)
        k = m1 - m0
        x = prefix[m0:m1]
        code = ws.take("code", code_dtype, (k,))
        digit = ws.take("count", index_dtype, (k,))
        counters = ws.take("counter", np.uint64, (k,))
        for j in range(1, obs.ell + 1):
            a, c = _draw_step(j, obs.ell, mode)
            stored = store[a * m0 - c :: a][:k]  # the block's draws up to n
            h = stored.size
            if h < k:
                _draw_numbers(terms[h:k], j, obs.ell, mode, out=counters[h:])
                sample_indices(dist, seed, counters[h:], ws, thresholds=thresholds, out=digit[h:])
            if j == 1:
                code[:h] = stored
                code[h:] = digit[h:]
            else:
                code *= dist.size
                code[:h] += stored
                code[h:] += digit[h:]
        terms += np.uint64(_BLOCK)
        if code_dtype != np.int64:  # widened once, into mix_batch's dead "word" buffer
            index = ws.take("word", np.int64, (k,))
            np.copyto(index, code)
            code = index
        # every code is below size**ell, so "clip" never clips; it only lets
        # take write straight into x, where the default mode would buffer it
        np.take(obs.table, code, out=x, mode="clip")
        if exact:
            run = prefix[m0 - 1 : m1]
            np.cumsum(run, out=run)  # add.accumulate runs left to right
            continue
        k = m1 - m0
        acc = ws.take("acc", np.float64, (k + 1,))
        comp = ws.take("comp", np.float64, (k + 1,))
        z = ws.take("twosum_z", np.float64, (k,))
        r = ws.take("twosum_r", np.float64, (k,))
        acc[0] = s
        acc[1:] = x
        np.cumsum(acc, out=acc)
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
        np.add(t, comp[1:], out=x)
        s, e = acc[-1], comp[-1]


def trajectory(
    dist: FiniteDistribution, obs: Observable, seed: int, n: int, mode: str = "nonconventional"
) -> np.ndarray:
    """Prefix sums S_0 = 0, S_1, ..., S_n of the sum that ``mode`` names.

    In mode "nonconventional" term m reads draws m, 2m, ..., ell*m; in mode
    "iid" each term reads a fresh ell-tuple of draws (see _draw_step).  S_k
    is the prefix form of Sum2 (Ogita, Rump and Oishi, "Accurate sum and dot
    product", 2005): the running float sum plus the float sum of the exact
    TwoSum rounding errors of its steps, as accurate as summing in twice the
    working precision.  Both sums carry across blocks, so the result does
    not depend on the block size.

    When every running sum is exact in float64 all errors are 0 and S_k is
    the plain float sum (never -0.0, since S_0 = +0.0), which one cumsum per
    block computes bit for bit.  The sums are exact when n * M <= 2**53,
    where q is the least exponent with every table entry a multiple of
    2**-q and M = sup|F| * 2**q (see _sums_are_exact): rademacher-product
    passes up to n = 2**53, bernoulli-product up to 2**53 / (2**ell - 1).
    Every S_k is finite: an n that could overflow raises CapacityError.  One
    workspace serves the draws and the sums of every block.

    Each of draws 1..n is computed once and kept, until the last term that
    reads it has been built, in the output's own tail bytes: draw d is
    entry d of the last w*(n+1) bytes viewed as w-byte support indices.
    Filling block m0..m1-1 writes bytes below 8*m1 only, and so only entries
    below (8*m1 - (8-w)*(n+1)) / w <= m1, while every later term m >= m1
    reads draws at or past m.  So dilated terms make n + sum_{j=2..ell}
    (n - floor(n/j)) draws, and i.i.d. terms ell*n.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    _check_sum_range(obs, n)
    _check_draw_range(obs, n)
    _check_mode(mode)
    prefix = np.empty(n + 1, dtype=np.float64)
    prefix[0] = 0.0
    _fill_prefix(dist, obs, seed, mode, prefix, _sums_are_exact(obs, n))
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


def _thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a pool of ``threads`` threads when threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: ~7 ms

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
    derived by index, so the result is independent of thread count.  With
    exact sums the terms run fiber by fiber and a replica stops drawing
    once it can no longer reach u (see _ReplicaPlan); the count is the same.
    """
    if N < 1:
        raise InputError("N must be >= 1")
    if replicas < 1000:
        raise InputError("replicas must be >= 1000")
    if replicas - 1 > MASK64:
        raise InputError("replicas may not exceed 2**64: replica r + 2**64 would be replica r")
    if not u > 0:
        raise InputError("u must be positive")
    _check_sum_range(obs, N)
    _check_draw_range(obs, N)
    # one draw plan for every chunk of replicas, on every thread
    terms = range(1, N + 1)
    if mode == "nonconventional" and _sums_are_exact(obs, N):
        terms = fiber_order(primes_up_to(obs.ell), N)
    plan = _ReplicaPlan(dist, obs, terms, mode, min(_LDP_CHUNK, replicas))

    def chunk_count(r0: int) -> int:
        keys = mix_batch(seed, np.arange(r0, min(replicas, r0 + _LDP_CHUNK), dtype=np.uint64))
        # total stays bound until the count is taken: with the sums freed as
        # soon as total / N was made, the tail-mc job peaked 0.6 MB higher
        total = plan.sums(keys, u)
        return int(np.count_nonzero((total / N) >= u))

    hits = sum(_thread_map(chunk_count, range(0, replicas, _LDP_CHUNK), threads))
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
