"""Index combinatorics under dilation by the primes up to ell.

Every integer b <= N factors uniquely as b = a * h with a coprime to all
primes <= ell and h a product of those primes ("smooth").  The coprime
values a <= N form the skeleton A_N; the fiber B_N(a) collects the smooth
multiples of a up to N.  Fiber sizes are lattice counts: |B_N(a)| equals
the number of smooth numbers <= N/a, and the l-th smallest smooth number
h_l marks where that count steps from l-1 to l.
"""

from __future__ import annotations

import heapq
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError

# Smooth numbers are exact integers capped at the unsigned 128-bit range.
SMOOTH_CAP = 2**128 - 1

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PrimeBasis:
    """The primes not exceeding ell, with r = prod(1 - 1/p) over them."""

    ell: int
    primes: tuple[int, ...]
    m: int
    r_const: float


def primes_up_to(ell: int) -> PrimeBasis:
    """The primes up to ell, by a sieve of Eratosthenes."""
    if ell < 1:
        raise InputError("ell must be >= 1")
    sieve = np.ones(ell + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(ell) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).tolist()
    r = 1.0
    for p in primes:
        r *= 1.0 - 1.0 / p
    return PrimeBasis(ell=ell, primes=tuple(primes), m=len(primes), r_const=r)


# Per-basis smooth prefix and its merge heap, grown on demand.
_smooth_cache: dict[tuple[int, ...], tuple[list[int], list[tuple[int, int, int]]]] = {}
_smooth_lock = threading.Lock()


def _smooth_prefix(primes: tuple[int, ...], count: int = 0, bound: int = 0) -> list[int]:
    """Increasing smooth numbers 1 = h_1 < h_2 < ... by a cached heap merge.

    The heap holds one entry (p * h[k], i, k) per basis prime p = primes[i]:
    the next multiple of p that the merge has not yet emitted.  Each new
    value pops the entries that equal it and pushes their successors, so it
    costs O(log m) per prime that produces it, not m, for a basis of m
    primes.  Grows the per-basis prefix until it holds ``count`` values and
    its last value exceeds ``bound``, or until the next value would pass
    SMOOTH_CAP.  Stopping at the cap raises only when ``bound`` is not yet
    exceeded; a prefix shorter than ``count`` is left to the caller.  The
    returned list is shared: callers slice it and never mutate it.
    """
    if not primes:
        return [1]  # no primes: 1 is the only smooth number
    with _smooth_lock:
        cached = _smooth_cache.get(primes)
        if cached is None:
            # ascending primes already form a heap
            cached = _smooth_cache[primes] = ([1], [(p, i, 0) for i, p in enumerate(primes)])
        h, heap = cached
        while len(h) < count or h[-1] <= bound:
            nxt = heap[0][0]
            if nxt > SMOOTH_CAP:
                if h[-1] <= bound:
                    raise CapacityError(f"smooth numbers up to {bound} exceed 128-bit capacity")
                break
            h.append(nxt)
            while heap[0][0] == nxt:
                _, i, k = heap[0]
                heapq.heapreplace(heap, (primes[i] * h[k + 1], i, k + 1))
        return h


@dataclass(frozen=True)
class SmoothSequence:
    """Increasing smooth numbers h_1 = 1 < h_2 < ... for a prime basis.

    rho_min(l) = ln h_l and rho_max(l) = ln h_{l+1} bracket the bounds rho
    at which exactly l smooth numbers satisfy h <= e^rho; the series weight
    w_l = 1/h_l - 1/h_{l+1} is the float nearest the exact rational.
    """

    h: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.h)

    def rho_min(self, l: int) -> float:
        return ln_int(self.h[l - 1])

    def rho_max(self, l: int) -> float:
        if l >= len(self.h):
            raise InputError(f"rho_max({l}) needs h_{l + 1}, beyond generated range")
        return ln_int(self.h[l])

    def weight(self, l: int) -> float:
        if l >= len(self.h):
            raise InputError(f"weight({l}) needs h_{l + 1}, beyond generated range")
        a, b = self.h[l - 1], self.h[l]
        # int / int true division is correctly rounded: the float of the exact rational
        return (b - a) / (a * b)


def smooth_numbers(basis: PrimeBasis, count: int) -> SmoothSequence:
    """The first count+1 smooth numbers; raises when one would overflow 128 bits."""
    if count < 1:
        raise InputError("count must be >= 1")
    if basis.m < 1:
        raise InputError("smooth_numbers needs at least one prime (ell >= 2)")
    seq = smooth_numbers_capped(basis, count)
    if len(seq) < count + 1:
        raise CapacityError(
            f"smooth number h_{len(seq) + 1} for ell={basis.ell} exceeds 128-bit capacity"
        )
    return seq


def smooth_numbers_capped(basis: PrimeBasis, count: int) -> SmoothSequence:
    """Like smooth_numbers but quietly stops at the 128-bit capacity."""
    h = _smooth_prefix(basis.primes, count=count + 1)[: count + 1]
    return SmoothSequence(h=tuple(h))


def ln_int(x: int) -> float:
    """log of a positive integer, split as log(mantissa) + exponent*log 2.

    Exact powers of two come out as (bit_length-1) * LN2 with no mantissa
    term, which keeps lattice bound comparisons free of spurious slack.
    """
    if x < 1:
        raise InputError("ln_int needs a positive integer")
    k = x.bit_length() - 1
    mant = x / (1 << k)  # in [1, 2)
    return math.log(mant) + k * LN2


def d_count_int(basis: PrimeBasis, x: int) -> int:
    """Number of smooth numbers <= x, by exact integer comparison."""
    x = int(x)
    if x < 1:
        raise InputError("bound must be >= 1")
    return bisect_right(_smooth_prefix(basis.primes, bound=x), x)


def _coprime_array(basis: PrimeBasis, N: int) -> np.ndarray:
    if N < 1:
        raise InputError("N must be >= 1")
    mask = np.ones(N + 1, dtype=bool)
    mask[0] = False
    for p in basis.primes:
        mask[p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def partition_check(basis: PrimeBasis, N: int) -> bool:
    """True iff the fibers over the coprime skeleton tile {1..N} exactly once.

    The products a * h <= N of each smooth h with the a <= N // h are built
    about 2**18 at a time, for a run of consecutive h: per h its count of a
    by one searchsorted, then the first that many a of the skeleton.  Every
    product is in 1..N, so they tile it exactly when there are N of them
    and every b <= N is hit.
    """
    a_arr = _coprime_array(basis, N)
    h = _smooth_prefix(basis.primes, bound=N)
    h_arr = np.asarray(h[: bisect_right(h, N)], dtype=np.int64)
    per_h = np.searchsorted(a_arr, N // h_arr, side="right")
    ends = np.cumsum(per_h)
    hit = np.zeros(N + 1, dtype=bool)
    i = 0
    while i < h_arr.size:
        stop = int(np.searchsorted(ends, ends[i] - per_h[i] + (1 << 18), side="right"))
        if stop <= i + 1:  # one h with many a
            hit[a_arr[: per_h[i]] * h_arr[i]] = True
            i += 1
            continue
        per = per_h[i:stop]
        starts = np.repeat(np.cumsum(per) - per, per)
        hit[a_arr[np.arange(starts.size) - starts] * np.repeat(h_arr[i:stop], per)] = True
        i = stop
    return int(ends[-1]) == N and bool(hit[1:].all())


def fiber_sizes(basis: PrimeBasis, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(a values, |B_N(a)| per a) for all a in the coprime skeleton of N."""
    a_arr = _coprime_array(basis, N)
    h = _smooth_prefix(basis.primes, bound=N)
    h_arr = np.asarray(h[: bisect_right(h, N)], dtype=np.int64)
    sizes = np.searchsorted(h_arr, N // a_arr, side="right")
    return a_arr, sizes.astype(np.int64)


def fiber_histogram(basis: PrimeBasis, N: int) -> list[tuple[int, int]]:
    """Sorted (fiber size l, number of a with |B_N(a)| = l) pairs."""
    _, sizes = fiber_sizes(basis, N)
    counts = np.bincount(sizes)
    return [(int(l), int(c)) for l, c in enumerate(counts) if l > 0 and c > 0]
