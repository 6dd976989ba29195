"""Index combinatorics under dilation by the primes up to ell.

Every integer b <= N factors uniquely as b = a * h with a coprime to all
primes <= ell and h a product of those primes ("smooth").  The coprime
values a <= N form the skeleton A_N; the fiber B_N(a) collects the smooth
multiples of a up to N.  Fiber sizes are lattice counts: |B_N(a)| equals
the number of smooth numbers <= N/a, and the l-th smallest smooth number
h_l marks where that count steps from l-1 to l.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

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
    if ell < 1:
        raise InputError("ell must be >= 1")
    primes = []
    for n in range(2, ell + 1):
        if all(n % p for p in primes):
            primes.append(n)
    r = 1.0
    for p in primes:
        r *= 1.0 - 1.0 / p
    return PrimeBasis(ell=ell, primes=tuple(primes), m=len(primes), r_const=r)


# Per-basis smooth prefix and its k-way merge heads, grown on demand.
_smooth_cache: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
_smooth_lock = threading.Lock()


def _smooth_prefix(primes: tuple[int, ...], count: int = 0, bound: int = 0) -> list[int]:
    """Increasing smooth numbers 1 = h_1 < h_2 < ... by cached k-way merge.

    Grows the per-basis prefix until it holds ``count`` values and its last
    value exceeds ``bound``, or until the next value would pass SMOOTH_CAP.
    Stopping at the cap raises only when ``bound`` is not yet exceeded; a
    prefix shorter than ``count`` is left to the caller.  The returned list
    is shared: callers slice it and never mutate it.
    """
    if not primes:
        return [1]  # no primes: 1 is the only smooth number
    with _smooth_lock:
        h, heads = _smooth_cache.setdefault(primes, ([1], [0] * len(primes)))
        # heads[i]: next index of h to multiply by primes[i]
        while len(h) < count or h[-1] <= bound:
            nxt = min(p * h[heads[i]] for i, p in enumerate(primes))
            if nxt > SMOOTH_CAP:
                if h[-1] <= bound:
                    raise CapacityError(f"smooth numbers up to {bound} exceed 128-bit capacity")
                break
            for i, p in enumerate(primes):
                if p * h[heads[i]] == nxt:
                    heads[i] += 1
            h.append(nxt)
        return h


@dataclass(frozen=True)
class SmoothSequence:
    """Increasing smooth numbers h_1 = 1 < h_2 < ... for a prime basis.

    rho_min(l) = ln h_l and rho_max(l) = ln h_{l+1} bracket the bounds rho
    at which exactly l smooth numbers satisfy h <= e^rho; the series weight
    w_l = 1/h_l - 1/h_{l+1} is exact as a rational.
    """

    basis: PrimeBasis
    h: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.h)

    def rho_min(self, l: int) -> float:
        return ln_int(self.h[l - 1])

    def rho_max(self, l: int) -> float:
        if l >= len(self.h):
            raise InputError(f"rho_max({l}) needs h_{l + 1}, beyond generated range")
        return ln_int(self.h[l])

    def weight_fraction(self, l: int) -> Fraction:
        if l >= len(self.h):
            raise InputError(f"weight({l}) needs h_{l + 1}, beyond generated range")
        return Fraction(1, self.h[l - 1]) - Fraction(1, self.h[l])

    def weight(self, l: int) -> float:
        return float(self.weight_fraction(l))


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
    return SmoothSequence(basis=basis, h=tuple(h))


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


def d_count(basis: PrimeBasis, rho: float) -> int:
    """Lattice count |{(n_1..n_m) >= 0 : sum n_i ln r_i <= rho}|.

    rho is resolved to the integer bound floor(e^rho) with a few-ulp guard
    that snaps up when e^rho lands just below an integer, so rho = ln k
    counts k itself.
    """
    if rho < 0:
        raise InputError("rho must be >= 0")
    t = math.exp(rho)
    n = math.floor(t)
    if n + 1 - t <= 8.0 * math.ulp(t):
        n += 1
    return d_count_int(basis, max(1, n))


def _coprime_array(basis: PrimeBasis, N: int) -> np.ndarray:
    if N < 1:
        raise InputError("N must be >= 1")
    mask = np.ones(N + 1, dtype=bool)
    mask[0] = False
    for p in basis.primes:
        mask[p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def coprime_set(basis: PrimeBasis, N: int) -> list[int]:
    """Sorted a <= N coprime to every basis prime."""
    return _coprime_array(basis, N).tolist()


def coprime_count(basis: PrimeBasis, N: int) -> int:
    return int(_coprime_array(basis, N).size)


def b_set(basis: PrimeBasis, a: int, N: int) -> list[int]:
    """Sorted smooth multiples of a up to N; a must be coprime to the basis."""
    a = int(a)
    if a < 1:
        raise InputError("a must be >= 1")
    if any(a % p == 0 for p in basis.primes):
        raise InputError(f"a={a} is not coprime to the prime basis {basis.primes}")
    if a > N:
        return []
    h = _smooth_prefix(basis.primes, bound=N // a)
    return [a * v for v in h[: bisect_right(h, N // a)]]


def partition_check(basis: PrimeBasis, N: int) -> bool:
    """True iff the fibers over the coprime skeleton tile {1..N} exactly once."""
    a_arr = _coprime_array(basis, N)
    h = _smooth_prefix(basis.primes, bound=N)
    counts = np.zeros(N + 1, dtype=np.int16)
    for hv in h:
        if hv > N:
            break
        sel = a_arr[: np.searchsorted(a_arr, N // hv, side="right")]
        counts[sel * hv] += np.int16(1)
    return bool((counts[1:] == 1).all())


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


def window_index_set(m: int, b: int, ell: int) -> set[int]:
    """All dilated indices j*k with m < k <= m+b and 1 <= j <= ell."""
    if m < 0 or b < 1 or ell < 1:
        raise InputError("need m >= 0, b >= 1, ell >= 1")
    return {j * k for k in range(m + 1, m + b + 1) for j in range(1, ell + 1)}


def windows_iid(m: int, b: int, ell: int) -> bool:
    """True iff no dilated index is shared by two window positions.

    Window summands over k in (m, m+b] read the draws at j*k for j <= ell;
    they are i.i.d. exactly when no equality i*k = j*k' with k != k' occurs.
    That holds whenever m > (ell-1)*b.
    """
    if m < 0 or b < 1 or ell < 1:
        raise InputError("need m >= 0, b >= 1, ell >= 1")
    owner: dict[int, int] = {}
    for k in range(m + 1, m + b + 1):
        for j in range(1, ell + 1):
            idx = j * k
            prev = owner.setdefault(idx, k)
            if prev != k:
                return False
    return True
