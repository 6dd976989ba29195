"""Independent oracles used by the tests.

Everything here recomputes target quantities by a different route than the
library: brute-force enumeration, naive loops, dense grid search, exact
rational arithmetic.  Keep these free of library internals beyond the plain
data types.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np


def brute_smooth(primes, bound):
    """All products of the primes up to ``bound``, by nested exponent loops."""
    out = {1}
    for p in primes:
        new = set()
        for v in out:
            w = v
            while w <= bound:
                new.add(w)
                w *= p
        out = new
    return sorted(v for v in out if v <= bound)


def make_lattice_counter(primes):
    """Counter x -> #{exponent tuples with prod p_i**n_i <= x}, recursion on primes.

    The memo persists across calls, so sweeping many bounds stays cheap.
    """

    @lru_cache(maxsize=None)
    def count(bound, i):
        if i == len(primes):
            return 1
        total = 0
        q = 1
        while q <= bound:
            total += count(bound // q, i + 1)
            q *= primes[i]
        return total

    return lambda x: count(x, 0)


def lattice_count_recursion(primes, x):
    return make_lattice_counter(primes)(x)


def rademacher_rate_closed(alpha):
    """Closed form for the +-1 coin: ((1+a)/2)ln(1+a) + ((1-a)/2)ln(1-a)."""
    if abs(alpha) > 1:
        return math.inf
    if abs(alpha) == 1:
        return math.log(2.0)
    return 0.5 * (1 + alpha) * math.log1p(alpha) + 0.5 * (1 - alpha) * math.log1p(-alpha)


def grid_search_rate(dist, obs, alpha, t_max=40.0, steps=400000):
    """Dense grid maximization of t*alpha - ln E exp(tF); a lower bound on I."""
    from ncsums.model import value_distribution

    vals, probs = value_distribution(dist, obs)
    ts = np.linspace(0.0 if alpha >= 0 else -t_max, t_max if alpha >= 0 else 0.0, steps)
    tv = np.outer(ts, vals)
    shift = tv.max(axis=1, keepdims=True)
    log_phi = np.log(np.exp(tv - shift) @ probs) + shift[:, 0]
    return float(np.max(ts * alpha - log_phi))


def enumerate_chain_expectation(dist, obs, lam, chain):
    """E exp(lam * chain sum) by full enumeration over the distinct indices."""
    s = len(dist.values)
    d = len(chain.indices)
    total = 0.0
    for assign in product(range(s), repeat=d):
        p = 1.0
        for i in assign:
            p *= dist.probs[i]
        acc = 0.0
        for positions in chain.term_positions:
            code = 0
            for pos in positions:
                code = code * s + assign[pos]
            acc += float(obs.table[code])
        total += p * math.exp(lam * acc)
    return total


def _embed(tab, scope, union, s):
    """Reshape a factor with ascending scope into the axes of an ascending union."""
    in_scope = set(scope)
    shape = tuple(s if v in in_scope else 1 for v in union)
    return tab.reshape(shape)


def eliminate_log(probs, s, factors, cells=None):
    """Log of the fully-summed factor product, one marginal weight per variable.

    The rescanning sum-product elimination: at every step each remaining
    variable's union of live scopes is recomputed from scratch, and the
    smallest wins (ties to the smallest variable).  Each new table is
    renormalized by its max, with the log of the scale accumulated.  When
    ``cells`` is a list, the size of every table built is appended to it.
    """
    live = list(factors)
    variables = sorted({v for sc, _ in live for v in sc})
    logscale = 0.0
    while variables:
        best_v, best_union = None, None
        for v in variables:
            union = set()
            for sc, _ in live:
                if v in sc:
                    union.update(sc)
            if best_union is None or len(union) < len(best_union):
                best_v, best_union = v, union
        v = best_v
        union = tuple(sorted(best_union))
        if cells is not None:
            cells.append(s ** len(union))
        group = [f for f in live if v in f[0]]
        acc = None
        for sc, tab in group:
            emb = _embed(tab, sc, union, s)
            acc = emb if acc is None else acc * emb
        ax = union.index(v)
        wshape = [1] * len(union)
        wshape[ax] = s
        acc = acc * probs.reshape(wshape)
        new_tab = acc.sum(axis=ax)
        new_scope = tuple(u for u in union if u != v)
        live = [f for f in live if v not in f[0]]
        if new_scope:
            mx = float(new_tab.max())
            logscale += math.log(mx)
            live.append((new_scope, new_tab / mx))
        else:
            logscale += math.log(float(new_tab))
        variables.remove(v)
    return logscale


def enumerate_pair_dilation_mgf(lam, N):
    """E exp(lam * sum_{m<=N} X_m X_{2m}) for +-1 coins, over all 2**(2N) outcomes."""
    n_draws = 2 * N
    codes = np.arange(1 << n_draws, dtype=np.uint64)
    total = np.zeros(codes.size, dtype=np.float64)
    for m in range(1, N + 1):
        a = ((codes >> np.uint64(m - 1)) & np.uint64(1)).astype(np.float64) * 2 - 1
        b = ((codes >> np.uint64(2 * m - 1)) & np.uint64(1)).astype(np.float64) * 2 - 1
        total += a * b
    return float(np.exp(lam * total).mean())


def prefix_fsum(x, ks):
    """Correctly rounded sums math.fsum(x[:k]) at each checkpoint k of ``ks``."""
    return [math.fsum(x[:k]) for k in ks]


def window_max_naive(prefix, b):
    best = None
    n = len(prefix) - 1
    for m in range(0, n - b + 1):
        v = prefix[m + b] - prefix[m]
        if best is None or v > best:
            best = v
    return best


def binomial_tail_at_least(n, k):
    """P(Binomial(n, 1/2) >= k), exact."""
    return Fraction(sum(math.comb(n, j) for j in range(k, n + 1)), 2**n)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def unmix_counter(word, key=0):
    """Counter c with SplitMix64 fin(key + c*GAMMA) == word, by running fin backwards.

    Each step of the finalizer is a bijection of 64-bit words: an odd
    multiplier has an inverse modulo 2**64, and y = x ^ (x >> s) is undone by
    iterating x <- y ^ (x >> s), which fixes s more top bits per pass.
    """
    mod = 1 << 64

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(word, 31)
    z = z * pow(0x94D049BB133111EB, -1, mod) % mod
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, mod) % mod
    z = unshift(z, 30)
    return (z - key) * pow(0x9E3779B97F4A7C15, -1, mod) % mod
