"""Independent oracles used by the tests.

Everything here recomputes target quantities by a different route than the
library: brute-force enumeration, naive loops, dense grid search, exact
rational arithmetic.  Keep these free of library internals beyond the plain
data types; ``finite_pressure`` alone composes library parts, because it
is the finite-N reference for the pressure series, not for its kernels.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
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


def dyadic_exponent(values):
    """The least q with every value an integer multiple of 2**-q (0 if all are 0).

    Each nonzero float is a / b in lowest terms with b = 2**k: its q is k,
    or minus the trailing zero bits of a when b = 1.
    """
    qs = []
    for x in values:
        if x != 0:
            a, b = float(x).as_integer_ratio()
            qs.append(b.bit_length() - 1 if b > 1 else 1 - (a & -a).bit_length())
    return max(qs, default=0)


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


def log_phi(vals, probs, t):
    """ln E exp(tF) in 60-digit decimals, rounded once; ``vals`` and ``probs`` read exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        tv = [Decimal(float(t)) * Decimal(float(x)) for x in vals]
        c = max(tv)
        phi = sum(Decimal(float(q)) * (x - c).exp() for q, x in zip(probs, tv))
        return float(c + phi.ln())


def cramer_rate(vals, probs, alpha):
    """Cramer's I(alpha) = sup_t (t*alpha - ln E exp(tF)) in 60-digit decimals, with t uncapped.

    ``vals`` are F's values and ``probs`` their probabilities, read exactly
    and then normalized.
    The root of the tilted mean m(t) = alpha is bracketed by doubling |t|
    from 1, then found by Newton steps on m (m' is the tilted variance),
    each replaced by a bisection when it leaves the bracket.  The exps are
    shifted by max t*F, so no t is too large.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        v = [Decimal(float(x)) for x in vals]
        p = [Decimal(float(q)) for q in probs]
        p = [q / sum(p) for q in p]  # float probabilities may sum to 1 +- an ulp
        a = Decimal(float(alpha))
        if not min(v) <= a <= max(v):
            return math.inf
        if a in (min(v), max(v)):
            return float(-sum(q for q, x in zip(p, v) if x == a).ln())

        def tilt(t):
            """(ln E exp(tF), tilted mean, tilted variance)."""
            c = max(t * x for x in v)
            w = [q * (t * x - c).exp() for q, x in zip(p, v)]
            z = sum(w)
            m = sum(wi * x for wi, x in zip(w, v)) / z
            return c + z.ln(), m, sum(wi * (x - m) ** 2 for wi, x in zip(w, v)) / z

        mean = tilt(Decimal(0))[1]
        if a == mean:
            return 0.0
        sgn = 1 if a > mean else -1
        near, far = Decimal(0), Decimal(sgn)
        while sgn * (tilt(far)[1] - a) < 0:
            near, far = far, 2 * far
        lo, hi = min(near, far), max(near, far)
        t = (lo + hi) / 2
        for _ in range(1000):
            _, m, var = tilt(t)
            if m == a:
                break
            lo, hi = (t, hi) if m < a else (lo, t)
            newton = t + (a - m) / var
            step = newton if lo < newton < hi else (lo + hi) / 2
            if abs(step - t) <= Decimal("1e-50") * abs(step):
                break
            t = step
        return float(t * a - tilt(t)[0])


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
    Complex tables (a complex step) are renormalized by the max of their
    real part, and the log of the last sum z is ln Re z + i Im z / Re z.
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
            mx = float(new_tab.real.max())
            logscale += math.log(mx)
            live.append((new_scope, new_tab / mx))
        else:
            z = new_tab.item()
            if isinstance(z, complex):
                logscale += complex(math.log(z.real), z.imag / z.real)
            else:
                logscale += math.log(z)
        variables.remove(v)
    return logscale


def transfer_log_r(probs, table, lam, L):
    """ln R_l for l = 1..L of an ell = 2 chain, one lambda and one step at a time.

    f starts at the marginal weights; each step multiplies by the kernel
    exp(lam * F) and the weights again, then renormalizes by the real part
    of the sum c, whose logs accumulate.  A complex lam + ih carries the
    complex step: ln R_l = sum_{k<=l} ln Re c_k + i Im c_l/Re c_l.
    """
    probs = np.asarray(probs, dtype=np.float64)
    s = probs.size
    kernel = np.exp(lam * np.asarray(table, dtype=np.float64)).reshape(s, s)
    f = probs.copy()
    logacc = 0.0
    out = []
    for _ in range(L):
        g = (f @ kernel) * probs
        c = g.sum().item()
        logacc += math.log(c.real)
        out.append(complex(logacc, c.imag / c.real) if isinstance(c, complex) else logacc)
        f = g / c.real
    return out


def pressure_tail(h, beyond):
    """tail[L] = sum_{l>L} l*w_l over the smooth numbers ``h``, one term at a time.

    (L+1)/h_{L+1} plus the suffix sum of 1/h_l for l >= L+2, which starts
    at ``beyond`` (the bound past h) and adds 1/h_l downwards from the last.
    """
    inv = [1.0 / hv for hv in h]
    suffix = beyond
    tail = np.empty(len(h), dtype=np.float64)
    for L in range(len(h) - 1, 0, -1):
        tail[L] = (L + 1) * inv[L] + suffix
        suffix += inv[L]
    tail[0] = inv[0] + suffix
    return tail


def partition_check(primes, N):
    """True iff each b <= N is a * h once, a coprime to ``primes``, h a product of them.

    One pass per smooth h: count a * h for every a <= N // h.
    """
    mask = np.ones(N + 1, dtype=bool)
    mask[0] = False
    for p in primes:
        mask[p::p] = False
    a_arr = np.nonzero(mask)[0]
    counts = np.zeros(N + 1, dtype=np.int64)
    for hv in brute_smooth(primes, N):
        sel = a_arr[: np.searchsorted(a_arr, N // hv, side="right")]
        counts[sel * hv] += 1
    return bool((counts[1:] == 1).all())


def first_below(tail, target):
    """First L >= 1 with tail[L] < target, by a scan of the whole array; None if none."""
    hit = np.nonzero(np.asarray(tail)[1:] < target)[0]
    return int(hit[0]) + 1 if hit.size else None


def pressure_l2(probs, table, weights, tail, r_const, sup_abs, tol, lam):
    """(Q(lam), tail bound, L) of an ell = 2 observable, one lambda at a time.

    L is the first length whose certified tail r * M * |lam| * tail[L] is
    below ``tol``; Q is r * fsum(w_l * ln R_l) over l <= L.
    """
    if lam == 0.0:
        return 0.0, 0.0, 0
    scale = r_const * sup_abs * abs(lam)
    L = first_below(tail, tol / scale)
    lnr = transfer_log_r(probs, table, lam, L)
    value = r_const * math.fsum(weights[i] * lnr[i] for i in range(L))
    return value, scale * float(tail[L]), L


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_conjugate(q, u, cap, lambda_tol, slope_tol, slope_delta):
    """sup over lambda of lambda*u - q(lambda) for one u, by a scalar golden section.

    inf when the objective still climbs at ``cap`` with slope >= slope_tol,
    measured over a step of min(slope_delta, cap / 2); otherwise the best of
    the cap value and the section's last two points, floored at 0.
    """
    u = float(u)
    if u == 0.0:
        return 0.0
    a, sgn = abs(u), (1.0 if u > 0 else -1.0)
    delta = min(slope_delta, cap / 2)

    def g(t):
        return t * a - q(sgn * t)

    g_cap = g(cap)
    if (g_cap - g(cap - delta)) / delta >= slope_tol:
        return math.inf
    lo, hi = 0.0, cap
    span = hi - lo
    n_iter = max(1, math.ceil(math.log(lambda_tol / span) / math.log(_INV_PHI)))
    x1 = hi - _INV_PHI * span
    x2 = lo + _INV_PHI * span
    g1, g2 = g(x1), g(x2)
    best = max(0.0, g_cap)
    for _ in range(n_iter):
        if g1 >= g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _INV_PHI * (hi - lo)
            g1 = g(x1)
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _INV_PHI * (hi - lo)
            g2 = g(x2)
        if hi - lo <= lambda_tol:
            break
    best = max(best, g1, g2)
    return max(0.0, best)


def conjugate_search(u, tol, cap, M, max_evals, slope_tol):
    """The certified conjugate search for J(u), re-deriving every bracket from all probes.

    The reference for ``RateJ._search``: a generator that yields each lambda
    it needs and is sent an evaluation with ``value``, ``slope``,
    ``slope_bound`` and ``tail_bound``.  A probe's bracket is recomputed
    from every probe each time its gap is read, so a round costs a pass over
    the probes per probe.  Out of evaluations it raises the library's
    ToleranceError, with the same message.
    """
    from ncsums.errors import ToleranceError

    if u == 0.0:
        return 0.0
    a, sgn = abs(u), (1.0 if u > 0 else -1.0)
    # a probe is (t, g, f, slope_bound, tail_bound); the origin's own sign takes no margin
    origin = (0.0, 0.0, -a, 0.0, 0.0)
    probes = [origin]

    def probe(t):
        ev = yield sgn * t
        p = (t, t * a - ev.value, sgn * ev.slope - a, ev.slope_bound, ev.tail_bound)
        probes.append(p)
        return p

    def sign(q, p):
        margin = 0.0 if q is origin else abs(q[3] - p[3])
        return 1 if q[2] > margin else -1 if q[2] < -margin else 0

    def gap(p):
        lo = max(q[0] for q in probes if sign(q, p) < 0)
        hi = min([cap] + [q[0] for q in probes if sign(q, p) > 0])
        return abs(p[2]) * max(hi - p[0], p[0] - lo) + p[4]

    def settle(best):
        if gap(best) > tol:
            raise ToleranceError(
                f"conjugate search at u={u} reached gap {gap(best):.3e} "
                f"after {max_evals} pressure evaluations, over tol={tol}",
                achievable_tol=gap(best),
            )
        return max(0.0, best[1])

    def interpolate(ps):
        if len(ps) == 3:
            (x0, f0), (x1, f1), (x2, f2) = ((p[0], p[2]) for p in ps)
            if f0 != f1 and f1 != f2 and f0 != f2:
                return (
                    x0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
                    + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                    + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1))
                )
        (x0, f0), (x1, f1) = ((p[0], p[2]) for p in ps[-2:])
        return None if f0 == f1 else x1 - f1 * (x1 - x0) / (f1 - f0)

    t = min(cap, a / M**2 if math.isfinite(M * M) else a / M / M)
    while True:
        if len(probes) > max_evals:
            return settle(min(probes, key=gap))
        p = yield from probe(t)
        if p[2] > 0.0:
            break
        if t == cap:
            return math.inf if -p[2] - p[3] >= slope_tol else max(0.0, p[1])
        x = interpolate(probes[-2:])
        t = min(cap, 2.0 * t, 2.0 * x - t if x is not None and x > t else math.inf)
    widths = [math.inf, math.inf]
    while True:
        best = min(probes, key=gap)
        if gap(best) <= tol or len(probes) > max_evals:
            return settle(best)
        lo = max((q for q in probes if q[2] < 0.0), key=lambda q: q[0])[0]
        hi = min((q for q in probes if q[2] > 0.0), key=lambda q: q[0])[0]
        x = interpolate(probes[-3:]) if hi - lo <= 0.5 * widths[-2] else None
        if x is None or not lo < x < hi:
            x = 0.5 * (lo + hi)
        widths.append(hi - lo)
        step = 0.5 * (tol - best[4]) / abs(best[2])
        toward = -1.0 if best[2] > 0.0 else 1.0
        if toward * (x - best[0]) < step:
            forced = min(cap, max(0.0, best[0] + toward * step))
            if all(q[0] != forced for q in probes):
                x = forced
        yield from probe(x)


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


def erlaw_summaries_naive(points, alpha_grid, n_grid):
    """The points sorted by (alpha, n, seed), and one summary dict per
    (alpha, n) in increasing order, each taken by a filter over every point."""
    points = sorted(points, key=lambda p: (p.alpha, p.n, p.seed))
    summaries = []
    for a in sorted(alpha_grid):
        for n in sorted(n_grid):
            stats = [p.statistic for p in points if p.alpha == a and p.n == n]
            devs = [abs(x - a) for x in stats]
            summaries.append(
                dict(
                    alpha=a,
                    n=n,
                    mean_statistic=math.fsum(stats) / len(stats),
                    min_statistic=min(stats),
                    max_statistic=max(stats),
                    mean_abs_dev=math.fsum(devs) / len(devs),
                    max_abs_dev=max(devs),
                )
            )
    return points, summaries


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


def fmt_value(x):
    """The CLI's CSV rendering of one value, spelled out case by case."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(x, ".9g")
    return str(x)


def render_simulate(fmt, payload, prefix, stride):
    """simulate's output text by the generic route, without a timestamp.

    The rows are (k, float) tuples for k = 0, stride, 2*stride, ... and n;
    CSV writes each value through fmt_value, JSON is json.dumps(indent=2) of
    ``payload`` with the rows appended as its last key.
    """
    n = len(prefix) - 1
    ks = list(range(0, n + 1, stride))
    if ks[-1] != n:
        ks.append(n)
    rows = [(k, float(prefix[k])) for k in ks]
    if fmt == "json":
        return json.dumps({**payload, "rows": rows}, indent=2) + "\n"
    lines = ["k,S_k"] + [",".join(fmt_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cell_table(dist, ell, fn):
    """The flat row-major table of ``fn`` on support values, one call per cell.

    Each code is decoded into its ell support indices digit by digit.
    """
    s, vals = dist.size, dist.values
    flat = np.empty(s**ell, dtype=np.float64)
    idx = [0] * ell
    for code in range(s**ell):
        c = code
        for j in range(ell - 1, -1, -1):
            idx[j] = c % s
            c //= s
        flat[code] = fn(*(vals[i] for i in idx))
    return flat


# The allocating draw kernel, kept as the reference for the in-place one in
# ncsums.simulate: every step returns a fresh array, and the trajectory block
# size is an argument.

_MASK64 = (1 << 64) - 1
_U_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def mix_batch(keys, counters):
    """SplitMix64 fin(key + counter*GAMMA), broadcasting keys against counters."""
    if isinstance(keys, int):
        keys = np.uint64(keys & _MASK64)
    keys = np.asarray(keys, dtype=np.uint64)
    step = counters.astype(np.uint64, copy=False) * _U_GAMMA
    z = keys + step
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def threshold_words(dist):
    """Words ceil(cum_i * 2**53) * 2**11 below 2**64."""
    words = [math.ceil(c * 2.0**53) << 11 for c in dist.cumulative().tolist()]
    return np.array([w for w in words if w <= _MASK64], dtype=np.uint64)


def sample_indices(dist, keys, counters):
    z = mix_batch(keys, counters)
    count = np.zeros(z.shape, dtype=np.int64)
    hit = np.empty(z.shape, dtype=bool)
    for t in threshold_words(dist):
        count += np.greater_equal(z, t, out=hit)
    return count


def term_values(dist, obs, keys, ms, mode):
    ms = np.asarray(ms, dtype=np.uint64)
    code = 0
    for j in range(1, obs.ell + 1):
        if mode == "nonconventional":
            counters = ms * np.uint64(j)
        else:
            counters = (ms - np.uint64(1)) * np.uint64(obs.ell) + np.uint64(j)
        code = code * dist.size + sample_indices(dist, keys, counters)
    return obs.table[code]


def trajectory(dist, obs, seed, n, mode, block):
    """Sum2 prefix sums S_0..S_n, built from fresh arrays ``block`` terms at a time."""
    prefix = np.empty(n + 1, dtype=np.float64)
    prefix[0] = s = e = 0.0
    for m0 in range(1, n + 1, block):
        m1 = min(n + 1, m0 + block)
        x = term_values(dist, obs, seed, np.arange(m0, m1, dtype=np.uint64), mode)
        acc = np.cumsum(np.concatenate(([s], x)))
        prev, t = acc[:-1], acc[1:]
        z = t - prev
        err = (prev - (t - z)) + (x - z)
        comp = np.cumsum(np.concatenate(([e], err)))
        prefix[m0:m1] = t + comp[1:]
        s, e = acc[-1], comp[-1]
    return prefix


def replica_total(dist, obs, keys, terms, mode):
    """Per replica key, F summed over the term numbers ``terms`` in order."""
    total = np.zeros(keys.shape, dtype=np.float64)
    for m in terms:
        total += term_values(dist, obs, keys, [m], mode)
    return total


def ldp_chunk_count(dist, obs, N, u, seed, r0, r1, mode):
    """Replicas r0 <= r < r1 whose S_N / N reaches u."""
    keys = mix_batch(seed, np.arange(r0, r1, dtype=np.uint64))
    total = replica_total(dist, obs, keys, range(1, N + 1), mode)
    return int(np.count_nonzero((total / N) >= u))


def r_l_mc(dist, obs, lam, terms, replicas, seed):
    """Mean and standard error of exp(lam * sum over chain terms), replica r keyed mix64(seed, r)."""
    keys = mix_batch(seed, np.arange(replicas, dtype=np.uint64))
    sample = np.exp(lam * replica_total(dist, obs, keys, terms, "nonconventional"))
    return float(sample.mean()), float(sample.std(ddof=1) / math.sqrt(replicas))


def finite_pressure(dist, obs, lam, N):
    """(1/N) ln E exp(lam * S_N), exact through per-fiber factorization.

    Fibers over distinct coprime a never share a dilated index (the coprime
    part of j*a*h is a), so the expectation is the product of R over fiber
    sizes, each from the library's exact ln R_l; at ell = 1, ln R_l = l * ln phi.
    """
    from ncsums import lattice, rates
    from ncsums.model import value_distribution

    basis = lattice.primes_up_to(obs.ell)
    _, sizes = lattice.fiber_sizes(basis, N)
    counts = np.bincount(sizes)
    L = int(sizes.max())
    if basis.m == 0:
        lnr = [l * log_phi(*value_distribution(dist, obs), lam) for l in range(1, L + 1)]
    else:
        lnr = rates.log_r_sequence(dist, obs, basis, lam, L)
    total = math.fsum(float(counts[l]) * lnr[l - 1] for l in range(1, L + 1) if counts[l])
    return total / N
