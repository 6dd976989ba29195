"""Rate functions: the Cramér transform, the fiber pressure series, and its conjugate.

The pressure Q(lambda) of a dilation sum is a weighted series over fiber
lengths l, with weights 1/h_l - 1/h_{l+1} from the smooth-number sequence
and per-fiber terms ln R_l.  R_l is the exact expectation of
exp(lambda * sum of l chained observable terms); the chain shares draws
between terms, so it is evaluated by sum-product elimination over the
shared-index dependency graph rather than by brute enumeration.

Truncation of the series is certified: ln R_l <= l*M*|lambda| bounds every
dropped term, and the smooth numbers beyond the enumerated range are
bounded below through h_l >= 2**(l**(1/m) - 1).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice
from .errors import (
    BudgetExceededError,
    DegenerateObservableError,
    InputError,
    ToleranceError,
)
from .lattice import PrimeBasis, smooth_numbers_capped
from .model import FiniteDistribution, Observable, is_degenerate, value_distribution

DEFAULT_BUDGET = 10**7

# Default conjugate-variable search cap, in units of 1/M.
CAP_OVER_M = 60.0

LN2 = math.log(2.0)


def mgf(dist: FiniteDistribution, obs: Observable, t: float) -> float:
    """Exact moment generating function E exp(t * F)."""
    if t == 0.0:
        return 1.0
    vals, probs = value_distribution(dist, obs)
    shift = float(np.max(t * vals))
    return float(np.dot(probs, np.exp(t * vals - shift))) * math.exp(shift)


class CramerRate:
    """Convex conjugate of ln(mgf), evaluated by derivative bisection.

    The tilted mean t -> phi'(t)/phi(t) is strictly increasing when the
    observable has positive variance, so the supremum over t is located by
    bisection on it; the one-sided search (t >= 0 for alpha >= 0) is valid
    because the observable is centered.
    """

    def __init__(self, dist: FiniteDistribution, obs: Observable, t_cap: float | None = None):
        if is_degenerate(obs):
            raise DegenerateObservableError("rate function needs positive variance")
        if abs(obs.mean) > 1e-9 * max(1.0, obs.sup_abs):
            raise InputError(
                "observable must be centered (apply center(), or --center on the CLI)"
            )
        self.dist = dist
        self.obs = obs
        vals, probs = value_distribution(dist, obs)
        self._vals = vals
        self._probs = probs
        self.t_cap = float(t_cap) if t_cap is not None else CAP_OVER_M / obs.sup_abs

    def log_mgf(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        shift = float(np.max(t * self._vals))
        return shift + math.log(float(np.dot(self._probs, np.exp(t * self._vals - shift))))

    def tilted_mean(self, t: float) -> float:
        w = self._probs * np.exp(t * self._vals - float(np.max(t * self._vals)))
        return float(np.dot(w, self._vals) / w.sum())

    def _mass_at(self, v: float) -> float:
        return float(self._probs[self._vals == v].sum())

    def __call__(self, alpha: float) -> float:
        alpha = float(alpha)
        if alpha == 0.0:
            return 0.0
        obs = self.obs
        if alpha > 0:
            if alpha > obs.sup_pos:
                return math.inf
            if alpha == obs.sup_pos:
                return -math.log(self._mass_at(float(self._vals[-1])))
            lo, hi = 0.0, min(1.0, self.t_cap)
            while self.tilted_mean(hi) < alpha and hi < self.t_cap:
                hi = min(2.0 * hi, self.t_cap)
            if self.tilted_mean(hi) < alpha:
                # alpha within ulps of the sup; the objective is flat past here
                return max(0.0, hi * alpha - self.log_mgf(hi))
        else:
            if -alpha > obs.sup_neg:
                return math.inf
            if -alpha == obs.sup_neg:
                return -math.log(self._mass_at(float(self._vals[0])))
            lo, hi = -min(1.0, self.t_cap), 0.0
            while self.tilted_mean(lo) > alpha and lo > -self.t_cap:
                lo = max(2.0 * lo, -self.t_cap)
            if self.tilted_mean(lo) > alpha:
                return max(0.0, lo * alpha - self.log_mgf(lo))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.tilted_mean(mid) < alpha:
                lo = mid
            else:
                hi = mid
            if abs(hi - lo) <= 1e-13 * max(1.0, abs(hi)):
                break
        t = 0.5 * (lo + hi)
        return max(0.0, t * alpha - self.log_mgf(t))


def cramer_rate(
    dist: FiniteDistribution, obs: Observable, alpha: float, t_cap: float | None = None
) -> float:
    return CramerRate(dist, obs, t_cap=t_cap)(alpha)


# ---------------------------------------------------------------------------
# Chain structure and exact fiber expectations.


@dataclass(frozen=True)
class ChainStructure:
    """Distinct dilated indices of an l-term fiber chain and per-term layout.

    ``indices`` is the sorted set {j*h_k : j <= ell, k <= l};
    ``term_indices[k]`` are term k's ell index values in argument order, and
    ``term_positions[k]`` the 0-based positions of those values in ``indices``.
    """

    indices: tuple[int, ...]
    term_indices: tuple[tuple[int, ...], ...]
    term_positions: tuple[tuple[int, ...], ...]


def chain_index_structure(basis: PrimeBasis, ell: int, l: int) -> ChainStructure:
    if ell != basis.ell:
        raise InputError(f"ell={ell} does not match basis ell={basis.ell}")
    if l < 1:
        raise InputError("chain length l must be >= 1")
    if basis.m == 0:
        # no shared indices: l disjoint singleton terms
        idx = tuple(range(1, l + 1))
        return ChainStructure(
            indices=idx,
            term_indices=tuple((k,) for k in idx),
            term_positions=tuple((k - 1,) for k in idx),
        )
    h = smooth_numbers_capped(basis, l).h
    if len(h) < l:
        raise BudgetExceededError(
            f"fiber chain of length {l} exceeds 128-bit smooth capacity for ell={basis.ell}"
        )
    terms = tuple(tuple(j * h[k] for j in range(1, ell + 1)) for k in range(l))
    indices = tuple(sorted({i for t in terms for i in t}))
    pos = {v: i for i, v in enumerate(indices)}
    positions = tuple(tuple(pos[i] for i in t) for t in terms)
    return ChainStructure(indices=indices, term_indices=terms, term_positions=positions)


def _embed(tab: np.ndarray, scope: tuple[int, ...], union: tuple[int, ...], s: int):
    """Reshape a factor with ascending scope into the axes of an ascending union."""
    in_scope = set(scope)
    shape = tuple(s if v in in_scope else 1 for v in union)
    return tab.reshape(shape)


def _eliminate_log(
    probs: np.ndarray, s: int, factors: list[tuple[tuple[int, ...], np.ndarray]], budget: int
) -> float:
    """Log of the fully-summed factor product, one marginal weight per variable.

    Variables are eliminated greedily by smallest resulting clique; each new
    table is renormalized by its max to keep values in range, with the log of
    the scale accumulated.  Cost is counted in table cells built and checked
    against ``budget``.
    """
    live = list(factors)
    variables = sorted({v for sc, _ in live for v in sc})
    logscale = 0.0
    cost = 0
    while variables:
        best_v, best_union = None, None
        for v in variables:
            union: set[int] = set()
            for sc, _ in live:
                if v in sc:
                    union.update(sc)
            if best_union is None or len(union) < len(best_union):
                best_v, best_union = v, union
        v = best_v
        union = tuple(sorted(best_union))
        cost += s ** len(union)
        if cost > budget:
            raise BudgetExceededError(
                f"elimination needs more than {budget} table cells; "
                "raise the budget or fall back to r_l_mc"
            )
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


def log_r_sequence(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    lam: float,
    L: int,
    budget: int = DEFAULT_BUDGET,
) -> list[float]:
    """ln R_l for l = 1..L.

    ell = 1 collapses to l * ln(mgf); ell = 2 chains are a pure transfer
    recursion over successive smooth indices (one forward pass yields all
    lengths); larger ell goes through generic elimination per length.
    """
    if L < 1:
        return []
    if lam == 0.0:
        return [0.0] * L
    s = dist.size
    probs = np.asarray(dist.probs, dtype=np.float64)
    if obs.ell == 1:
        lphi = math.log(mgf(dist, obs, lam))
        return [k * lphi for k in range(1, L + 1)]
    if obs.ell == 2:
        if L * s * s > budget:
            raise BudgetExceededError(
                f"transfer recursion needs {L * s * s} cells, over budget {budget}",
                completed=budget // (s * s),
            )
        kernel = np.exp(lam * obs.table).reshape(s, s)
        f = probs.copy()
        logacc = 0.0
        out = []
        for _ in range(L):
            g = (f @ kernel) * probs
            c = float(g.sum())
            logacc += math.log(c)
            out.append(logacc)
            f = g / c
        return out
    shaped = np.exp(lam * obs.table).reshape((s,) * obs.ell)
    out = []
    for l in range(1, L + 1):
        chain = chain_index_structure(basis, obs.ell, l)
        factors = [(scope, shaped) for scope in chain.term_indices]
        try:
            out.append(_eliminate_log(probs, s, factors, budget))
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), completed=l - 1) from None
    return out


def log_r_l(
    dist: FiniteDistribution,
    obs: Observable,
    lam: float,
    l: int,
    basis: PrimeBasis | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    if l < 1:
        raise InputError("l must be >= 1")
    if basis is None:
        basis = lattice.primes_up_to(obs.ell)
    return log_r_sequence(dist, obs, basis, lam, l, budget=budget)[-1]


def r_l(
    dist: FiniteDistribution,
    obs: Observable,
    lam: float,
    l: int,
    budget: int = DEFAULT_BUDGET,
    basis: PrimeBasis | None = None,
) -> float:
    """Exact E exp(lam * sum of the l-term fiber chain)."""
    return math.exp(log_r_l(dist, obs, lam, l, basis=basis, budget=budget))


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float


def r_l_mc(
    dist: FiniteDistribution,
    obs: Observable,
    lam: float,
    l: int,
    replicas: int,
    seed: int,
    basis: PrimeBasis | None = None,
) -> McEstimate:
    """Unbiased Monte-Carlo estimate of R_l with its sample standard error.

    Replica r draws from stream mix64(seed, r); chain term k is the
    nonconventional term number h_k of that stream, so it reads draws
    h_k, 2*h_k, ..., ell*h_k.
    """
    if replicas < 1000:
        raise InputError("replicas must be >= 1000")
    if basis is None:
        basis = lattice.primes_up_to(obs.ell)
    chain = chain_index_structure(basis, obs.ell, l)
    from . import simulate  # deferred: simulate has no rates dependency

    if chain.indices[-1] > simulate.MASK64:
        # draw i and draw i + 2**64 of a stream coincide
        raise InputError(f"chain of length {l} reads draw {chain.indices[-1]}, past 2**64")
    keys = simulate.mix_batch(seed, np.arange(replicas, dtype=np.uint64))
    total = np.zeros(replicas, dtype=np.float64)
    for term in chain.term_indices:
        total += simulate.term_values(dist, obs, keys, [term[0]], "nonconventional")
    sample = np.exp(lam * total)
    value = float(sample.mean())
    stderr = float(sample.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return McEstimate(value=value, stderr=stderr)


# ---------------------------------------------------------------------------
# Pressure series with certified truncation.


@dataclass(frozen=True)
class PressureEval:
    value: float
    tail_bound: float
    truncation_l: int


def _beyond_enumeration_bound(m: int, n: int) -> float:
    """Upper bound on sum_{l > n} 1/h_l using h_l >= 2**(l**(1/m) - 1).

    Integral comparison of 2*exp(-ln2 * x**(1/m)) gives
    (2m / ln2**m) * Gamma(m, ln2 * n**(1/m)) with the upper incomplete
    Gamma expanded for integer m.
    """
    z = LN2 * n ** (1.0 / m)
    poly = 0.0
    term = 1.0
    for k in range(m):
        poly += term
        term = term * z / (k + 1)
    gamma_upper = math.factorial(m - 1) * math.exp(-z) * poly
    return 2.0 * m / LN2**m * gamma_upper


class Pressure:
    """Evaluable Q(lambda) = r * sum_l w_l * ln R_l with tail certified < tol.

    The truncation length adapts to |lambda|: the dropped tail is bounded by
    r * M * |lambda| * sum_{l>L} l * w_l, evaluated exactly over the
    enumerated smooth range and analytically beyond it.  Evaluations at a
    given lambda cache the ln R_l prefix under a lock, so concurrent
    evaluations at different lambda are safe.
    """

    def __init__(
        self,
        dist: FiniteDistribution,
        obs: Observable,
        basis: PrimeBasis,
        tol: float = 1e-8,
        budget: int = DEFAULT_BUDGET,
        max_terms: int = 20000,
    ):
        if basis.ell != obs.ell:
            raise InputError(f"basis ell={basis.ell} does not match observable ell={obs.ell}")
        if not tol > 0:
            raise InputError("tol must be positive")
        self.dist = dist
        self.obs = obs
        self.basis = basis
        self.tol = float(tol)
        self.budget = int(budget)
        self._cache: dict[float, list[float]] = {}
        self._lock = threading.Lock()
        if basis.m == 0:
            self._weights: list[float] = [1.0]
            self._tail = np.zeros(1)
            return
        smooth = smooth_numbers_capped(basis, max_terms)
        h = smooth.h
        n_h = len(h)
        inv = [1.0 / hv for hv in h]
        self._weights = [
            float(Fraction(1, h[i]) - Fraction(1, h[i + 1])) for i in range(n_h - 1)
        ]
        beyond = _beyond_enumeration_bound(basis.m, n_h)
        # tail[L] = sum_{l>L} l*w_l = (L+1)/h_{L+1} + sum_{l>=L+2} 1/h_l
        suffix = beyond
        tail = np.empty(n_h, dtype=np.float64)
        for L in range(n_h - 1, 0, -1):
            tail[L] = (L + 1) * inv[L] + suffix
            suffix += inv[L]
        tail[0] = inv[0] + suffix  # L = 0: whole series
        self._tail = tail
        self.smooth = smooth

    def _truncation(self, lam: float) -> tuple[int, float]:
        scale = self.basis.r_const * self.obs.sup_abs * abs(lam)
        if scale == 0.0:
            return 1, 0.0
        target = self.tol / scale
        tail = self._tail
        # tail is strictly decreasing in L; find the first L >= 1 below target
        hit = np.nonzero(tail[1:] < target)[0]
        if hit.size == 0:
            raise ToleranceError(
                f"certified tail cannot reach tol={self.tol} "
                f"(best achievable {scale * float(tail[-1]):.3e})",
                achievable_tol=scale * float(tail[-1]),
            )
        L = int(hit[0]) + 1
        return L, scale * float(tail[L])

    def _lnr_prefix(self, lam: float, L: int) -> list[float]:
        with self._lock:
            seq = self._cache.get(lam, [])
            if len(seq) < L:
                seq = log_r_sequence(
                    self.dist, self.obs, self.basis, lam, L, budget=self.budget
                )
                self._cache[lam] = seq
            return seq

    def detail(self, lam: float) -> PressureEval:
        lam = float(lam)
        if self.basis.m == 0:
            return PressureEval(math.log(mgf(self.dist, self.obs, lam)), 0.0, 1)
        if lam == 0.0:
            return PressureEval(0.0, 0.0, 0)
        L, bound = self._truncation(lam)
        try:
            lnr = self._lnr_prefix(lam, L)
        except BudgetExceededError as exc:
            done = max(exc.completed, len(self._cache.get(lam, [])))
            scale = self.basis.r_const * self.obs.sup_abs * abs(lam)
            achievable = scale * float(self._tail[done]) if done >= 1 else None
            raise ToleranceError(
                f"budget exhausted at fiber length {done + 1}; "
                f"achievable tol is {achievable}",
                achievable_tol=achievable,
            ) from exc
        value = self.basis.r_const * math.fsum(
            self._weights[i] * lnr[i] for i in range(L)
        )
        return PressureEval(value, bound, L)

    def __call__(self, lam: float) -> float:
        return self.detail(lam).value


def pressure(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    lam: float,
    tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
) -> float:
    return Pressure(dist, obs, basis, tol=tol, budget=budget)(lam)


def finite_pressure(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    lam: float,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """(1/N) ln E exp(lam * S_N), exact through per-fiber factorization.

    Fibers over distinct coprime a never share a dilated index (the coprime
    part of j*a*h is a), so the expectation is the product of R over fiber
    sizes.
    """
    if N < 1:
        raise InputError("N must be >= 1")
    _, sizes = lattice.fiber_sizes(basis, N)
    counts = np.bincount(sizes)
    L = int(sizes.max())
    lnr = log_r_sequence(dist, obs, basis, lam, L, budget=budget)
    total = math.fsum(float(counts[l]) * lnr[l - 1] for l in range(1, L + 1) if counts[l])
    return total / N


# ---------------------------------------------------------------------------
# Legendre transform of the pressure.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class RateJ:
    """Conjugate sup_lambda(lambda*u - Q) by golden section on the concave objective.

    Q carries certified truncation noise, so the search is derivative-free;
    divergence (u beyond the domain endpoint) is declared when the objective
    still climbs at lambda_cap with slope >= slope_tol.  The detected
    endpoints ``l_plus``/``l_minus`` are the measured slopes of Q at the cap,
    not exact domain constants.
    """

    def __init__(
        self,
        pressure: Pressure,
        lambda_cap: float | None = None,
        slope_tol: float = 1e-4,
        lambda_tol: float = 5e-5,
        slope_delta: float = 0.5,
    ):
        self.pressure = pressure
        M = pressure.obs.sup_abs
        self.lambda_cap = (
            float(lambda_cap) if lambda_cap is not None else CAP_OVER_M / M if M > 0 else CAP_OVER_M
        )
        self.slope_tol = float(slope_tol)
        self.lambda_tol = float(lambda_tol)
        self.slope_delta = min(float(slope_delta), self.lambda_cap / 2)
        self._l_plus: float | None = None
        self._l_minus: float | None = None

    @property
    def l_plus(self) -> float:
        if self._l_plus is None:
            q = self.pressure
            self._l_plus = (q(self.lambda_cap) - q(self.lambda_cap - self.slope_delta)) / self.slope_delta
        return self._l_plus

    @property
    def l_minus(self) -> float:
        if self._l_minus is None:
            q = self.pressure
            self._l_minus = (q(-self.lambda_cap) - q(-self.lambda_cap + self.slope_delta)) / self.slope_delta
        return self._l_minus

    def __call__(self, u: float) -> float:
        u = float(u)
        if u == 0.0:
            return 0.0
        a, sgn = abs(u), (1.0 if u > 0 else -1.0)
        q = self.pressure

        def g(t: float) -> float:
            return t * a - q(sgn * t)

        cap = self.lambda_cap
        g_cap = g(cap)
        if (g_cap - g(cap - self.slope_delta)) / self.slope_delta >= self.slope_tol:
            return math.inf
        lo, hi = 0.0, cap
        span = hi - lo
        n_iter = max(1, math.ceil(math.log(self.lambda_tol / span) / math.log(_INV_PHI)))
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
            if hi - lo <= self.lambda_tol:
                break
        best = max(best, g1, g2)
        return max(0.0, best)


def rate_j(pressure: Pressure, u: float, **kwargs) -> float:
    return RateJ(pressure, **kwargs)(u)
