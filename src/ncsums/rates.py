"""Rate functions: the Cramér transform, the fiber pressure series, and its conjugate.

The pressure Q(lambda) of a dilation sum is a weighted series over fiber
lengths l, with weights 1/h_l - 1/h_{l+1} from the smooth-number sequence
and per-fiber terms ln R_l.  R_l is the exact expectation of
exp(lambda * sum of l chained observable terms); the chain shares draws
between terms, so it is evaluated by sum-product elimination over the
shared-index dependency graph rather than by brute enumeration.  For
ell >= 3 the elimination order of each fiber length is a compiled
elimination plan, built once per process from the chain structure alone
and replayed per lambda.  The pressure is evaluated over batches of
lambda: at ell = 2 one transfer recursion serves a whole batch, and the
conjugate J runs the golden sections of a u grid in lockstep, so that the
lambdas of each round form one batch.

Truncation of the series is certified: ln R_l <= l*M*|lambda| bounds every
dropped term, and the smooth numbers beyond the enumerated range are
bounded below through h_l >= 2**(l**(1/m) - 1).
"""

from __future__ import annotations

import bisect
import heapq
import math
import threading
from collections.abc import Generator
from dataclasses import dataclass

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
        if not (math.isfinite(self.t_cap) and self.t_cap > 0):
            raise InputError("t_cap must be finite and positive")

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
            # the optimal t scales as 1/M: the width is relative to |t| down to min(1, 1/M)
            if abs(hi - lo) <= 1e-13 * max(abs(hi), min(1.0, 1.0 / obs.sup_abs)):
                break
        t = 0.5 * (lo + hi)
        return max(0.0, t * alpha - self.log_mgf(t))


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


# Elimination plans per (basis, l, s), built once per process and shared.
# A step is (axis, weight_shape, factor_ids, factor_shapes, keep); shape
# tuples are pooled across plans, and no scopes or neighbour sets are kept.
_Step = tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], bool]
_plans: dict[tuple[PrimeBasis, int, int], tuple[int, tuple[_Step, ...]]] = {}
_shape_pool: dict[tuple, tuple] = {}
_plans_lock = threading.Lock()


def _pooled(t: tuple) -> tuple:
    return _shape_pool.setdefault(t, t)


def _build_plan(basis: PrimeBasis, l: int, s: int) -> tuple[int, tuple[_Step, ...]]:
    """Greedy sum-product elimination order of the l-term chain, as replay steps.

    Variables are index positions; each step eliminates the variable whose
    closed neighbourhood (the union of the live scopes holding it) is
    smallest, ties going to the smallest position.  Neighbour sets are
    updated incrementally and candidates kept in a lazily invalidated heap.
    Factors are numbered 0..l-1 for the chain terms, then in order of
    creation, so ascending id is the live-list order.

    Returns ``(cells, steps)``: ``cells`` is the number of table cells the
    replay builds; each step lists the factors holding the eliminated
    variable in live order with their reshapes into the axes of the union,
    the summed axis, and whether the result is kept as a new factor.
    """
    chain = chain_index_structure(basis, basis.ell, l)
    scopes = list(chain.term_positions)
    d = len(chain.indices)
    nbrs: list[set[int]] = [set() for _ in range(d)]
    holders: list[list[int]] = [[] for _ in range(d)]
    for fid, sc in enumerate(scopes):
        for v in sc:
            nbrs[v].update(sc)
            holders[v].append(fid)
    heap = [(len(nb), v) for v, nb in enumerate(nbrs)]
    heapq.heapify(heap)
    live = [True] * l
    done = [False] * d
    cells = 0
    steps = []
    while heap:
        size, v = heapq.heappop(heap)
        if done[v] or size != len(nbrs[v]):
            continue
        done[v] = True
        union = sorted(nbrs[v])
        cells += s ** len(union)
        fids = tuple(fid for fid in holders[v] if live[fid])
        shapes = []
        for fid in fids:
            live[fid] = False
            in_scope = set(scopes[fid])
            shapes.append(tuple(s if u in in_scope else 1 for u in union))
        wshape = tuple(s if u == v else 1 for u in union)
        new_scope = tuple(u for u in union if u != v)
        for u in new_scope:
            holders[u].append(len(scopes))
            nbrs[u] |= nbrs[v]
            nbrs[u].discard(v)
            heapq.heappush(heap, (len(nbrs[u]), u))
        if new_scope:
            scopes.append(new_scope)
            live.append(True)
        steps.append(
            (union.index(v), _pooled(wshape), fids, _pooled(tuple(shapes)), bool(new_scope))
        )
    return cells, tuple(steps)


def _plan(basis: PrimeBasis, l: int, s: int) -> tuple[int, tuple[_Step, ...]]:
    key = (basis, l, s)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is None:
            plan = _plans[key] = _build_plan(basis, l, s)
        return plan


def _replay_log(steps: tuple[_Step, ...], table: np.ndarray, probs: np.ndarray, l: int) -> float:
    """Log of the fully-summed product of l copies of ``table``, along a plan.

    Each new table is renormalized by its max to keep values in range, with
    the log of the scale accumulated.
    """
    tabs: list = [table] * l
    logscale = 0.0
    for ax, wshape, fids, shapes, keep in steps:
        acc = None
        for fid, shape in zip(fids, shapes):
            emb = tabs[fid].reshape(shape)
            tabs[fid] = None
            acc = emb if acc is None else acc * emb
        acc = acc * probs.reshape(wshape)
        new_tab = acc.sum(axis=ax)
        if keep:
            mx = float(new_tab.max())
            logscale += math.log(mx)
            tabs.append(new_tab / mx)
        else:
            logscale += math.log(float(new_tab))
    return logscale


def _transfer_log_r(
    dist: FiniteDistribution, obs: Observable, lams: np.ndarray, L: int, budget: int
) -> np.ndarray:
    """ln R_l for l = 1..L of ell = 2 chains at each of B lambdas, as a (B, L) array.

    One forward pass serves every length and every lambda: f starts at the
    marginal weights, each step multiplies by the kernel exp(lambda * F)
    and the weights again, and renormalizes by the sum c, whose logs
    accumulate.  Row i has the bits of the same recursion run on lams[i]
    alone: a (1, s) @ (s, s) matmul per lambda, math.log per sum (np.log
    can differ in the last bit) and a sequential cumsum.  The budget counts
    the cells of one lambda.
    """
    s = dist.size
    if L * s * s > budget:
        raise BudgetExceededError(
            f"transfer recursion needs {L * s * s} cells, over budget {budget}",
            completed=budget // (s * s),
        )
    probs = np.asarray(dist.probs, dtype=np.float64)
    kernel = np.exp(lams[:, None] * obs.table).reshape(-1, s, s)
    f = np.tile(probs, (len(lams), 1, 1))
    sums = np.empty((L, len(lams)))
    for l in range(L):
        g = np.matmul(f, kernel) * probs
        c = g.sum(axis=2, keepdims=True)
        sums[l] = c[:, 0, 0]
        f = g / c
    logs = np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size)
    return np.cumsum(logs.reshape(sums.shape), axis=0).T


def log_r_sequence(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    lam: float | np.ndarray,
    L: int,
    budget: int = DEFAULT_BUDGET,
) -> list[float] | np.ndarray:
    """ln R_l for l = 1..L.

    ell = 1 collapses to l * ln(mgf); ell = 2 chains are a pure transfer
    recursion over successive smooth indices (one forward pass yields all
    lengths); larger ell replays each length's compiled elimination plan.
    At ell = 2 ``lam`` may also be a 1-D array of nonzero lambdas: one
    recursion then serves them all, and row i of the (B, L) array returned
    is the sequence at lam[i].
    """
    if np.ndim(lam):
        if obs.ell != 2:
            raise InputError("a batch of lambdas needs ell = 2")
        return _transfer_log_r(dist, obs, np.asarray(lam, dtype=np.float64), L, budget)
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
        return _transfer_log_r(dist, obs, np.array([lam], dtype=np.float64), L, budget)[0].tolist()
    if obs.ell != basis.ell:
        raise InputError(f"ell={obs.ell} does not match basis ell={basis.ell}")
    shaped = np.exp(lam * obs.table).reshape((s,) * obs.ell)
    out = []
    for l in range(1, L + 1):
        try:
            cells, steps = _plan(basis, l, s)
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), completed=l - 1) from None
        if cells > budget:
            raise BudgetExceededError(
                f"elimination needs more than {budget} table cells; "
                "raise the budget or fall back to r_l_mc",
                completed=l - 1,
            )
        out.append(_replay_log(steps, shaped, probs, l))
    return out


def r_l(
    dist: FiniteDistribution,
    obs: Observable,
    lam: float,
    l: int,
    budget: int = DEFAULT_BUDGET,
    basis: PrimeBasis | None = None,
) -> float:
    """Exact E exp(lam * sum of the l-term fiber chain)."""
    if l < 1:
        raise InputError("l must be >= 1")
    if basis is None:
        basis = lattice.primes_up_to(obs.ell)
    return math.exp(log_r_sequence(dist, obs, basis, lam, l, budget=budget)[-1])


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
    terms = [term[0] for term in chain.term_indices]
    total = simulate.replica_sums(dist, obs, keys, terms, "nonconventional")
    sample = np.exp(lam * total)
    value = float(sample.mean())
    stderr = float(sample.std(ddof=1) / math.sqrt(replicas))
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
    enumerated smooth range and analytically beyond it.  The truncation
    length is a function of lambda alone, so each finished evaluation is
    memoized per lambda.  The lock guards only the lookup and the insert:
    evaluations at different lambda run concurrently, and two at the same
    lambda may both compute, the first insert winning.

    ``details`` evaluates a batch of lambdas; at ell = 2 they share one
    transfer recursion.  ``detail`` and calling the object are batches of one.
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
        self._cache: dict[float, PressureEval] = {}
        self._lock = threading.Lock()
        if basis.m == 0:
            self._weights: list[float] = [1.0]
            self._tail = np.zeros(1)
            return
        smooth = smooth_numbers_capped(basis, max_terms)
        h = smooth.h
        n_h = len(h)
        inv = [1.0 / hv for hv in h]
        self._weights = [smooth.weight(l) for l in range(1, n_h)]
        beyond = _beyond_enumeration_bound(basis.m, n_h)
        # tail[L] = sum_{l>L} l*w_l = (L+1)/h_{L+1} + sum_{l>=L+2} 1/h_l
        suffix = beyond
        tail = np.empty(n_h, dtype=np.float64)
        for L in range(n_h - 1, 0, -1):
            tail[L] = (L + 1) * inv[L] + suffix
            suffix += inv[L]
        tail[0] = inv[0] + suffix  # L = 0: whole series
        self._tail = tail
        # -tail[1:] as a running max, so bisect finds the first tail[L] < target
        # even where rounding leaves two adjacent tail entries out of order
        self._neg_tail = np.maximum.accumulate(-tail[1:]).tolist()
        self.smooth = smooth

    def _truncation(self, lam: float) -> tuple[int, float]:
        scale = self.basis.r_const * self.obs.sup_abs * abs(lam)
        if scale == 0.0:
            return 1, 0.0
        tail = self._tail
        # the first L >= 1 with tail[L] < target
        L = bisect.bisect_right(self._neg_tail, -self.tol / scale) + 1
        if L == len(tail):
            raise ToleranceError(
                f"certified tail cannot reach tol={self.tol} "
                f"(best achievable {scale * float(tail[-1]):.3e})",
                achievable_tol=scale * float(tail[-1]),
            )
        return L, scale * float(tail[L])

    def details(self, lams) -> list[PressureEval]:
        """PressureEval at each lambda of ``lams``, in order.

        The lambdas not yet memoized are truncated in order.  At ell = 2 they
        then share one transfer recursion up to the largest truncation
        length; larger ell replays each lambda's plans up to its own length.
        An error is the one the first failing lambda in order raises when
        evaluated alone: truncation and budget both fail monotonically in
        |lambda|, and no lambda after a truncation failure is evaluated.
        """
        lams = [float(lam) for lam in lams]
        if self.basis.m == 0:
            return [PressureEval(math.log(mgf(self.dist, self.obs, lam)), 0.0, 1) for lam in lams]
        found: dict[float, PressureEval] = {}
        with self._lock:
            for lam in lams:
                hit = PressureEval(0.0, 0.0, 0) if lam == 0.0 else self._cache.get(lam)
                if hit is not None:
                    found[lam] = hit
        todo: list[tuple[float, int, float]] = []
        failed = None
        for lam in dict.fromkeys(lams):
            if lam not in found:
                try:
                    todo.append((lam, *self._truncation(lam)))
                except ToleranceError as exc:
                    failed = exc
                    break
        if todo:
            evals = self._evaluate(todo)
            with self._lock:
                for (lam, _, _), ev in zip(todo, evals):
                    found[lam] = self._cache.setdefault(lam, ev)
        if failed is not None:
            raise failed
        return [found[lam] for lam in lams]

    def _evaluate(self, todo: list[tuple[float, int, float]]) -> list[PressureEval]:
        """Series values at (lambda, L, tail bound) triples, none memoized yet."""
        dist, obs, basis = self.dist, self.obs, self.basis
        top = max(L for _, L, _ in todo)
        try:
            if obs.ell == 2:
                lams = np.array([lam for lam, _, _ in todo])
                lnr = log_r_sequence(dist, obs, basis, lams, top, budget=self.budget)
            else:
                lnr = [
                    log_r_sequence(dist, obs, basis, lam, L, budget=self.budget)
                    for lam, L, _ in todo
                ]
        except BudgetExceededError as exc:
            done = exc.completed
            lam = next(lam for lam, L, _ in todo if L > done)
            scale = basis.r_const * obs.sup_abs * abs(lam)
            achievable = scale * float(self._tail[done]) if done >= 1 else None
            raise ToleranceError(
                f"budget exhausted at fiber length {done + 1}; "
                f"achievable tol is {achievable}",
                achievable_tol=achievable,
            ) from exc
        w = np.array(self._weights[:top])
        return [
            PressureEval(basis.r_const * math.fsum((w[:L] * row[:L]).tolist()), bound, L)
            for (_, L, bound), row in zip(todo, lnr)
        ]

    def detail(self, lam: float) -> PressureEval:
        return self.details([lam])[0]

    def __call__(self, lam: float) -> float:
        return self.detail(lam).value


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

# Conjugate search constants: the golden-section stop width in lambda, the
# slope at the cap that declares divergence, and the largest step of the
# finite difference that measures that slope.
LAMBDA_TOL = 5e-5
SLOPE_TOL = 1e-4
SLOPE_DELTA = 0.5


class RateJ:
    """Conjugate sup_lambda(lambda*u - Q) by golden section on the concave objective.

    Q carries certified truncation noise, so the search is derivative-free;
    divergence (u beyond the domain endpoint) is declared when the objective
    still climbs at lambda_cap with slope >= SLOPE_TOL.  The detected
    endpoints ``l_plus``/``l_minus`` are the measured slopes of Q at the cap,
    not exact domain constants.

    ``grid`` runs the searches of a whole u grid in lockstep, so each round's
    lambdas reach the pressure as one batch; calling the object is a grid of
    one u.
    """

    def __init__(self, pressure: Pressure, lambda_cap: float | None = None):
        self.pressure = pressure
        M = pressure.obs.sup_abs
        self.lambda_cap = (
            float(lambda_cap) if lambda_cap is not None else CAP_OVER_M / M if M > 0 else CAP_OVER_M
        )
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap > 0):
            raise InputError("lambda_cap must be finite and positive")
        self._delta = min(SLOPE_DELTA, self.lambda_cap / 2)
        self._l_plus: float | None = None
        self._l_minus: float | None = None

    @property
    def l_plus(self) -> float:
        if self._l_plus is None:
            q = self.pressure
            self._l_plus = (q(self.lambda_cap) - q(self.lambda_cap - self._delta)) / self._delta
        return self._l_plus

    @property
    def l_minus(self) -> float:
        if self._l_minus is None:
            q = self.pressure
            self._l_minus = (q(-self.lambda_cap) - q(-self.lambda_cap + self._delta)) / self._delta
        return self._l_minus

    def _search(self, u: float) -> Generator[float, float, float]:
        """The golden section for J(u): yields each lambda it needs, is sent Q there."""
        if u == 0.0:
            return 0.0
        a, sgn = abs(u), (1.0 if u > 0 else -1.0)

        def g(t: float) -> Generator[float, float, float]:
            return t * a - (yield sgn * t)

        cap = self.lambda_cap
        g_cap = yield from g(cap)
        if (g_cap - (yield from g(cap - self._delta))) / self._delta >= SLOPE_TOL:
            return math.inf
        lo, hi = 0.0, cap
        span = hi - lo
        n_iter = max(1, math.ceil(math.log(LAMBDA_TOL / span) / math.log(_INV_PHI)))
        x1 = hi - _INV_PHI * span
        x2 = lo + _INV_PHI * span
        g1 = yield from g(x1)
        g2 = yield from g(x2)
        best = max(0.0, g_cap)
        for _ in range(n_iter):
            if g1 >= g2:
                hi, x2, g2 = x2, x1, g1
                x1 = hi - _INV_PHI * (hi - lo)
                g1 = yield from g(x1)
            else:
                lo, x1, g1 = x1, x2, g2
                x2 = lo + _INV_PHI * (hi - lo)
                g2 = yield from g(x2)
            if hi - lo <= LAMBDA_TOL:
                break
        best = max(best, g1, g2)
        return max(0.0, best)

    def grid(self, us) -> list[float]:
        """J at each u of ``us``, every search advanced one lambda per round.

        A round sends each unfinished search Q at the lambda it asked for and
        passes the lambdas it asks for next, in u order, to one
        ``Pressure.details`` call, which drops repeats.  A budget or
        tolerance error is thus the one the first u in order would raise
        alone: every nonzero u probes the cap first, and both errors are
        monotone in |lambda|.
        """
        searches = dict(enumerate(self._search(float(u)) for u in us))
        out = [0.0] * len(searches)
        sends: dict[int, float | None] = dict.fromkeys(searches)  # None starts a search
        while searches:
            asks = {}
            for i, search in list(searches.items()):
                try:
                    asks[i] = search.send(sends[i])
                except StopIteration as stop:
                    out[i] = stop.value
                    del searches[i]
            q = self.pressure.details(asks.values())
            sends = {i: ev.value for i, ev in zip(asks, q)}
        return out

    def __call__(self, u: float) -> float:
        return self.grid([u])[0]
