"""Rate functions: the Cramér transform, the fiber pressure series, and its conjugate.

The pressure Q(lambda) of a dilation sum is a weighted series over fiber
lengths l, with weights 1/h_l - 1/h_{l+1} from the smooth-number sequence
and per-fiber terms ln R_l.  R_l is the exact expectation of
exp(lambda * sum of l chained observable terms); the chain shares draws
between terms, so it is evaluated by sum-product elimination over the
shared-index dependency graph rather than by brute enumeration.  For
ell >= 3 one forward sweep over the chain terms in increasing h yields
every length whose tables stay small; past that reach the elimination
order of each fiber length is a compiled elimination plan, built once per
process from the chain structure alone and replayed per lambda.  The
pressure is evaluated over batches of lambda: at ell = 2 one transfer
recursion serves a whole batch, and the conjugate J runs the root
searches of a u grid in lockstep, so that the lambdas of each round form
one batch.  Those searches take Q' from a complex step through the same
kernels.

Each entry point derives its prime basis from obs.ell, except
log_r_sequence, whose signature the benchmark's span wrapper reads.

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
from typing import NamedTuple

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

# Smooth numbers the pressure enumerates; the series beyond them is bounded analytically.
MAX_TERMS = 20000

# Default conjugate-variable search cap, in units of 1/M.
CAP_OVER_M = 60.0

# Complex step of the pressure's derivative, in units of 1/M: h * |F| <= 1e-30
# keeps exp(ihF) = 1 + ihF exact in double precision.
STEP_OVER_M = 1e-30

LN2 = math.log(2.0)

# ln(DBL_MAX): exp(lambda * F) is finite while |lambda| * sup|F| stays below it.
LN_MAX = math.log(np.finfo(np.float64).max)

# At |t|*M <= SMALL_TF, CramerRate.log_mgf sums e^{tF} - 1 - tF as a Taylor
# series, whose terms past x**9/9! are below 1e-16 of its first.
SMALL_TF = 1e-2


def mgf(dist: FiniteDistribution, obs: Observable, t: float | complex) -> float | complex:
    """Exact moment generating function E exp(t * F), complex at a complex t."""
    if t == 0.0:
        return 1.0
    vals, probs = value_distribution(dist, obs)
    shift = float(np.max(t.real * vals))
    return np.dot(probs, np.exp(t * vals - shift)).item() * math.exp(shift)


def _log(z: float | complex) -> float | complex:
    """ln z; a complex z = x + iy from a complex step (|y| << x) gives ln x + iy/x."""
    if isinstance(z, complex):
        return complex(math.log(z.real), z.imag / z.real)
    return math.log(z)


def _require_centered(obs: Observable) -> None:
    """The one-sided searches of both conjugates need E F = 0."""
    if abs(obs.mean) > 1e-9 * max(1.0, obs.sup_abs):
        raise InputError("observable must be centered (apply center(), or --center on the CLI)")


class CramerRate:
    """Convex conjugate of ln(mgf), evaluated by derivative bisection.

    The tilted mean t -> phi'(t)/phi(t) is strictly increasing when the
    observable has positive variance, so the supremum over t is located by
    bisection on it.  Since the observable is centered, one search over
    s >= 0 at t = sgn(alpha) * s serves both signs of alpha, up to the cap
    |t| <= CAP_OVER_M / M, which only matters within a few ulps of sup F.
    Where |t|*M <= SMALL_TF, ln(mgf) and the tilted mean come from sums that
    do not cancel and t is bisected to a relative width, so I(alpha) keeps
    its relative accuracy for small alpha.  Expectations are exactly rounded
    sums, so I(-a) of F equals I(a) of -F bit for bit.
    """

    def __init__(self, dist: FiniteDistribution, obs: Observable):
        if is_degenerate(obs):
            raise DegenerateObservableError("rate function needs positive variance")
        _require_centered(obs)
        self.dist = dist
        self.obs = obs
        vals, probs = value_distribution(dist, obs)
        self._vals = vals
        self._probs = probs
        self._mean = self._expect(vals)

    def _expect(self, x: np.ndarray) -> float:
        """E of per-value ``x``, exactly rounded: -F lists the values reversed."""
        return math.fsum((self._probs * x).tolist())

    def log_mgf(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        tv = t * self._vals
        if abs(t) * self.obs.sup_abs <= SMALL_TF:
            # ln phi(t) = log1p(t E F + E[e^{tF} - 1 - tF]): the expectation's
            # terms are all >= 0, summed from their Taylor series, so nothing cancels
            term = 0.5 * tv * tv
            rest = term
            for k in range(3, 10):
                term = term * tv / k
                rest = rest + term
            return math.log1p(t * self._mean + self._expect(rest))
        shift = float(np.max(tv))
        return shift + math.log(self._expect(np.exp(tv - shift)))

    def tilted_mean(self, t: float) -> float:
        tv = t * self._vals
        if abs(t) * self.obs.sup_abs <= SMALL_TF:
            # E[F e^{tF}] / E[e^{tF}] with e^{tF} = 1 + expm1(tF): every
            # F expm1(tF) has the sign of t, so only E F (about 0) can cancel
            em = np.expm1(tv)
            return (self._mean + self._expect(self._vals * em)) / (1.0 + self._expect(em))
        w = np.exp(tv - float(np.max(tv)))
        return self._expect(w * self._vals) / self._expect(w)

    def _mass_at(self, v: float) -> float:
        return float(self._probs[self._vals == v].sum())

    def __call__(self, alpha: float) -> float:
        alpha = float(alpha)
        if alpha == 0.0:
            return 0.0
        obs = self.obs
        a, sgn = abs(alpha), (1.0 if alpha > 0 else -1.0)
        sup = obs.sup_pos if alpha > 0 else obs.sup_neg
        if a > sup:
            return math.inf
        if a == sup:  # alpha is the extreme value of F on its side
            return -math.log(self._mass_at(alpha))

        def below(s: float) -> bool:
            return sgn * self.tilted_mean(sgn * s) < a

        cap = CAP_OVER_M / obs.sup_abs
        lo, hi = 0.0, min(1.0, cap)
        while below(hi) and hi < cap:
            hi = min(2.0 * hi, cap)
        if below(hi):
            # alpha within ulps of the sup; the objective is flat past here
            return max(0.0, hi * a - self.log_mgf(sgn * hi))
        floor, small = min(1.0, 1.0 / obs.sup_abs), SMALL_TF / obs.sup_abs
        # enough halvings to take the bracket from 1 down to the smallest subnormal
        for _ in range(1100):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
            # the optimal t scales as 1/M: the width is relative to |t| down to
            # min(1, 1/M), and to |t| alone once log_mgf takes its series
            if hi - lo <= 1e-13 * max(hi, 0.0 if hi <= small else floor):
                break
        s = 0.5 * (lo + hi)
        return max(0.0, s * a - self.log_mgf(sgn * s))


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


def chain_index_structure(basis: PrimeBasis, l: int) -> ChainStructure:
    """The l-term fiber chain of the dilation basis.ell."""
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
    terms = tuple(tuple(j * h[k] for j in range(1, basis.ell + 1)) for k in range(l))
    indices = tuple(sorted({i for t in terms for i in t}))
    pos = {v: i for i, v in enumerate(indices)}
    positions = tuple(tuple(pos[i] for i in t) for t in terms)
    return ChainStructure(indices=indices, term_indices=terms, term_positions=positions)


# Elimination plans per (basis, l, s), built once per process and shared;
# log_r_sequence builds them only for lengths past the sweep's reach.
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
    chain = chain_index_structure(basis, l)
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


def _replay_log(
    steps: tuple[_Step, ...], table: np.ndarray, probs: np.ndarray, l: int
) -> float | complex:
    """Log of the fully-summed product of l copies of ``table``, along a plan.

    Each new table is renormalized by the max of its real part to keep
    values in range, with the log of the scale accumulated.  A complex
    table exp((lambda + ih) * F) carries the complex step through every
    product and sum, and the log of each fully-summed factor splits into
    its real log and Im/Re (see ``_log``).
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
            mx = float(new_tab.real.max())
            logscale += math.log(mx)
            tabs.append(new_tab / mx)
        else:
            logscale += _log(new_tab.item())
    return logscale


# The sweep's largest step table, in bytes; past it each length replays its
# plan.  Measured at ell = 3 on a 2-core host, real and complex: a step whose
# table holds 4 MiB costs at most half its length's plan replay, one of
# 8 MiB about as much, and one of 16 MiB more.
_SWEEP_BYTES = 4 << 20

# The sweep's most table axes, numpy's limit before numpy 2; only a
# one-point law, whose tables hold one cell, gets near it.
_SWEEP_AXES = 32


class _SweepStep(NamedTuple):
    """Chain term k of the forward sweep, at h = h_k, as axis bookkeeping.

    The frontier table's axes are draws that an earlier term read and a
    later term reads, and h_k is one of them.  ``perm`` orders them as
    (j*h_k for j in ``shared``, h_k, the rest); ``shared`` are the j >= 2
    whose draw is on the frontier and ``new`` the j >= 2 whose draw the
    term reads first, both ascending.  ``union`` counts the step table's
    axes: the frontier's and the new draws'.
    """

    perm: tuple[int, ...]
    shared: tuple[int, ...]
    new: tuple[int, ...]
    union: int


# Sweep steps per basis, grown on demand, with the frontier after the last.
_sweeps: dict[PrimeBasis, tuple[list[_SweepStep], list[int]]] = {}
_sweeps_lock = threading.Lock()


def _sweep_step(frontier: list[int], h: int, ell: int) -> _SweepStep:
    """Term h's step; moves ``frontier`` to the axes of the table after it."""
    pos = {d: i for i, d in enumerate(frontier)}
    shared = tuple(j for j in range(2, ell + 1) if j * h in pos)
    new = tuple(j for j in range(2, ell + 1) if j * h not in pos)
    read = {j * h for j in shared} | {h}
    rest = [i for i, d in enumerate(frontier) if d not in read]
    perm = tuple(pos[j * h] for j in shared) + (pos[h],) + tuple(rest)
    union = len(frontier) + len(new)
    frontier[:] = [j * h for j in shared + new] + [frontier[i] for i in rest]
    return _SweepStep(perm, shared, new, union)


def _sweep_steps(
    basis: PrimeBasis, L: int, s: int, itemsize: int, budget: int
) -> list[_SweepStep]:
    """The sweep's steps for lengths 1..n, n < L only where length n + 1 is out of reach.

    A length is in reach while the step tables through it hold at most
    ``budget`` cells together, and its own table at most _SWEEP_BYTES bytes
    and _SWEEP_AXES axes.  Cells count as in the plans.  From l = 3 on, the
    running total is at least the largest plan's up to l (checked at
    ell = 3 to 7 on two and three points, for l up to 34 or more), so
    there a budget stops at the same length with or without the sweep.
    """
    with _sweeps_lock:
        # the frontier before term 1 is draw h_1 = 1, which every chain reads
        steps, frontier = _sweeps.setdefault(basis, ([], [1]))
        cells, h = 0, None
        for n in range(L):
            if n == len(steps):
                h = h or smooth_numbers_capped(basis, L).h
                if n >= len(h):
                    return steps[:n]  # past 128 bits: the plans raise
                steps.append(_sweep_step(frontier, h[n], basis.ell))
            union = steps[n].union
            cells += s**union
            if cells > budget or union > _SWEEP_AXES or s**union * itemsize > _SWEEP_BYTES:
                return steps[:n]
        return steps[:L]


def _sweep_log(steps: list[_SweepStep], shaped: np.ndarray, probs: np.ndarray) -> list:
    """ln R_l for l = 1..len(steps), by one forward sweep over the chain terms.

    The frontier table starts at the weights of draw 1.  Term k weights its
    new draws once, in the small term table, multiplies into the frontier
    table with draw h_k summed out, a batched matmul over the shared
    draws, and the new table's total c_k is the ratio R_k/R_{k-1}.  Each
    term table is divided by Re c_{k-1}, so the frontier table stays
    renormalized, and ln R_l = sum_{k<=l} ln Re c_k + i Im c_l/Re c_l, as in
    _transfer_log_r; a complex table carries the complex step.
    """
    s, ell = probs.size, shaped.ndim
    tab = probs.astype(shaped.dtype)
    kernels: dict[tuple, np.ndarray] = {}
    out = []
    logscale, scale = 0.0, 1.0
    for step in steps:
        key = (step.shared, step.new)
        kernel = kernels.get(key)
        if kernel is None:
            w = shaped
            for j in step.new:
                w = w * probs.reshape([s if i == j - 1 else 1 for i in range(ell)])
            order = [j - 1 for j in step.shared + step.new] + [0]
            kernel = w.transpose(order).reshape(s ** len(step.shared), s ** len(step.new), s)
            kernels[key] = kernel
        front = tab.reshape((s,) * len(step.perm)).transpose(step.perm)
        front = front.reshape(s ** len(step.shared), s, -1)
        tab = np.matmul(kernel / scale, front)
        c = tab.sum().item()
        scale = c.real
        logscale += math.log(scale)
        out.append(complex(logscale, c.imag / scale) if isinstance(c, complex) else logscale)
    return out


def _transfer_log_r(
    dist: FiniteDistribution, obs: Observable, lams: np.ndarray, L: int, budget: int
) -> np.ndarray:
    """ln R_l for l = 1..L of ell = 2 chains at each of B lambdas, as a (B, L) array.

    One forward pass serves every length and every lambda: f starts at the
    marginal weights, each step multiplies by the kernel exp(lambda * F)
    and the weights again, and renormalizes by the real part of the sum c,
    whose logs accumulate.  Row i has the bits of the same recursion run on
    lams[i] alone: a (1, s) @ (s, s) matmul per lambda, math.log per sum
    (np.log can differ in the last bit) and a sequential cumsum.  The budget
    counts the cells of one lambda.

    Complex lambdas + ih give a complex array.  The renormalized f then
    carries the whole step, so ln R_l = sum_{k<=l} ln Re c_k + i Im c_l/Re c_l.
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
    sums = np.empty((L, len(lams)), dtype=kernel.dtype)
    for l in range(L):
        g = np.matmul(f, kernel) * probs
        c = g.sum(axis=2, keepdims=True)
        sums[l] = c[:, 0, 0]
        f = g / c.real
    logs = np.fromiter(map(math.log, sums.real.ravel().tolist()), np.float64, sums.size)
    out = np.cumsum(logs.reshape(sums.shape), axis=0).T
    if np.iscomplexobj(sums):
        return out + 1j * (sums.imag / sums.real).T
    return out


def log_r_sequence(
    dist: FiniteDistribution,
    obs: Observable,
    basis: PrimeBasis,
    lam: float | np.ndarray,
    L: int,
    budget: int = DEFAULT_BUDGET,
) -> list[float] | np.ndarray:
    """ln R_l for l = 1..L.

    ``basis`` must be primes_up_to(obs.ell); it stays an argument because
    perfbench/spans.py unpacks the ``L`` that follows it.

    ell = 1 collapses to l * ln(mgf); ell = 2 chains are a pure transfer
    recursion over successive smooth indices (one forward pass yields all
    lengths).  Larger ell takes one forward sweep over the chain terms for
    every length in its reach (see _sweep_steps), and past it replays each
    length's compiled elimination plan; the budget counts the sweep's cells
    through a length, or that length's plan.  At ell = 2 ``lam`` may also
    be a 1-D array of nonzero lambdas: one recursion then serves them all,
    and row i of the (B, L) array returned is the sequence at lam[i].

    A complex ``lam`` = lambda + ih with a tiny step h (h * M << 1, for
    example 1e-30 / M) is a complex step (Squire & Trapp, SIAM Review 40,
    1998): the same kernels then return complex ln R_l, whose real part is
    ln R_l at lambda and whose imaginary part divided by h is d ln R_l/dlambda,
    with no cancellation.
    """
    dtype = np.complex128 if np.iscomplexobj(lam) else np.float64
    if np.ndim(lam):
        if obs.ell != 2:
            raise InputError("a batch of lambdas needs ell = 2")
        return _transfer_log_r(dist, obs, np.asarray(lam, dtype=dtype), L, budget)
    if L < 1:
        return []
    if lam == 0.0:
        return [0.0] * L
    s = dist.size
    probs = np.asarray(dist.probs, dtype=np.float64)
    if obs.ell == 1:
        lphi = _log(mgf(dist, obs, lam))
        return [k * lphi for k in range(1, L + 1)]
    if obs.ell == 2:
        return _transfer_log_r(dist, obs, np.array([lam], dtype=dtype), L, budget)[0].tolist()
    if obs.ell != basis.ell:
        raise InputError(f"ell={obs.ell} does not match basis ell={basis.ell}")
    # a step multiplies up to ell tables; past ln(DBL_MAX) / ell they are
    # exp(lam * F - c), c the largest Re(lam) * F, and ln R_l gains l * c
    big = abs(lam) * obs.sup_abs * obs.ell > LN_MAX
    c = float(np.max(lam.real * obs.table)) if big else 0.0
    shaped = np.exp(lam * obs.table - c).reshape((s,) * obs.ell)
    out = _sweep_log(_sweep_steps(basis, L, s, shaped.itemsize, budget), shaped, probs)
    for l in range(len(out) + 1, L + 1):
        try:
            cells, steps = _plan(basis, l, s)
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), completed=l - 1) from None
        if cells > budget:
            raise BudgetExceededError(
                f"elimination needs more than {budget} table cells; raise the budget",
                completed=l - 1,
            )
        out.append(_replay_log(steps, shaped, probs, l))
    return [v + l * c for l, v in enumerate(out, 1)] if c else out


# ---------------------------------------------------------------------------
# Pressure series with certified truncation.


@dataclass(frozen=True)
class PressureEval:
    """Q(lambda) within ``tail_bound``, and Q'(lambda) within ``slope_bound`` when asked for."""

    value: float
    tail_bound: float
    truncation_l: int
    slope: float | None = None
    slope_bound: float | None = None


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


def check_tol(tol: float) -> None:
    """Raise InputError unless the tolerance ``tol`` is positive and finite."""
    if not 0 < tol < math.inf:
        raise InputError("tol must be positive and finite")


class Pressure:
    """Evaluable Q(lambda) = r * sum_l w_l * ln R_l with tail certified < tol.

    The truncation length adapts to |lambda|: the dropped tail is bounded by
    r * M * |lambda| * sum_{l>L} l * w_l, evaluated exactly over the
    enumerated smooth range and analytically beyond it.

    The tail is built once, from the enumerated smooth numbers; the weights
    w_1..w_L are taken per evaluation, up to the largest L it needs.

    ``details`` evaluates a batch of lambdas; at ell = 2 they share one
    transfer recursion, and at larger ell each lambda takes its own sweep
    over the chain, with plans only past the sweep's reach.  ``detail`` and
    calling the object are batches of one.

    ``details(lams, slope=True)`` also returns Q'(lambda), by a complex step
    through the same kernels, and takes Q from the real part of that run.
    Each d ln R_l/dlambda lies in [-l*M, l*M], so the derivative's dropped
    tail is r * M * sum_{l>L} l * w_l, the value's tail bound over |lambda|.
    """

    def __init__(
        self,
        dist: FiniteDistribution,
        obs: Observable,
        tol: float = 1e-8,
        budget: int = DEFAULT_BUDGET,
    ):
        check_tol(tol)
        if int(budget) < 1:
            raise InputError("budget must be a positive integer")
        self.dist = dist
        self.obs = obs
        self.basis = basis = lattice.primes_up_to(obs.ell)
        self.tol = float(tol)
        self.budget = int(budget)
        if basis.m == 0:
            # one term, ln R_1 = ln mgf, and nothing dropped at L = 1
            self._smooth = None
            self._tail = np.zeros(2)
            return
        self._smooth = smooth = smooth_numbers_capped(basis, MAX_TERMS)
        n_h = len(smooth.h)
        inv = 1.0 / np.array(smooth.h, dtype=np.float64)
        # tail[L] = sum_{l>L} l*w_l = (L+1)/h_{L+1} + sum_{l>=L+2} 1/h_l, the
        # suffix summed from the analytic bound down to 1/h_{L+2}, in that order
        beyond = _beyond_enumeration_bound(basis.m, n_h)
        suffix = np.cumsum(np.concatenate(([beyond], inv[:0:-1])))
        tail = np.empty(n_h, dtype=np.float64)
        tail[1:] = np.arange(2, n_h + 1) * inv[1:] + suffix[-2::-1]
        tail[0] = inv[0] + suffix[-1]  # L = 0: whole series
        self._tail = tail
        # -tail[1:] as a running max, so bisect finds the first tail[L] < target
        # even where rounding leaves two adjacent tail entries out of order
        self._neg_tail = np.maximum.accumulate(-tail[1:]).tolist()

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

    def details(self, lams, slope: bool = False) -> list[PressureEval]:
        """PressureEval at each lambda of ``lams``, in order, with Q' if ``slope``.

        Each distinct lambda is truncated in order and evaluated once; Q(0)
        = 0 needs no evaluation.  At ell = 2 they share one transfer
        recursion up to the largest truncation length; larger ell evaluates
        each lambda's sequence up to its own length.  An error is the one
        the first failing lambda in order raises when evaluated alone:
        truncation and budget both fail monotonically in |lambda|, and no
        lambda after a truncation failure is evaluated.  A |lambda| past
        ln(DBL_MAX) / sup|F|, where exp(lambda * F) overflows, is an InputError.
        """
        lams = [float(lam) for lam in lams]
        M = self.obs.sup_abs
        if max(map(abs, lams), default=0.0) * M > LN_MAX:
            raise InputError(f"|lambda| may not exceed ln(DBL_MAX) / sup|F| = {LN_MAX / M:.9g}")
        if self.basis.m == 0:
            return self._evaluate([(lam, 1, 0.0) for lam in lams], slope)
        found = {0.0: PressureEval(0.0, 0.0, 0)}
        todo: list[tuple[float, int, float]] = []
        failed = None
        for lam in dict.fromkeys(lams):
            if lam == 0.0 and not slope:
                continue
            try:
                todo.append((lam, *self._truncation(lam)))
            except ToleranceError as exc:
                failed = exc
                break
        if todo:
            found.update(zip([lam for lam, _, _ in todo], self._evaluate(todo, slope)))
        if failed is not None:
            raise failed
        return [found[lam] for lam in lams]

    def _evaluate(self, todo: list[tuple[float, int, float]], slope: bool) -> list[PressureEval]:
        """Series values at (lambda, L, tail bound) triples."""
        dist, obs, basis = self.dist, self.obs, self.basis
        top = max((L for _, L, _ in todo), default=0)
        h = STEP_OVER_M / (obs.sup_abs or 1.0)
        args = [complex(lam, h) if slope else lam for lam, _, _ in todo]
        try:
            if obs.ell == 2:
                lnr = log_r_sequence(dist, obs, basis, np.array(args), top, budget=self.budget)
            else:
                lnr = [
                    log_r_sequence(dist, obs, basis, arg, L, budget=self.budget)
                    for arg, (_, L, _) in zip(args, todo)
                ]
        except BudgetExceededError as exc:
            done = exc.completed
            if done < 1:
                msg = f"no fiber length fits the budget of {self.budget}"
                raise ToleranceError(f"budget exhausted at fiber length 1; {msg}") from exc
            lam = next(lam for lam, L, _ in todo if L > done)
            achievable = basis.r_const * obs.sup_abs * abs(lam) * float(self._tail[done])
            raise ToleranceError(
                f"budget exhausted at fiber length {done + 1}; "
                f"achievable tol is {achievable}",
                achievable_tol=achievable,
            ) from exc
        w = self._series_weights(top)
        r = basis.r_const
        evals = []
        for (_, L, bound), row in zip(todo, lnr):
            terms = w[:L] * np.asarray(row[:L])
            value = r * math.fsum(terms.real.tolist())
            if slope:
                dq = r * math.fsum(terms.imag.tolist()) / h
                dq_bound = r * obs.sup_abs * float(self._tail[L])
                evals.append(PressureEval(value, bound, L, dq, dq_bound))
            else:
                evals.append(PressureEval(value, bound, L))
        return evals

    def _series_weights(self, top: int) -> np.ndarray:
        """The weights w_1..w_top, each the float nearest the exact rational."""
        if self._smooth is None:
            return np.ones(top)
        return np.array([self._smooth.weight(l) for l in range(1, top + 1)])

    def detail(self, lam: float) -> PressureEval:
        return self.details([lam])[0]

    def __call__(self, lam: float) -> float:
        return self.detail(lam).value


# ---------------------------------------------------------------------------
# Legendre transform of the pressure.

# A slope of Q at the cap at least this far below |u| declares J(u) infinite.
SLOPE_TOL = 1e-4

# Pressure evaluations one conjugate search may make.  It then returns its
# best probe's objective if that gap is within tol, and reports the gap it
# reached as a ToleranceError otherwise.
MAX_EVALS = 64


class _Probe(NamedTuple):
    """One evaluation of the search for J(u), at lambda = sgn * t with t >= 0.

    ``g`` = t*|u| - Q, ``f`` = sgn*Q' - |u| (the objective's slope, negated),
    ``slope_bound`` the tail of Q' at its truncation and ``tail_bound`` that of Q.
    """

    t: float
    g: float
    f: float
    slope_bound: float
    tail_bound: float


class RateJ:
    """Conjugate J(u) = sup (lambda*u - Q(lambda)) over [0, lambda_cap], certified to tol.

    u < 0 mirrors u > 0.  The search finds the root of Q'(lambda) - u, Q'
    from the pressure's complex step.  Certificate: at a probe lambda with
    truncation L, every dropped ln R_l is >= 0 for a centered observable
    (Jensen), so J <= J_L, the conjugate of the convex Q_L, whose slope the
    probe has exactly.  Another probe's Q' is within the difference of the
    two Q' tail bounds of Q_L', so its sign beyond that brackets the root
    of Q_L' - u in [lo, hi], and concavity bounds J_L - g(lambda) by
    |u - Q_L'(lambda)| times lambda's distance to the far end of [lo, hi].
    The search stops when that gap plus Q's tail bound is at most
    ``pressure.tol`` and returns g(lambda) floored at 0.

    It brackets the root by doubling lambda from |u|/M**2, so it evaluates
    the cap only when Q' stays below |u| up to it.  There J(u) = inf when
    |u| - Q'(lambda_cap) >= SLOPE_TOL, with Q' at the top of its tail
    bound, and the objective at the cap otherwise.  Inside the bracket it
    runs Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), each step moving at least half the width
    the best probe's gap allows, so the last steps straddle the root.
    ``l_plus``/``l_minus`` are Q'(+-lambda_cap) within their tail bound.

    ``grid`` runs the searches of a whole u grid in lockstep, so each round's
    lambdas reach the pressure as one batch; calling the object is a grid of
    one u.
    """

    def __init__(self, pressure: Pressure, lambda_cap: float | None = None):
        _require_centered(pressure.obs)
        self.pressure = pressure
        M = pressure.obs.sup_abs
        self.lambda_cap = (
            float(lambda_cap) if lambda_cap is not None else CAP_OVER_M / M if M > 0 else CAP_OVER_M
        )
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap > 0):
            raise InputError("lambda_cap must be finite and positive")
        if self.lambda_cap * M > LN_MAX:
            raise InputError(f"lambda_cap may not exceed ln(DBL_MAX) / sup|F| = {LN_MAX / M:.9g}")

    @property
    def l_plus(self) -> float:
        """Q'(lambda_cap): the right end of J's domain, within the slope's tail bound."""
        return self.pressure.details([self.lambda_cap], slope=True)[0].slope

    @property
    def l_minus(self) -> float:
        """-Q'(-lambda_cap): the left end of J's domain is -l_minus."""
        return -self.pressure.details([-self.lambda_cap], slope=True)[0].slope

    def _search(self, u: float) -> Generator[float, PressureEval, float]:
        """The certified search for J(u): yields each lambda it needs, is sent its evaluation."""
        if u == 0.0:
            return 0.0
        a, sgn = abs(u), (1.0 if u > 0 else -1.0)
        tol, cap = self.pressure.tol, self.lambda_cap
        # Q'(0) = E F = 0 exactly, whatever the truncation; as the probe whose
        # gap is taken, the origin stands for the untruncated Q (no tail)
        origin = _Probe(0.0, 0.0, -a, 0.0, 0.0)
        probes = [origin]

        def probe(t: float) -> Generator[float, PressureEval, _Probe]:
            ev = yield sgn * t
            p = _Probe(t, t * a - ev.value, sgn * ev.slope - a, ev.slope_bound, ev.tail_bound)
            probes.append(p)
            return p

        def sign(q: _Probe, p: _Probe) -> int:
            """The sign of Q_L' - |u| at q, for the truncation L of p; 0 when unresolved."""
            margin = 0.0 if q is origin else abs(q.slope_bound - p.slope_bound)
            return 1 if q.f > margin else -1 if q.f < -margin else 0

        def bracket(p: _Probe) -> tuple[float, float]:
            lo = max(q.t for q in probes if sign(q, p) < 0)
            hi = min([cap] + [q.t for q in probes if sign(q, p) > 0])
            return lo, hi

        def gap(p: _Probe) -> float:
            lo, hi = bracket(p)
            return abs(p.f) * max(hi - p.t, p.t - lo) + p.tail_bound

        def settle(best: _Probe) -> float:
            """The objective at the best probe, if its gap is within tol; else out of evaluations."""
            if gap(best) > tol:
                raise ToleranceError(
                    f"conjugate search at u={u} reached gap {gap(best):.3e} "
                    f"after {MAX_EVALS} pressure evaluations, over tol={tol}",
                    achievable_tol=gap(best),
                )
            return max(0.0, best.g)

        t = min(cap, a / (self.pressure.obs.sup_abs or 1.0) ** 2)
        while True:
            if len(probes) > MAX_EVALS:
                # Q' can read 0 at every probe (exp(+-lambda F) rounds to 1 below
                # |lambda| ~ 1e-16/M), while the gap may already be within tol
                return settle(min(probes, key=gap))
            p = yield from probe(t)
            if p.f > 0.0:
                break
            if t == cap:
                # below its tail bound, Q' at the cap is certainly below |u| - SLOPE_TOL;
                # otherwise the capped supremum is the objective at the cap
                if -p.f - p.slope_bound >= SLOPE_TOL:
                    return math.inf
                return max(0.0, p.g)
            # double, or step to twice the secant's root when that is nearer
            x = _interpolate(probes[-2:])
            t = min(cap, 2.0 * t, 2.0 * x - t if x is not None and x > t else math.inf)

        widths = [math.inf, math.inf]
        while True:
            best = min(probes, key=gap)
            if gap(best) <= tol or len(probes) > MAX_EVALS:
                return settle(best)
            # Brent's step inside the bracket of the estimated signs: inverse
            # quadratic (or secant) interpolation through the last three
            # probes while the bracket halves every two steps, else bisection
            lo = max((q for q in probes if q.f < 0.0), key=lambda q: q.t)
            hi = min((q for q in probes if q.f > 0.0), key=lambda q: q.t)
            x = None
            if hi.t - lo.t <= 0.5 * widths[-2]:
                x = _interpolate(probes[-3:])
            if x is None or not lo.t < x < hi.t:
                x = 0.5 * (lo.t + hi.t)
            widths.append(hi.t - lo.t)
            # but step at least half the width the best probe's gap allows,
            # towards the root, unless that repeats a probe
            step = 0.5 * (tol - best.tail_bound) / abs(best.f)
            toward = -1.0 if best.f > 0.0 else 1.0
            if toward * (x - best.t) < step:
                forced = min(cap, max(0.0, best.t + toward * step))
                if all(q.t != forced for q in probes):
                    x = forced
            yield from probe(x)

    def grid(self, us) -> list[float]:
        """J at each u of ``us``, every search advanced one lambda per round.

        A round sends each unfinished search the evaluation at the lambda it
        asked for and passes the lambdas it asks for next, in u order, to one
        ``Pressure.details`` call, which drops repeats.  A search's lambdas
        do not depend on the other searches, but a later u can fail in an
        earlier round than an earlier u.  So when a round fails, the
        unfinished searches run on alone in u order, and the error raised is
        the one the first u in order raises alone.
        """
        searches = dict(enumerate(self._search(float(u)) for u in us))
        out = [0.0] * len(searches)
        sends: dict[int, PressureEval | None] = dict.fromkeys(searches)  # None starts a search
        while searches:
            asks = {}
            for i, search in list(searches.items()):
                try:
                    asks[i] = search.send(sends[i])
                except StopIteration as stop:
                    out[i] = stop.value
                    del searches[i]
            try:
                evals = self.pressure.details(asks.values(), slope=True)
            except ToleranceError:
                # if all but the last run through alone, the round failed at the last
                for i, lam in list(asks.items())[:-1]:
                    self._run_alone(searches[i], lam)
                raise
            sends = dict(zip(asks, evals))
        return out

    def _run_alone(self, search: Generator[float, PressureEval, float], lam: float) -> None:
        """Drive one search from its pending lambda to its end, one evaluation at a time."""
        try:
            while True:
                lam = search.send(self.pressure.details([lam], slope=True)[0])
        except StopIteration:
            pass

    def __call__(self, u: float) -> float:
        return self.grid([u])[0]


def _interpolate(probes: list[_Probe]) -> float | None:
    """Root of the inverse quadratic through three probes, or of the secant through two.

    With three probes whose slopes are not distinct, the secant through the
    last two; None when the secant's two slopes coincide.
    """
    if len(probes) == 3:
        (x0, f0), (x1, f1), (x2, f2) = ((p.t, p.f) for p in probes)
        if f0 != f1 and f1 != f2 and f0 != f2:
            return (
                x0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
                + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1))
            )
    (x0, f0), (x1, f1) = ((p.t, p.f) for p in probes[-2:])
    if f0 == f1:
        return None
    return x1 - f1 * (x1 - x0) / (f1 - f0)
