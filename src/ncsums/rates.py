"""Rate functions: the fiber pressure series, and one certified conjugate for J and Cramér's I.

The pressure Q(lambda) of a dilation sum is a weighted series over fiber
lengths l, with weights 1/h_l - 1/h_{l+1} from the smooth-number sequence
and per-fiber terms ln R_l.  R_l is the exact expectation of
exp(lambda * sum of l chained observable terms); the chain shares draws
between terms, so it is evaluated by sum-product elimination over the
shared-index dependency graph rather than by brute enumeration.  For
ell >= 2 one forward sweep over the chain terms in increasing h yields
every length whose tables stay small, for a whole batch of lambdas at
once; at ell = 2 each of its steps is one s x s transfer.  Past that
reach the elimination order of each fiber length is a compiled
elimination plan, built once per process from the chain structure alone
and replayed per lambda.  The pressure is evaluated over batches of
lambda: at ell = 2 one sweep serves a whole batch, and the conjugate J
holds the root searches of a u grid as the rows of arrays, so that the
lambdas of each round form one batch; one u is searched on floats.  Those
searches take Q' from a complex step through the same kernels.

Each entry point derives its prime basis from obs.ell, except
log_r_sequence, whose signature the benchmark's span wrapper reads.

Truncation of the series is certified: ln R_l <= l*M*|lambda| bounds every
dropped term, and the smooth numbers beyond the enumerated range are
bounded below through h_l >= 2**(l**(1/m) - 1).
"""

from __future__ import annotations

import heapq
import math
import threading
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
DBL_MAX = float(np.finfo(np.float64).max)
LN_MAX = math.log(DBL_MAX)

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
    """Convex conjugate of ln(mgf), by RateJ's certified search over the exact ln phi.

    For 0 < |alpha| < sup F on alpha's side, RateJ searches the pressure
    ln phi, whose value is ``log_mgf``, slope ``tilted_mean`` and tails 0,
    with no lambda cap: their shifted exps never overflow.  It stops at a
    gap of 1e-13 * 2 alpha**2 / (sup F - inf F)**2, at most 1e-13 * I(alpha)
    by Hoeffding's inequality.  alpha = 0 and |alpha| >= sup F are exact.
    Where |t|*M <= SMALL_TF, ln(mgf) and the tilted mean come from sums that
    do not cancel, so small alpha keep their relative accuracy.  Top values
    within about 1e-12 * M of each other put t* out of the search's reach,
    and it raises ToleranceError.  Expectations are exactly rounded sums, so
    I(-a) of F equals I(a) of -F bit for bit.
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
        sup = obs.sup_pos if alpha > 0 else obs.sup_neg
        if abs(alpha) > sup:
            return math.inf
        if abs(alpha) == sup:  # alpha is the extreme value of F on its side
            return -math.log(self._mass_at(alpha))
        # 1e-13 * 2 alpha**2 / (sup F - inf F)**2, over half the range, which cannot overflow
        tol = 5e-14 * (alpha / (0.5 * obs.sup_pos + 0.5 * obs.sup_neg)) ** 2
        return RateJ(_LogMgf(self, tol), lambda_cap=math.inf).grid([alpha])[0]


class _LogMgf:
    """ln phi as the pressure that RateJ searches for one I(alpha): exact, so both tails are 0."""

    lambda_max = math.inf  # log_mgf and tilted_mean shift their exps

    def __init__(self, rate: CramerRate, tol: float):
        self.obs, self.tol, self._rate = rate.obs, tol, rate

    def _batch(self, lams: np.ndarray, slope: bool = False) -> PressureBatch:
        rate, zero, one = self._rate, np.zeros(len(lams)), np.ones(len(lams), dtype=np.intp)
        value, mean = (np.array([f(x) for x in lams.tolist()]) for f in (rate.log_mgf, rate.tilted_mean))
        return PressureBatch(value, zero, one, mean, zero)


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


# The sweep's largest step table, in bytes, unless one term's table of
# s**ell cells is larger; past it each length replays its plan.  Measured at
# ell = 3 on a 2-core host, real and complex: a step whose table holds 4 MiB
# costs at most half its length's plan replay, one of 8 MiB about as much,
# and one of 16 MiB more.  Every plan builds a table of s**ell cells.
_SWEEP_BYTES = 4 << 20

# The sweep's most table axes, numpy's limit before numpy 2; only a
# one-point law, whose tables hold one cell, gets near it.
_SWEEP_AXES = 32


class _SweepStep(NamedTuple):
    """Chain term k of the forward sweep, at h = h_k, as axis bookkeeping.

    The frontier table's axes are a lambda axis and then draws that an
    earlier term read and a later term reads, and h_k is one of them.
    ``perm`` orders them as (lambda, j*h_k for j in ``shared``, h_k, the
    rest); ``shared`` are the j >= 2 whose draw is on the frontier and
    ``new`` the j >= 2 whose draw the term reads first, both ascending.
    ``union`` counts the step table's draw axes: the frontier's and the new
    draws'.
    """

    perm: tuple[int, ...]
    shared: tuple[int, ...]
    new: tuple[int, ...]
    union: int


# Sweep steps per basis, grown on demand, with the frontier after the last.
_sweeps: dict[PrimeBasis, tuple[list[_SweepStep], list[int]]] = {}
_sweeps_lock = threading.Lock()


def _sweep_step(frontier: list[int], h: int, ell: int) -> _SweepStep:
    """Term h's step; moves ``frontier`` to the draw axes of the table after it."""
    pos = {d: i + 1 for i, d in enumerate(frontier)}
    shared = tuple(j for j in range(2, ell + 1) if j * h in pos)
    new = tuple(j for j in range(2, ell + 1) if j * h not in pos)
    read = {j * h for j in shared} | {h}
    rest = [i for i, d in enumerate(frontier, 1) if d not in read]
    perm = (0,) + tuple(pos[j * h] for j in shared) + (pos[h],) + tuple(rest)
    union = len(frontier) + len(new)
    frontier[:] = [j * h for j in shared + new] + [frontier[i - 1] for i in rest]
    return _SweepStep(perm, shared, new, union)


def _sweep_steps(
    basis: PrimeBasis, L: int, s: int, itemsize: int, budget: int
) -> list[_SweepStep]:
    """The sweep's steps for lengths 1..n, n < L only where length n + 1 is out of reach.

    Reach is decided for one lambda, whatever the batch.  A length is in
    reach while the step tables through it hold at most ``budget`` cells
    together, and its own table at most _SWEEP_BYTES bytes (or s**ell
    cells, where that is more) and _SWEEP_AXES axes.  At ell = 2 every step
    table has s**2 cells, so only the budget ends the sweep.  Cells count
    as in the plans.  At ell >= 3 and from l = 3 on, the running total is
    at least the largest plan's up to l (checked at ell = 3 to 7 on two and
    three points, for l up to 34 or more), so a budget stops at the same
    length with or without the sweep.  At ell = 2 the total through l is
    l * s**2 and the plan of length l builds l * s**2 + s cells, so no plan
    runs within a budget that ends the sweep.
    """
    cap = max(_SWEEP_BYTES, s**basis.ell * itemsize)
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
            if cells > budget or union > _SWEEP_AXES or s**union * itemsize > cap:
                return steps[:n]
        return steps[:L]


def _sweep_log(steps: list[_SweepStep], shaped: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """ln R_l for l = 1..len(steps) at each of B lambdas, by one sweep over the chain terms.

    ``shaped`` holds B tables exp(lambda * F), one per row, and row i of the
    (B, len(steps)) array returned has the bits of the same sweep of row i
    alone.  The frontier table starts at the weights of draw 1.  Term k
    weights its new draws once, in the small term table, multiplies into
    the frontier table with draw h_k summed out, a batched matmul over the
    shared draws, and the new table's total c_k is the ratio R_k/R_{k-1}.
    Each term table is divided by its row's Re c_{k-1}, so the frontier
    table stays renormalized, and ln R_l = sum_{k<=l} ln Re c_k
    + i Im c_l/Re c_l, the logs taken once at the end by math.log (np.log
    can differ in the last bit) and summed in order; a complex table
    carries the complex step.
    """
    B, s, ell = len(shaped), probs.size, shaped.ndim - 1
    tab = np.empty((B, s), dtype=shaped.dtype)
    tab[:] = probs
    kernels: dict[tuple, np.ndarray] = {}
    sums = np.empty((len(steps), B), dtype=shaped.dtype)
    scale = 1.0
    for k, step in enumerate(steps):
        key = (step.shared, step.new)
        kernel = kernels.get(key)
        if kernel is None:
            w = shaped
            for j in step.new:
                w = w * probs.reshape([s if i == j else 1 for i in range(ell + 1)])
            order = [0, *step.shared, *step.new, 1]
            kernel = w.transpose(order).reshape(B, s ** len(step.shared), s ** len(step.new), s)
            kernels[key] = kernel
        front = tab.reshape((B,) + (s,) * (len(step.perm) - 1)).transpose(step.perm)
        front = front.reshape(B, s ** len(step.shared), s, -1)
        tab = np.matmul(kernel / scale, front)
        c = np.add.reduce(tab.reshape(B, -1), 1, out=sums[k])
        scale = c.real[:, None, None, None]
    logs = np.fromiter(map(math.log, sums.real.ravel().tolist()), np.float64, sums.size)
    out = np.add.accumulate(logs.reshape(sums.shape)).astype(sums.dtype, copy=False)
    if out.dtype.kind == "c":
        out.imag = sums.imag / sums.real
    return out.T


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

    ell = 1 collapses to l * ln(mgf).  Larger ell takes one forward sweep
    over the chain terms for every length in its reach (see _sweep_steps),
    and past it replays each length's compiled elimination plan; the budget
    counts the sweep's cells through a length, or that length's plan, for
    one lambda.  At ell = 2 every step is one s x s transfer and the reach
    is the budget's.  ``lam`` may also be a 1-D array of lambdas: one sweep
    then serves them all, each replays its own plans past the reach, and
    row i of the (B, L) array returned has the bits of the list at lam[i]
    alone.

    A complex ``lam`` = lambda + ih with a tiny step h (h * M << 1, for
    example 1e-30 / M) is a complex step (Squire & Trapp, SIAM Review 40,
    1998): the same kernels then return complex ln R_l, whose real part is
    ln R_l at lambda and whose imaginary part divided by h is d ln R_l/dlambda,
    with no cancellation.
    """
    if obs.ell != basis.ell:
        raise InputError(f"ell={obs.ell} does not match basis ell={basis.ell}")
    lams = np.array(lam, dtype=np.result_type(lam, np.float64), ndmin=1)
    s, ell = dist.size, obs.ell
    if ell == 1:
        lphi = np.array([_log(mgf(dist, obs, x)) for x in lams.tolist()])
        out = lphi[:, None] * np.arange(1, L + 1)
    else:
        probs = np.asarray(dist.probs, dtype=np.float64)
        x = lams[:, None] * obs.table
        # a step multiplies up to ell tables; past ln(DBL_MAX) / ell they are
        # exp(lam * F - c), c the largest Re(lam) * F, and ln R_l gains l * c
        shift = {
            i: float(np.max(lams[i].real * obs.table))
            for i, v in enumerate(lams.tolist())
            if abs(v) * obs.sup_abs * ell > LN_MAX
        }
        for i, c in shift.items():
            x[i] -= c
        shaped = np.exp(x).reshape((-1,) + (s,) * ell)
        n = len(steps := _sweep_steps(basis, L, s, shaped.itemsize, budget))
        out = np.empty((len(lams), L), dtype=shaped.dtype)
        out[:, :n] = _sweep_log(steps, shaped, probs)
        for l in range(n + 1, L + 1):
            try:
                cells, steps = _plan(basis, l, s)
            except BudgetExceededError as exc:
                raise BudgetExceededError(str(exc), completed=l - 1) from None
            if cells > budget:
                raise BudgetExceededError(
                    f"elimination needs more than {budget} table cells; raise the budget",
                    completed=l - 1,
                )
            out[:, l - 1] = [_replay_log(steps, row, probs, l) for row in shaped]
        for i, c in shift.items():
            out[i] += np.arange(1, L + 1) * c
    return out if np.ndim(lam) else out[0].tolist()


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


class PressureBatch(NamedTuple):
    """PressureEval's fields at a batch of lambdas, as arrays; the slopes are None unless asked for."""

    value: np.ndarray
    tail_bound: np.ndarray
    truncation_l: np.ndarray
    slope: np.ndarray | None = None
    slope_bound: np.ndarray | None = None


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

    ``_batch`` evaluates a batch of lambdas as arrays; at ell = 2 they share
    one sweep over the chain, and at larger ell each lambda takes its own,
    with plans only past the sweep's reach.  ``details`` is its list of
    PressureEval, and ``detail`` and calling the object are batches of one.

    ``_batch(lams, slope=True)`` also returns Q'(lambda), by a complex step
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
        # exp(lambda * F) is finite up to |lambda| = lambda_max, and at every lambda for F = 0
        self.lambda_max = LN_MAX / obs.sup_abs if obs.sup_abs > 0 else DBL_MAX
        if basis.m == 0:
            # one term, ln R_1 = ln mgf, and nothing dropped at L = 1
            self._smooth = None
            self._tail = np.zeros(2)
            return
        self._smooth = smooth = smooth_numbers_capped(basis, MAX_TERMS)
        self._weights = np.empty(0)
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
        # -tail[1:] as a running max, so searchsorted finds the first tail[L] < target
        # even where rounding leaves two adjacent tail entries out of order
        self._neg_tail = np.maximum.accumulate(-tail[1:])

    def _truncation(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, ToleranceError | None]:
        """L and tail bound at each lambda up to the first whose tail cannot reach tol, and its error."""
        scale = self.basis.r_const * self.obs.sup_abs * np.abs(lams)
        tail = self._tail
        # the first L >= 1 with tail[L] < target; L = 1 and bound 0 where scale = 0
        with np.errstate(divide="ignore", over="ignore"):
            L = np.searchsorted(self._neg_tail, -self.tol / scale, side="right") + 1
        bad, failed = L == len(tail), None
        if bad.any():
            i = int(bad.argmax())
            best = float(scale[i]) * float(tail[-1])
            failed = ToleranceError(
                f"certified tail cannot reach tol={self.tol} (best achievable {best:.3e})",
                achievable_tol=best,
            )
            L, scale = L[:i], scale[:i]
        return L, scale * tail[L], failed

    def details(self, lams, slope: bool = False) -> list[PressureEval]:
        """PressureEval at each lambda of ``lams``, in order, with Q' if ``slope``."""
        out = self._batch(np.array([float(lam) for lam in lams]), slope)
        return [PressureEval(*row) for row in zip(*(c.tolist() for c in out if c is not None))]

    def _batch(self, lams: np.ndarray, slope: bool = False) -> PressureBatch:
        """Q at each lambda of the float array ``lams``, in order, and Q' if ``slope``.

        Each distinct lambda is truncated in order and evaluated once; Q(0)
        = 0 needs no evaluation.  At ell = 2 they share one sweep up to the
        largest truncation length; larger ell evaluates each lambda's
        sequence up to its own length.  A truncation failure is the one the
        first failing lambda in order raises alone, and no lambda after it is
        evaluated.  The budget stops every lambda at the same fiber length,
        and its error reports the tol that length achieves at the largest
        |lambda| past it, so the batch re-run at that tol passes.  A |lambda|
        past lambda_max, where exp(lambda * F) overflows, is an InputError.
        """
        top = self.lambda_max
        if (np.abs(lams) > top).any():
            raise InputError(f"|lambda| may not exceed ln(DBL_MAX) / sup|F| = {top:.9g}")
        if self.basis.m == 0:
            return self._evaluate(lams, np.ones(len(lams), dtype=np.intp), np.zeros(len(lams)), slope)
        listed = lams.tolist()
        keys, pos = dict.fromkeys(listed), None
        if len(keys) < len(listed):  # repeats: each distinct lambda once, in order of first appearance
            at = {lam: i for i, lam in enumerate(keys)}
            lams, pos = np.array(list(keys)), [at[lam] for lam in listed]
        L, bound, failed = self._truncation(lams)
        if not slope:
            L[lams[: len(L)] == 0.0] = 0  # Q(0) = 0 at L = 0, with no evaluation
        out = self._evaluate(lams[: len(L)], L, bound, slope)
        if failed is not None:
            raise failed
        return out if pos is None else PressureBatch(*(c if c is None else c[pos] for c in out))

    def _evaluate(
        self, lams: np.ndarray, L: np.ndarray, bound: np.ndarray, slope: bool
    ) -> PressureBatch:
        """Series values at ``lams``, truncated at ``L`` with tail bounds ``bound``."""
        dist, obs, basis = self.dist, self.obs, self.basis
        top = int(L.max(initial=0))
        h = STEP_OVER_M / (obs.sup_abs or 1.0)
        args = lams
        if slope:
            args = np.empty(len(lams), dtype=np.complex128)
            args.real, args.imag = lams, h
        live = np.flatnonzero(L)  # the rows at L = 0 sum no terms
        try:
            if obs.ell == 2 and 0 < len(live) == len(L):
                lnr = log_r_sequence(dist, obs, basis, args, top, budget=self.budget)
            elif obs.ell == 2:
                lnr = np.zeros((len(args), top), dtype=args.dtype)
                if len(live):
                    lnr[live] = log_r_sequence(dist, obs, basis, args[live], top, budget=self.budget)
            else:
                # a batch would run every lambda to the top L; at ell >= 3 the
                # extra lengths are the costliest cells, and past the sweep's
                # reach every row replays its own plans, so each runs alone
                lnr = np.zeros((len(args), top), dtype=args.dtype)
                for i in live.tolist():
                    n = int(L[i])
                    lnr[i, :n] = log_r_sequence(dist, obs, basis, args[i : i + 1], n, budget=self.budget)[0]
        except BudgetExceededError as exc:
            done = exc.completed
            if done < 1:
                msg = f"no fiber length fits the budget of {self.budget}"
                raise ToleranceError(f"budget exhausted at fiber length 1; {msg}") from exc
            # the reach is the same at every lambda, so the largest |lambda| past it decides
            lam = float(np.abs(lams[L > done]).max())
            achievable = basis.r_const * obs.sup_abs * lam * float(self._tail[done])
            raise ToleranceError(
                f"budget exhausted at fiber length {done + 1}; "
                f"achievable tol is {achievable}",
                achievable_tol=achievable,
            ) from exc
        terms = self._series_weights(top) * lnr
        r, Ls = basis.r_const, L.tolist()

        def sums(part: np.ndarray) -> np.ndarray:
            # each row's exactly rounded sum of its first L terms
            return np.array([math.fsum(row[:n]) for row, n in zip(part.tolist(), Ls)])

        value = r * sums(terms.real)
        if not slope:
            return PressureBatch(value, bound, L)
        return PressureBatch(value, bound, L, r * sums(terms.imag) / h, r * obs.sup_abs * self._tail[L])

    def _series_weights(self, top: int) -> np.ndarray:
        """The weights w_1..w_top, each the float nearest the exact rational."""
        if self._smooth is None:
            return np.ones(top)
        w = self._weights  # read once: another thread may store a shorter array meanwhile
        if len(w) < top:
            w = self._weights = np.array([self._smooth.weight(l) for l in range(1, top + 1)])
        return w[:top]

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

    ``grid`` holds the searches of a whole u grid as the rows of arrays
    (see _Searches).  A round is a few numpy passes over the unfinished
    searches and one batch of the pressure at their lambdas, in u order;
    each row makes the IEEE operations of its search alone, so J and every
    error keep the bits of the u alone.  A grid of one u, and calling the
    object, runs that search on floats (``_search``), since numpy's fixed
    cost a pass outweighs one row's work.  ``pressure`` is a Pressure, or
    CramerRate's exact ln phi: any object with ``obs``, ``tol``, ``_batch``
    and ``lambda_max``, the largest cap it takes.  The cap defaults to
    CAP_OVER_M / M.
    """

    def __init__(self, pressure: Pressure, lambda_cap: float | None = None):
        _require_centered(pressure.obs)
        self.pressure = pressure
        M, top = pressure.obs.sup_abs or 1.0, pressure.lambda_max
        self.lambda_cap = CAP_OVER_M / M if lambda_cap is None else float(lambda_cap)
        if not self.lambda_cap > 0:
            raise InputError("lambda_cap must be positive")
        if self.lambda_cap > top:
            raise InputError(f"lambda_cap may not exceed ln(DBL_MAX) / sup|F| = {top:.9g}")

    @property
    def l_plus(self) -> float:
        """Q'(lambda_cap): the right end of J's domain, within the slope's tail bound."""
        return float(self.pressure._batch(np.array([self.lambda_cap]), slope=True).slope[0])

    @property
    def l_minus(self) -> float:
        """-Q'(-lambda_cap): the left end of J's domain is -l_minus."""
        return -float(self.pressure._batch(np.array([-self.lambda_cap]), slope=True).slope[0])

    def grid(self, us) -> list[float]:
        """J at each u of ``us``; an error is the one the first failing u raises alone.

        One u is searched alone, on floats (``_search``).  When a round's
        batch fails, its lambdas but the last are evaluated alone, in u
        order, up to the first that fails, and the last takes the batch's
        error when none does.  That search ends with the error, and the
        searches after it stop.
        """
        us = [float(u) for u in us]
        if len(us) == 1:
            return [self._search(us[0])]
        press, limit = self.pressure, MAX_EVALS
        s = _Searches(us, self.lambda_cap, press.obs.sup_abs or 1.0, limit)
        ev = None
        while s.step(ev, press.tol, limit):
            lams = s.sgn * s.t
            try:
                ev = press._batch(lams, slope=True)
            except ToleranceError as exc:
                done = []
                for i in range(len(lams) - 1):
                    try:
                        done.append(press._batch(lams[i : i + 1], slope=True))
                    except ToleranceError as err:
                        exc = err
                        break
                s.fail(s.index[len(done)], exc)
                ev = PressureBatch(*map(np.concatenate, zip(*done))) if done else None
        if s.error is not None:
            raise s.error
        return s.out.tolist()

    def _search(self, u: float) -> float:
        """J(u) by the search of one u on floats, one pressure batch of one lambda a probe.

        Probe i is the floats ts[i], gs[i], fs[i], sbs[i] and tbs[i], the
        values of _Searches' probes, with its bracket [los[i], his[i]] and
        the gap it certifies, gaps[i], kept as the probes come: a new probe
        takes its bracket from the probes before it, and its sign tightens
        theirs.  Every value is the IEEE operation that _Searches makes.
        """
        if u == 0.0:
            return 0.0
        press, limit, cap = self.pressure, MAX_EVALS, self.lambda_cap
        a, sgn, tol = abs(u), (1.0 if u > 0 else -1.0), press.tol
        ts, gs, fs, sbs, tbs = [0.0], [0.0], [-a], [0.0], [0.0]
        los, his, gaps = [0.0], [cap], [a * cap]
        # the largest t with f < 0 and the smallest with f > 0: Brent's bracket
        lo_t, hi_t = 0.0, math.inf

        def add(t: float) -> float:
            """Evaluate and record the probe at t, and tighten the earlier brackets."""
            nonlocal lo_t, hi_t
            ev = press._batch(np.array([sgn * t]), slope=True)
            q, slope, sb, tb = (float(c[0]) for c in (ev.value, ev.slope, ev.slope_bound, ev.tail_bound))
            f = sgn * slope - a
            lo, hi = 0.0, cap
            for i, (tq, fq, sq) in enumerate(zip(ts, fs, sbs)):
                m = abs(sq - sb)
                if fq > m:
                    hi = min(hi, tq)
                elif fq < -m:
                    lo = max(lo, tq)
                if f > m and t < his[i]:
                    his[i] = t
                elif f < -m and t > los[i]:
                    los[i] = t
                else:
                    continue
                gaps[i] = abs(fq) * max(his[i] - tq, tq - los[i]) + tbs[i]
            if f < 0.0:
                lo, lo_t = max(lo, t), max(lo_t, t)
            elif f > 0.0:
                hi, hi_t = min(hi, t), min(hi_t, t)
            for xs, x in zip((ts, gs, fs, sbs, tbs, los, his), (t, t * a - q, f, sb, tb, lo, hi)):
                xs.append(x)
            gaps.append(abs(f) * max(hi - t, t - lo) + tb)
            return f

        def settle() -> float:
            best = min(range(len(gaps)), key=gaps.__getitem__)
            if gaps[best] > tol:
                raise _out_of_evaluations(u, gaps[best], tol, limit)
            return max(0.0, gs[best])

        M = press.obs.sup_abs or 1.0
        t = min(cap, a / M**2 if math.isfinite(M * M) else a / M / M)
        while True:
            if len(ts) > limit:
                return settle()
            f = add(t)
            if f > 0.0:
                break
            if t == cap:
                if -f - sbs[-1] >= SLOPE_TOL:
                    return math.inf
                return max(0.0, gs[-1])
            x = _interpolate_one(ts[-2:], fs[-2:])
            t = min(cap, 2.0 * t, 2.0 * x - t if x is not None and x > t else math.inf)
        widths = [math.inf, math.inf]
        while True:
            best = min(range(len(gaps)), key=gaps.__getitem__)
            if gaps[best] <= tol or len(ts) > limit:
                return settle()
            x = None
            if hi_t - lo_t <= 0.5 * widths[-2]:
                x = _interpolate_one(ts[-3:], fs[-3:])
            if x is None or not lo_t < x < hi_t:
                x = 0.5 * (lo_t + hi_t)
            widths.append(hi_t - lo_t)
            step = 0.5 * (tol - tbs[best]) / abs(fs[best])
            toward = -1.0 if fs[best] > 0.0 else 1.0
            if toward * (x - ts[best]) < step:
                forced = min(cap, max(0.0, ts[best] + toward * step))
                if forced not in ts:
                    x = forced
            add(x)

    def __call__(self, u: float) -> float:
        return self.grid([u])[0]


def _out_of_evaluations(u: float, gap: float, tol: float, limit: int) -> ToleranceError:
    return ToleranceError(
        f"conjugate search at u={u} reached gap {gap:.3e} after {limit} pressure evaluations, over tol={tol}",
        achievable_tol=float(gap),
    )


class _Searches:
    """The unfinished searches of a RateJ grid, one row each, with their probes as arrays.

    ``probes[:, i, r]`` is probe i of row r: t, g = t*|u| - Q, f = sgn*Q' -
    |u| (the objective's slope, negated), the tail bounds of Q' and of Q at
    its truncation, and its bracket [lo, hi] of the root under that
    truncation.  The probe axis comes before the rows, so that a probe's
    values broadcast against the rows' own arrays.  Every row makes one
    probe a round, so all hold ``n``, probe 0 the origin.  ``t`` is each
    row's next probe, ``brent`` whether it has passed the root, and
    ``widths`` its Brent bracket's widths two steps and one step ago.

    A row's every value is the IEEE operation, in the same order, that its
    search alone makes on Python floats: ``max(0.0, x)`` and ``min(cap, x)``
    are where passes that keep Python's choice, and a gap of 0 * inf is
    never the best probe.
    """

    @np.errstate(all="ignore")  # IEEE results, as on Python floats
    def __init__(self, us: list[float], cap: float, M: float, limit: int):
        self.us, self.cap, self.n, self.error = us, cap, 1, None  # the first failing u's error
        self.out = np.zeros(len(us))
        u = np.array(us)
        self.index = np.flatnonzero(u)  # J(0) = 0 takes no search
        u = u[self.index]
        self.a = a = np.abs(u)
        self.sgn = np.where(u > 0.0, 1.0, -1.0)
        # probe 0 is the origin: Q'(0) = E F = 0 exactly, whatever the
        # truncation, so its own sign takes no margin; as the probe whose gap
        # is taken, it stands for the untruncated Q (no tail)
        self.probes = p = np.zeros((7, limit + 1, len(u)))
        p[2, 0], p[6, 0] = -a, cap
        # M**2 raises OverflowError past M ~ 1.3e154, and M * M can differ from it in the last bit
        t = a / M**2 if math.isfinite(M * M) else a / M / M
        self.t = np.where(t < cap, t, cap)
        self.brent = np.zeros(len(u), dtype=bool)
        self.widths = np.full((2, len(u)), np.inf)

    def _keep(self, rows: np.ndarray) -> None:
        for name in ("index", "a", "sgn", "t", "brent"):
            setattr(self, name, getattr(self, name)[rows])
        self.widths, p = self.widths[:, rows], self.probes
        # only the probes taken are copied; the pages of the others stay untouched
        self.probes = np.zeros((7, p.shape[1], len(self.t)))
        self.probes[:, : self.n] = p[:, : self.n, rows]

    def fail(self, at: int, error: ToleranceError) -> None:
        """End the search of u number ``at`` with ``error``, and every search after it."""
        self.error = error
        self._keep(self.index < at)

    @np.errstate(all="ignore")
    def step(self, ev: PressureBatch | None, tol: float, limit: int) -> bool:
        """Record the probes of ``ev`` at ``t``, then step each row or end its search; whether any row is left.

        A doubling row whose last probe is past the root turns to Brent's
        method; else it ends at the cap, or doubles, or steps to twice the
        secant's root when that is nearer.  A row in Brent's method ends once
        its best gap is within tol, and every row once it is out of
        evaluations: Q' can read 0 at every probe (exp(+-lambda F) rounds to
        1 below |lambda| ~ 1e-16/M) while the gap is already within tol.
        """
        if ev is not None:
            self._add(ev)
        n, cap, p = self.n, self.cap, self.probes
        T, G, F, SB, TB, LO, HI = p[:, :n]
        t, brent = self.t, self.brent
        end = j = failed = None
        if n > 1 and np.count_nonzero(brent) < len(t):
            brent |= F[-1] > 0.0
            doubling = ~brent
            if np.count_nonzero(doubling):
                x, ok = _interpolate(T[-2:], F[-2:])
                nxt = 2.0 * t
                nxt = np.where(nxt < cap, nxt, cap)
                near = 2.0 * x - t
                self.t = np.where(brent, t, np.where(ok & (x > t) & (near < nxt), near, nxt))
                capped = doubling & (t == cap)
                if np.count_nonzero(capped):
                    # below its tail bound, Q' at the cap is certainly below |u| - SLOPE_TOL;
                    # otherwise the capped supremum is the objective at the cap
                    end, g = capped, G[-1]
                    j = np.where(-F[-1] - SB[-1] >= SLOPE_TOL, np.inf, np.where(g > 0.0, g, 0.0))
        if n > limit or np.count_nonzero(brent):
            # inf for nan: a gap of 0 * inf is never the best, under argmin as under Python's min
            gaps = np.fmin(np.abs(F) * np.maximum(HI - T, T - LO) + TB, np.inf)
            best, rows = gaps.argmin(0), np.arange(len(t))
            gap = gaps[best, rows]
            bt, bg, bf, _, btb, _, _ = p[:, best, rows]  # each row's best probe
            stop = (brent & (gap <= tol)) | (n > limit)
            if end is not None:
                stop &= ~end
            if np.count_nonzero(brent & ~stop):
                # Brent's step inside the bracket of the estimated signs: inverse
                # quadratic (or secant) interpolation through the last three
                # probes while the bracket halves every two steps, else bisection
                w = self.widths
                lo = np.maximum.reduce(T, 0, initial=0.0, where=F < 0.0)
                hi = np.minimum.reduce(T, 0, initial=np.inf, where=F > 0.0)
                width, x = hi - lo, 0.5 * (lo + hi)
                ok = brent & (width <= 0.5 * w[0])
                if np.count_nonzero(ok):
                    xq, okq = _interpolate(T[-3:], F[-3:])
                    x = np.where(ok & okq & (lo < xq) & (xq < hi), xq, x)
                np.copyto(w[0], w[1], where=brent)
                np.copyto(w[1], width, where=brent)
                # but step at least half the width the best probe's gap allows,
                # towards the root (down from a probe past it), unless that
                # repeats a probe; a 0 that clipping leaves is the origin's t
                step = 0.5 * (tol - btb) / np.abs(bf)
                past, d = bf > 0.0, x - bt
                forced = np.minimum(np.maximum(np.where(past, bt - step, bt + step), 0.0), cap)
                ok = (np.where(past, -d, d) < step) & ~(T == forced).any(0)
                np.copyto(self.t, np.where(ok, forced, x), where=brent)
            over = stop & (gap > tol)
            if np.count_nonzero(over):
                i = over.argmax()
                failed = self.index[i], _out_of_evaluations(self.us[self.index[i]], gap[i], tol, limit)
            bg = np.where(bg > 0.0, bg, 0.0)
            end, j = (stop, bg) if end is None else (end | stop, np.where(stop, bg, j))
        if end is not None and np.count_nonzero(end):
            self.out[self.index[end]] = j[end]
            self._keep(~end)
        if failed:
            self.fail(*failed)
        return len(self.t) > 0

    def _add(self, ev: PressureBatch) -> None:
        """Record each row's probe at ``t``, with its bracket, and tighten the earlier brackets.

        The sign of Q_L' - |u| at one probe, under the truncation L of
        another, is resolved beyond the difference of their Q' tail bounds,
        0 for the probe itself.
        """
        k, t, a, sb = self.n, self.t, self.a, ev.slope_bound
        self.n = k + 1
        T, G, F, SB, TB, LO, HI = self.probes[:, : k + 1]
        f = self.sgn * ev.slope - a
        T[k], G[k], F[k], SB[k], TB[k] = t, t * a - ev.value, f, sb, ev.tail_bound
        margin = np.abs(SB - sb)
        neg = -margin
        # the new probe's sign under each earlier truncation, then the new
        # probe's bracket from every probe's sign under its own
        np.minimum(HI, t, out=HI, where=f > margin)
        np.maximum(LO, t, out=LO, where=f < neg)
        HI[k] = np.minimum.reduce(T, 0, initial=self.cap, where=F > margin)
        LO[k] = np.maximum.reduce(T, 0, initial=0.0, where=F < neg)


# the two other probes of each term of the inverse quadratic
_IQI_A, _IQI_B = np.array([1, 0, 0]), np.array([2, 2, 1])


def _interpolate(ts: np.ndarray, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root of the inverse quadratic through three probes (t, f) of each row, or of the secant through two.

    With three probes whose slopes are not distinct, the secant through the
    last two; ``ok`` is False where the secant's two slopes coincide.
    """
    x1, x2, f1, f2 = ts[-2], ts[-1], fs[-2], fs[-1]
    x = x2 - f2 * (x2 - x1) / (f2 - f1)
    if len(ts) == 3:
        # term j is x_j f_a f_b / ((f_j - f_a)(f_j - f_b)), a and b the other two in order
        fa, fb = fs[_IQI_A], fs[_IQI_B]
        q = ts * fa * fb / ((fs - fa) * (fs - fb))
        quad = (fs != fa) & (fs != fb)
        x = np.where(quad[0] & quad[1], q[0] + q[1] + q[2], x)
    return x, f1 != f2


def _interpolate_one(ts: list[float], fs: list[float]) -> float | None:
    """_interpolate for one search, on floats: None where its ``ok`` is False."""
    if len(ts) == 3:
        (x0, x1, x2), (f0, f1, f2) = ts, fs
        if f0 != f1 and f1 != f2 and f0 != f2:
            return (
                x0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
                + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1))
            )
    (x0, x1), (f0, f1) = ts[-2:], fs[-2:]
    return None if f0 == f1 else x1 - f1 * (x1 - x0) / (f1 - f0)
