"""Finite-support distributions and bounded observables with exact moments.

An observable F on ell-tuples of support points is stored as a dense table
of size s**ell (s = support size), which makes its mean, variance and
sup-norms exactly computable by summation.  All observables here are bounded
by construction; continuous or infinite-support inputs are out of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapacityError, InputError

# Dense tables are capped; s**ell beyond this raises CapacityError.
TABLE_CELL_LIMIT = 10**6

# Past ell = 19 only a one-point support keeps s**ell under TABLE_CELL_LIMIT.
# Its table has one cell at any ell, but building it, its weights and every
# term of a trajectory still cost O(ell), so ell itself is capped there.
ELL_LIMIT = 1000

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteDistribution:
    """Law of a single draw: strictly increasing support points with probabilities."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) == 0:
            raise InputError("distribution needs at least one support point")
        if len(self.values) != len(self.probs):
            raise InputError("values and probs must have equal length")
        for field in ("values", "probs"):
            if not all(math.isfinite(v) for v in getattr(self, field)):
                raise InputError(f"distribution {field} must be finite")
        if any(p <= 0.0 for p in self.probs):
            raise InputError("all probabilities must be strictly positive")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InputError(f"probabilities sum to {total!r}, not 1")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise InputError("support values must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.values)

    def cumulative(self) -> np.ndarray:
        """Cumulative probabilities with the last entry pinned to 1.0."""
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        cum[-1] = 1.0
        return cum


@dataclass(frozen=True, eq=False)
class Observable:
    """Dense table of F over support-index tuples, with cached exact moments.

    ``table`` is flat, row-major over index tuples (first coordinate is the
    slowest axis).  ``sup_pos``/``sup_neg`` are the sup-norms of the positive
    and negative parts; both are taken over all support tuples, every one of
    which has positive product probability.
    """

    ell: int
    table: np.ndarray
    mean: float
    variance: float
    sup_abs: float
    sup_pos: float
    sup_neg: float

    @cached_property
    def dyadic_exponent(self) -> int:
        """The least q with every table entry an integer multiple of 2**-q.

        An entry's magnitude m * 2**e (np.frexp, 0.5 <= m < 1) is the integer
        k = m * 2**53 times 2**(e - 53), so with t trailing zero bits in k its
        own q is 53 - e - t.  The table's q is the largest over its nonzero
        entries, 0 when it has none; q may be negative.  The bit operations
        run in uint64, whose loops the draw kernel already uses.
        """
        nonzero = self.table[self.table != 0.0]
        if nonzero.size == 0:
            return 0
        m, e = np.frexp(np.abs(nonzero))
        k = (m * 2.0**53).astype(np.uint64)
        # k ^ (k - 1) == 2**(t + 1) - 1, below 2**53 and so exact in float64
        _, t1 = np.frexp((k ^ (k - np.uint64(1))).astype(np.float64))
        return int((54 - e - t1).max())


def _cells(s: int, ell: int, cap: int) -> int:
    """s**ell for a table of ell >= 1 axes of s points, or cap + 1 once it passes cap.

    The power is multiplied out with an early exit, so a huge ell costs no
    more than a small one.
    """
    if ell < 1:
        raise InputError("ell must be >= 1")
    if s == 1:
        if ell > ELL_LIMIT:
            raise CapacityError(f"ell={ell} on a one-point support exceeds limit {ELL_LIMIT}")
        return 1
    cells = 1
    for _ in range(ell):
        cells *= s
        if cells > cap:
            return cap + 1
    return cells


def _check_cells(s: int, ell: int) -> int:
    """s**ell, or CapacityError when it passes TABLE_CELL_LIMIT."""
    cells = _cells(s, ell, TABLE_CELL_LIMIT)
    if cells > TABLE_CELL_LIMIT:
        raise CapacityError(f"table with {s}**{ell} cells exceeds limit {TABLE_CELL_LIMIT}")
    return cells


def _outer_power(vector, ell: int) -> np.ndarray:
    """Flat row-major cells (v[i_1] * v[i_2]) * ... * v[i_ell] of ``vector``
    v, or inf where a product overflows."""
    _check_cells(len(vector), ell)
    out = v = np.asarray(vector, dtype=np.float64)
    with np.errstate(over="ignore"):
        for _ in range(ell - 1):
            out = np.multiply.outer(out, v).ravel()
    return out


def tuple_weights(dist: FiniteDistribution, ell: int) -> np.ndarray:
    """Product probabilities of all s**ell index tuples, flat row-major."""
    return _outer_power(dist.probs, ell)


def observable_from_table(dist: FiniteDistribution, ell: int, flat_table) -> Observable:
    flat = np.asarray(flat_table, dtype=np.float64).ravel()
    s = dist.size
    if _cells(s, ell, flat.size) != flat.size:
        raise InputError(f"table must have {s}**{ell} entries, got {flat.size}")
    if not np.isfinite(flat).all():
        raise InputError("table entries must be finite")
    w = tuple_weights(dist, ell)
    mean = math.fsum((w * flat).tolist())
    sup_pos = max(0.0, float(flat.max()))
    sup_neg = max(0.0, -float(flat.min()))
    # The second moment in units of scale**2, a power of two that is 1 unless
    # |F| > 2**510: w * F * F cannot overflow, and other tables keep their bits.
    # A variance beyond the float range comes out as inf, without a warning.
    scale = 2.0 ** max(0, math.frexp(max(sup_pos, sup_neg))[1] - 511)
    fs, ms = flat / scale, mean / scale
    variance = max(0.0, math.fsum((w * fs * fs).tolist()) - ms * ms) * scale * scale
    flat = flat.copy()
    flat.setflags(write=False)
    return Observable(
        ell=ell,
        table=flat,
        mean=mean,
        variance=variance,
        sup_abs=max(sup_pos, sup_neg),
        sup_pos=sup_pos,
        sup_neg=sup_neg,
    )


def product_observable(dist: FiniteDistribution, ell: int = 2) -> Observable:
    return observable_from_table(dist, ell, _outer_power(dist.values, ell))


def indicator_equal_observable(dist: FiniteDistribution, ell: int = 2) -> Observable:
    s = dist.size
    table = np.zeros(_check_cells(s, ell))
    # the cell (i, ..., i) has the row-major code i * (1 + s + ... + s**(ell-1))
    table[np.arange(s) * sum(s**j for j in range(ell))] = 1.0
    return observable_from_table(dist, ell, table)


def constant_observable(dist: FiniteDistribution, c: float, ell: int = 2) -> Observable:
    return observable_from_table(dist, ell, np.full(_check_cells(dist.size, ell), float(c)))


def center(obs: Observable, dist: FiniteDistribution) -> Observable:
    """Subtract the mean cell-wise; the result has mean 0 and the same variance."""
    return observable_from_table(dist, obs.ell, obs.table - obs.mean)


def value_distribution(
    dist: FiniteDistribution, obs: Observable
) -> tuple[np.ndarray, np.ndarray]:
    """Compressed law of F: sorted distinct values with aggregated probabilities."""
    w = tuple_weights(dist, obs.ell)
    vals, inverse = np.unique(obs.table, return_inverse=True)
    probs = np.bincount(inverse.ravel(), weights=w, minlength=vals.size)
    return vals, probs


def is_degenerate(obs: Observable) -> bool:
    """True when F is a.s. constant up to floating-point residue."""
    scale = max(1.0, obs.sup_abs)  # sup_abs**2 may overflow
    return obs.variance / scale / scale <= 1e-15


# ---------------------------------------------------------------------------
# Named presets and the observable spec-file format.

RADEMACHER = FiniteDistribution(values=(-1.0, 1.0), probs=(0.5, 0.5))
BERNOULLI = FiniteDistribution(values=(0.0, 1.0), probs=(0.5, 0.5))

PRESET_NAMES = ("rademacher-product", "bernoulli-product", "indicator-match", "constant")


def preset(name: str, ell: int | None = None, c: float = 1.0):
    """Build a named (distribution, observable) pair.

    rademacher-product: X uniform on {-1, 1}, F the coordinate product
    (already mean zero).  bernoulli-product: X uniform on {0, 1}, centered
    coordinate product.  indicator-match: ell = 2, F = 1{x1 = x2} - 1/2 on
    the Rademacher support.  constant: F identically c, an intentionally
    degenerate diagnostic.
    """
    ell = 2 if ell is None else ell
    if name == "rademacher-product":
        return RADEMACHER, product_observable(RADEMACHER, ell)
    if name == "bernoulli-product":
        return BERNOULLI, center(product_observable(BERNOULLI, ell), BERNOULLI)
    if name == "indicator-match":
        if ell != 2:
            raise InputError("indicator-match is defined for ell = 2 only")
        return RADEMACHER, center(indicator_equal_observable(RADEMACHER, 2), RADEMACHER)
    if name == "constant":
        return RADEMACHER, constant_observable(RADEMACHER, c, ell)
    raise InputError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def from_spec(spec: dict) -> tuple[FiniteDistribution, Observable]:
    """Build (distribution, observable) from a parsed spec object.

    Required fields: ``values``, ``probs``, ``ell``, ``kind`` in
    {product, indicator_equal, table}.  ``kind = table`` additionally needs
    ``table``, a flat row-major array of length size**ell.
    """
    try:
        values = spec["values"]
        probs = spec["probs"]
        ell = int(spec["ell"])
        kind = spec["kind"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"observable spec missing field: {exc}") from exc
    dist = FiniteDistribution(values=tuple(values), probs=tuple(probs))
    if kind == "product":
        return dist, product_observable(dist, ell)
    if kind == "indicator_equal":
        return dist, indicator_equal_observable(dist, ell)
    if kind == "table":
        if "table" not in spec:
            raise InputError("kind 'table' requires a 'table' array")
        return dist, observable_from_table(dist, ell, spec["table"])
    raise InputError(f"unknown observable kind {kind!r}")


def load_spec(path) -> tuple[FiniteDistribution, Observable]:
    """Read a JSON observable spec from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read observable spec {path}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"observable spec {path} is not valid JSON: {exc}") from exc
    return from_spec(spec)
