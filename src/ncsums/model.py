"""Finite-support distributions and bounded observables with exact moments.

An observable F on ell-tuples of support points is stored as a dense table
of size s**ell (s = support size), which makes its mean, variance and
sup-norms exactly computable by summation.  All observables here are bounded
by construction; continuous or infinite-support inputs are out of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, InputError

# Dense tables are capped; s**ell beyond this raises CapacityError.
TABLE_CELL_LIMIT = 10**6

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
    support_size: int
    table: np.ndarray
    mean: float
    variance: float
    sup_abs: float
    sup_pos: float
    sup_neg: float

    def flat_index(self, indices: Sequence[int]) -> int:
        if len(indices) != self.ell:
            raise InputError(f"expected {self.ell} indices, got {len(indices)}")
        code = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < self.support_size:
                raise InputError(f"support index {i} out of range")
            code = code * self.support_size + i
        return code


def tuple_weights(dist: FiniteDistribution, ell: int) -> np.ndarray:
    """Product probabilities of all s**ell index tuples, flat row-major."""
    if ell < 1:
        raise InputError("ell must be >= 1")
    if dist.size**ell > TABLE_CELL_LIMIT:
        raise CapacityError(
            f"table with {dist.size}**{ell} cells exceeds limit {TABLE_CELL_LIMIT}"
        )
    w = np.asarray(dist.probs, dtype=np.float64)
    out = w
    for _ in range(ell - 1):
        out = np.multiply.outer(out, w).ravel()
    return out


def observable_from_table(dist: FiniteDistribution, ell: int, flat_table) -> Observable:
    flat = np.asarray(flat_table, dtype=np.float64).ravel()
    s = dist.size
    if flat.size != s**ell:
        raise InputError(f"table must have {s}**{ell} = {s**ell} entries, got {flat.size}")
    if not np.isfinite(flat).all():
        raise InputError("table entries must be finite")
    w = tuple_weights(dist, ell)
    mean = math.fsum((w * flat).tolist())
    second = math.fsum((w * flat * flat).tolist())
    variance = max(0.0, second - mean * mean)
    sup_pos = max(0.0, float(flat.max()))
    sup_neg = max(0.0, -float(flat.min()))
    flat = flat.copy()
    flat.setflags(write=False)
    return Observable(
        ell=ell,
        support_size=s,
        table=flat,
        mean=mean,
        variance=variance,
        sup_abs=max(sup_pos, sup_neg),
        sup_pos=sup_pos,
        sup_neg=sup_neg,
    )


def make_observable(
    dist: FiniteDistribution, ell: int, fn: Callable[..., float]
) -> Observable:
    """Materialize ``fn`` (a callback on support values) as a dense table."""
    if ell < 1:
        raise InputError("ell must be >= 1")
    s = dist.size
    if s**ell > TABLE_CELL_LIMIT:
        raise CapacityError(
            f"table with {s}**{ell} cells exceeds limit {TABLE_CELL_LIMIT}"
        )
    vals = dist.values
    flat = np.empty(s**ell, dtype=np.float64)
    idx = [0] * ell
    for code in range(s**ell):
        c = code
        for j in range(ell - 1, -1, -1):
            idx[j] = c % s
            c //= s
        flat[code] = fn(*(vals[i] for i in idx))
    return observable_from_table(dist, ell, flat)


def product_observable(dist: FiniteDistribution, ell: int = 2) -> Observable:
    return make_observable(dist, ell, lambda *xs: math.prod(xs))


def indicator_equal_observable(dist: FiniteDistribution, ell: int = 2) -> Observable:
    return make_observable(dist, ell, lambda *xs: 1.0 if len(set(xs)) == 1 else 0.0)


def constant_observable(dist: FiniteDistribution, c: float, ell: int = 2) -> Observable:
    return make_observable(dist, ell, lambda *xs: float(c))


def center(obs: Observable, dist: FiniteDistribution) -> Observable:
    """Subtract the mean cell-wise; the result has mean 0 and the same variance."""
    return observable_from_table(dist, obs.ell, obs.table - obs.mean)


def negate(obs: Observable) -> Observable:
    """Flip the sign of F; sup_pos and sup_neg swap exactly."""
    table = (-obs.table).copy()
    table.setflags(write=False)
    return replace(
        obs,
        table=table,
        mean=-obs.mean,
        sup_pos=obs.sup_neg,
        sup_neg=obs.sup_pos,
    )


def evaluate(obs: Observable, indices: Sequence[int]) -> float:
    """Table entry at a tuple of support indices."""
    return float(obs.table[obs.flat_index(indices)])


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
    scale = max(1.0, obs.sup_abs * obs.sup_abs)
    return obs.variance <= 1e-15 * scale


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
