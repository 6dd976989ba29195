"""RateJ's conjugate search against the quadratic reference search of tests/oracles.py.

RateJ runs ``grid([u])`` (the search on floats) and ``grid([u, 0.0])`` (the
array search with one row, since J(0) takes no search) through a pressure
that records every lambda its batches carry; the reference is driven one
lambda at a time through the same pressure.  The lambda sequences, J and
every error (message and achievable tol) must agree bit for bit.
"""

import math

import numpy as np
import pytest

from oracles import conjugate_search
from ncsums import rates
from ncsums.cli import _parse_grid
from ncsums.errors import ToleranceError
from ncsums.model import FiniteDistribution, center, preset, product_observable
from ncsums.rates import CramerRate, Pressure, RateJ


class Recording:
    """A pressure that records, as hex, each lambda of every batch it evaluates."""

    def __init__(self, press):
        self.press, self.asked = press, []
        self.obs, self.tol, self.lambda_max = press.obs, press.tol, press.lambda_max

    def _batch(self, lams, slope=False):
        self.asked.extend(lam.hex() for lam in lams.tolist())
        return self.press._batch(lams, slope)


def outcome(fn):
    """J as bits, or the error's message and achievable tol."""
    try:
        return float(fn()).hex()
    except ToleranceError as exc:
        return (str(exc), exc.achievable_tol.hex())


def run(search, evaluate):
    """Drive a reference search to its end: the lambdas it asked for, and its outcome."""
    asked = []

    def drive():
        try:
            lam = next(search)
            while True:
                asked.append(lam.hex())
                lam = search.send(evaluate(lam))
        except StopIteration as stop:
            return stop.value

    return asked, outcome(drive)


def compare(conj: RateJ, us) -> list:
    """Run RateJ's grid and the reference for each u alone; their outcomes, once equal."""
    press = conj.pressure
    M = press.obs.sup_abs or 1.0

    def evaluate(lam):
        return rates.PressureEval(*(c.tolist()[0] for c in press._batch(np.array([lam]), slope=True)))

    outcomes = []
    for u in us:
        want = run(
            conjugate_search(
                float(u), press.tol, conj.lambda_cap, M, rates.MAX_EVALS, rates.SLOPE_TOL
            ),
            evaluate,
        )
        for grid in ([u], [u, 0.0]):
            rec = Recording(press)
            got = outcome(lambda: RateJ(rec, lambda_cap=conj.lambda_cap).grid(grid)[0])
            assert (rec.asked, got) == want, grid
        outcomes.append(want[1])
    return outcomes


def assert_grid_matches(conj: RateJ, us):
    outcomes = compare(conj, us)
    assert all(isinstance(o, str) for o in outcomes)
    assert [float(j).hex() for j in conj.grid(us)] == outcomes


def test_tail_mc_grid():
    dist, obs = preset("rademacher-product", ell=2)
    us = _parse_grid("0.005:0.995:0.005")
    assert len(us) == 199
    assert_grid_matches(RateJ(Pressure(dist, obs, tol=1e-10)), us)


def test_bernoulli_grid_both_signs():
    dist, obs = preset("bernoulli-product", ell=2)  # centred: F = x1 x2 - 1/4
    fracs = (1e-6, 0.01, 0.2, 0.5, 0.8, 0.95, 0.999, 1.1)
    us = [-f * obs.sup_neg for f in fracs] + [0.0] + [f * obs.sup_pos for f in fracs]
    outcomes = compare(RateJ(Pressure(dist, obs, tol=1e-10)), us)
    assert "inf" in outcomes  # past both ends of the domain
    assert_grid_matches(RateJ(Pressure(dist, obs, tol=1e-10)), us)


@pytest.mark.parametrize("tol", [0.02, 1e-3])
def test_ell3_with_a_lambda_cap(tol):
    dist, obs = preset("rademacher-product", ell=3)
    us = [-0.95, -0.8, -0.35, 0.05, 0.2, 0.5, 0.6, 0.85, 0.95]
    assert_grid_matches(RateJ(Pressure(dist, obs, tol=tol), lambda_cap=1.5), us)


@pytest.mark.parametrize(
    "name,ell,tol,fracs",
    [("rademacher-product", 2, 0.02, (0.1, 0.1)), ("bernoulli-product", 3, 0.05, (0.1, 0.7))],
)
def test_probes_of_different_truncations(name, ell, tol, fracs):
    # at a loose tol the probes truncate at different L, so a probe's sign
    # under another's truncation can be uncertain (within the difference of
    # their Q' tail bounds), and the best probe can stay the best after its
    # forced step, whose repeat must then give way to Brent's step
    dist, obs = preset(name, ell=ell)
    us = [fracs[0] * obs.sup_pos, -fracs[1] * obs.sup_neg]
    assert_grid_matches(RateJ(Pressure(dist, obs, tol=tol)), us)


def cramer_outcomes(dist, obs, alphas, monkeypatch):
    """CramerRate at each alpha, against the reference run over the same exact ln phi."""
    made = []

    class Recorded(RateJ):
        def __init__(self, pressure, lambda_cap=None):
            super().__init__(pressure, lambda_cap)
            made.append(self)

    monkeypatch.setattr(rates, "RateJ", Recorded)
    rate = CramerRate(dist, obs)
    outcomes = []
    for a in alphas:
        try:
            got = float(rate(a)).hex()
        except ToleranceError as exc:
            got = (str(exc), exc.achievable_tol.hex())
        (conj,) = made
        made.clear()
        assert isinstance(conj.pressure, rates._LogMgf) and conj.lambda_cap == math.inf
        want = compare(RateJ(conj.pressure, lambda_cap=math.inf), [a])[0]
        assert got == want, a
        outcomes.append(want)
    return outcomes


def test_cramer_on_random_laws(monkeypatch):
    rng = np.random.default_rng(27)
    for _ in range(6):
        s = int(rng.integers(3, 6))
        probs = rng.dirichlet(np.ones(s))
        dist = FiniteDistribution(
            values=tuple(np.sort(rng.normal(size=s)).tolist()),
            probs=tuple((probs / probs.sum()).tolist()),
        )
        obs = center(product_observable(dist, 1), dist)
        alphas = [f * obs.sup_pos for f in (1e-3, 0.3, 0.9)]
        alphas += [-f * obs.sup_neg for f in (1e-3, 0.3, 0.9)]
        cramer_outcomes(dist, obs, alphas, monkeypatch)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-13])
def test_cramer_on_close_top_values(delta, monkeypatch):
    # the centred law of -1, 1 - delta, 1; at 1e-13 apart the search runs out
    # of evaluations, and both searches must report the same gap
    dist = FiniteDistribution(values=(-1.0, 1.0 - delta, 1.0), probs=(0.5, 0.25, 0.25))
    obs = center(product_observable(dist, 1), dist)
    alphas = [obs.sup_pos - 10 * delta, obs.sup_pos - delta / 10, -0.5 * obs.sup_neg]
    if delta == 1e-3:
        alphas.append(1.00015)
    outcomes = cramer_outcomes(dist, obs, alphas, monkeypatch)
    if delta == 1e-13:
        assert any(isinstance(o, tuple) for o in outcomes)


@pytest.mark.parametrize("max_evals", [2, 6])
def test_out_of_evaluations(max_evals, monkeypatch):
    monkeypatch.setattr(rates, "MAX_EVALS", max_evals)
    dist, obs = preset("rademacher-product")
    us = [0.3, -0.3, 1e-9, 0.9, 0.999]
    outcomes = compare(RateJ(Pressure(dist, obs, tol=1e-10)), us)
    errors = [o for o in outcomes if isinstance(o, tuple)]
    assert errors and all(f"after {max_evals} pressure evaluations" in e[0] for e in errors)
    for u, want in zip(us, outcomes):
        try:
            got = float(RateJ(Pressure(dist, obs, tol=1e-10))(u)).hex()
        except ToleranceError as exc:
            got = (str(exc), exc.achievable_tol.hex())
        assert got == want, u


def test_budget_failing_grid():
    # u = 0.9 fails in the first round, u = 0.35 only in its second; the grid
    # raises the error of the first u that fails alone
    dist, obs = preset("rademacher-product")
    us = [0.0, 0.35, 0.9]
    outcomes = compare(RateJ(Pressure(dist, obs, tol=1e-10, budget=144)), us)
    first = next(o for o in outcomes if isinstance(o, tuple))
    with pytest.raises(ToleranceError) as err:
        RateJ(Pressure(dist, obs, tol=1e-10, budget=144)).grid(us)
    assert (str(err.value), err.value.achievable_tol.hex()) == first
    assert first != outcomes[2]


def test_tail_mc_batches():
    # the benchmark's 199-point grid: one batch a round, the last round's
    # searches all end in it, and no batch is empty
    dist, obs = preset("rademacher-product", ell=2)
    sizes = []
    batch = Pressure._batch

    class Counted(Pressure):
        def _batch(self, lams, slope=False):
            sizes.append(len(lams))
            return batch(self, lams, slope)

    RateJ(Counted(dist, obs, tol=1e-10)).grid(_parse_grid("0.005:0.995:0.005"))
    assert sizes == [199, 199, 195, 173, 106, 25, 8, 2]
    assert sum(sizes) == 907
