import math
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    cramer_rate,
    eliminate_log,
    enumerate_chain_expectation,
    finite_pressure,
    first_below,
    golden_conjugate,
    grid_search_rate,
    log_phi,
    pressure_l2,
    pressure_tail,
    r_l_mc,
    rademacher_rate_closed,
    transfer_log_r,
)
from ncsums import rates
from ncsums.erlaw import b_window
from ncsums.errors import (
    BudgetExceededError,
    DegenerateObservableError,
    InputError,
    ToleranceError,
)
from ncsums.lattice import primes_up_to, smooth_numbers_capped
from ncsums.model import (
    BERNOULLI,
    RADEMACHER,
    FiniteDistribution,
    center,
    constant_observable,
    observable_from_table,
    preset,
    product_observable,
    value_distribution,
)
from ncsums.rates import (
    CramerRate,
    Pressure,
    PressureEval,
    RateJ,
    chain_index_structure,
    log_r_sequence,
)

B1 = primes_up_to(1)
B2 = primes_up_to(2)
B3 = primes_up_to(3)


def r_l(dist, obs, lam, l, budget=rates.DEFAULT_BUDGET):
    """Exact R_l, from the last of the library's ln R_1..ln R_l."""
    basis = primes_up_to(obs.ell)
    return math.exp(log_r_sequence(dist, obs, basis, lam, l, budget=budget)[-1])


def chain_terms(ell, l):
    """Term numbers h_1..h_l of the l-term chain: term k reads draws j*h_k."""
    return [term[0] for term in chain_index_structure(primes_up_to(ell), l).term_indices]


def asymmetric_pair():
    """A lopsided two-point ell=2 observable with no product structure."""
    dist = FiniteDistribution(values=(-1.0, 2.0), probs=(0.75, 0.25))
    raw = observable_from_table(dist, 2, [0.3, -1.1, 0.7, 1.9])
    return dist, center(raw, dist)


class TestMgf:
    """The exact ln phi, _LogMgf.log_mgf, against closed forms and 60-digit decimals."""

    def test_rademacher_cosh(self):
        dist, obs = preset("rademacher-product")
        ln_phi = rates._LogMgf(dist, obs).log_mgf
        assert ln_phi(1.0) == pytest.approx(math.log(math.cosh(1.0)), rel=1e-14)
        assert ln_phi(-2.5) == pytest.approx(math.log(math.cosh(2.5)), rel=1e-14)

    def test_normalization(self):
        for name in ("rademacher-product", "bernoulli-product", "indicator-match"):
            dist, obs = preset(name)
            assert rates._LogMgf(dist, obs).log_mgf(0.0) == 0.0

    def test_centered_bernoulli_closed_form(self):
        dist, obs = preset("bernoulli-product")
        ln_phi = rates._LogMgf(dist, obs).log_mgf
        for t in (-2.0, -0.5, 0.3, 1.7):
            expected = math.log(0.75 * math.exp(-t / 4) + 0.25 * math.exp(3 * t / 4))
            assert ln_phi(t) == pytest.approx(expected, rel=1e-14, abs=2**-52)
            assert ln_phi(t) == pytest.approx(log_phi(*value_distribution(dist, obs), t), abs=2**-52)


class TestCramerRate:
    def test_closed_form_grid(self):
        dist, obs = preset("rademacher-product")
        rate = CramerRate(dist, obs)
        for alpha in np.arange(0.1, 0.95, 0.1):
            assert rate(float(alpha)) == pytest.approx(
                rademacher_rate_closed(alpha), abs=1e-9
            )

    def test_grid_search_oracle(self):
        dist, obs = asymmetric_pair()
        rate = CramerRate(dist, obs)
        for alpha in (0.2, 0.5, -0.3):
            lower = grid_search_rate(dist, obs, alpha)
            assert rate(alpha) >= lower - 1e-9
            assert rate(alpha) == pytest.approx(lower, abs=1e-6)

    def test_zero_and_outside(self):
        dist, obs = preset("rademacher-product")
        rate = CramerRate(dist, obs)
        assert rate(0.0) == 0.0
        assert rate(1.5) == math.inf
        assert rate(-1.5) == math.inf

    def test_boundary_mass(self):
        dist, obs = preset("rademacher-product")
        rate = CramerRate(dist, obs)
        assert rate(1.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert rate(-1.0) == pytest.approx(math.log(2.0), rel=1e-12)
        db, ob = preset("bernoulli-product")
        assert CramerRate(db, ob)(0.75) == pytest.approx(-math.log(0.25), rel=1e-12)

    def test_monotone_on_each_side(self):
        dist, obs = preset("bernoulli-product")
        rate = CramerRate(dist, obs)
        grid = np.linspace(0.01, 0.74, 40)
        vals = [rate(float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        grid = np.linspace(-0.01, -0.24, 20)
        vals = [rate(float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degenerate_rejected(self):
        obs = constant_observable(RADEMACHER, 0.0, ell=2)
        with pytest.raises(DegenerateObservableError):
            CramerRate(RADEMACHER, obs)

    def test_uncentered_rejected(self):
        obs = product_observable(BERNOULLI, 2)
        with pytest.raises(InputError):
            CramerRate(BERNOULLI, obs)

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e12, 1e14, 1e50, 1e100, 1e200, 1e300])
    def test_scale_free_on_large_values(self, c):
        # F = c * X * Y on coins takes the values +-c, so I(0.5 c) is the coin's I(0.5)
        obs = observable_from_table(RADEMACHER, 2, [c, -c, -c, c])
        rate = CramerRate(RADEMACHER, obs)
        for alpha in (0.5 * c, -0.5 * c):
            assert rate(alpha) == pytest.approx(rademacher_rate_closed(0.5), rel=1e-9)

    @pytest.mark.parametrize("name", ["rademacher-product", "bernoulli-product"])
    def test_small_t_branch_against_decimal_arithmetic(self, name):
        # ln(mgf) and the tilted mean on both sides of |t| M = SMALL_TF,
        # against 60-digit decimals, down to t where the exp formulas cancel
        dist, obs = preset(name)
        ln_phi = rates._LogMgf(dist, obs)
        vals, probs = value_distribution(dist, obs)
        pairs = [(Decimal(float(p)), Decimal(float(v))) for p, v in zip(probs, vals)]
        m = float(np.max(np.abs(vals)))
        for tm in (1e-14, 1e-9, 1e-5, 5e-3, rates.SMALL_TF, 1.01e-2, 0.3, 2.0):
            for t in (tm / m, -tm / m):
                with localcontext() as ctx:
                    ctx.prec = 60
                    weights = [(p * (Decimal(t) * v).exp(), v) for p, v in pairs]
                    phi = sum(w for w, _ in weights)
                    mean = sum(w * v for w, v in weights) / phi
                assert ln_phi.log_mgf(t) == pytest.approx(float(phi.ln()), rel=2e-13)
                assert ln_phi.tilted_mean(t) == pytest.approx(float(mean), rel=2e-13)

    @pytest.mark.parametrize("name", ["rademacher-product", "bernoulli-product"])
    @pytest.mark.parametrize(
        "alpha", [1e-40, 1e-20, 1e-12, -1e-12, -1e-20, 1e-60, 1e-100, -1e-100, 1e-150]
    )
    def test_tiny_alpha_is_quadratic(self, name, alpha):
        # I(alpha) = alpha^2 / (2 Var F) + O(alpha^3); the search starts at
        # t = alpha / M**2, near t* = alpha / Var F, however small alpha is
        dist, obs = preset(name)
        vals, probs = value_distribution(dist, obs)
        var = float(np.dot(probs, vals**2))
        assert CramerRate(dist, obs)(alpha) == pytest.approx(alpha**2 / (2 * var), rel=1e-12, abs=0.0)

    def test_against_the_decimal_oracle_on_random_laws(self):
        # where |t| M > SMALL_TF, ln phi is the log of a sum near 1, rounded
        # to about an ulp of 1: hence the absolute allowance
        rng = np.random.default_rng(27)
        for _ in range(12):
            s = int(rng.integers(3, 6))
            probs = rng.dirichlet(np.ones(s))
            dist = FiniteDistribution(
                values=tuple(np.sort(rng.normal(size=s)).tolist()),
                probs=tuple((probs / probs.sum()).tolist()),
            )
            obs = center(product_observable(dist, 1), dist)
            rate = CramerRate(dist, obs)
            for frac in (0.05, 0.3, 0.6, 0.9):
                for a in (frac * obs.sup_pos, -frac * obs.sup_neg):
                    want = cramer_rate(*value_distribution(dist, obs), a)
                    assert rate(a) == pytest.approx(want, rel=1e-12, abs=2**-52), (s, a)

    @staticmethod
    def close_top_law(delta):
        """The centred law of -1, 1 - delta, 1 with probabilities 1/2, 1/4, 1/4."""
        dist = FiniteDistribution(values=(-1.0, 1.0 - delta, 1.0), probs=(0.5, 0.25, 0.25))
        return dist, center(product_observable(dist, 1), dist)

    def test_close_top_values_are_not_capped(self):
        # t* = 2197 at alpha = 1.00015, where the bisection's cap 60/M read 0.7167
        dist, obs = self.close_top_law(1e-3)
        i = CramerRate(dist, obs)(1.00015)
        assert f"{i:.9g}" == "1.06121139"
        assert b_window(1000, i) == 6

    @pytest.mark.parametrize("delta,rel", [(1e-3, 1e-12), (1e-6, 1e-10)])
    def test_close_top_values_against_the_decimal_oracle(self, delta, rel):
        # t* grows like 1/delta near the top, and I loses about |t*| M ulps to
        # the rounding of t*F in ln phi
        dist, obs = self.close_top_law(delta)
        rate = CramerRate(dist, obs)
        for a in (obs.sup_pos - 10 * delta, obs.sup_pos - delta / 10):
            want = cramer_rate(*value_distribution(dist, obs), a)
            assert rate(a) == pytest.approx(want, rel=rel), a

    def test_top_values_too_close_give_a_close_value_or_tolerance_error(self):
        # at 1e-13 * M apart the optimal t passes 1e13 and the search runs out
        # of evaluations; it must never return a finite value far off
        dist, obs = self.close_top_law(1e-13)
        rate = CramerRate(dist, obs)
        for a in (obs.sup_pos - 1e-12, obs.sup_pos - 1e-14):
            want = cramer_rate(*value_distribution(dist, obs), a)
            try:
                got = rate(a)
            except ToleranceError:
                continue
            assert got == pytest.approx(want, rel=1e-6), a

    def test_negative_alpha_mirrors_the_negated_observable(self):
        # I_F(-a) = I_{-F}(a), bit for bit: one search serves both signs
        rng = np.random.default_rng(15)
        dist = FiniteDistribution(values=(0.0, 1.0, 2.0), probs=(0.2, 0.3, 0.5))
        for _ in range(8):
            obs = center(random_observable(rng, dist, 2), dist)
            neg = observable_from_table(dist, 2, -obs.table)
            rate, mirror = CramerRate(dist, obs), CramerRate(dist, neg)
            small = obs.variance * rates.SMALL_TF / obs.sup_abs  # where t* M is near SMALL_TF
            for a in (1e-9 * small, 0.5 * small, 2.0 * small, 0.5 * obs.sup_neg,
                      obs.sup_neg * (1 - 1e-12), obs.sup_neg * (1 - 1e-15), obs.sup_neg,
                      2.0 * obs.sup_neg):
                assert rate(-a) == mirror(a)
            for a in (0.5 * small, 2.0 * small, obs.sup_pos * (1 - 1e-15)):
                assert rate(a) == mirror(-a)


class TestChainStructure:
    def test_ell2(self):
        c = chain_index_structure(B2, 3)
        assert c.indices == (1, 2, 4, 8)
        assert c.term_indices == ((1, 2), (2, 4), (4, 8))
        assert c.term_positions == ((0, 1), (1, 2), (2, 3))

    def test_ell3(self):
        c = chain_index_structure(B3, 2)
        assert c.indices == (1, 2, 3, 4, 6)
        assert c.term_indices == ((1, 2, 3), (2, 4, 6))
        assert c.term_positions == ((0, 1, 2), (1, 3, 4))

    def test_ell1_disjoint(self):
        c = chain_index_structure(B1, 5)
        assert c.indices == (1, 2, 3, 4, 5)
        assert c.term_positions == ((0,), (1,), (2,), (3,), (4,))

    def test_distinct_count_bound(self):
        for l in range(1, 12):
            c = chain_index_structure(B3, l)
            assert len(c.indices) <= 3 * l


class TestRl:
    def test_rademacher_closed_form(self):
        dist, obs = preset("rademacher-product")
        for l in range(1, 11):
            assert r_l(dist, obs, 1.0, l) == pytest.approx(
                math.cosh(1.0) ** l, rel=1e-12
            )

    def test_lambda_zero(self):
        dist, obs = preset("bernoulli-product")
        assert r_l(dist, obs, 0.0, 7) == 1.0

    def test_constant_diagnostic(self):
        obs = constant_observable(RADEMACHER, 0.8, ell=2)
        for l in (1, 3, 6):
            assert r_l(RADEMACHER, obs, 1.5, l) == pytest.approx(
                math.exp(1.5 * 0.8 * l), rel=1e-12
            )

    @pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0])
    def test_enumeration_oracle_ell2(self, lam):
        dist, obs = preset("bernoulli-product")
        for l in range(1, 7):
            chain = chain_index_structure(B2, l)
            expected = enumerate_chain_expectation(dist, obs, lam, chain)
            assert r_l(dist, obs, lam, l) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", [-0.7, 0.9])
    def test_enumeration_oracle_ell3(self, lam):
        dist, obs = preset("rademacher-product")
        obs3 = product_observable(dist, 3)
        for l in range(1, 6):
            chain = chain_index_structure(B3, l)
            expected = enumerate_chain_expectation(dist, obs3, lam, chain)
            assert r_l(dist, obs3, lam, l) == pytest.approx(
                expected, rel=1e-12
            )

    def test_enumeration_oracle_asymmetric(self):
        dist, obs = asymmetric_pair()
        for lam in (-0.5, 0.8):
            for l in (1, 2, 4):
                chain = chain_index_structure(B2, l)
                expected = enumerate_chain_expectation(dist, obs, lam, chain)
                assert r_l(dist, obs, lam, l) == pytest.approx(expected, rel=1e-12)

    def test_log_bounds(self):
        dist, obs = preset("bernoulli-product")
        for lam in (-1.0, 0.5, 2.0):
            for l in (1, 4, 9):
                lnr = math.log(r_l(dist, obs, lam, l))
                assert -1e-12 <= lnr <= l * obs.sup_abs * abs(lam) + 1e-12

    def test_budget_error(self):
        dist, obs = preset("rademacher-product")
        obs3 = product_observable(dist, 3)
        with pytest.raises(BudgetExceededError):
            r_l(dist, obs3, 1.0, 30, budget=16)


def oracle_sequence(dist, obs, basis, lam, L, cells=None):
    """ln R_l for l = 1..L by the rescanning elimination oracle."""
    s = dist.size
    probs = np.asarray(dist.probs, dtype=np.float64)
    shaped = np.exp(lam * obs.table).reshape((s,) * obs.ell)
    out = []
    for l in range(1, L + 1):
        chain = chain_index_structure(basis, l)
        per_l = [] if cells is not None else None
        out.append(eliminate_log(probs, s, [(sc, shaped) for sc in chain.term_indices], per_l))
        if cells is not None:
            cells.append(sum(per_l))
    return out


def random_observable(rng, dist, ell):
    return observable_from_table(dist, ell, rng.uniform(-1.5, 1.5, size=dist.size**ell))


def first_over_budget(dist, obs, basis, budget, L):
    """The first fiber length whose elimination builds more than ``budget`` cells."""
    cells = []
    oracle_sequence(dist, obs, basis, 1.0, L, cells)
    return next(l for l, c in enumerate(cells, start=1) if c > budget)


@pytest.fixture
def plans_only(monkeypatch):
    """log_r_sequence with no sweep: every length replays its plan."""
    monkeypatch.setattr(rates, "_SWEEP_AXES", 0)


class TestEliminationPlan:
    """Compiled plans replay exactly what the rescanning elimination computes.

    The bitwise tests turn the sweep off; the budget stops run with it on,
    and every length past its reach takes the plans.
    """

    @pytest.mark.usefixtures("plans_only")
    @pytest.mark.parametrize("lam", [0.5, 1.0, -0.7])
    def test_rademacher_ell3_bitwise(self, lam):
        obs3 = product_observable(RADEMACHER, 3)
        got = log_r_sequence(RADEMACHER, obs3, B3, lam, 60)
        assert got == oracle_sequence(RADEMACHER, obs3, B3, lam, 60)

    @pytest.mark.usefixtures("plans_only")
    def test_random_tables_ell3_three_values_bitwise(self):
        rng = np.random.default_rng(20151)
        dist = FiniteDistribution(values=(-1.0, 0.0, 2.0), probs=(0.2, 0.5, 0.3))
        for _ in range(3):
            obs = random_observable(rng, dist, 3)
            for lam in (0.8, -1.3):
                got = log_r_sequence(dist, obs, B3, lam, 24)
                assert got == oracle_sequence(dist, obs, B3, lam, 24)

    @pytest.mark.usefixtures("plans_only")
    def test_random_tables_ell5_bitwise(self):
        rng = np.random.default_rng(51)
        basis5 = primes_up_to(5)
        dist = FiniteDistribution(values=(-1.0, 1.0), probs=(0.35, 0.65))
        for _ in range(2):
            obs = random_observable(rng, dist, 5)
            for lam in (0.6, -1.1):
                got = log_r_sequence(dist, obs, basis5, lam, 20)
                assert got == oracle_sequence(dist, obs, basis5, lam, 20)

    @pytest.mark.parametrize("budget", [14, 300, 2000])
    def test_budget_stops_at_the_oracle_length(self, budget):
        obs3 = product_observable(RADEMACHER, 3)
        stop = first_over_budget(RADEMACHER, obs3, B3, budget, 40)
        assert 1 < stop < 40
        with pytest.raises(BudgetExceededError) as err:
            log_r_sequence(RADEMACHER, obs3, B3, 0.5, 40, budget=budget)
        assert err.value.completed == stop - 1
        assert "more than" in str(err.value) and "table cells" in str(err.value)
        ok = log_r_sequence(RADEMACHER, obs3, B3, 0.5, stop - 1, budget=budget)
        assert len(ok) == stop - 1

    @pytest.mark.usefixtures("plans_only")
    def test_each_plan_built_once_across_lambdas(self, monkeypatch):
        builds = Counter()
        build = rates._build_plan

        def counting(basis, l, s):
            builds[(basis, l, s)] += 1
            return build(basis, l, s)

        monkeypatch.setattr(rates, "_plans", {})
        monkeypatch.setattr(rates, "_build_plan", counting)
        obs3 = product_observable(RADEMACHER, 3)
        press = Pressure(RADEMACHER, obs3, tol=1e-3)
        lengths = [press.detail(lam).truncation_l for lam in (1.0, 0.5)]
        longest = max(lengths)
        assert longest > 20
        assert sorted(builds) == [(B3, l, 2) for l in range(1, longest + 1)]
        assert set(builds.values()) == {1}
        assert len(rates._plans) == longest


def sweep_unions(basis, L):
    """Axes of the sweep's step table at each length l = 1..L."""
    frontier = [1]
    h = smooth_numbers_capped(basis, L).h
    return [rates._sweep_step(frontier, hv, basis.ell).union for hv in h[:L]]


def assert_near(got, want, rel=1e-13):
    """Entrywise agreement within rel * max(1, |want|): absolute near ln R = 0, relative above."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * max(1.0, abs(w)), (g, w)


def assert_close(got, want, rel=1e-13):
    """Entrywise relative agreement of real and of imaginary parts."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = complex(g), complex(w)
        assert abs(g.real - w.real) <= rel * abs(w.real), (g, w)
        assert abs(g.imag - w.imag) <= rel * abs(w.imag), (g, w)


THREE_POINT = FiniteDistribution(values=(-1.0, 0.0, 2.0), probs=(0.2, 0.5, 0.3))


class TestSweep:
    """The forward sweep agrees with the rescanning oracle and hands over to the plans."""

    @pytest.mark.parametrize("ell,L", [(3, 40), (4, 20)])
    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_the_oracle(self, ell, L, s):
        rng = np.random.default_rng(10 * ell + s)
        basis = primes_up_to(ell)
        if s == 2:
            laws = [preset(name, ell=ell) for name in ("rademacher-product", "bernoulli-product")]
            dist = FiniteDistribution(values=(-1.0, 1.0), probs=(0.35, 0.65))
        else:
            laws, dist = [], THREE_POINT
        laws.append((dist, random_observable(rng, dist, ell)))
        for dist, obs in laws:
            h = rates.STEP_OVER_M / obs.sup_abs
            for lam in (0.8, -1.3, complex(0.6, h), complex(-0.9, h)):
                got = log_r_sequence(dist, obs, basis, lam, L)
                assert_close(got, oracle_sequence(dist, obs, basis, lam, L))

    def test_shallow_sequences_build_no_plan(self, monkeypatch):
        monkeypatch.setattr(rates, "_plans", {})
        dist, obs = preset("rademacher-product", ell=3)
        assert len(log_r_sequence(dist, obs, B3, 1.0, 72)) == 72
        assert len(log_r_sequence(dist, obs, B3, complex(0.5, 1e-30), 45)) == 45
        press = Pressure(dist, obs, tol=2e-3)
        assert [ev.truncation_l for ev in press.details([0.5, 1.0])] == [61, 72]
        press.details([0.5, -1.0], slope=True)
        assert rates._plans == {}

    @pytest.mark.parametrize("lam", [0.7, complex(-0.7, 1e-30)])
    def test_both_sides_of_the_switch(self, lam, monkeypatch):
        monkeypatch.setattr(rates, "_plans", {})
        dist, obs = preset("bernoulli-product", ell=3)
        shaped = np.exp(lam * obs.table).reshape(2, 2, 2)
        probs = np.asarray(dist.probs)
        n = len(rates._sweep_steps(B3, 500, 2, shaped.itemsize, rates.DEFAULT_BUDGET))
        assert 80 < n < 120
        got = log_r_sequence(dist, obs, B3, lam, n + 2)
        assert sorted(rates._plans) == [(B3, n + 1, 2), (B3, n + 2, 2)]
        replay = [
            rates._replay_log(rates._plan(B3, l, 2)[1], shaped, probs, l)
            for l in range(n - 1, n + 3)
        ]
        assert_close(got[n - 2 : n], replay[:2])
        assert got[n:] == replay[2:]

    def test_switch_against_the_oracle(self, monkeypatch):
        monkeypatch.setattr(rates, "_SWEEP_BYTES", 2048)
        monkeypatch.setattr(rates, "_plans", {})
        dist = THREE_POINT
        obs = random_observable(np.random.default_rng(7), dist, 3)
        for lam in (0.9, complex(-0.4, 1e-30)):
            n = len(rates._sweep_steps(B3, 24, 3, 16 if isinstance(lam, complex) else 8, 10**7))
            assert 2 < n < 10
            got = log_r_sequence(dist, obs, B3, lam, 24)
            assert_close(got, oracle_sequence(dist, obs, B3, lam, 24))
        assert (B3, 24, 3) in rates._plans

    @pytest.mark.parametrize("s,itemsize", [(2, 8), (2, 16), (3, 8)])
    def test_reach_ends_at_the_byte_cap_or_budget(self, s, itemsize):
        unions = sweep_unions(B3, 200)
        steps = rates._sweep_steps(B3, 200, s, itemsize, 10**12)
        assert [st.union for st in steps] == unions[: len(steps)]
        assert all(s**u * itemsize <= rates._SWEEP_BYTES for u in unions[: len(steps)])
        assert s ** unions[len(steps)] * itemsize > rates._SWEEP_BYTES
        budget = sum(s**u for u in unions[:20])
        assert len(rates._sweep_steps(B3, 200, s, itemsize, budget)) == 20
        assert len(rates._sweep_steps(B3, 200, s, itemsize, budget - 1)) == 19

    def test_one_point_law_stops_at_the_axis_cap(self, monkeypatch):
        # one-cell tables never reach the byte cap; the frontier's axes grow
        monkeypatch.setattr(rates, "_SWEEP_AXES", 6)
        dist = FiniteDistribution(values=(1.0,), probs=(1.0,))
        obs = observable_from_table(dist, 3, [0.5])
        unions = sweep_unions(B3, 40)
        n = len(rates._sweep_steps(B3, 40, 1, 8, 10**7))
        assert max(unions[:n]) <= 6 < unions[n]
        got = log_r_sequence(dist, obs, B3, 0.8, 40)
        assert got == pytest.approx([0.4 * l for l in range(1, 41)], rel=1e-14)

    @pytest.mark.parametrize("ell,L", [(3, 60), (4, 40)])
    @pytest.mark.parametrize("s", [2, 3])
    def test_sweep_cells_cover_the_plans(self, ell, L, s):
        basis = primes_up_to(ell)
        swept = np.cumsum([s**u for u in sweep_unions(basis, L)]).tolist()
        largest = 0
        for l in range(1, L + 1):
            largest = max(largest, rates._build_plan(basis, l, s)[0])
            if l >= 3:
                assert swept[l - 1] >= largest

    @pytest.mark.parametrize(
        "ell,s,budget",
        [(3, 2, 26), (3, 2, 1000), (3, 3, 75), (3, 3, 20000),
         (4, 2, 54), (4, 2, 20000), (4, 3, 228), (4, 3, 10**6)],
    )
    def test_budget_stops_where_the_plans_do(self, ell, s, budget):
        basis = primes_up_to(ell)
        dist = RADEMACHER if s == 2 else THREE_POINT
        obs = random_observable(np.random.default_rng(budget), dist, ell)
        stop = next(l for l in range(1, 41) if rates._build_plan(basis, l, s)[0] > budget)
        assert stop > 2
        with pytest.raises(BudgetExceededError) as err:
            log_r_sequence(dist, obs, basis, 0.5, 40, budget=budget)
        assert err.value.completed == stop - 1
        assert len(log_r_sequence(dist, obs, basis, 0.5, stop - 1, budget=budget)) == stop - 1

    @pytest.mark.parametrize("ell,L", [(3, 40), (4, 20), (3, 35), (4, 14)])
    def test_batch_rows_equal_batches_of_one(self, ell, L):
        # at L = 35 and 14 a budget of 2000 ends the sweep early, and each
        # row replays its own plans up to the last length within the budget,
        # which counts the cells of one lambda
        budget = 2000 if L in (35, 14) else rates.DEFAULT_BUDGET
        basis = primes_up_to(ell)
        dist, obs = preset("bernoulli-product", ell=ell)
        big = 0.9 * rates.LN_MAX / obs.sup_abs  # its tables take the shift
        h = rates.STEP_OVER_M / obs.sup_abs
        for lams in (np.array([0.8, 0.0, -1.3, big]), np.array([0.8, -1.3, big]) + 1j * h):
            n = len(rates._sweep_steps(basis, L, 2, lams.itemsize, budget))
            assert (n < L) == (budget == 2000)
            batch = log_r_sequence(dist, obs, basis, lams, L, budget)
            assert batch.shape == (len(lams), L) and batch.dtype == lams.dtype
            for i, lam in enumerate(lams.tolist()):
                assert batch[i].tolist() == log_r_sequence(dist, obs, basis, lam, L, budget)
                alone = log_r_sequence(dist, obs, basis, lams[i : i + 1], L, budget)
                assert batch[i].tolist() == alone[0].tolist()

    @pytest.mark.parametrize("lam", [0.5, np.array([0.5, -1.0])])
    def test_basis_must_match_ell(self, lam):
        dist, obs = preset("rademacher-product", ell=2)
        with pytest.raises(InputError, match="ell=2 does not match basis ell=3"):
            log_r_sequence(dist, obs, B3, lam, 4)

    @pytest.mark.parametrize("lam", [0.5, np.array([0.5, -1.0])])
    def test_ell1_points_to_the_pressure(self, lam):
        dist, obs = preset("rademacher-product", ell=1)
        with pytest.raises(InputError, match="at ell = 1 Pressure gives ln phi"):
            log_r_sequence(dist, obs, B1, lam, 4)

    @pytest.mark.parametrize("lam", [0.7, complex(-0.4, 1e-30)])
    def test_ell2_reach_is_the_budget_on_600_points(self, lam, monkeypatch):
        # a complex 600-point step table holds 5.8 MB, past _SWEEP_BYTES; at
        # ell = 2 it is one term's table, so only the budget ends the sweep
        monkeypatch.setattr(rates, "_plans", {})
        rng = np.random.default_rng(600)
        s = 600
        probs = rng.uniform(0.5, 1.0, size=s)
        dist = FiniteDistribution(values=tuple(range(s)), probs=tuple(probs / probs.sum()))
        obs = center(observable_from_table(dist, 2, rng.uniform(-1.0, 1.0, size=s * s)), dist)
        L = rates.DEFAULT_BUDGET // s**2
        itemsize = 16 if isinstance(lam, complex) else 8
        assert (s**2 * itemsize > rates._SWEEP_BYTES) == (itemsize == 16)
        assert len(rates._sweep_steps(B2, L + 5, s, itemsize, rates.DEFAULT_BUDGET)) == L
        got = log_r_sequence(dist, obs, B2, lam, L)
        assert rates._plans == {}
        assert_close(got, transfer_log_r(dist.probs, obs.table, lam, L))
        with pytest.raises(BudgetExceededError) as err:
            log_r_sequence(dist, obs, B2, lam, L + 1)
        assert err.value.completed == L


class TestRlMc:
    """The exact R_l against the Monte-Carlo oracle of tests/oracles.py."""

    def test_lambda_zero_exact(self):
        dist, obs = preset("bernoulli-product")
        value, stderr = r_l_mc(dist, obs, 0.0, chain_terms(2, 5), replicas=1000, seed=3)
        assert value == 1.0 and stderr == 0.0

    def test_rademacher_within_stderr(self):
        dist, obs = preset("rademacher-product")
        value, stderr = r_l_mc(dist, obs, 1.0, chain_terms(2, 5), replicas=200_000, seed=11)
        assert abs(value - math.cosh(1.0) ** 5) <= 3 * stderr

    @pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0])
    def test_agreement_with_exact(self, lam):
        dist, obs = preset("bernoulli-product")
        for l in range(1, 9):
            exact = r_l(dist, obs, lam, l)
            value, stderr = r_l_mc(dist, obs, lam, chain_terms(2, l), replicas=40_000, seed=100 + l)
            assert abs(value - exact) <= 4 * stderr, (lam, l)

    # rademacher is left out: its chain terms are i.i.d. signs at every ell,
    # so a kernel that dropped the shared draws would still agree
    @pytest.mark.parametrize("route", ["sweep", "plans"])
    @pytest.mark.parametrize("law", ["bernoulli-product", "three-point"])
    def test_agreement_with_exact_ell3(self, law, route, monkeypatch):
        if route == "plans":
            monkeypatch.setattr(rates, "_SWEEP_BYTES", 0)
        replays = []
        replay = rates._replay_log
        monkeypatch.setattr(rates, "_replay_log", lambda *a: replays.append(a[-1]) or replay(*a))
        if law == "three-point":
            dist, obs = THREE_POINT, random_observable(np.random.default_rng(3), THREE_POINT, 3)
        else:
            dist, obs = preset(law, ell=3)
        for lam in (-1.0, -0.5, 0.5, 1.0):
            for l in range(1, 9):
                exact = math.exp(log_r_sequence(dist, obs, B3, lam, l)[-1])
                value, stderr = r_l_mc(dist, obs, lam, chain_terms(3, l), 40_000, seed=100 + l)
                assert abs(value - exact) <= 4 * stderr, (lam, l)
        assert bool(replays) == (route == "plans")


class TestPressure:
    def test_rademacher_log_cosh(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        for lam in (0.25, 0.5, 1.0, 2.0, -1.5):
            assert press(lam) == pytest.approx(math.log(math.cosh(lam)), abs=1e-8)

    def test_constant_diagnostic(self):
        for c in (1.0, 0.6):
            obs = constant_observable(RADEMACHER, c, ell=2)
            press = Pressure(RADEMACHER, obs, tol=1e-8)
            for lam in (0.5, 1.0, 2.0):
                assert press(lam) == pytest.approx(lam * c, abs=1e-8)

    def test_zero_and_nonnegative(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, tol=1e-8)
        assert press(0.0) == 0.0
        for lam in np.linspace(-3, 3, 13):
            q = press(float(lam))
            assert q >= -1e-12
            assert q <= obs.sup_abs * abs(lam) + 1e-12

    def test_ell3_past_the_exp_range_of_a_product(self):
        # 300 * sup|F| * ell passes ln(DBL_MAX), where an unshifted product of
        # three exp(lambda * F) tables overflows; ln cosh 300 is exact here
        dist, obs = preset("rademacher-product", ell=3)
        d = Pressure(dist, obs, tol=1e-2).detail(300.0)
        assert d.tail_bound < 1e-2
        assert abs(d.value - math.log(math.cosh(300.0))) <= d.tail_bound

    @pytest.mark.parametrize("sweep_bytes", [rates._SWEEP_BYTES, 0])
    def test_shifted_tables_agree_with_unshifted(self, sweep_bytes, monkeypatch):
        # with the limit lowered, lambdas below the real one take the shifted
        # tables: through the sweep, and (sweep_bytes = 0) through the plans
        rng = np.random.default_rng(31)
        dist = FiniteDistribution(values=(-1.0, 0.0, 2.0), probs=(0.2, 0.5, 0.3))
        obs = center(observable_from_table(dist, 3, rng.normal(size=27)), dist)
        monkeypatch.setattr(rates, "_SWEEP_BYTES", sweep_bytes)
        for lam in (0.7, -1.3, complex(0.9, 1e-30)):
            want = np.array(log_r_sequence(dist, obs, B3, lam, 12))
            with monkeypatch.context() as patch:
                patch.setattr(rates, "LN_MAX", 0.5)
                got = np.array(log_r_sequence(dist, obs, B3, lam, 12))
            np.testing.assert_allclose(got.real, want.real, rtol=1e-13)
            np.testing.assert_allclose(got.imag, want.imag, rtol=1e-13)
            assert not np.array_equal(got, want)  # the shifted route ran

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_lambda_past_the_exp_range_is_input_error(self, ell):
        dist, obs = preset("bernoulli-product", ell=ell)
        press = Pressure(dist, obs, tol=1e-1)
        limit = rates.LN_MAX / obs.sup_abs
        with pytest.raises(InputError, match=f"= {limit:.9g}$"):
            press.details([0.5, -math.nextafter(limit, math.inf)])
        if ell < 3:
            assert math.isfinite(press(limit)) and math.isfinite(press(-limit))

    def test_certificate_fields(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-6)
        d = press.detail(1.0)
        assert d.tail_bound < 1e-6
        assert abs(d.value - math.log(math.cosh(1.0))) <= d.tail_bound + 1e-15

    def test_midpoint_convexity(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, tol=1e-10)
        grid = np.linspace(-2.0, 2.0, 21)
        q = [press(float(x)) for x in grid]
        for i in range(len(grid) - 2):
            assert q[i + 1] <= 0.5 * (q[i] + q[i + 2]) + 1e-8

    def test_flat_derivative_at_zero(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, tol=1e-10)
        h = 1e-4
        assert abs(press(h) - press(-h)) / (2 * h) <= 1e-6

    def test_ell1_equals_log_mgf(self):
        dist, obs = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        press = Pressure(dist, obs1, tol=1e-9)
        for lam in (0.3, 1.0, -2.0):
            assert press(lam) == pytest.approx(math.log(math.cosh(lam)), abs=1e-12)

    @pytest.mark.parametrize("name", ["rademacher-product", "bernoulli-product"])
    def test_ell1_batch_is_the_exact_ln_phi(self, name):
        # value and slope are ln phi's and the tilted mean's bits, on both
        # sides of |lambda| M = SMALL_TF and up to lambda_max; both tails 0 at L = 1
        dist, obs = preset(name, ell=1)
        press, ln_phi = Pressure(dist, obs, tol=1e-9), rates._LogMgf(dist, obs)
        top, m = press.lambda_max, obs.sup_abs
        lams = [0.0, 1e-9 / m, 0.5 * rates.SMALL_TF / m, rates.SMALL_TF / m, 1.01 * rates.SMALL_TF / m, 1.0]
        lams += [top, math.nextafter(top, 0.0), 0.999 * top]
        lams += [-lam for lam in lams]
        got = press._batch(np.array(lams), slope=True)
        assert got.value.tolist() == [ln_phi.log_mgf(lam) for lam in lams]
        assert got.slope.tolist() == [ln_phi.tilted_mean(lam) for lam in lams]
        assert got.tail_bound.tolist() == got.slope_bound.tolist() == [0.0] * len(lams)
        assert got.truncation_l.tolist() == [1] * len(lams)
        assert press.details(lams[:3]) == [PressureEval(ln_phi.log_mgf(lam), 0.0, 1) for lam in lams[:3]]

    def test_ell3_bounds_and_convergence(self):
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        press = Pressure(dist, obs3, tol=1e-4)
        q = press(1.0)
        assert 0.0 <= q <= 1.0
        fp = finite_pressure(dist, obs3, 1.0, 3**7)
        assert abs(fp - q) < 0.05

    def test_ell3_product_collapses_to_log_cosh(self):
        # products of +-1 draws over distinct index triples stay jointly
        # independent, so the series collapses exactly as in the pair case
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        press = Pressure(dist, obs3, tol=1e-5)
        for lam in (0.5, 1.0):
            d = press.detail(lam)
            assert abs(d.value - math.log(math.cosh(lam))) <= d.tail_bound + 1e-12

    def test_budget_exhaustion_reports_progress(self):
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        with pytest.raises(ToleranceError) as err:
            Pressure(dist, obs3, tol=1e-8, budget=80)(1.0)
        assert err.value.achievable_tol is not None
        assert 0.0 < err.value.achievable_tol < 1.0
        # ell = 2: the sweep completes budget // s**2 fiber lengths
        budget, lam = 40, 1.0
        obs2 = product_observable(dist, 2)
        press = Pressure(dist, obs2, tol=1e-12, budget=budget)
        with pytest.raises(ToleranceError) as err:
            press(lam)
        done = budget // dist.size**2
        scale = B2.r_const * obs2.sup_abs * abs(lam)
        assert err.value.achievable_tol == scale * float(press._tail[done])
        # ell = 3: the lengths before the first one over budget count as done
        budget = 2000
        done = first_over_budget(dist, obs3, B3, budget, 60) - 1
        press = Pressure(dist, obs3, tol=1e-8, budget=budget)
        with pytest.raises(ToleranceError) as err:
            press(lam)
        scale = B3.r_const * obs3.sup_abs * abs(lam)
        assert err.value.achievable_tol == scale * float(press._tail[done])

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_tail_equals_the_term_by_term_sum(self, ell):
        basis = primes_up_to(ell)
        press = Pressure(RADEMACHER, product_observable(RADEMACHER, ell))
        h = smooth_numbers_capped(basis, rates.MAX_TERMS).h
        tail = pressure_tail(h, rates._beyond_enumeration_bound(basis.m, len(h)))
        assert press._tail.tobytes() == tail.tobytes()
        assert press._neg_tail.tobytes() == np.maximum.accumulate(-tail[1:]).tobytes()

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_weights_equal_exact_rational(self, ell):
        basis = primes_up_to(ell)
        press = Pressure(RADEMACHER, product_observable(RADEMACHER, ell))
        h = smooth_numbers_capped(basis, rates.MAX_TERMS).h
        exact = [float(Fraction(1, h[i]) - Fraction(1, h[i + 1])) for i in range(len(h) - 1)]
        assert press._series_weights(len(exact)).tolist() == exact

    def test_unreachable_tolerance_reports_achievable(self):
        dist = RADEMACHER
        obs5 = product_observable(dist, 5)
        with pytest.raises(ToleranceError) as err:
            Pressure(dist, obs5, tol=1e-12)(1.0)
        assert err.value.achievable_tol is not None
        assert err.value.achievable_tol > 1e-12

    @pytest.mark.parametrize("ell", [2, 3])
    def test_repeated_lambda_is_evaluated_once(self, ell, monkeypatch):
        dist, obs = preset("bernoulli-product", ell=ell)
        press = Pressure(dist, obs, tol=1e-2)
        asked = []
        inner = rates.log_r_sequence

        def spy(dist, obs, basis, lam, *args, **kwargs):
            asked.extend(np.atleast_1d(lam).tolist())
            return inner(dist, obs, basis, lam, *args, **kwargs)

        monkeypatch.setattr(rates, "log_r_sequence", spy)
        got = press.details([0.5, -0.3, 0.5, 0.0, 0.5, -0.3])
        assert asked == [0.5, -0.3]  # each lambda once; lambda = 0 needs no evaluation
        assert got[0] == got[2] == got[4] and got[1] == got[5]
        assert got[3] == PressureEval(0.0, 0.0, 0)

    def test_concurrent_evaluations_share_one_result_per_lambda(self, monkeypatch):
        # at ell = 3 the threads also race to grow the sweep's steps and, past
        # its reach (cut to 8 lengths here, where L is 30 and 39), to build plans
        monkeypatch.setattr(rates, "_plans", {})
        monkeypatch.setattr(rates, "_sweeps", {})
        monkeypatch.setattr(rates, "_SWEEP_BYTES", 512)
        for ell, tol, lams in (
            (2, 1e-8, [0.1 * k for k in range(-8, 9) if k]),
            (3, 1e-2, [-0.6, -0.3, 0.3, 0.6]),
        ):
            dist, obs = preset("bernoulli-product", ell=ell)
            press = Pressure(dist, obs, tol=tol)
            start = threading.Barrier(8)

            def sweep():
                start.wait(timeout=30)  # all threads race for each lambda in turn
                return [press.detail(lam) for lam in lams]

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(sweep) for _ in range(8)]
                    results = [f.result(timeout=60) for f in futures]
            finally:
                sys.setswitchinterval(switch)
            fresh = Pressure(dist, obs, tol=tol)
            for got in results:
                assert got == [fresh.detail(lam) for lam in lams]
        assert sorted(rates._plans) == [(B3, l, 2) for l in range(9, 40)]


class TestFinitePressure:
    def test_single_term_is_log_mgf(self):
        # the centred Bernoulli product: F = -1/4 with probability 3/4, else 3/4
        dist, obs = preset("bernoulli-product")
        assert finite_pressure(dist, obs, 0.7, 1) == pytest.approx(
            math.log(0.75 * math.exp(-0.7 / 4) + 0.25 * math.exp(3 * 0.7 / 4)), rel=1e-12
        )

    def test_ell1_every_n(self):
        dist, obs = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        for N in (1, 7, 100):
            assert finite_pressure(dist, obs1, 1.3, N) == pytest.approx(
                math.log(math.cosh(1.3)), rel=1e-12
            )

    def test_converges_to_pressure(self):
        dist, obs = preset("rademacher-product")
        assert finite_pressure(dist, obs, 1.0, 4096) == pytest.approx(
            math.log(math.cosh(1.0)), abs=0.01
        )


class TestRateJ:
    def test_zero(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        assert RateJ(press)(0.0) == 0.0

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
    def test_lambda_cap_must_be_finite_positive(self, cap):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            RateJ(Pressure(dist, obs, tol=1e-8), lambda_cap=cap)

    def test_lambda_cap_past_the_exp_range_is_input_error(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        with pytest.raises(InputError, match="lambda_cap may not exceed"):
            RateJ(press, lambda_cap=1e30)
        assert RateJ(press, lambda_cap=rates.LN_MAX).lambda_cap == rates.LN_MAX

    def test_rademacher_matches_cramer(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        conj = RateJ(press)
        rate = CramerRate(dist, obs)
        for u in (0.1, 0.3, 0.5, 0.7, -0.4):
            assert conj(u) == pytest.approx(rate(u), abs=1e-4)

    def test_beyond_domain_infinite(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        conj = RateJ(press)
        assert conj(2.0) == math.inf
        assert conj(-2.0) == math.inf

    def test_detected_endpoints(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        conj = RateJ(press)
        assert conj.l_plus == pytest.approx(1.0, abs=1e-6)
        assert conj.l_minus == pytest.approx(1.0, abs=1e-6)

    def test_ell1_matches_cramer(self):
        for name in ("rademacher-product", "bernoulli-product"):
            dist, obs = preset(name, ell=1)
            press = Pressure(dist, obs, tol=1e-10)
            conj = RateJ(press)
            rate = CramerRate(dist, obs)
            hi = 0.9 * obs.sup_pos
            lo = -0.9 * obs.sup_neg
            for u in np.linspace(lo, hi, 9):
                assert conj(float(u)) == pytest.approx(rate(float(u)), abs=1e-6)

    def test_positive_off_zero_and_monotone(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, tol=1e-9)
        conj = RateJ(press)
        grid = np.linspace(0.05, 0.5, 10)
        vals = [conj(float(u)) for u in grid]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "ell,tol,cap,us",
        [
            (2, 1e-10, None, [-0.995, -0.6, -0.05, 0.005, 0.3, 0.585, 0.9, 0.995]),
            (2, 1e-6, None, [-0.7, 0.02, 0.3, 0.97]),
            # the best probe lies outside the bracket of its own truncation:
            # its gap must take its distance to the bracket's far end
            (2, 1e-8, None, [-0.585, 0.585]),
            (3, 0.02, 1.5, [-0.8, -0.35, 0.05, 0.2, 0.5, 0.6, 0.85]),
            (3, 1e-3, 1.5, [-0.3, 0.5]),
        ],
    )
    def test_certified_against_closed_form(self, ell, tol, cap, us):
        # the Rademacher product has Q = ln cosh at every ell, so J = I
        dist, obs = preset("rademacher-product", ell=ell)
        conj = RateJ(Pressure(dist, obs, tol=tol), lambda_cap=cap)
        for u, j in zip(us, conj.grid(us)):
            assert abs(j - rademacher_rate_closed(u)) <= 2 * tol, u

    def test_pressure_evaluations_per_u(self):
        dist, obs = preset("rademacher-product", ell=3)
        press = Pressure(dist, obs, tol=0.02)
        asked = []
        batch = press._batch

        def spy(lams, slope=False):
            asked.extend(lams.tolist())
            return batch(lams, slope)

        press._batch = spy
        RateJ(press, lambda_cap=1.5)(0.5)
        assert 1 <= len(asked) <= 8  # the golden section made 26
        assert 1.5 not in asked  # the cap is probed only when Q' stays below u up to it

    def test_past_the_endpoint_probes_the_cap(self):
        dist, obs = preset("rademacher-product", ell=3)
        conj = RateJ(Pressure(dist, obs, tol=0.02), lambda_cap=1.5)
        assert conj(0.95) == math.inf  # tanh(1.5) = 0.905
        assert conj.l_plus == pytest.approx(math.tanh(1.5), abs=0.02)

    def test_out_of_evaluations_reports_the_gap(self, monkeypatch):
        monkeypatch.setattr(rates, "MAX_EVALS", 2)
        dist, obs = preset("rademacher-product")
        with pytest.raises(ToleranceError) as err:
            RateJ(Pressure(dist, obs, tol=1e-10))(0.3)
        assert err.value.achievable_tol > 1e-10
        assert "after 2 pressure evaluations" in str(err.value)

    def test_needs_a_centered_observable(self):
        dist = FiniteDistribution(values=(-1.0, 2.0), probs=(0.75, 0.25))
        raw = observable_from_table(dist, 2, [0.3, -1.1, 0.7, 1.9])
        with pytest.raises(InputError):
            RateJ(Pressure(dist, raw))
        RateJ(Pressure(dist, center(raw, dist)))
        zero = observable_from_table(dist, 2, [0.0] * 4)
        assert RateJ(Pressure(dist, zero))(0.5) == math.inf
        with pytest.raises(InputError):  # exp(lambda * 0) is finite, but the cap must be
            RateJ(Pressure(dist, zero), lambda_cap=math.inf)


def random_law(rng, s):
    """A random s-point law with a random centered ell = 2 table."""
    values = np.sort(rng.choice(np.arange(-20, 21), size=s, replace=False)) / 4.0
    probs = rng.uniform(0.2, 1.0, size=s)
    dist = FiniteDistribution(values=tuple(values), probs=tuple(probs / probs.sum()))
    return dist, center(random_observable(rng, dist, 2), dist)


def scalar_pressure(press):
    """The one-lambda-at-a-time oracle of an ell = 2 Pressure's (value, tail bound, L)."""
    weights = press._series_weights(len(press._tail) - 1)
    return lambda lam: pressure_l2(
        press.dist.probs, press.obs.table, weights, press._tail,
        press.basis.r_const, press.obs.sup_abs, press.tol, lam,
    )


LAWS = [random_law(np.random.default_rng(900 + k), 2 + k % 5) for k in range(10)]

# The constants the conjugate's golden section ran with before the certified search.
GOLDEN_SEARCH = {"lambda_tol": 5e-5, "slope_tol": 1e-4, "slope_delta": 0.5}


class TestComplexStep:
    """Q' from a complex step through the pressure's kernels."""

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("lam", [-1.3, -0.2, 0.4, 2.0])
    def test_rademacher_slope_is_tanh(self, ell, lam):
        dist, obs = preset("rademacher-product", ell=ell)
        press = Pressure(dist, obs, tol=1e-3 if ell == 3 else 1e-8)
        ev = press.details([lam], slope=True)[0]
        r, M = primes_up_to(ell).r_const, obs.sup_abs
        assert ev.slope_bound == (r * M * float(press._tail[ev.truncation_l]) if ell > 1 else 0.0)
        assert abs(ev.slope - math.tanh(lam)) <= ev.slope_bound + 1e-13

    @pytest.mark.parametrize("lam", [-0.9, 0.35, 1.2])
    def test_bernoulli_ell3_slope_is_the_central_difference(self, lam):
        dist, obs = preset("bernoulli-product", ell=3)
        press = Pressure(dist, obs, tol=1e-3)
        ev = press.details([lam], slope=True)[0]
        L, h = ev.truncation_l, 1e-4
        w = press._series_weights(L).tolist()

        def q_L(x):  # the real truncated pressure at the same L
            lnr = log_r_sequence(dist, obs, B3, x, L)
            return B3.r_const * math.fsum(a * b for a, b in zip(w, lnr))

        assert ev.slope == pytest.approx((q_L(lam + h) - q_L(lam - h)) / (2 * h), rel=1e-7)
        assert ev.value == pytest.approx(q_L(lam), rel=1e-13)

    def test_transfer_batch_rows_equal_batches_of_one(self):
        h = rates.STEP_OVER_M
        for dist, obs in LAWS:
            lams = np.array([-2.5, -0.3, 0.01, 0.7, 4.0]) / obs.sup_abs + 1j * h / obs.sup_abs
            batch = log_r_sequence(dist, obs, B2, lams, 40)
            assert batch.shape == (5, 40) and batch.dtype == np.complex128
            for lam, row in zip(lams, batch):
                assert row.tolist() == log_r_sequence(dist, obs, B2, complex(lam), 40)

    def test_real_part_is_the_real_path(self):
        # complex exp and products may round differently in the last bits
        rng = np.random.default_rng(77)
        dist3 = FiniteDistribution(values=(-1.0, 0.0, 2.0), probs=(0.2, 0.5, 0.3))
        cases = [(dist, obs, B2, 40) for dist, obs in LAWS]
        cases += [(dist3, center(random_observable(rng, dist3, 3), dist3), B3, 20)]
        cases += [(*preset("bernoulli-product", ell=3), B3, 30)]
        for dist, obs, basis, L in cases:
            for lam in (-1.1, 0.3, 2.4):
                lam /= obs.sup_abs
                z = log_r_sequence(dist, obs, basis, complex(lam, 1e-30 / obs.sup_abs), L)
                x = log_r_sequence(dist, obs, basis, lam, L)
                for zl, xl in zip(z, x):
                    assert abs(zl.real - xl) <= 1e-13 * max(1.0, abs(xl))

    @pytest.mark.parametrize("ell", [2, 3])
    def test_slope_evaluations_share_truncation(self, ell):
        dist, obs = preset("bernoulli-product", ell=ell)
        press = Pressure(dist, obs, tol=1e-3)
        lams = [-0.8, 0.3, 1.1]
        real = press.details(lams)
        cplx = press.details(lams, slope=True)
        for a, b in zip(real, cplx):
            assert a.slope is None and b.slope is not None
            assert (a.tail_bound, a.truncation_l) == (b.tail_bound, b.truncation_l)
            assert b.value == pytest.approx(a.value, rel=1e-13)
        assert press.details(lams) == real  # a slope run leaves the real bits as they were
        assert press.details(lams[::-1], slope=True) == cplx[::-1]


class TestLockstepAgainstScalarOracle:
    """Batch rows equal batches of one bitwise and the scalar transfer recursion
    to 1e-13; grids agree with the golden section."""

    def test_transfer_batch_rows_equal_one_lambda_recursions(self):
        for dist, obs in LAWS:
            lams = np.array([-2.5, -0.3, 0.01, 0.7, 4.0])
            batch = log_r_sequence(dist, obs, B2, lams, 40)
            assert batch.shape == (5, 40)
            for i, (lam, row) in enumerate(zip(lams, batch)):
                assert row.tolist() == log_r_sequence(dist, obs, B2, float(lam), 40)
                alone = log_r_sequence(dist, obs, B2, lams[i : i + 1], 40)
                assert row.tolist() == alone[0].tolist()
                want = transfer_log_r(dist.probs, obs.table, float(lam), 40)
                assert_near(row, want)

    @pytest.mark.parametrize("law", range(len(LAWS)))
    def test_pressure_batches(self, law):
        dist, obs = LAWS[law]
        press = Pressure(dist, obs, tol=1e-9)
        M = obs.sup_abs
        lams = [-30 / M, -0.4 / M, 0.0, 0.01 / M, 0.4 / M, 0.4 / M, 3 / M, 60 / M, -0.4 / M]
        oracle = scalar_pressure(press)
        got = [(e.value, e.tail_bound, e.truncation_l) for e in press.details(lams)]
        assert got == [(e.value, e.tail_bound, e.truncation_l) for e in map(press.detail, lams)]
        want = [oracle(lam) for lam in lams]
        assert [g[1:] for g in got] == [w[1:] for w in want]
        assert_near([g[0] for g in got], [w[0] for w in want])
        assert len({L for _, _, L in got}) >= 4  # the batch spans several truncation lengths
        assert press.details(lams[::-1]) == press.details(lams)[::-1]

    @pytest.mark.parametrize("law", range(len(LAWS)))
    @pytest.mark.parametrize("cap", [None, 2.5])
    def test_rate_j_grids(self, law, cap):
        """The certified search agrees with the golden section within 2 tol.

        Each is within tol of J, up to the golden section's own miss.  The
        golden section declares J infinite when the objective's difference
        quotient over [cap - 0.5, cap] still climbs; the certified search
        when Q' at the cap is below |u| even at the top of its tail bound.
        Where only the golden section declares it, u lies within the
        endpoint.
        """
        dist, obs = LAWS[law]
        tol = 1e-8
        press = Pressure(dist, obs, tol=tol)
        conj = RateJ(press, lambda_cap=None if cap is None else cap / obs.sup_abs)
        lo, hi = obs.sup_neg, obs.sup_pos
        us = [-1.1 * lo, -0.7 * lo, -0.2 * lo, 0.0, 0.3 * hi, 0.3 * hi, 0.8 * hi, 1.1 * hi]
        q = scalar_pressure(Pressure(dist, obs, tol=tol))
        want = [
            golden_conjugate(lambda lam: q(lam)[0], u, conj.lambda_cap, **GOLDEN_SEARCH)
            for u in us
        ]
        got = conj.grid(us)
        for u, j, w in zip(us, got, want):
            end = conj.l_plus if u > 0 else conj.l_minus
            end += press.details([math.copysign(conj.lambda_cap, u)], slope=True)[0].slope_bound
            assert math.isinf(j) == (abs(u) - end >= rates.SLOPE_TOL)
            if math.isinf(w) and not math.isinf(j):
                assert abs(u) < end
            else:
                assert j == w or abs(j - w) <= 2 * tol
        assert math.isinf(got[0]) and math.isinf(got[-1])
        assert [conj(u) for u in us[:3]] == got[:3]

    def test_grid_error_is_the_first_failing_u_alone(self):
        # u = 0.9 fails in the first round; u = 0.35 only in its second
        dist, obs = preset("rademacher-product")

        def error(us):
            with pytest.raises(ToleranceError) as err:
                RateJ(Pressure(dist, obs, tol=1e-10, budget=144)).grid(us)
            return str(err.value), err.value.achievable_tol

        assert error([0.0, 0.35, 0.9]) == error([0.35]) != error([0.9])

    def test_grid_raises_the_first_u_error(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-12, budget=40)
        with pytest.raises(ToleranceError) as grid_err:
            RateJ(press).grid([0.0, -0.5, 0.2, 0.7])
        with pytest.raises(ToleranceError) as alone:
            RateJ(Pressure(dist, obs, tol=1e-12, budget=40))(-0.5)
        assert str(grid_err.value) == str(alone.value)
        assert grid_err.value.achievable_tol == alone.value.achievable_tol


class TestTruncationSearch:
    """Pressure._truncation's sorted search picks the L of a full scan of the tail bounds."""

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_matches_the_scan(self, ell):
        basis = primes_up_to(ell)
        press = Pressure(RADEMACHER, product_observable(RADEMACHER, ell))
        lam = 1.0 / basis.r_const
        assert basis.r_const * abs(lam) == 1.0  # so the target is exactly press.tol
        tail = press._tail
        rng = np.random.default_rng(ell)
        picks = rng.integers(0, len(tail), size=200)
        targets = [float(tail[i]) for i in picks] + [float(tail[-1]), float(tail[1])]
        targets += [np.nextafter(t, d) for t in targets[:50] for d in (0.0, math.inf)]
        targets += list(10.0 ** rng.uniform(-25, 1, size=200))
        for target in targets:
            press.tol = float(target)
            want = first_below(tail, float(target))
            L, bound, failed = press._truncation(np.array([lam]))
            if want is None:
                assert isinstance(failed, ToleranceError) and L.size == 0
            else:
                assert failed is None and (L.tolist(), bound.tolist()) == ([want], [tail[want]])
