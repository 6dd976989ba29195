import math

import numpy as np
import pytest

from oracles import (
    enumerate_chain_expectation,
    grid_search_rate,
    rademacher_rate_closed,
)
from ncsums.errors import (
    BudgetExceededError,
    DegenerateObservableError,
    InputError,
    ToleranceError,
)
from ncsums.lattice import primes_up_to
from ncsums.model import (
    BERNOULLI,
    RADEMACHER,
    FiniteDistribution,
    center,
    constant_observable,
    observable_from_table,
    preset,
    product_observable,
)
from ncsums.rates import (
    CramerRate,
    Pressure,
    RateJ,
    chain_index_structure,
    cramer_rate,
    finite_pressure,
    mgf,
    pressure,
    r_l,
    r_l_mc,
    rate_j,
)

B1 = primes_up_to(1)
B2 = primes_up_to(2)
B3 = primes_up_to(3)


def asymmetric_pair():
    """A lopsided two-point ell=2 observable with no product structure."""
    dist = FiniteDistribution(values=(-1.0, 2.0), probs=(0.75, 0.25))
    raw = observable_from_table(dist, 2, [0.3, -1.1, 0.7, 1.9])
    return dist, center(raw, dist)


class TestMgf:
    def test_rademacher_cosh(self):
        dist, obs = preset("rademacher-product")
        assert mgf(dist, obs, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-14)
        assert mgf(dist, obs, -2.5) == pytest.approx(math.cosh(2.5), rel=1e-14)

    def test_normalization(self):
        for name in ("rademacher-product", "bernoulli-product", "indicator-match"):
            dist, obs = preset(name)
            assert mgf(dist, obs, 0.0) == 1.0

    def test_centered_bernoulli_closed_form(self):
        dist, obs = preset("bernoulli-product")
        for t in (-2.0, -0.5, 0.3, 1.7):
            expected = 0.75 * math.exp(-t / 4) + 0.25 * math.exp(3 * t / 4)
            assert mgf(dist, obs, t) == pytest.approx(expected, rel=1e-14)


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
        assert cramer_rate(dist, obs, 0.0) == 0.0

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


class TestChainStructure:
    def test_ell2(self):
        c = chain_index_structure(B2, 2, 3)
        assert c.indices == (1, 2, 4, 8)
        assert c.term_indices == ((1, 2), (2, 4), (4, 8))
        assert c.term_positions == ((0, 1), (1, 2), (2, 3))

    def test_ell3(self):
        c = chain_index_structure(B3, 3, 2)
        assert c.indices == (1, 2, 3, 4, 6)
        assert c.term_indices == ((1, 2, 3), (2, 4, 6))
        assert c.term_positions == ((0, 1, 2), (1, 3, 4))

    def test_ell1_disjoint(self):
        c = chain_index_structure(B1, 1, 5)
        assert c.indices == (1, 2, 3, 4, 5)
        assert c.term_positions == ((0,), (1,), (2,), (3,), (4,))

    def test_distinct_count_bound(self):
        for l in range(1, 12):
            c = chain_index_structure(B3, 3, l)
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
            chain = chain_index_structure(B2, 2, l)
            expected = enumerate_chain_expectation(dist, obs, lam, chain)
            assert r_l(dist, obs, lam, l) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", [-0.7, 0.9])
    def test_enumeration_oracle_ell3(self, lam):
        dist, obs = preset("rademacher-product")
        obs3 = product_observable(dist, 3)
        for l in range(1, 6):
            chain = chain_index_structure(B3, 3, l)
            expected = enumerate_chain_expectation(dist, obs3, lam, chain)
            assert r_l(dist, obs3, lam, l, basis=B3) == pytest.approx(
                expected, rel=1e-12
            )

    def test_enumeration_oracle_asymmetric(self):
        dist, obs = asymmetric_pair()
        for lam in (-0.5, 0.8):
            for l in (1, 2, 4):
                chain = chain_index_structure(B2, 2, l)
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
            r_l(dist, obs3, 1.0, 30, budget=16, basis=B3)


class TestRlMc:
    def test_lambda_zero_exact(self):
        dist, obs = preset("bernoulli-product")
        est = r_l_mc(dist, obs, 0.0, 5, replicas=1000, seed=3)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_rademacher_within_stderr(self):
        dist, obs = preset("rademacher-product")
        est = r_l_mc(dist, obs, 1.0, 5, replicas=200_000, seed=11)
        assert abs(est.value - math.cosh(1.0) ** 5) <= 3 * est.stderr

    @pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0])
    def test_agreement_with_exact(self, lam):
        dist, obs = preset("bernoulli-product")
        for l in range(1, 9):
            exact = r_l(dist, obs, lam, l)
            est = r_l_mc(dist, obs, lam, l, replicas=40_000, seed=100 + l)
            assert abs(est.value - exact) <= 4 * est.stderr, (lam, l)

    def test_replica_floor(self):
        dist, obs = preset("bernoulli-product")
        with pytest.raises(InputError):
            r_l_mc(dist, obs, 1.0, 3, replicas=10, seed=1)

    def test_chain_must_fit_the_counter_range(self):
        # at ell = 2 the chain of length l reads draws up to 2 * 2**(l-1)
        dist, obs = preset("rademacher-product")
        est = r_l_mc(dist, obs, 0.5, 63, replicas=1000, seed=1)
        assert est.value > 0.0
        with pytest.raises(InputError):
            r_l_mc(dist, obs, 0.5, 64, replicas=1000, seed=1)


class TestPressure:
    def test_rademacher_log_cosh(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        for lam in (0.25, 0.5, 1.0, 2.0, -1.5):
            assert press(lam) == pytest.approx(math.log(math.cosh(lam)), abs=1e-8)

    def test_constant_diagnostic(self):
        for c in (1.0, 0.6):
            obs = constant_observable(RADEMACHER, c, ell=2)
            press = Pressure(RADEMACHER, obs, B2, tol=1e-8)
            for lam in (0.5, 1.0, 2.0):
                assert press(lam) == pytest.approx(lam * c, abs=1e-8)

    def test_zero_and_nonnegative(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        assert press(0.0) == 0.0
        for lam in np.linspace(-3, 3, 13):
            q = press(float(lam))
            assert q >= -1e-12
            assert q <= obs.sup_abs * abs(lam) + 1e-12

    def test_certificate_fields(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-6)
        d = press.detail(1.0)
        assert d.tail_bound < 1e-6
        assert abs(d.value - math.log(math.cosh(1.0))) <= d.tail_bound + 1e-15

    def test_midpoint_convexity(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, B2, tol=1e-10)
        grid = np.linspace(-2.0, 2.0, 21)
        q = [press(float(x)) for x in grid]
        for i in range(len(grid) - 2):
            assert q[i + 1] <= 0.5 * (q[i] + q[i + 2]) + 1e-8

    def test_flat_derivative_at_zero(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, B2, tol=1e-10)
        h = 1e-4
        assert abs(press(h) - press(-h)) / (2 * h) <= 1e-6

    def test_ell1_equals_log_mgf(self):
        dist, obs = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        press = Pressure(dist, obs1, B1, tol=1e-9)
        for lam in (0.3, 1.0, -2.0):
            assert press(lam) == pytest.approx(
                math.log(mgf(dist, obs1, lam)), abs=1e-12
            )

    def test_ell3_bounds_and_convergence(self):
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        press = Pressure(dist, obs3, B3, tol=1e-4)
        q = press(1.0)
        assert 0.0 <= q <= 1.0
        fp = finite_pressure(dist, obs3, B3, 1.0, 3**7)
        assert abs(fp - q) < 0.05

    def test_ell3_product_collapses_to_log_cosh(self):
        # products of +-1 draws over distinct index triples stay jointly
        # independent, so the series collapses exactly as in the pair case
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        press = Pressure(dist, obs3, B3, tol=1e-5)
        for lam in (0.5, 1.0):
            d = press.detail(lam)
            assert abs(d.value - math.log(math.cosh(lam))) <= d.tail_bound + 1e-12

    def test_budget_exhaustion_reports_progress(self):
        dist = RADEMACHER
        obs3 = product_observable(dist, 3)
        with pytest.raises(ToleranceError) as err:
            Pressure(dist, obs3, B3, tol=1e-8, budget=80)(1.0)
        assert err.value.achievable_tol is not None
        assert 0.0 < err.value.achievable_tol < 1.0
        # ell = 2: the transfer recursion completes budget // s**2 fiber lengths
        budget, lam = 40, 1.0
        obs2 = product_observable(dist, 2)
        press = Pressure(dist, obs2, B2, tol=1e-12, budget=budget)
        with pytest.raises(ToleranceError) as err:
            press(lam)
        done = budget // dist.size**2
        scale = B2.r_const * obs2.sup_abs * abs(lam)
        assert err.value.achievable_tol == scale * float(press._tail[done])

    def test_unreachable_tolerance_reports_achievable(self):
        dist = RADEMACHER
        obs5 = product_observable(dist, 5)
        basis5 = primes_up_to(5)
        with pytest.raises(ToleranceError) as err:
            Pressure(dist, obs5, basis5, tol=1e-12, max_terms=500)(1.0)
        assert err.value.achievable_tol is not None
        assert err.value.achievable_tol > 1e-12

    def test_mismatched_ell(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            Pressure(dist, obs, B3)

    def test_convenience_wrapper(self):
        dist, obs = preset("rademacher-product")
        assert pressure(dist, obs, B2, 1.0, tol=1e-8) == pytest.approx(
            math.log(math.cosh(1.0)), abs=1e-8
        )


class TestFinitePressure:
    def test_single_term_is_log_mgf(self):
        dist, obs = preset("bernoulli-product")
        assert finite_pressure(dist, obs, B2, 0.7, 1) == pytest.approx(
            math.log(mgf(dist, obs, 0.7)), rel=1e-12
        )

    def test_ell1_every_n(self):
        dist, obs = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        for N in (1, 7, 100):
            assert finite_pressure(dist, obs1, B1, 1.3, N) == pytest.approx(
                math.log(mgf(dist, obs1, 1.3)), rel=1e-12
            )

    def test_converges_to_pressure(self):
        dist, obs = preset("rademacher-product")
        assert finite_pressure(dist, obs, B2, 1.0, 4096) == pytest.approx(
            math.log(math.cosh(1.0)), abs=0.01
        )


class TestRateJ:
    def test_zero(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        assert rate_j(press, 0.0) == 0.0

    def test_rademacher_matches_cramer(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        conj = RateJ(press)
        rate = CramerRate(dist, obs)
        for u in (0.1, 0.3, 0.5, 0.7, -0.4):
            assert conj(u) == pytest.approx(rate(u), abs=1e-4)

    def test_beyond_domain_infinite(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        conj = RateJ(press)
        assert conj(2.0) == math.inf
        assert conj(-2.0) == math.inf

    def test_detected_endpoints(self):
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, B2, tol=1e-8)
        conj = RateJ(press)
        assert conj.l_plus == pytest.approx(1.0, abs=1e-6)
        assert conj.l_minus == pytest.approx(1.0, abs=1e-6)

    def test_ell1_matches_cramer(self):
        for name in ("rademacher-product", "bernoulli-product"):
            dist, obs = preset(name, ell=1)
            press = Pressure(dist, obs, B1, tol=1e-10)
            conj = RateJ(press)
            rate = CramerRate(dist, obs)
            hi = 0.9 * obs.sup_pos
            lo = -0.9 * obs.sup_neg
            for u in np.linspace(lo, hi, 9):
                assert conj(float(u)) == pytest.approx(rate(float(u)), abs=1e-6)

    def test_positive_off_zero_and_monotone(self):
        dist, obs = preset("bernoulli-product")
        press = Pressure(dist, obs, B2, tol=1e-9)
        conj = RateJ(press)
        grid = np.linspace(0.05, 0.5, 10)
        vals = [conj(float(u)) for u in grid]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
