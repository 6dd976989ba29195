"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 checks the Monte-Carlo tail at N = 60, u = 0.3 against the
finite-N theory.  The large-deviation rate I(0.3) = 0.045701 is a limit as
N -> inf; at N = 60 the quantity the estimator targets is the exact binomial
tail p_60 = P(Bin(60, 1/2) >= 39) = 0.0136701 (for both ell = 1 and ell = 2),
whose rate r_60 = -ln(p_60)/60 = 0.071542 = 1.565 * I(0.3).  Chernoff keeps
r_N >= I(u) at every N, so a +-30% band around I(0.3) is out of reach of any
correct estimator; the band is therefore centred on r_60, and p_hat must lie
within 4 binomial standard errors of p_60.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    binomial_tail_at_least,
    enumerate_pair_dilation_mgf,
    make_lattice_counter,
    rademacher_rate_closed,
)
from ncsums.cli import main as cli_main
from ncsums.lattice import (
    d_count_int,
    fiber_sizes,
    partition_check,
    primes_up_to,
    smooth_numbers_capped,
)
from ncsums.model import RADEMACHER, constant_observable, preset, product_observable
from ncsums.rates import CramerRate, Pressure, RateJ, finite_pressure
from ncsums.simulate import ldp_estimate
from ncsums.erlaw import experiment

LN2 = math.log(2.0)

B2 = primes_up_to(2)


@contextmanager
def report(num, name):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL  {name}")
        raise
    print(f"[criterion {num:02d}] PASS  {name}")


def test_c01_lattice_exactness():
    with report(1, "lattice exactness at N=1e6, d_count oracle to 1e4, lower bound to l=500"):
        t0 = time.perf_counter()
        N = 10**6
        for ell in (2, 3, 5):
            basis = primes_up_to(ell)
            assert partition_check(basis, N)
            _, sizes = fiber_sizes(basis, N)
            assert int(sizes.sum()) == N
            oracle = make_lattice_counter(basis.primes)
            for k in range(1, 10**4 + 1):
                assert d_count_int(basis, k) == oracle(k)
            seq = smooth_numbers_capped(basis, 500)
            for l in range(1, min(len(seq.h), 501)):
                assert seq.rho_max(l) > seq.rho_min(l)
                assert seq.rho_min(l) >= (l ** (1.0 / basis.m) - 1.0) * LN2 - 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s over the 10s limit"


def test_c02_weight_collapse_ell2():
    with report(2, "ell=2 weights 2^-l exact, rho_min(l) = (l-1)ln2 to 1e-14"):
        seq = smooth_numbers_capped(B2, 127)
        for l in range(1, 101):
            assert seq.weight(l) == 2.0**-l
            assert abs(seq.rho_min(l) - (l - 1) * LN2) <= 1e-14


def test_c03_pressure_closed_forms():
    with report(3, "pressure = ln cosh within 1e-6; constant diagnostic = c*lambda within 1e-8"):
        t0 = time.perf_counter()
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-6)
        for lam in (0.25, 0.5, 1.0, 2.0):
            assert abs(press(lam) - math.log(math.cosh(lam))) <= 1e-6
        c = 1.0
        diag = constant_observable(RADEMACHER, c, ell=2)
        pd = Pressure(RADEMACHER, diag, tol=1e-8)
        for lam in (0.25, 0.5, 1.0, 2.0):
            assert abs(pd(lam) - lam * c) <= 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s over the 5s limit"


def test_c04_finite_pressure_convergence():
    with report(4, "finite pressure at N=2^14 within 0.01 of Q; gap non-increasing over 2^6..2^14"):
        t0 = time.perf_counter()
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-8)
        detail = press.detail(1.0)
        gaps = [
            abs(finite_pressure(dist, obs, 1.0, 2**k) - detail.value)
            for k in range(6, 15)
        ]
        assert gaps[-1] < 0.01
        # the reference Q carries a certified truncation width; decreases are
        # meaningful only down to that floor
        slack = detail.tail_bound + 1e-12
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + slack
        # non-product observable: the same convergence without the collapse
        db, ob = preset("bernoulli-product")
        pb = Pressure(db, ob, tol=1e-10)
        det_b = pb.detail(1.0)
        gaps_b = [
            abs(finite_pressure(db, ob, 1.0, 2**k) - det_b.value)
            for k in range(6, 15)
        ]
        assert gaps_b[-1] < 0.01
        slack_b = det_b.tail_bound + 1e-12
        for a, b in zip(gaps_b, gaps_b[1:]):
            assert b <= a + slack_b
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s over the 30s limit"


def test_c05_legendre_oracles():
    with report(5, "Cramer closed form 1e-8; rate_j = cramer 1e-5 (ell=2), 1e-6 (ell=1)"):
        dist, obs = preset("rademacher-product")
        rate = CramerRate(dist, obs)
        for alpha in np.arange(0.1, 0.95, 0.1):
            assert abs(rate(float(alpha)) - rademacher_rate_closed(float(alpha))) <= 1e-8
        press = Pressure(dist, obs, tol=1e-8)
        conj = RateJ(press)
        for alpha in np.arange(0.1, 0.95, 0.1):
            assert abs(conj(float(alpha)) - rate(float(alpha))) <= 1e-5
        for name in ("rademacher-product", "bernoulli-product"):
            d1, o1 = preset(name, ell=1)
            p1 = Pressure(d1, o1, tol=1e-10)
            c1 = RateJ(p1)
            r1 = CramerRate(d1, o1)
            for u in np.linspace(-0.9 * o1.sup_neg, 0.9 * o1.sup_pos, 13):
                assert abs(c1(float(u)) - r1(float(u))) <= 1e-6


def test_c06_rate_function_shape():
    with report(6, "J shape on a 200-point grid: zero at 0, convex, monotone, inf past caps"):
        t0 = time.perf_counter()
        dist, obs = preset("rademacher-product")
        press = Pressure(dist, obs, tol=1e-10)
        conj = RateJ(press)
        assert conj(0.0) == 0.0
        grid = np.linspace(-0.995, 0.995, 200)
        vals = {float(u): conj(float(u)) for u in grid}
        for u, v in vals.items():
            assert math.isfinite(v)
            if u != 0.0:
                assert v > 0.0
        # midpoint convexity on the uniform grid
        g = [vals[float(u)] for u in grid]
        for i in range(len(g) - 2):
            assert g[i + 1] <= 0.5 * (g[i] + g[i + 2]) + 1e-8
        # strict increase on [0.05, 0.9 * detected cap]
        hi = 0.9 * conj.l_plus
        inc_grid = [float(u) for u in grid if 0.05 <= u <= hi]
        inc_vals = [vals[u] for u in inc_grid]
        assert all(b > a for a, b in zip(inc_vals, inc_vals[1:]))
        # infinity beyond the detected slope caps
        assert conj(conj.l_plus + 0.05) == math.inf
        assert conj(-(conj.l_minus + 0.05)) == math.inf
        assert conj(2.0) == math.inf
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s over the 10s limit"


def test_c07_brute_force_pressure_oracle():
    with report(7, "2^(2N) enumeration of E exp(lam S_N) matches the fiber product to 1e-10"):
        t0 = time.perf_counter()
        dist, obs = preset("rademacher-product")
        for N in (2, 4, 6, 8, 10):
            for lam in (-1.0, -0.5, 0.5, 1.0):
                brute = enumerate_pair_dilation_mgf(lam, N)
                product = math.exp(N * finite_pressure(dist, obs, lam, N))
                assert abs(brute - product) <= 1e-10 * max(1.0, abs(brute)), (N, lam)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s limit"


def test_c08_ldp_desk_check_band():
    # The estimator targets P{S_60 >= 18}, i.e. at least 39 of 60 signs +1.
    # For ell=1 S_60 is a sum of 60 iid signs.  For ell=2 the terms X_m X_{2m}
    # are 60 iid signs too: along each 2-chain a, 2a, 4a, ... products of
    # consecutive iid signs are iid, and the chains are disjoint; the
    # enumeration below pins this as E exp(lam S_N) = cosh(lam)^N.  So both
    # target p_60 = P(Bin(60, 1/2) >= 39) = 0.0136701 with rate
    # r_60 = -ln(p_60)/60 = 0.071542 = 1.565*I(0.3).  Chernoff gives
    # r_N >= I(u) at every N and I is only the N -> inf limit, so the band
    # is centred on r_60 rather than on I(0.3).
    with report(8, "ldp p_hat within 4 se of P(Bin(60,1/2)>=39), rate_hat within [0.7, 1.3]*r_60, r_60 >= I(0.3)"):
        t0 = time.perf_counter()
        for N in (2, 4, 6, 8):
            for lam in (-1.0, -0.5, 0.5, 1.0):
                iid = math.cosh(lam) ** N
                brute = enumerate_pair_dilation_mgf(lam, N)
                assert abs(brute - iid) <= 1e-12 * iid, (N, lam)
        replicas = 10**5
        p60 = float(binomial_tail_at_least(60, 39))
        r60 = -math.log(p60) / 60
        se = math.sqrt(p60 * (1 - p60) / replicas)
        band = (0.7 * r60, 1.3 * r60)
        dist, obs = preset("rademacher-product")
        i03 = CramerRate(dist, obs)(0.3)
        assert abs(i03 - 0.045701) <= 1e-6
        assert i03 <= r60
        obs1 = product_observable(dist, 1)
        est1 = ldp_estimate(dist, obs1, N=60, u=0.3, replicas=replicas, seed=1)
        est2 = ldp_estimate(dist, obs, N=60, u=0.3, replicas=replicas, seed=1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s limit"
        for label, est in (("ell=1", est1), ("ell=2", est2)):
            assert abs(est.p_hat - p60) <= 4 * se, (
                f"{label}: p_hat={est.p_hat:.6f} more than 4 se "
                f"({4 * se:.6f}) from p_60={p60:.6f}"
            )
            assert band[0] <= est.rate_hat <= band[1], (
                f"{label}: rate_hat={est.rate_hat:.6f} outside "
                f"[{band[0]:.6f}, {band[1]:.6f}] (p_hat={est.p_hat:.6f})"
            )


def test_c09_window_law_at_scale():
    with report(9, "window statistic at n=1e6: mean in [0.4, 0.6], deviation shrinking, iid-close"):
        t0 = time.perf_counter()
        dist, obs = preset("rademacher-product")
        rate = CramerRate(dist, obs)
        i_alpha = rate(0.5)
        assert abs(i_alpha - 0.1308120) <= 1e-7
        seeds = [1, 2, 3, 4, 5]
        res = experiment(dist, obs, [0.5], [10**4, 10**6], seeds)
        by_n = {s.n: s for s in res.summaries}
        assert by_n[10**6].mean_statistic == pytest.approx(0.5, abs=0.1)
        assert 0.4 <= by_n[10**6].mean_statistic <= 0.6
        assert by_n[10**6].mean_abs_dev <= by_n[10**4].mean_abs_dev
        assert all(p.b_n == 105 for p in res.points if p.n == 10**6)
        per_seed = {}
        for p in res.points:
            per_seed.setdefault(p.seed, {})[p.n] = abs(p.statistic - 0.5)
        improved = sum(1 for d in per_seed.values() if d[10**6] <= d[10**4])
        assert improved >= 4
        res_iid = experiment(dist, obs, [0.5], [10**6], seeds, mode="iid")
        diff = abs(
            by_n[10**6].mean_statistic - res_iid.summaries[0].mean_statistic
        )
        assert diff < 0.1
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s over the 5min limit"


def _run_cli_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def test_c10_determinism_across_threads():
    with report(10, "criteria 8/9 CLI runs byte-identical for --threads 1 vs 4"):
        ldp_args = [
            "ldp-check", "--preset", "rademacher-product", "--N", "60", "--u", "0.3",
            "--replicas", "100000", "--seed", "1", "--no-timestamp",
        ]
        a = _run_cli_bytes(ldp_args + ["--threads", "1"])
        b = _run_cli_bytes(ldp_args + ["--threads", "4"])
        assert a == b
        er_args = [
            "erlaw", "--preset", "rademacher-product", "--alpha", "0.5",
            "--n", "1e4,1e6", "--seeds", "5", "--no-timestamp",
        ]
        a = _run_cli_bytes(er_args + ["--threads", "1"])
        b = _run_cli_bytes(er_args + ["--threads", "4"])
        assert a == b
        a2 = _run_cli_bytes(er_args + ["--threads", "1"])
        assert a2 == a
