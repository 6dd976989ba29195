import gc
import math
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import binomial_tail_at_least, ks_statistic, prefix_fsum, unmix_counter
from ncsums import erlaw, simulate
from ncsums.errors import CapacityError, InputError
from ncsums.lattice import fiber_order, primes_up_to
from ncsums.model import (
    RADEMACHER,
    FiniteDistribution,
    constant_observable,
    observable_from_table,
    preset,
    product_observable,
)
from ncsums.rates import chain_index_structure
from ncsums.simulate import (
    TRAJECTORY_MODES,
    LdpEstimate,
    Workspace,
    ldp_estimate,
    mix64,
    mix_batch,
    sample_indices,
    trajectory,
    x_value,
)

# The mixing function is part of the output contract; these pins must never move.
MIX_PINS = [
    (0, 1, 0xE220A8397B1DCDAF),
    (0, 2, 0x6E789E6AA1B965F4),
    (1, 1, 0x910A2DEC89025CC1),
    (1, 2, 0xBEEB8DA1658EEC67),
    (42, 1, 0xBDD732262FEB6E95),
    (42, 7, 0x37E9671C45376D5D),
    (2024, 1, 0x9F6D8FECF88EECD5),
    (2024, 10, 0x6D467B84DC360331),
    (123456789, 5, 0x1A1D587CD12D2D6B),
    (2**63, 3, 0x61A685FFC80A8140),
]


class TestMixer:
    @pytest.mark.parametrize("seed,i,expected", MIX_PINS)
    def test_pinned_values(self, seed, i, expected):
        assert mix64(seed, i) == expected

    def test_batch_matches_scalar(self):
        counters = np.arange(1, 2001, dtype=np.uint64)
        batch = mix_batch(987654321, counters)
        for k in (0, 1, 17, 999, 1999):
            assert int(batch[k]) == mix64(987654321, k + 1)

    def test_x_value_matches_batch(self):
        for name in ("rademacher-product", "bernoulli-product"):
            dist, _ = preset(name)
            idx = sample_indices(dist, 2024, np.arange(1, 101, dtype=np.uint64))
            scalars = [x_value(dist, 2024, i) for i in range(1, 101)]
            assert idx.tolist() == scalars

    def test_pinned_indices(self):
        dist, _ = preset("rademacher-product")
        assert [x_value(dist, 2024, i) for i in range(1, 13)] == [
            1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1,
        ]

    def test_draw_index_floor(self):
        dist, _ = preset("rademacher-product")
        with pytest.raises(InputError):
            x_value(dist, 1, 0)

    def test_determinism(self):
        dist, _ = preset("rademacher-product")
        assert x_value(dist, 7, 12345) == x_value(dist, 7, 12345)


def random_distribution(size, seed):
    p = np.random.default_rng(seed).random(size) + 0.05
    return FiniteDistribution(values=tuple(range(size)), probs=tuple((p / p.sum()).tolist()))


# Support sizes s give s - 1 thresholds, past 255 so that no narrow count
# type can pass; the dyadic laws have integer cum * 2**53, and in the last
# law a middle cum rounds to 1.0 (its threshold is dropped).
KERNEL_DISTS = {
    **{f"random-{size}": random_distribution(size, seed=size) for size in (1, 2, 3, 5, 64, 257)},
    "halves": FiniteDistribution(values=(0, 1), probs=(0.5, 0.5)),
    "quarters": FiniteDistribution(values=(0, 1), probs=(0.25, 0.75)),
    "eighths": FiniteDistribution(values=(0, 1, 2, 3), probs=(0.125, 0.125, 0.25, 0.5)),
    "cum-rounds-to-1": FiniteDistribution(values=(0, 1, 2), probs=(0.5, 0.5, 1e-13)),
}
kernel_dists = pytest.mark.parametrize("dist", KERNEL_DISTS.values(), ids=list(KERNEL_DISTS))


class TestDrawKernel:
    @pytest.mark.parametrize("seed", [-1, 2**64 + 3])
    def test_mix_batch_broadcasts_keys_against_counters(self, seed):
        keys = mix_batch(seed, np.arange(5, dtype=np.uint64))
        got = mix_batch(keys, np.arange(1, 8, dtype=np.uint64)[:, None])
        assert got.dtype == np.uint64 and got.shape == (7, 5)
        want = [[mix64(mix64(seed, r), c) for r in range(5)] for c in range(1, 8)]
        assert got.tolist() == want

    @kernel_dists
    def test_sample_indices_match_x_value(self, dist):
        got = sample_indices(dist, 99, np.arange(1, 3001, dtype=np.uint64))
        assert got.dtype == np.int64
        assert got.tolist() == [x_value(dist, 99, i) for i in range(1, 3001)]

    @kernel_dists
    def test_threshold_words_match_float_rule(self, dist):
        # The least word with index > i is T_i = k * 2**11 for the least k with
        # cum_i <= k * 2**-53; words T_i - 1 and T_i straddle that boundary.
        words = []
        for c in dist.cumulative().tolist():
            k = math.ceil(Fraction(c) * 2**53)
            if k < 2**53:
                words += [(k << 11) - 1, k << 11]
        counters = [unmix_counter(w) for w in words]
        assert [mix64(0, c) for c in counters] == words
        got = sample_indices(dist, 0, np.array(counters, dtype=np.uint64))
        assert got.tolist() == [x_value(dist, 0, c) for c in counters]


# Every threshold of the first law has its low 33 bits 0 (its cum_i are
# multiples of 2**-31, the least one 2**-31 itself), so its draws skip the
# mixer's last round; the second law's threshold does not.
LAST_ROUND_LAWS = {
    "multiples-of-2**-31": (
        FiniteDistribution(
            values=(0, 1, 2, 3), probs=(2**-31, 0.5 - 2**-31, 0.25 + 2**-31, 0.25 - 2**-31)
        ),
        False,
    ),
    "thirds": (FiniteDistribution(values=(0, 1), probs=(1 / 3, 2 / 3)), True),
}


class TestLastRound:
    @pytest.mark.parametrize("name", list(LAST_ROUND_LAWS))
    def test_sample_indices_match_x_value_near_thresholds(self, name):
        dist, last_round = LAST_ROUND_LAWS[name]
        words, needed = simulate._thresholds(dist)
        assert needed is last_round
        # final words at, and words whose value before the last round is at,
        # a threshold, one below it and 2**33 either side of it
        finals = []
        for t in words.tolist():
            for z in (t - 2**33, t - 2**33 + 1, t - 1, t, t + 1, t + 2**33 - 1, t + 2**33):
                z &= simulate.MASK64
                finals += [z, z ^ (z >> 31)]
        counters = [unmix_counter(w, key=1) for w in finals]
        assert [mix64(1, c) for c in counters] == finals and min(counters) > 0
        got = sample_indices(dist, 1, np.array(counters, dtype=np.uint64))
        assert got.tolist() == [x_value(dist, 1, c) for c in counters]
        got = sample_indices(dist, 5, np.arange(1, 3001, dtype=np.uint64))
        assert got.tolist() == [x_value(dist, 5, i) for i in range(1, 3001)]

    def test_every_preset_skips_the_last_round(self):
        for name in ("rademacher-product", "bernoulli-product", "indicator-match"):
            assert simulate._thresholds(preset(name)[0])[1] is False, name


def scalar_term(dist, obs, key, m, mode):
    """Term m of stream key, one x_value draw at a time."""
    ell = obs.ell
    if mode == "nonconventional":
        counters = [j * m for j in range(1, ell + 1)]
    else:
        counters = [(m - 1) * ell + j for j in range(1, ell + 1)]
    indices = [x_value(dist, key, c) for c in counters]
    return float(obs.table[np.ravel_multi_index(indices, (dist.size,) * ell)])


class TestTermValues:
    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("seed", [7, -1, 2**64 + 3])
    def test_scalar_seed_matches_x_value(self, mode, seed):
        dist, obs = preset("bernoulli-product", ell=3)
        want = [scalar_term(dist, obs, seed, m, mode) for m in range(1, 61)]
        assert oracles.term_values(dist, obs, seed, np.arange(1, 61), mode).tolist() == want
        # trajectory's terms, read from its draw store and from the kernel
        assert np.diff(trajectory(dist, obs, seed, 60, mode)).tolist() == want

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("seed", [-1, 2**64 + 3])
    def test_replica_keys_broadcast_against_terms(self, mode, seed):
        dist, obs = preset("bernoulli-product", ell=3)
        keys = mix_batch(seed, np.arange(6, dtype=np.uint64))
        ms = np.arange(1, 21)[:, None]
        got = oracles.term_values(dist, obs, keys, ms, mode)
        assert got.shape == (20, 6)
        for r, key in enumerate(keys.tolist()):
            assert key == mix64(seed, r)
            want = [scalar_term(dist, obs, key, m, mode) for m in range(1, 21)]
            assert got[:, r].tolist() == want


class TestStreamStatistics:
    def test_frequencies(self):
        dist, _ = preset("bernoulli-product")
        n = 10**6
        idx = sample_indices(dist, 31415, np.arange(1, n + 1, dtype=np.uint64))
        for k, p in enumerate(dist.probs):
            freq = float(np.mean(idx == k))
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / n)

    def test_cross_seed_correlation(self):
        dist, _ = preset("rademacher-product")
        n = 10**6
        counters = np.arange(1, n + 1, dtype=np.uint64)
        a = sample_indices(dist, 1, counters) * 2.0 - 1.0
        b = sample_indices(dist, 2, counters) * 2.0 - 1.0
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 0.01


class TestTrajectory:
    def test_single_term(self):
        dist, obs = preset("rademacher-product")
        x1 = dist.values[x_value(dist, 5, 1)]
        x2 = dist.values[x_value(dist, 5, 2)]
        assert trajectory(dist, obs, 5, 1).tolist() == [0.0, x1 * x2]

    def test_zero_observable(self):
        obs = constant_observable(RADEMACHER, 0.0, ell=2)
        assert np.all(trajectory(RADEMACHER, obs, 9, 50) == 0.0)

    def test_prefix_shape_and_bounds(self):
        dist, obs = preset("bernoulli-product")
        prefix = trajectory(dist, obs, 3, 3000)
        assert prefix.dtype == np.float64
        assert prefix[0] == 0.0 and prefix.size == 3001
        inc = np.diff(prefix)
        assert inc.min() >= -obs.sup_neg and inc.max() <= obs.sup_pos

    def test_byte_identical_reruns(self):
        dist, obs = preset("rademacher-product")
        assert np.array_equal(trajectory(dist, obs, 77, 5000), trajectory(dist, obs, 77, 5000))

    def test_lln_at_scale(self):
        dist, obs = preset("rademacher-product")
        for seed in range(1, 6):
            assert abs(trajectory(dist, obs, seed, 10**6)[-1] / 10**6) < 0.01

    def test_mode_guards(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            trajectory(dist, obs, 1, 0)
        with pytest.raises(InputError):
            trajectory(dist, obs, 1, 5, "bogus")


# Uncentered ell = 2 tables whose partial sums are not exact in float64.
INEXACT_TABLES = [
    ((-1.0, 2.0), (0.75, 0.25), [0.55, -0.85, 0.95, 2.15]),
    ((0.0, 1.0), (0.5, 0.5), [1e8 + 0.1, -1e8 - 0.3, -1e8 + 0.7, 1e8 - 0.9]),
    ((0.0, 1.0), (0.5, 0.5), [0.1, -0.1 + 1e-9, 1 / 3, -1 / 3]),
]


def table_observable(values, probs, table):
    dist = FiniteDistribution(values=values, probs=probs)
    return dist, observable_from_table(dist, 2, table)


class TestCompensatedPrefix:
    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("values,probs,table", INEXACT_TABLES)
    def test_within_two_ulps_of_fsum(self, values, probs, table, mode):
        dist, obs = table_observable(values, probs, table)
        n = 10**5
        prefix = trajectory(dist, obs, 11, n, mode)
        x = oracles.term_values(dist, obs, 11, np.arange(1, n + 1), mode).tolist()
        ks = [n * j // 20 for j in range(1, 21)]
        for k, want in zip(ks, prefix_fsum(x, ks)):
            assert abs(prefix[k] - want) <= 2 * math.ulp(want), (k, prefix[k], want)

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("values,probs,table", INEXACT_TABLES)
    def test_independent_of_block_size(self, values, probs, table, mode, monkeypatch):
        dist, obs = table_observable(values, probs, table)
        want = trajectory(dist, obs, 11, 5000, mode)
        monkeypatch.setattr(simulate, "_BLOCK", 37)
        assert trajectory(dist, obs, 11, 5000, mode).tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("name", ["rademacher-product", "bernoulli-product", "indicator-match"])
    def test_exact_terms_give_plain_cumsum(self, name, mode):
        dist, obs = preset(name)
        n = 20_000
        x = oracles.term_values(dist, obs, 11, np.arange(1, n + 1), mode)
        plain = np.concatenate(([0.0], np.cumsum(x)))
        assert trajectory(dist, obs, 11, n, mode).tobytes() == plain.tobytes()


def dyadic_law(s, ell, seed, bits):
    """random_law with its table rounded to multiples of 2**-bits, so sums are exact."""
    dist, obs = random_law(s, ell, seed)
    return dist, observable_from_table(dist, ell, np.round(obs.table * 2.0**bits) / 2.0**bits)


class TestExactRoute:
    """trajectory's plain-cumsum route: where it runs, and its bits against Sum2."""

    # q = 50 and sup|F| = 1, so M = 2**50 and n * M <= 2**53 exactly for n <= 8
    Q50 = ((0.0, 1.0), (0.5, 0.5), [1.0, 2.0**-50, 2.0**-50, 1.0])

    def traced(self, monkeypatch):
        """The list of the ``exact`` flags that trajectory passes to _fill_prefix, in order."""
        ran = []
        fill = simulate._fill_prefix
        monkeypatch.setattr(simulate, "_fill_prefix", lambda *a: ran.append(a[-1]) or fill(*a))
        return ran

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    def test_q50_table_switches_route_after_eight_terms(self, mode, monkeypatch):
        dist, obs = table_observable(*self.Q50)
        assert obs.dyadic_exponent == 50
        ran = self.traced(monkeypatch)
        ns = list(range(1, 18)) + [1000, simulate._BLOCK + 3]
        for n in ns:
            got = trajectory(dist, obs, 40 + n, n, mode)
            want = oracles.trajectory(dist, obs, 40 + n, n, mode, block=1 << 18)
            assert same_bits(got, want), n
        assert ran == [n <= 8 for n in ns]
        # past 8 terms the plain sum does round, so the Sum2 route is needed
        x = oracles.term_values(dist, obs, 1040, np.arange(1, 1001), mode)
        assert not same_bits(trajectory(dist, obs, 1040, 1000, mode), np.cumsum(np.r_[0.0, x]))

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("s,ell,bits", [(2, 2, 0), (3, 3, 6), (6, 2, 30), (2, 9, 12)])
    def test_dyadic_tables_match_sum2_bitwise(self, s, ell, bits, mode, monkeypatch):
        dist, obs = dyadic_law(s, ell, seed=s + ell, bits=bits)
        ran = self.traced(monkeypatch)
        for n in BLOCK_EDGES:
            got = trajectory(dist, obs, 7 + n, n, mode)
            want = oracles.trajectory(dist, obs, 7 + n, n, mode, block=1 << 18)
            assert same_bits(got, want), n
        assert ran == [True] * len(BLOCK_EDGES)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        zero = constant_observable(RADEMACHER, 0.0, ell=2)
        dist, obs = RADEMACHER, observable_from_table(RADEMACHER, 2, -zero.table)
        assert np.signbit(obs.table).all()
        got = trajectory(dist, obs, 3, 100)
        assert same_bits(got, oracles.trajectory(dist, obs, 3, 100, "nonconventional", block=7))
        assert not np.signbit(got).any()

    @pytest.mark.parametrize(
        "table",
        [
            Q50[2],
            [1.0, -1.0, -1.0, 1.0],
            [0.75, -0.25, -0.25, -0.25],
            [0.55, -0.85, 0.95, 2.15],
            [2.0**1000, -(2.0**1000), 0.0, 2.0**1000],
            [5e-324, 0.0, 0.0, 1.0],
            [3.0 * 2.0**-20, 5.0, -7.0, 2.0**-20],
        ],
    )
    def test_exactness_bound_is_n_times_m_at_most_2_to_53(self, table):
        _, obs = table_observable((0.0, 1.0), (0.5, 0.5), table)
        m = Fraction(obs.sup_abs) * Fraction(2) ** oracles.dyadic_exponent(table)
        assert m.denominator == 1
        n_max = 2**53 // m.numerator  # the largest n with n * M <= 2**53
        for n in (1, 2, n_max - 1, n_max, n_max + 1, 2 * n_max, 2 * n_max + 1):
            if n >= 1:
                assert simulate._sums_are_exact(obs, n) == (n * m <= 2**53), n

    def test_zero_table_is_exact_at_any_n(self):
        obs = constant_observable(RADEMACHER, 0.0, ell=2)
        assert simulate._sums_are_exact(obs, simulate.MASK64)


class TestSumRange:
    """n * sup|F| <= SUM_LIMIT keeps every sum finite; past it, CapacityError."""

    BIG = simulate.SUM_LIMIT / 2

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    def test_sums_at_the_limit_stay_finite(self, mode):
        dist, obs = table_observable((0.0, 1.0), (0.5, 0.5), [self.BIG, -self.BIG] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(1, 9):
                prefix = trajectory(dist, obs, seed, 2, mode)
                assert np.isfinite(prefix).all() and np.isfinite(np.diff(prefix)).all()

    def test_past_the_limit_is_capacity_error(self):
        dist, obs = table_observable((0.0, 1.0), (0.5, 0.5), [self.BIG, -self.BIG] * 2)
        with pytest.raises(CapacityError):
            trajectory(dist, obs, 1, 3)
        with pytest.raises(CapacityError):
            ldp_estimate(dist, obs, N=3, u=0.3, replicas=1000, seed=1)



class TestDrawRange:
    """Terms 1..n read draws up to ell*n, which must stay below 2**64."""

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_past_the_last_draw_is_input_error(self, ell):
        dist, obs = preset("rademacher-product", ell=ell)
        n = simulate.MASK64 // ell + 1
        with pytest.raises(InputError, match="2\\*\\*64"):
            trajectory(dist, obs, 1, n)
        with pytest.raises(InputError, match="2\\*\\*64"):
            ldp_estimate(dist, obs, N=n, u=0.3, replicas=1000, seed=1)
        simulate._check_draw_range(obs, n - 1)  # the longest run whose draws fit


class TestIidTrajectory:
    def test_ell1_coincides_with_dilated(self):
        dist, _ = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        a = trajectory(dist, obs1, 4, 2000)
        b = trajectory(dist, obs1, 4, 2000, "iid")
        assert np.array_equal(a, b)

    def test_increment_range(self):
        dist, obs = preset("rademacher-product")
        prefix = trajectory(dist, obs, 8, 4000, "iid")
        assert set(np.unique(np.diff(prefix))) == {-1.0, 1.0}

    def test_mean_over_seeds(self):
        dist, obs = preset("rademacher-product")
        n = 10**4
        means = [trajectory(dist, obs, s, n, "iid")[-1] / n for s in range(1, 101)]
        sigma = math.sqrt(obs.variance)
        assert abs(np.mean(means)) <= 3 * sigma / math.sqrt(100 * n)

    def test_window_distribution_matches_dilated(self):
        # windows starting past (ell-1)*b have the i.i.d. law
        dist, obs = preset("rademacher-product")
        b = 20
        windows = 10**4
        n = b * (windows + 2)
        prefix = trajectory(dist, obs, 13, n)
        starts = b + b * np.arange(windows)  # m = b*k > (ell-1)*b for k >= 2
        non = prefix[starts + b] - prefix[starts]
        prefix_iid = trajectory(dist, obs, 14, n, "iid")
        iid = prefix_iid[starts + b] - prefix_iid[starts]
        crit = 1.628 * math.sqrt(2.0 / windows)  # 1% level
        assert ks_statistic(non, iid) < crit


class TestLdpEstimate:
    def test_impossible_level(self):
        dist, obs = preset("rademacher-product")
        est = ldp_estimate(dist, obs, N=40, u=1.5, replicas=1000, seed=5)
        assert est.p_hat == 0.0
        assert est.rate_hat == math.inf
        assert est.zero_count

    def test_thread_count_invariance(self):
        for ell in (2, 3):
            for mode in TRAJECTORY_MODES:
                dist, obs = preset("rademacher-product", ell=ell)
                kw = dict(N=60, u=0.3, replicas=70_000, seed=21, mode=mode)
                a = ldp_estimate(dist, obs, **kw, threads=1)
                b = ldp_estimate(dist, obs, **kw, threads=4)
                assert a == b, (ell, mode)

    def test_binomial_oracle_ell1(self):
        dist, _ = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        replicas = 100_000
        est = ldp_estimate(dist, obs1, N=60, u=0.3, replicas=replicas, seed=3)
        p_true = float(binomial_tail_at_least(60, 39))
        se = math.sqrt(p_true * (1 - p_true) / replicas)
        assert abs(est.p_hat - p_true) <= 4 * se
        assert est.ci_low <= est.rate_hat <= est.ci_high

    def test_validation(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, N=10, u=0.3, replicas=10, seed=1)
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, N=10, u=-0.3, replicas=2000, seed=1)
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, N=0, u=0.3, replicas=2000, seed=1)
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, N=10, u=0.3, replicas=2000, seed=1, mode="bogus")
        with pytest.raises(InputError, match="replicas may not exceed 2\\*\\*64"):
            ldp_estimate(dist, obs, N=10, u=0.3, replicas=2**64 + 1, seed=1)

    def test_fields(self):
        dist, obs = preset("rademacher-product")
        est = ldp_estimate(dist, obs, N=30, u=0.2, replicas=2000, seed=9)
        assert isinstance(est, LdpEstimate)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.rate_hat >= 0.0


def random_law(s, ell, seed):
    """random_distribution(s, seed) with a random Gaussian table, so sums are inexact."""
    dist = random_distribution(s, seed)
    table = np.random.default_rng(seed).normal(size=s**ell)
    return dist, observable_from_table(dist, ell, table)


# trajectory lengths either side of the block edges, where the draw store's reads change block
BLOCK_EDGES = (1, 2, 3, simulate._BLOCK - 1, simulate._BLOCK, simulate._BLOCK + 1,
               3 * simulate._BLOCK + 17)


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAllocatingOracle:
    """The in-place kernel against the allocating one kept in tests/oracles.py."""

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_trajectory_bitwise(self, s, ell, mode):
        dist, obs = random_law(s, ell, seed=10 * s + ell)
        for n in BLOCK_EDGES:
            got = trajectory(dist, obs, 1000 + n, n, mode)
            want = oracles.trajectory(dist, obs, 1000 + n, n, mode, block=1 << 18)
            assert same_bits(got, want), n
        # the TwoSum errors are not all 0, so the compensation is exercised
        x = oracles.term_values(dist, obs, 1000 + n, np.arange(1, n + 1), mode)
        assert not same_bits(got, np.concatenate(([0.0], np.cumsum(x))))

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("s,ell", [(2, 2), (3, 3), (6, 2)])
    def test_broadcast_kernel_bitwise(self, s, ell, mode):
        dist, _ = random_law(s, ell, seed=s + ell)
        keys = oracles.mix_batch(-5, np.arange(6, dtype=np.uint64))
        ms = np.arange(1, 21, dtype=np.uint64)[:, None]
        assert same_bits(mix_batch(keys, ms), oracles.mix_batch(keys, ms))
        for j in range(1, ell + 1):
            counters = simulate._draw_numbers(ms, j, ell, mode)
            got = sample_indices(dist, keys, counters)
            assert np.array_equal(got, oracles.sample_indices(dist, keys, counters))

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("s,ell", [(16, 2), (17, 2), (2, 8), (2, 9), (256, 1), (300, 2)])
    def test_codes_either_side_of_256_bitwise(self, s, ell, mode):
        # indices below 256 are counted in uint8, and codes below 256 built in uint8
        dist, obs = random_law(s, ell, seed=s * ell)
        index, code = (np.dtype(np.uint8 if v <= 256 else np.int64) for v in (s, s**ell))
        assert simulate._index_dtypes(dist, ell) == (index, code)
        for n in (1, 2, simulate._BLOCK + 1):
            want = oracles.trajectory(dist, obs, 9 + n, n, mode, block=1 << 18)
            assert same_bits(trajectory(dist, obs, 9 + n, n, mode), want), n

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("s,ell", [(2, 2), (3, 3), (4, 2)])
    def test_ldp_counts_equal(self, s, ell, mode):
        dist, obs = random_law(s, ell, seed=7 * s + ell)
        N = 7
        u = max(0.05, obs.mean + math.sqrt(obs.variance / N))
        for replicas in (1000, simulate._LDP_CHUNK + 1, 2 * simulate._LDP_CHUNK + 123):
            want = oracles.ldp_chunk_count(dist, obs, N, u, 31, 0, replicas, mode)
            assert 0 < want < replicas
            est = ldp_estimate(dist, obs, N=N, u=u, replicas=replicas, seed=31, mode=mode)
            assert est.p_hat == want / replicas, replicas


def dilated_draws(n, ell):
    """Distinct draws of dilated terms 1..n: draws 1..n, then j*m > n for j = 2..ell."""
    return n + sum(n - n // j for j in range(2, ell + 1))


class TestDrawStore:
    """trajectory keeps draws 1..n in its output's tail bytes and reads each term's draws up to
    n from there; TestAllocatingOracle and TestExactRoute compare its bits at BLOCK_EDGES."""

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    def test_erlaw_points_unchanged(self, mode):
        dist, obs = preset("rademacher-product", ell=3)
        ns, seeds = [100, simulate._BLOCK + 7, 3 * simulate._BLOCK + 17], [1, 2]
        result = erlaw.experiment(dist, obs, [0.3, 0.5], ns, seeds, mode=mode)
        prefixes = {s: oracles.trajectory(dist, obs, s, ns[-1], mode, block=1 << 18) for s in seeds}
        for p in result.points:
            want = oracles.window_max_naive(prefixes[p.seed][: p.n + 1], p.b_n)
            assert p.max_increment == want, p

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_each_stored_draw_is_drawn_once(self, ell, mode, monkeypatch):
        draws = []
        draw = simulate.sample_indices
        monkeypatch.setattr(
            simulate, "sample_indices", lambda *a, **k: draws.append(k["out"].size) or draw(*a, **k)
        )
        dist, obs = preset("rademacher-product", ell=ell)
        for n in (1, 7, 2 * simulate._BLOCK + 5):
            draws.clear()
            trajectory(dist, obs, 3, n, mode)
            assert sum(draws) == (dilated_draws(n, ell) if mode == "nonconventional" else ell * n)


def replica_sums(dist, obs, keys, terms, mode):
    """Per key, F summed over ``terms`` by one plan, in chunks of keys as ldp_estimate sums them."""
    chunk = simulate._LDP_CHUNK
    plan = simulate._ReplicaPlan(dist, obs, terms, mode, min(chunk, keys.size))
    return np.concatenate([plan.sums(keys[c0 : c0 + chunk]) for c0 in range(0, keys.size, chunk)])


class TestReplicaSums:
    """The draw-table replica loop against the per-term loop of tests/oracles.py."""

    # 300 points take the wide-index table; their F table holds 300**ell
    # values and each draw makes 299 compares, so that law runs at ell = 1
    # and 2 on 1000 keys (and on more in test_full_table_draws_again)
    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize(
        "s,ell", [(s, ell) for s in (2, 6) for ell in (1, 2, 3, 4)] + [(300, 1), (300, 2)]
    )
    def test_bitwise(self, s, ell, mode):
        dist, obs = random_law(s, ell, seed=s + 10 * ell)
        chain = chain_index_structure(primes_up_to(ell), 40)
        term_lists = {
            "N=60": range(1, 61),
            "chain": [term[0] for term in chain.term_indices],
            "N=600": range(1, 601),
        }
        big = simulate._LDP_CHUNK + 1
        runs = [(1000, "N=60"), (1000, "chain")]
        if s < 300:
            runs += [(1000, "N=600"), (big, "N=60"), (big, "chain")]
        for replicas, name in runs:
            keys = mix_batch(s * ell, np.arange(replicas, dtype=np.uint64))
            got = replica_sums(dist, obs, keys, term_lists[name], mode)
            want = oracles.replica_total(dist, obs, keys, term_lists[name], mode)
            assert same_bits(got, want), (replicas, name)

    @pytest.mark.parametrize(
        "s,ell,N,replicas", [(2, 2, 600, 32769), (6, 3, 600, 32769), (300, 2, 60, 8000)]
    )
    def test_full_table_draws_again(self, s, ell, N, replicas):
        # the terms would hold more draws at once than the table has slots,
        # so some draws are computed again by a later reader
        dist, obs = random_law(s, ell, seed=s + 10 * ell)
        terms = range(1, N + 1)
        block = min(replicas, simulate._LDP_CHUNK)
        capacity = simulate._TABLE_BYTES // (block * (1 if s <= 256 else 8))
        _, needed = simulate._draw_plan(terms, ell, "nonconventional", N * ell)
        steps, slots = simulate._draw_plan(terms, ell, "nonconventional", capacity)
        drawn = [d for new, _ in steps for _, d in new]
        assert slots <= capacity < needed and len(set(drawn)) < len(drawn)
        keys = mix_batch(s * ell, np.arange(replicas, dtype=np.uint64))
        got = replica_sums(dist, obs, keys, terms, "nonconventional")
        want = oracles.replica_total(dist, obs, keys, terms, "nonconventional")
        assert same_bits(got, want)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_ldp_plans_its_draws_once(self, threads, monkeypatch):
        # ten chunks of replicas share one plan, read by up to four threads
        # that switch often; the count matches the sums of a fresh plan on
        # each chunk
        dist, obs = preset("rademacher-product", ell=2)
        N, u, replicas, seed = 60, 0.3, 300_000, 11
        plans = []
        draw_plan = simulate._draw_plan
        monkeypatch.setattr(simulate, "_draw_plan", lambda *a: plans.append(a) or draw_plan(*a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            est = ldp_estimate(dist, obs, N=N, u=u, replicas=replicas, seed=seed, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(plans) == 1
        hits = 0
        for r0 in range(0, replicas, simulate._LDP_CHUNK):
            r1 = min(replicas, r0 + simulate._LDP_CHUNK)
            keys = mix_batch(seed, np.arange(r0, r1, dtype=np.uint64))
            total = replica_sums(dist, obs, keys, range(1, N + 1), "nonconventional")
            hits += int(np.count_nonzero(total / N >= u))
        assert len(plans) == 1 + 10
        assert est.p_hat == hits / replicas

    def test_slots_are_fewer_than_distinct_draws(self):
        steps, slots = simulate._draw_plan(range(1, 61), 2, "nonconventional", 32)
        drawn = [d for new, _ in steps for _, d in new]
        assert len(drawn) == len(set(drawn)) == 90
        assert slots == 17

    @pytest.mark.parametrize("ell", [2, 3])
    def test_ldp_memory_is_capped(self, ell):
        # the per-term kernel peaked at 1.9 MB on one chunk at both N; the
        # draw table adds at most _TABLE_BYTES, however many draws N shares
        dist, obs = preset("rademacher-product", ell=ell)
        for N in (60, 600):
            tracemalloc.start()
            try:
                ldp_estimate(dist, obs, N=N, u=0.3, replicas=simulate._LDP_CHUNK, seed=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.9e6 + simulate._TABLE_BYTES, (N, peak)


# terms per gather with exact sums: the most g with (s**ell)**g <= 256
GROUPS = {(2, 1): 8, (2, 2): 4, (2, 3): 2, (3, 1): 5, (3, 2): 2, (3, 3): 1}


class TestGroupedSums:
    """Groups of terms gathered from a table of group sums, against the per-term loop."""

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("s,ell", list(GROUPS))
    def test_bitwise(self, s, ell, mode):
        dist, obs = dyadic_law(s, ell, seed=s + 10 * ell, bits=20)
        g = GROUPS[s, ell]
        # N = 61 leaves a short last group; 600 terms on a full chunk and one
        # more key run out of table slots, so some draws are drawn again
        runs = [(60, 1000), (61, 1000)]
        if mode == "nonconventional":
            runs.append((600, simulate._LDP_CHUNK + 1))
        for N, replicas in runs:
            terms = range(1, N + 1)
            block = min(replicas, simulate._LDP_CHUNK)
            plan = simulate._ReplicaPlan(dist, obs, terms, mode, block)
            assert plan.slots <= simulate._TABLE_BYTES // block
            widths = [len(reads) for _, reads in plan.steps]
            assert widths == [g * ell] * (N // g) + [N % g * ell] * (N % g > 0), N
            drawn = [d for new, _ in plan.steps for _, d in new]
            assert (len(set(drawn)) < len(drawn)) == (N == 600 and ell > 1), N
            keys = mix_batch(s * ell, np.arange(replicas, dtype=np.uint64))
            got = replica_sums(dist, obs, keys, terms, mode)
            want = oracles.replica_total(dist, obs, keys, terms, mode)
            assert same_bits(got, want), N

    def test_preset_group_sizes(self):
        # slots in the order 1..60, and in the fiber order ldp_estimate plans
        for ell, g, slots, fiber_slots in ((1, 8, 8, 8), (2, 4, 20, 8), (3, 2, 30, 8)):
            dist, obs = preset("rademacher-product", ell=ell)
            fibers = fiber_order(primes_up_to(ell), 60)
            for terms, want in ((range(1, 61), slots), (fibers, fiber_slots)):
                plan = simulate._ReplicaPlan(dist, obs, terms, "nonconventional", 1 << 15)
                assert len(plan.steps) == 60 // g + (60 % g > 0), ell
                assert plan.slots == want, ell
                # each distinct draw once: 60, 90 and 120 of them
                drawn = [d for new, _ in plan.steps for _, d in new]
                distinct = {j * m for j in range(1, ell + 1) for m in range(1, 61)}
                assert sorted(drawn) == sorted(distinct)

    def test_inexact_sums_keep_one_term_per_gather(self):
        dist, obs = random_law(2, 2, seed=3)  # Gaussian table: sums of 60 terms round
        assert simulate._group_size(dist, obs, 60) == 1
        plan = simulate._ReplicaPlan(dist, obs, range(1, 61), "nonconventional", 1 << 15)
        assert [len(reads) for _, reads in plan.steps] == [2] * 60
        # exact up to n = 2**53 terms of |F| <= 1, and no further
        dist, obs = preset("rademacher-product", ell=2)
        assert simulate._group_size(dist, obs, 2**53) == 4
        assert simulate._group_size(dist, obs, 2**53 + 1) == 1

    def test_one_point_support_caps_the_group(self):
        dist = FiniteDistribution(values=(1.0,), probs=(1.0,))
        obs = observable_from_table(dist, 2, [0.5])
        assert simulate._group_size(dist, obs, 60) == 8
        assert simulate._group_size(dist, obs, 3) == 3


def drawn_sizes(monkeypatch):
    """The sizes of every sample_indices batch from here on, one entry per call."""
    sizes = []
    draw = simulate.sample_indices
    monkeypatch.setattr(
        simulate, "sample_indices", lambda *a, **k: sizes.append(k["out"].size) or draw(*a, **k)
    )
    return sizes


class TestRejection:
    """ldp_estimate drops a replica once S_N >= N*u is out of its reach; every count
    matches the per-term oracle, which sums every term of every replica in order 1..N."""

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("name,u", [("rademacher-product", 0.3), ("bernoulli-product", 0.1)])
    def test_counts_equal_the_oracle(self, name, u, ell, mode):
        dist, obs = preset(name, ell=ell)
        replicas = 3000
        want = oracles.ldp_chunk_count(dist, obs, 60, u, 5, 0, replicas, mode)
        assert 0 < want < replicas // 10
        est = ldp_estimate(dist, obs, N=60, u=u, replicas=replicas, seed=5, mode=mode)
        assert est.p_hat == want / replicas

    def test_attainable_mean_keeps_its_hits(self):
        # N*u = 18 is a value of S_60: a replica that ends at 18 exactly may
        # not be dropped, so a bound short of one term's sup F fails here
        dist, obs = preset("rademacher-product", ell=2)
        N, u, replicas, seed = 60, 0.3, 20_000, 8
        keys = mix_batch(seed, np.arange(replicas, dtype=np.uint64))
        total = oracles.replica_total(dist, obs, keys, range(1, N + 1), "nonconventional")
        assert np.count_nonzero(total == N * u) > 50
        est = ldp_estimate(dist, obs, N=N, u=u, replicas=replicas, seed=seed)
        assert est.p_hat == np.count_nonzero(total / N >= u) / replicas

    @pytest.mark.parametrize("threads", [1, 4])
    def test_chunk_edges_and_threads(self, threads):
        dist, obs = preset("rademacher-product", ell=2)
        replicas = simulate._LDP_CHUNK + 1
        want = oracles.ldp_chunk_count(dist, obs, 60, 0.3, 13, 0, replicas, "nonconventional")
        est = ldp_estimate(dist, obs, N=60, u=0.3, replicas=replicas, seed=13, threads=threads)
        assert est.p_hat == want / replicas

    def test_draws_fewer(self, monkeypatch):
        # at ell = 2, N = 60 each replica has 90 distinct draws; at u = 0.3
        # about two in three replicas are out of reach after 45 terms
        sizes = drawn_sizes(monkeypatch)
        dist, obs = preset("rademacher-product", ell=2)
        replicas = 2 * simulate._LDP_CHUNK
        ldp_estimate(dist, obs, N=60, u=0.3, replicas=replicas, seed=21)
        assert sum(sizes) < 0.8 * 90 * replicas

    def test_inexact_sums_drop_nothing(self, monkeypatch):
        # a Gaussian table's sums round, so the order stays 1..N and every
        # replica draws all 90 of its draws
        sizes = drawn_sizes(monkeypatch)
        dist, obs = random_law(2, 2, seed=3)
        assert not simulate._sums_are_exact(obs, 60)
        replicas = 3000
        u = max(0.05, obs.mean + 2 * math.sqrt(obs.variance / 60))
        est = ldp_estimate(dist, obs, N=60, u=u, replicas=replicas, seed=6)
        assert sum(sizes) == 90 * replicas
        want = oracles.ldp_chunk_count(dist, obs, 60, u, 6, 0, replicas, "nonconventional")
        assert 0 < want and est.p_hat == want / replicas

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    def test_u_past_sup_drops_every_replica(self, mode, monkeypatch):
        sizes = drawn_sizes(monkeypatch)
        dist, obs = preset("rademacher-product", ell=2)
        replicas = 5000
        est = ldp_estimate(dist, obs, N=60, u=1.5, replicas=replicas, seed=2, mode=mode)
        assert est.zero_count and est.p_hat == 0.0
        # the first group boundary drops them all, and no later group draws:
        # terms 1, 2, 4 and 8 read draws 1, 2, 4, 8 and 16, i.i.d. terms 1..4 draws 1..8
        assert sum(sizes) == replicas * {"nonconventional": 5, "iid": 8}[mode]


class TestWorkspace:
    def test_reuse_matches_fresh_workspace(self):
        # a batch, a larger one, a smaller one, then another ell and support
        # size, then the first law again: no stale buffer contents may leak
        ws = Workspace()
        big = random_law(5, 3, seed=1)
        other = random_law(3, 2, seed=2)
        keys = mix_batch(8, np.arange(7, dtype=np.uint64))
        calls = [
            (big, 3, np.arange(1, 900), "iid"),
            (big, 3, np.arange(1, 5001), "nonconventional"),
            (big, keys, np.arange(1, 301)[:, None], "iid"),
            (other, 4, np.arange(40, 90), "nonconventional"),
            (other, keys, np.arange(1, 12)[:, None], "nonconventional"),
            (big, 3, np.arange(1, 5001), "iid"),
        ]
        for (dist, obs), k, ms, mode in calls:
            for j in range(1, obs.ell + 1):
                counters = simulate._draw_numbers(np.asarray(ms, np.uint64), j, obs.ell, mode)
                got = sample_indices(dist, k, counters, ws).copy()
                assert np.array_equal(got, sample_indices(dist, k, counters))

    def test_growth_drops_the_old_buffer(self):
        ws = Workspace()
        small = ws.take("word", np.uint64, (4,))
        assert ws.take("word", np.uint64, (4,)) is small  # a kept view
        old = weakref.ref(ws._buffers["word"])
        del small
        big = ws.take("word", np.uint64, (64,))
        again = ws.take("word", np.uint64, (4,))
        buf = ws._buffers["word"]
        for view in (big, again):
            assert np.shares_memory(view, buf)
            assert view.ctypes.data == buf.ctypes.data
        gc.collect()
        assert old() is None

    def test_another_dtype_or_shape_takes_the_leading_bytes(self):
        ws = Workspace()
        words = ws.take("word", np.uint64, (8,))
        words[:] = np.arange(8, dtype=np.uint64) * 0x0101010101010101
        for dtype, shape in ((np.uint8, (4, 16)), (np.float64, (2, 2)), (np.bool_, (3,))):
            view = ws.take("word", dtype, shape)
            assert view.dtype == np.dtype(dtype) and view.shape == shape
            assert view.ctypes.data == words.ctypes.data
            assert view.tobytes() == words.tobytes()[: view.nbytes]

    def test_roles_never_alias(self):
        ws = Workspace()
        roles = (("word", np.uint64), ("count", np.int64), ("hit", np.bool_),
                 ("code", np.uint8), ("word", np.float64))
        # the buffers grow and shrink back: every view taken stays alive
        taken = [(role, ws.take(role, dtype, (n,)))
                 for n in (4, 100, 7, 1000, 3) for role, dtype in roles]
        for i, (role, view) in enumerate(taken):
            for other, view2 in taken[i + 1 :]:
                if other != role:
                    assert not np.shares_memory(view, view2), (role, other)

    @pytest.mark.parametrize("s,ell,N,replicas", [(2, 2, 60, 32768), (2, 2, 600, 32769)])
    def test_replica_sums_slots_and_redraws(self, s, ell, N, replicas, monkeypatch):
        # kept views change neither the table's slot buffers nor how often a
        # draw that finds the table full is drawn again
        dist, obs = random_law(s, ell, seed=s + 10 * ell)
        workspaces, draws = [], []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                workspaces.append(self)

        keys = mix_batch(s * ell, np.arange(replicas, dtype=np.uint64))
        draw = simulate.sample_indices
        monkeypatch.setattr(simulate, "Workspace", Recorded)
        monkeypatch.setattr(
            simulate, "sample_indices", lambda *a, **k: draws.append(1) or draw(*a, **k)
        )
        terms = range(1, N + 1)
        plan = simulate._ReplicaPlan(dist, obs, terms, "nonconventional", simulate._LDP_CHUNK)
        drawn = [d for new, _ in plan.steps for _, d in new]
        counts = {60: (17, 90, 90), 600: (32, 1074, 900)}[N]  # slots, draws, distinct draws
        assert (plan.slots, len(drawn), len(set(drawn))) == counts
        chunks = range(0, replicas, simulate._LDP_CHUNK)
        got = np.concatenate([plan.sums(keys[c0 : c0 + simulate._LDP_CHUNK]) for c0 in chunks])
        assert len(draws) == len(chunks) * len(drawn)
        assert len(workspaces) == len(chunks)
        for ws in workspaces:
            assert sum(role.startswith("slot ") for role in ws._buffers) == plan.slots
        want = oracles.replica_total(dist, obs, keys, terms, "nonconventional")
        assert same_bits(got, want)

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    def test_trajectory_memory_is_one_block(self, mode):
        # apart from its output, a trajectory holds one block's buffers
        dist, obs = preset("rademacher-product", ell=3)
        excess = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                prefix = trajectory(dist, obs, 5, n, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            excess.append(peak - prefix.nbytes)
        assert abs(excess[1] - excess[0]) <= 64 * 1024, excess
        assert max(excess) < 16 * 8 * simulate._BLOCK, excess
        # about 1.1 MB of block buffers: draws 1..n are kept in the output's
        # tail bytes, where a store of their own would add 1 MB at n = 1e6
        assert excess[1] < 1.5e6, excess
