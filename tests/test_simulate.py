import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import binomial_tail_at_least, ks_statistic, prefix_fsum, unmix_counter
from ncsums import simulate
from ncsums.errors import InputError
from ncsums.model import (
    RADEMACHER,
    FiniteDistribution,
    constant_observable,
    evaluate,
    observable_from_table,
    preset,
    product_observable,
)
from ncsums.simulate import (
    TRAJECTORY_MODES,
    LdpEstimate,
    ldp_estimate,
    mix64,
    mix_batch,
    sample_indices,
    term_values,
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


def scalar_term(dist, obs, key, m, mode):
    """Term m of stream key, one x_value draw at a time."""
    ell = obs.ell
    if mode == "nonconventional":
        counters = [j * m for j in range(1, ell + 1)]
    else:
        counters = [(m - 1) * ell + j for j in range(1, ell + 1)]
    return evaluate(obs, [x_value(dist, key, c) for c in counters])


class TestTermValues:
    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("seed", [7, -1, 2**64 + 3])
    def test_scalar_seed_matches_x_value(self, mode, seed):
        dist, obs = preset("bernoulli-product", ell=3)
        got = term_values(dist, obs, seed, np.arange(1, 61), mode)
        assert got.tolist() == [scalar_term(dist, obs, seed, m, mode) for m in range(1, 61)]

    @pytest.mark.parametrize("mode", TRAJECTORY_MODES)
    @pytest.mark.parametrize("seed", [-1, 2**64 + 3])
    def test_replica_keys_broadcast_against_terms(self, mode, seed):
        dist, obs = preset("bernoulli-product", ell=3)
        keys = mix_batch(seed, np.arange(6, dtype=np.uint64))
        ms = np.arange(1, 21)[:, None]
        got = term_values(dist, obs, keys, ms, mode)
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
        x = term_values(dist, obs, 11, np.arange(1, n + 1), mode).tolist()
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
        x = term_values(dist, obs, 11, np.arange(1, n + 1), mode)
        plain = np.concatenate(([0.0], np.cumsum(x)))
        assert trajectory(dist, obs, 11, n, mode).tobytes() == plain.tobytes()


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
        dist, obs = preset("rademacher-product")
        kw = dict(N=60, u=0.3, replicas=70_000, seed=21)
        a = ldp_estimate(dist, obs, **kw, threads=1)
        b = ldp_estimate(dist, obs, **kw, threads=4)
        assert a == b

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

    def test_fields(self):
        dist, obs = preset("rademacher-product")
        est = ldp_estimate(dist, obs, N=30, u=0.2, replicas=2000, seed=9)
        assert isinstance(est, LdpEstimate)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.rate_hat >= 0.0
