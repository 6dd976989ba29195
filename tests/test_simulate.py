import math

import numpy as np
import pytest

from oracles import binomial_tail_at_least, ks_statistic
from ncsums.errors import InputError
from ncsums.lattice import primes_up_to
from ncsums.model import RADEMACHER, constant_observable, evaluate, preset, product_observable
from ncsums.simulate import (
    TRAJECTORY_MODES,
    LdpEstimate,
    TrajectorySpec,
    ldp_estimate,
    mix64,
    mix_batch,
    sample_indices,
    term_values,
    trajectory,
    x_value,
)

B1 = primes_up_to(1)
B2 = primes_up_to(2)

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
        spec = TrajectorySpec(seed=5, n=1, dist=dist, obs=obs)
        t = trajectory(spec)
        x1 = dist.values[x_value(dist, 5, 1)]
        x2 = dist.values[x_value(dist, 5, 2)]
        assert t.prefix.tolist() == [0.0, x1 * x2]

    def test_zero_observable(self):
        obs = constant_observable(RADEMACHER, 0.0, ell=2)
        t = trajectory(TrajectorySpec(seed=9, n=50, dist=RADEMACHER, obs=obs))
        assert np.all(t.prefix == 0.0)

    def test_prefix_shape_and_bounds(self):
        dist, obs = preset("bernoulli-product")
        t = trajectory(TrajectorySpec(seed=3, n=3000, dist=dist, obs=obs))
        assert t.prefix[0] == 0.0 and t.prefix.size == 3001
        inc = t.increments
        assert inc.min() >= -obs.sup_neg and inc.max() <= obs.sup_pos

    def test_byte_identical_reruns(self):
        dist, obs = preset("rademacher-product")
        spec = TrajectorySpec(seed=77, n=5000, dist=dist, obs=obs)
        assert np.array_equal(trajectory(spec).prefix, trajectory(spec).prefix)

    def test_lln_at_scale(self):
        dist, obs = preset("rademacher-product")
        for seed in range(1, 6):
            t = trajectory(TrajectorySpec(seed=seed, n=10**6, dist=dist, obs=obs))
            assert abs(t.prefix[-1] / 10**6) < 0.01

    def test_mode_guards(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            TrajectorySpec(seed=1, n=0, dist=dist, obs=obs)
        with pytest.raises(InputError):
            TrajectorySpec(seed=1, n=5, dist=dist, obs=obs, mode="bogus")


class TestIidTrajectory:
    def test_ell1_coincides_with_dilated(self):
        dist, _ = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        a = trajectory(TrajectorySpec(seed=4, n=2000, dist=dist, obs=obs1))
        b = trajectory(TrajectorySpec(seed=4, n=2000, dist=dist, obs=obs1, mode="iid"))
        assert np.array_equal(a.prefix, b.prefix)

    def test_increment_range(self):
        dist, obs = preset("rademacher-product")
        t = trajectory(TrajectorySpec(seed=8, n=4000, dist=dist, obs=obs, mode="iid"))
        assert set(np.unique(t.increments)) == {-1.0, 1.0}

    def test_mean_over_seeds(self):
        dist, obs = preset("rademacher-product")
        n = 10**4
        means = [
            trajectory(
                TrajectorySpec(seed=s, n=n, dist=dist, obs=obs, mode="iid")
            ).prefix[-1]
            / n
            for s in range(1, 101)
        ]
        sigma = math.sqrt(obs.variance)
        assert abs(np.mean(means)) <= 3 * sigma / math.sqrt(100 * n)

    def test_window_distribution_matches_dilated(self):
        # windows starting past (ell-1)*b have the i.i.d. law
        dist, obs = preset("rademacher-product")
        b = 20
        windows = 10**4
        n = b * (windows + 2)
        t = trajectory(TrajectorySpec(seed=13, n=n, dist=dist, obs=obs))
        starts = b + b * np.arange(windows)  # m = b*k > (ell-1)*b for k >= 2
        non = t.prefix[starts + b] - t.prefix[starts]
        ti = trajectory(TrajectorySpec(seed=14, n=n, dist=dist, obs=obs, mode="iid"))
        iid = ti.prefix[starts + b] - ti.prefix[starts]
        crit = 1.628 * math.sqrt(2.0 / windows)  # 1% level
        assert ks_statistic(non, iid) < crit


class TestLdpEstimate:
    def test_impossible_level(self):
        dist, obs = preset("rademacher-product")
        est = ldp_estimate(dist, obs, B2, N=40, u=1.5, replicas=1000, seed=5)
        assert est.p_hat == 0.0
        assert est.rate_hat == math.inf
        assert est.zero_count

    def test_thread_count_invariance(self):
        dist, obs = preset("rademacher-product")
        kw = dict(N=60, u=0.3, replicas=70_000, seed=21)
        a = ldp_estimate(dist, obs, B2, **kw, threads=1)
        b = ldp_estimate(dist, obs, B2, **kw, threads=4)
        assert a == b

    def test_binomial_oracle_ell1(self):
        dist, _ = preset("rademacher-product")
        obs1 = product_observable(dist, 1)
        replicas = 100_000
        est = ldp_estimate(dist, obs1, B1, N=60, u=0.3, replicas=replicas, seed=3)
        p_true = float(binomial_tail_at_least(60, 39))
        se = math.sqrt(p_true * (1 - p_true) / replicas)
        assert abs(est.p_hat - p_true) <= 4 * se
        assert est.ci_low <= est.rate_hat <= est.ci_high

    def test_validation(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, B2, N=10, u=0.3, replicas=10, seed=1)
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, B2, N=10, u=-0.3, replicas=2000, seed=1)
        with pytest.raises(InputError):
            ldp_estimate(dist, obs, B1, N=10, u=0.3, replicas=2000, seed=1)

    def test_fields(self):
        dist, obs = preset("rademacher-product")
        est = ldp_estimate(dist, obs, B2, N=30, u=0.2, replicas=2000, seed=9)
        assert isinstance(est, LdpEstimate)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.rate_hat >= 0.0
