import math
import tracemalloc

import numpy as np
import pytest

from oracles import window_max_naive
from ncsums.errors import DegenerateObservableError, InputError
from ncsums.model import RADEMACHER, constant_observable, preset
from ncsums.erlaw import ErPoint, b_window, experiment, window_max
from ncsums.simulate import _BLOCK, trajectory


class TestWindowMax:
    def test_zero_trajectory(self):
        assert window_max(np.zeros(11), 3) == 0.0

    def test_linear_growth(self):
        assert window_max([0.0, 1.0, 2.0, 3.0], 2) == 2.0

    def test_matches_naive_oracle(self):
        dist, obs = preset("rademacher-product")
        for seed in (1, 2, 3):
            prefix = trajectory(dist, obs, seed, 10**4)
            for b in (1, 7, 105, 9999):
                assert window_max(prefix, b) == window_max_naive(prefix.tolist(), b)

    def test_windows_across_blocks_match_one_difference_array(self):
        dist, obs = preset("bernoulli-product")
        n = 2 * _BLOCK + 5
        prefix = trajectory(dist, obs, 4, n, "iid")
        for b in (1, 2, 61, _BLOCK - 1, _BLOCK, _BLOCK + 1, n - _BLOCK, n - 1, n):
            assert window_max(prefix, b) == float((prefix[b:] - prefix[:-b]).max())

    def test_memory_does_not_grow_with_n(self):
        dist, obs = preset("rademacher-product")
        prefix = trajectory(dist, obs, 1, 16 * _BLOCK)
        peaks = []
        for n in (2 * _BLOCK, 16 * _BLOCK):
            tracemalloc.start()
            window_max(prefix[: n + 1], 60)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024

    def test_errors(self):
        with pytest.raises(InputError):
            window_max([0.0, 1.0], 2)
        with pytest.raises(InputError):
            window_max([0.0, 1.0, 2.0], 0)


class TestBWindow:
    def test_known_values(self):
        assert b_window(10**6, 0.1308120) == 105
        assert b_window(22027, 1.0) == 10
        # ln(22026) = 9.99998 < 10: an honest floor gives 9
        assert b_window(22026, 1.0) == 9

    def test_clamped_to_one(self):
        assert b_window(3, 10.0) == 1

    def test_floor_guard_at_exact_integers(self):
        # quotients that are integers up to rounding stay put
        for k in (2, 5, 10):
            n = int(math.exp(k))
            x = math.log(n)
            assert b_window(n, x / k) == k

    def test_errors(self):
        with pytest.raises(InputError):
            b_window(2, 1.0)
        with pytest.raises(InputError):
            b_window(100, 0.0)
        with pytest.raises(InputError):
            b_window(100, math.inf)


class TestExperiment:
    def test_degenerate_rejected(self):
        obs = constant_observable(RADEMACHER, 0.0, ell=2)
        with pytest.raises(DegenerateObservableError):
            experiment(RADEMACHER, obs, [0.5], [100], [1])

    def test_alpha_window_validated(self):
        dist, obs = preset("rademacher-product")
        for bad in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(InputError):
                experiment(dist, obs, [bad], [100], [1])

    def test_n_grid_must_increase(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError):
            experiment(dist, obs, [0.5], [100, 100], [1])

    def test_seeds_and_alphas_must_not_repeat(self):
        dist, obs = preset("rademacher-product")
        with pytest.raises(InputError, match="seeds must not repeat a value, but 1 repeats 1$"):
            experiment(dist, obs, [0.5], [100], [1, 2, 1])
        # seed s + 2**64 addresses the stream of seed s
        with pytest.raises(InputError, match=f"but {2**64 + 2} repeats 2$"):
            experiment(dist, obs, [0.5], [100], [2, 3, 2**64 + 2])
        with pytest.raises(InputError, match="alpha_grid must not repeat a value, but 0.5"):
            experiment(dist, obs, [0.5, 0.25, 0.5], [100], [1])
        assert len(experiment(dist, obs, [0.5], [100], [1, 2**64 - 1]).points) == 2

    def test_point_fields(self):
        dist, obs = preset("rademacher-product")
        res = experiment(dist, obs, [0.5], [1000, 5000], [1, 2])
        assert len(res.points) == 4
        for p in res.points:
            assert isinstance(p, ErPoint)
            assert p.b_n == b_window(p.n, p.i_alpha)
            assert p.statistic <= obs.sup_pos
            assert p.statistic == p.max_increment / p.b_n
            assert p.normalized == pytest.approx(
                p.i_alpha * p.max_increment / math.log(p.n), rel=1e-12
            )
            # the m = 0 window is always a candidate
            prefix = trajectory(dist, obs, p.seed, p.n)
            assert p.max_increment >= float(prefix[p.b_n])

    def test_normalizations_agree_up_to_floor(self):
        dist, obs = preset("rademacher-product")
        res = experiment(dist, obs, [0.4], [20000], [3])
        p = res.points[0]
        slack = abs(p.statistic) * abs(p.i_alpha * p.b_n / math.log(p.n) - 1.0) + 1e-12
        assert abs(p.normalized - p.statistic) <= slack

    def test_rows_sorted_and_thread_invariant(self):
        dist, obs = preset("rademacher-product")
        kw = dict(alpha_grid=[0.3, 0.5], n_grid=[500, 2000], seeds=[1, 2, 3])
        a = experiment(dist, obs, **kw, threads=1)
        b = experiment(dist, obs, **kw, threads=3)
        assert a == b
        keys = [(p.alpha, p.n, p.seed) for p in a.points]
        assert keys == sorted(keys)

    def test_iid_mode(self):
        dist, obs = preset("rademacher-product")
        res = experiment(dist, obs, [0.5], [2000], [1, 2], mode="iid")
        assert all(p.mode == "iid" for p in res.points)

    def test_summary_consistency(self):
        dist, obs = preset("rademacher-product")
        res = experiment(dist, obs, [0.5], [1000], [1, 2, 3])
        s = res.summaries[0]
        stats = [p.statistic for p in res.points]
        assert s.mean_statistic == pytest.approx(np.mean(stats), rel=1e-12)
        assert s.min_statistic == min(stats)
        assert s.max_statistic == max(stats)
        assert s.mean_abs_dev == pytest.approx(
            np.mean([abs(x - 0.5) for x in stats]), rel=1e-12
        )
