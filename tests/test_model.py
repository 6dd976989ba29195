import math
import warnings

import numpy as np
import pytest

import oracles
from ncsums.errors import CapacityError, InputError
from ncsums.model import (
    BERNOULLI,
    ELL_LIMIT,
    RADEMACHER,
    TABLE_CELL_LIMIT,
    FiniteDistribution,
    center,
    constant_observable,
    from_spec,
    indicator_equal_observable,
    is_degenerate,
    observable_from_table,
    preset,
    product_observable,
    tuple_weights,
    value_distribution,
)


class TestFiniteDistribution:
    def test_valid(self):
        d = FiniteDistribution(values=(-1, 0, 2), probs=(0.25, 0.25, 0.5))
        assert d.size == 3
        assert d.cumulative()[-1] == 1.0

    @pytest.mark.parametrize(
        "values,probs",
        [
            ((1, 2), (0.5, 0.6)),  # sum != 1
            ((1, 2), (1.0, 0.0)),  # zero prob
            ((2, 1), (0.5, 0.5)),  # not increasing
            ((1, 1), (0.5, 0.5)),  # duplicate
            ((1, 2, 3), (0.5, 0.5)),  # length mismatch
            ((), ()),
            ((1, 2), (math.nan, 1.0)),  # NaN fails both the sign and the sum test
            ((math.nan,), (1.0,)),  # a lone NaN has no neighbour to compare with
            ((1, math.inf), (0.5, 0.5)),
        ],
    )
    def test_invalid(self, values, probs):
        with pytest.raises(InputError):
            FiniteDistribution(values=values, probs=probs)


class TestMoments:
    def test_centered_bernoulli_product_table(self):
        # direct enumeration of the 4 tuples gives mean 1/4
        obs = product_observable(BERNOULLI, 2)
        mean = sum(
            0.25 * x * y for x in BERNOULLI.values for y in BERNOULLI.values
        )
        assert obs.mean == pytest.approx(mean, abs=1e-15)
        cen = center(obs, BERNOULLI)
        assert np.allclose(cen.table, [-0.25, -0.25, -0.25, 0.75])
        assert cen.sup_pos == 0.75
        assert cen.sup_neg == 0.25
        assert cen.sup_abs == 0.75

    @pytest.mark.parametrize("name", ["rademacher-product", "bernoulli-product", "indicator-match"])
    def test_stored_moments_match_recomputation(self, name):
        dist, obs = preset(name)
        w = tuple_weights(dist, obs.ell)
        mean = math.fsum((w * obs.table).tolist())
        second = math.fsum((w * obs.table * obs.table).tolist())
        assert abs(obs.mean - mean) <= 1e-12
        assert abs(obs.variance - max(0.0, second - mean * mean)) <= 1e-12
        assert obs.sup_pos == max(0.0, obs.table.max())
        assert obs.sup_neg == max(0.0, -obs.table.min())
        assert obs.sup_abs == max(obs.sup_pos, obs.sup_neg)

    def test_huge_entries_do_not_overflow_the_moments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = observable_from_table(RADEMACHER, 2, [1e308] * 4)
            spread = observable_from_table(RADEMACHER, 2, [1e308, -1e308, 1e308, -1e308])
        assert (flat.mean, flat.variance) == (1e308, 0.0)
        assert is_degenerate(flat)
        assert spread.mean == 0.0 and spread.variance == math.inf  # 1e616 is past float64
        assert not is_degenerate(spread)

    def test_scaled_second_moment_keeps_the_bits(self):
        # Tables past 2**510 take the second moment in scaled units; a power
        # of two scales every rounding step exactly, so nothing else moves.
        dist = FiniteDistribution(values=(-1.0, 2.0), probs=(0.75, 0.25))
        table = np.array([0.55, -0.85, 0.95, 2.15])
        w = tuple_weights(dist, 2)
        mean = math.fsum((w * table).tolist())
        base = observable_from_table(dist, 2, table)
        assert base.variance == math.fsum((w * table * table).tolist()) - mean * mean
        big = observable_from_table(dist, 2, table * 2.0**510)
        assert big.mean == mean * 2.0**510
        assert big.variance / 2.0**510 / 2.0**510 == base.variance

    def test_variance_nonnegative_and_zero_for_constant(self):
        obs = constant_observable(RADEMACHER, 5.0, ell=2)
        assert obs.variance == 0.0
        assert obs.mean == pytest.approx(5.0, abs=1e-12)


class TestCenter:
    def test_constant_centers_to_zero(self):
        obs = constant_observable(RADEMACHER, 5.0, ell=2)
        cen = center(obs, RADEMACHER)
        assert np.all(cen.table == 0.0)

    def test_symmetric_product_unchanged(self):
        obs = product_observable(RADEMACHER, 2)
        cen = center(obs, RADEMACHER)
        assert np.array_equal(cen.table, obs.table)

    @pytest.mark.parametrize("name", ["bernoulli-product", "indicator-match"])
    def test_mean_zero_variance_unchanged(self, name):
        dist, obs = preset(name)
        again = center(obs, dist)
        assert abs(again.mean) <= 1e-12
        assert abs(again.variance - obs.variance) <= 1e-12


def negated(dist, obs):
    """-F, from the negated table: the means negate and the sup-norms swap exactly."""
    return observable_from_table(dist, obs.ell, -obs.table)


def entry(dist, obs, indices):
    """F at a tuple of support indices, read from the row-major table."""
    return float(obs.table[np.ravel_multi_index(indices, (dist.size,) * obs.ell)])


class TestNegate:
    def test_involution_and_sup_swap(self):
        dist, obs = preset("bernoulli-product")
        neg = negated(dist, obs)
        assert neg.sup_pos == obs.sup_neg == 0.25
        assert neg.sup_neg == obs.sup_pos == 0.75
        assert neg.sup_abs == obs.sup_abs
        assert neg.mean == -obs.mean and neg.variance == obs.variance
        back = negated(dist, neg)
        assert np.array_equal(back.table, obs.table)
        assert back.mean == obs.mean

    def test_rademacher_sups_unchanged(self):
        dist, obs = preset("rademacher-product")
        neg = negated(dist, obs)
        assert neg.sup_pos == neg.sup_neg == 1.0


class TestEvaluate:
    def test_product_entries(self):
        obs = product_observable(RADEMACHER, 2)
        assert entry(RADEMACHER, obs, (0, 0)) == 1.0  # (-1)(-1)
        assert entry(RADEMACHER, obs, (0, 1)) == -1.0
        assert entry(RADEMACHER, obs, (1, 1)) == 1.0

    def test_indicator_match_entry(self):
        dist, obs = preset("indicator-match")
        assert entry(dist, obs, (1, 1)) == 0.5


def test_value_distribution_aggregates():
    dist, obs = preset("bernoulli-product")
    vals, probs = value_distribution(dist, obs)
    assert vals.tolist() == [-0.25, 0.75]
    assert probs.tolist() == pytest.approx([0.75, 0.25], abs=1e-15)
    assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-14)


CELL_FUNCTIONS = {
    "product": lambda *xs: math.prod(xs),
    "indicator_equal": lambda *xs: 1.0 if len(set(xs)) == 1 else 0.0,
    "constant": lambda *xs: -0.0,
}


@pytest.mark.parametrize("ell", range(1, 7))
@pytest.mark.parametrize("s", range(1, 6))
def test_tables_match_the_per_cell_loop(s, ell):
    # support points -0.0 and 2.5 give product cells -0.0 and +0.0
    rng = np.random.default_rng(10 * s + ell)
    values = np.sort(np.r_[-0.0, 2.5, rng.uniform(-3.0, 3.0, max(0, s - 2))][:s])
    dist = FiniteDistribution(values=tuple(values), probs=(1.0 / s,) * s)
    built = {
        "product": product_observable(dist, ell),
        "indicator_equal": indicator_equal_observable(dist, ell),
        "constant": constant_observable(dist, -0.0, ell),
    }
    for kind, obs in built.items():
        want = oracles.cell_table(dist, ell, CELL_FUNCTIONS[kind])
        assert obs.table.tobytes() == want.tobytes(), kind
    product = built["product"].table
    assert s == 1 or np.signbit(product[product == 0.0]).any()


def test_overflowing_product_table_is_input_error():
    d = FiniteDistribution(values=(1e200, 1e300), probs=(0.5, 0.5))
    with pytest.raises(InputError, match="must be finite"):
        product_observable(d, 2)  # and no overflow warning


def test_table_budget_guard():
    d = FiniteDistribution(values=tuple(range(10)), probs=(0.1,) * 10)
    with pytest.raises(CapacityError):
        constant_observable(d, 0.0, 7)


@pytest.mark.parametrize("s,ell", [(10, 6), (1000, 2), (2, 19), (10, 7), (1001, 2), (2, 20)])
def test_cell_limit_boundary(s, ell):
    # s**ell = TABLE_CELL_LIMIT is the largest table allowed
    d = FiniteDistribution(values=tuple(range(s)), probs=(1.0 / s,) * s)
    if s**ell <= TABLE_CELL_LIMIT:
        assert tuple_weights(d, ell).size == s**ell
    else:
        with pytest.raises(CapacityError, match=rf"table with {s}\*\*{ell} cells exceeds limit"):
            tuple_weights(d, ell)


@pytest.mark.parametrize("ell", [7, 10**6, 10**30])
def test_huge_ell_is_rejected_without_the_power(ell):
    d = FiniteDistribution(values=tuple(range(10)), probs=(0.1,) * 10)
    with pytest.raises(CapacityError):
        constant_observable(d, 0.0, ell)
    with pytest.raises(InputError, match="table must have"):  # wrong size before too large
        observable_from_table(d, ell, [0.0] * 10)


class TestOnePointSupport:
    """One point gives one cell at any ell, so ell itself is capped."""

    ONE = FiniteDistribution(values=(1.0,), probs=(1.0,))

    def test_ell_at_the_limit_builds(self):
        obs = from_spec({"values": [1], "probs": [1], "ell": ELL_LIMIT, "kind": "product"})[1]
        assert obs.table.tolist() == [1.0] and obs.ell == ELL_LIMIT
        assert tuple_weights(self.ONE, ELL_LIMIT).tolist() == [1.0]

    @pytest.mark.parametrize("ell", [ELL_LIMIT + 1, 10**9, int("1" * 30)])
    @pytest.mark.parametrize("kind", ["table", "product", "indicator_equal"])
    def test_past_the_limit_is_capacity_error(self, kind, ell):
        spec = {"values": [1], "probs": [1], "ell": ell, "kind": kind, "table": [0.5]}
        with pytest.raises(CapacityError, match=f"ell={ell} on a one-point support"):
            from_spec(spec)
        with pytest.raises(CapacityError):
            tuple_weights(self.ONE, ell)


class TestDyadicExponent:
    @pytest.mark.parametrize(
        "table",
        [
            [1.0, 2.0**-50, 0.0, -0.0],
            [0.55, -0.85, 0.95, 2.15],
            [2.0**1000, -(2.0**1000), 0.0, 2.0**900],
            [5e-324, 0.0, 1.0, 3 * 5e-324],
            [0.0, -0.0, 0.0, 0.0],
            [-3.0, 6.0, 12.0, 2.0**60 + 2.0**10],
            [1.5, -0.25, 0.75, 7.0],
            [float.fromhex("0x1.fffffffffffffp+1023"), 1.0, -1.0, 2.0],
        ],
    )
    def test_matches_integer_ratio(self, table):
        obs = observable_from_table(BERNOULLI, 2, table)
        assert obs.dyadic_exponent == oracles.dyadic_exponent(table)

    def test_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            table = rng.normal(size=4) * 2.0 ** rng.integers(-1070, 1000)
            table[rng.random(4) < 0.3] = np.round(table[0])
            obs = observable_from_table(BERNOULLI, 2, table)
            assert obs.dyadic_exponent == oracles.dyadic_exponent(table.tolist())

    def test_presets(self):
        assert preset("rademacher-product")[1].dyadic_exponent == 0
        assert preset("bernoulli-product", ell=3)[1].dyadic_exponent == 3
        neg = negated(RADEMACHER, center(product_observable(RADEMACHER, 2), RADEMACHER))
        assert neg.dyadic_exponent == 0


def test_indicator_equal_general_ell():
    obs = indicator_equal_observable(RADEMACHER, 3)
    assert entry(RADEMACHER, obs, (0, 0, 0)) == 1.0
    assert entry(RADEMACHER, obs, (0, 1, 0)) == 0.0


class TestSpecFiles:
    def test_product_kind(self):
        dist, obs = from_spec(
            {"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "product"}
        )
        assert np.array_equal(obs.table, product_observable(dist, 2).table)

    def test_table_kind(self):
        dist, obs = from_spec(
            {
                "values": [0, 1],
                "probs": [0.5, 0.5],
                "ell": 1,
                "kind": "table",
                "table": [-1.0, 1.0],
            }
        )
        assert obs.table.tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize(
        "spec",
        [
            {"values": [0, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "nope"},
            {"values": [0, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "table"},
            {"values": [0, 1], "probs": [0.5, 0.5], "kind": "product"},
            {
                "values": [0, 1],
                "probs": [0.5, 0.5],
                "ell": 2,
                "kind": "table",
                "table": [1.0, 2.0, 3.0],
            },
        ],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(InputError):
            from_spec(spec)

    def test_load_spec_file(self, tmp_path):
        import json

        p = tmp_path / "obs.json"
        p.write_text(
            json.dumps(
                {"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "product"}
            )
        )
        from ncsums.model import load_spec

        dist, obs = load_spec(p)
        assert obs.ell == 2

    def test_observable_from_table_validates_length(self):
        with pytest.raises(InputError):
            observable_from_table(RADEMACHER, 2, [1.0, 2.0])
