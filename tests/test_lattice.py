import math

import numpy as np
import pytest

import oracles
from oracles import brute_smooth, lattice_count_recursion
from ncsums import lattice
from ncsums.errors import CapacityError, InputError
from ncsums.lattice import (
    PrimeBasis,
    d_count_int,
    fiber_order,
    fiber_sizes,
    ln_int,
    partition_check,
    primes_up_to,
    smooth_numbers,
    smooth_numbers_capped,
)

LN2 = math.log(2.0)


class TestPrimeBasis:
    def test_ell_2(self):
        b = primes_up_to(2)
        assert b.primes == (2,) and b.m == 1 and b.r_const == 0.5

    def test_ell_5(self):
        b = primes_up_to(5)
        assert b.primes == (2, 3, 5) and b.m == 3
        assert b.r_const == pytest.approx(4 / 15, abs=1e-15)

    def test_ell_1_empty(self):
        b = primes_up_to(1)
        assert b.primes == () and b.m == 0 and b.r_const == 1.0

    def test_invalid(self):
        with pytest.raises(InputError):
            primes_up_to(0)

    def test_sieve_matches_trial_division(self):
        primes = []
        for n in range(2, 3001):
            if all(n % p for p in primes):
                primes.append(n)
            b = primes_up_to(n)
            assert b.primes == tuple(primes) and b.m == len(primes)
            assert all(type(p) is int for p in b.primes[-1:])
        assert b.r_const == math.prod(1.0 - 1.0 / p for p in primes)


class TestSmoothNumbers:
    def test_powers_of_two(self):
        seq = smooth_numbers(primes_up_to(2), 5)
        assert seq.h == (1, 2, 4, 8, 16, 32)

    def test_three_smooth_merge(self):
        seq = smooth_numbers(primes_up_to(3), 8)
        assert seq.h == (1, 2, 3, 4, 6, 8, 9, 12, 16)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_against_brute_enumeration(self, ell):
        basis = primes_up_to(ell)
        expected = brute_smooth(basis.primes, 10**4)
        seq = smooth_numbers(basis, len(expected) - 1)
        assert list(seq.h) == expected

    @pytest.mark.parametrize("ell", [2, 3, 7, 30, 97, 1000])
    def test_merge_grown_by_count_then_by_bound(self, ell, monkeypatch):
        # a fresh cache, grown first to a count and then on from its heap to a bound
        monkeypatch.setattr(lattice, "_smooth_cache", {})
        primes = primes_up_to(ell).primes
        expected = brute_smooth(primes, 3000)
        h = lattice._smooth_prefix(primes, count=len(expected) // 3)
        assert h[: len(expected) // 3] == expected[: len(expected) // 3]
        h = lattice._smooth_prefix(primes, bound=3000)
        assert h[: len(expected)] == expected and h[len(expected)] > 3000
        assert h[len(expected)] == min(p * v for p in primes for v in expected if p * v > 3000)
        assert lattice._smooth_prefix(primes, count=5) is h  # the cached list

    def test_capacity_error_names_overflow(self):
        with pytest.raises(CapacityError):
            smooth_numbers(primes_up_to(2), 200)

    def test_capped_variant_stops_quietly(self):
        seq = smooth_numbers_capped(primes_up_to(2), 500)
        assert len(seq.h) == 128  # 2**127 is the largest power of two under the cap
        assert seq.h[-1] == 2**127

    def test_preconditions(self):
        with pytest.raises(InputError):
            smooth_numbers(primes_up_to(2), 0)
        with pytest.raises(InputError):
            smooth_numbers(primes_up_to(1), 3)


class TestRhoBounds:
    def test_ell2_equality(self):
        seq = smooth_numbers_capped(primes_up_to(2), 120)
        for l in range(1, 101):
            assert seq.rho_min(l) == (l - 1) * LN2
            assert seq.weight(l) == 2.0**-l

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_lattice_lower_bound(self, ell):
        basis = primes_up_to(ell)
        seq = smooth_numbers_capped(basis, 500)
        for l in range(1, len(seq.h)):
            assert seq.rho_max(l) > seq.rho_min(l)
            assert seq.rho_min(l) >= (l ** (1.0 / basis.m) - 1.0) * LN2 - 1e-12


class TestDCount:
    def test_examples(self):
        assert d_count_int(primes_up_to(2), 8) == 4
        assert d_count_int(primes_up_to(3), 6) == 5
        assert d_count_int(primes_up_to(5), 1) == 1
        assert d_count_int(primes_up_to(1), 40) == 1

    def test_negative_rho(self):
        # a bound x < 1 is a negative rho = ln x
        with pytest.raises(InputError):
            d_count_int(primes_up_to(2), 0)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_against_recursion_oracle(self, ell):
        basis = primes_up_to(ell)
        for k in range(1, 2001):
            assert d_count_int(basis, k) == lattice_count_recursion(basis.primes, k)

    def test_real_rho_at_integers(self):
        # the rho brackets of SmoothSequence count as the integers do: at
        # rho = ln k exactly d_count_int(k) of the rho_min(l) are <= rho
        basis = primes_up_to(3)
        seq = smooth_numbers(basis, 60)
        for k in range(1, 200):
            rho = ln_int(k)
            assert sum(seq.rho_min(l) <= rho for l in range(1, 61)) == d_count_int(basis, k)

    def test_counts_step_at_smooth_numbers(self):
        basis = primes_up_to(3)
        seq = smooth_numbers(basis, 30)
        for l in range(1, 31):
            assert d_count_int(basis, seq.h[l - 1]) == l


class TestCoprimeAndFibers:
    def test_coprime_examples(self):
        assert fiber_sizes(primes_up_to(2), 10)[0].tolist() == [1, 3, 5, 7, 9]
        assert fiber_sizes(primes_up_to(3), 10)[0].tolist() == [1, 5, 7]
        assert fiber_sizes(primes_up_to(1), 4)[0].tolist() == [1, 2, 3, 4]

    def test_b_set_examples(self):
        # B_10(1) = {1, 2, 4, 8}, B_10(3) = {3, 6}, B_10(5) = {5, 10}
        assert fiber_sizes(primes_up_to(2), 10)[1].tolist() == [4, 2, 2, 1, 1]
        # B_12(1) = {1, 2, 3, 4, 6, 8, 9, 12}, B_12(5) = {5, 10}
        assert fiber_sizes(primes_up_to(3), 12)[1].tolist() == [8, 2, 1, 1]
        # no primes: each fiber is {a}
        assert fiber_sizes(primes_up_to(1), 10)[1].tolist() == [1] * 10

    def test_b_set_rejects_non_coprime(self):
        # B_N(a) is defined for a coprime to the basis only: 6 has no fiber
        a, _ = fiber_sizes(primes_up_to(3), 20)
        assert a.tolist() == [1, 5, 7, 11, 13, 17, 19]

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_fiber_size_equals_d_count(self, ell):
        basis = primes_up_to(ell)
        N = 500
        smooth = brute_smooth(basis.primes, N)
        a_arr, sizes = fiber_sizes(basis, N)
        coprime = [a for a in range(1, N + 1) if math.gcd(a, math.prod(basis.primes)) == 1]
        assert a_arr.tolist() == coprime
        for a, size in zip(a_arr.tolist(), sizes.tolist()):
            assert size == sum(1 for h in smooth if a * h <= N) == d_count_int(basis, N // a)

    def test_fiber_order_examples(self):
        # B_10(1), B_10(3), B_10(5), B_10(7), B_10(9) in turn
        assert fiber_order(primes_up_to(2), 10).tolist() == [1, 2, 4, 8, 3, 6, 5, 10, 7, 9]
        assert fiber_order(primes_up_to(3), 12).tolist() == [1, 2, 3, 4, 6, 8, 9, 12, 5, 10, 7, 11]
        assert fiber_order(primes_up_to(1), 5).tolist() == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("ell,N", [(1, 30), (2, 1), (2, 600), (3, 1000), (5, 777)])
    def test_fiber_order_is_the_fibers_in_turn(self, ell, N):
        basis = primes_up_to(ell)
        smooth = brute_smooth(basis.primes, N)
        coprime = [a for a in range(1, N + 1) if math.gcd(a, math.prod(basis.primes)) == 1]
        want = [a * h for a in coprime for h in smooth if a * h <= N]
        got = fiber_order(basis, N)
        assert got.dtype == np.int64 and got.tolist() == want
        assert sorted(want) == list(range(1, N + 1))

    @pytest.mark.parametrize("ell,N", [(2, 100), (3, 1000), (5, 10**4), (1, 50)])
    def test_partition(self, ell, N):
        basis = primes_up_to(ell)
        assert partition_check(basis, N)
        _, sizes = fiber_sizes(basis, N)
        assert int(sizes.sum()) == N

    # past 2**18 products, (2, 10**6) takes h = 1 and 2 one at a time and
    # (50, 300000) splits its run of h into two blocks
    @pytest.mark.parametrize(
        "ell,N", [(1, 50), (2, 1000), (2, 10**6), (3, 12345), (7, 10**5), (50, 300_000)]
    )
    def test_partition_matches_the_loop(self, ell, N):
        basis = primes_up_to(ell)
        assert partition_check(basis, N) == oracles.partition_check(basis.primes, N)

    @pytest.mark.parametrize("primes", [(2, 6), (4, 6)])
    def test_partition_fails_where_factorizations_repeat(self, primes):
        # 12 = 3 * 4 = 2 * 6: a basis that is not prime counts some b twice
        basis = PrimeBasis(ell=6, primes=primes, m=2, r_const=0.5)
        assert not oracles.partition_check(primes, 200)
        assert not partition_check(basis, 200)


def window_reads(m, b, ell):
    """The draws j*k, j <= ell, that window positions m < k <= m + b read, with repeats."""
    return [j * k for k in range(m + 1, m + b + 1) for j in range(1, ell + 1)]


def windows_iid(m, b, ell):
    """True iff no draw is read by two window positions, by brute force."""
    reads = window_reads(m, b, ell)
    return len(set(reads)) == len(reads)


class TestWindows:
    def test_index_set(self):
        assert set(window_reads(10, 3, 2)) == {11, 12, 13, 22, 24, 26}

    def test_examples(self):
        assert windows_iid(10, 3, 2)  # m > (ell-1)*b
        assert not windows_iid(1, 3, 2)  # 2*2 = 1*4 collides
        assert windows_iid(0, 50, 1)

    def test_sufficient_condition_exhaustive(self):
        for ell in range(1, 6):
            for b in range(1, 21):
                for m in range((ell - 1) * b + 1, 201):
                    assert windows_iid(m, b, ell), (m, b, ell)

    def test_collisions_below_threshold(self):
        # doubling collisions k = 2*k' inside the window when m is small
        for b in (3, 5, 10):
            assert not windows_iid(1, b, 2)


def test_ln_int_matches_log():
    for x in (1, 2, 3, 17, 2**40, 3**30, 2**90 + 12345):
        assert ln_int(x) == pytest.approx(math.log(x), rel=1e-15)
    assert ln_int(2**99) == 99 * LN2
