import math

import pytest

from oracles import brute_smooth, lattice_count_recursion
from ncsums.errors import CapacityError, InputError
from ncsums.lattice import (
    b_set,
    coprime_set,
    d_count,
    d_count_int,
    fiber_sizes,
    ln_int,
    partition_check,
    primes_up_to,
    smooth_numbers,
    smooth_numbers_capped,
    window_index_set,
    windows_iid,
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
            assert seq.weight_fraction(l) == pytest.approx(2.0**-l)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_lattice_lower_bound(self, ell):
        basis = primes_up_to(ell)
        seq = smooth_numbers_capped(basis, 500)
        for l in range(1, len(seq.h)):
            assert seq.rho_max(l) > seq.rho_min(l)
            assert seq.rho_min(l) >= (l ** (1.0 / basis.m) - 1.0) * LN2 - 1e-12


class TestDCount:
    def test_examples(self):
        assert d_count(primes_up_to(2), math.log(8)) == 4
        assert d_count(primes_up_to(3), math.log(6)) == 5
        assert d_count(primes_up_to(5), 0.0) == 1
        assert d_count(primes_up_to(1), 3.7) == 1

    def test_negative_rho(self):
        with pytest.raises(InputError):
            d_count(primes_up_to(2), -0.1)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_against_recursion_oracle(self, ell):
        basis = primes_up_to(ell)
        for k in range(1, 2001):
            assert d_count_int(basis, k) == lattice_count_recursion(basis.primes, k)

    def test_real_rho_at_integers(self):
        basis = primes_up_to(3)
        for k in range(1, 200):
            assert d_count(basis, math.log(k)) == d_count_int(basis, k)

    def test_counts_step_at_smooth_numbers(self):
        basis = primes_up_to(3)
        seq = smooth_numbers(basis, 30)
        for l in range(1, 31):
            assert d_count_int(basis, seq.h[l - 1]) == l


class TestCoprimeAndFibers:
    def test_coprime_examples(self):
        assert coprime_set(primes_up_to(2), 10) == [1, 3, 5, 7, 9]
        assert coprime_set(primes_up_to(3), 10) == [1, 5, 7]
        assert coprime_set(primes_up_to(1), 4) == [1, 2, 3, 4]

    def test_b_set_examples(self):
        assert b_set(primes_up_to(2), 1, 10) == [1, 2, 4, 8]
        assert b_set(primes_up_to(2), 3, 10) == [3, 6]
        assert b_set(primes_up_to(3), 1, 12) == [1, 2, 3, 4, 6, 8, 9, 12]
        assert b_set(primes_up_to(1), 3, 10) == [3]  # no primes: each fiber is {a}

    def test_b_set_rejects_non_coprime(self):
        with pytest.raises(InputError):
            b_set(primes_up_to(3), 6, 20)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_fiber_size_equals_d_count(self, ell):
        basis = primes_up_to(ell)
        N = 500
        for a in coprime_set(basis, N):
            assert len(b_set(basis, a, N)) == d_count_int(basis, N // a)

    @pytest.mark.parametrize("ell,N", [(2, 100), (3, 1000), (5, 10**4), (1, 50)])
    def test_partition(self, ell, N):
        basis = primes_up_to(ell)
        assert partition_check(basis, N)
        _, sizes = fiber_sizes(basis, N)
        assert int(sizes.sum()) == N


class TestWindows:
    def test_index_set(self):
        assert window_index_set(10, 3, 2) == {11, 12, 13, 22, 24, 26}

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
