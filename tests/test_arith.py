"""Factorization table and multiplicative helpers vs trial division."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity.arith import Factorization, build_spf_table, chi4, factorize, is_prime
from paucity.errors import ValidationError

import oracles
from oracles import divisor_chi4_sum, in_A, is_sum_two_squares, omega, phi, tau

TABLE = build_spf_table(20000)


def test_chi4_periodic():
    assert [chi4(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(ValidationError):
        chi4(0)
    with pytest.raises(ValidationError):
        chi4(-5)


def test_factorize_matches_trial_division():
    for n in range(1, 2001):
        expect = oracles.factorize_slow(n)
        got = factorize(n, TABLE)
        assert got.value == n
        assert list(got.factors) == expect, n


def test_factorize_random_large():
    rng = np.random.default_rng(7)
    big = build_spf_table(10**6)
    for n in rng.integers(2, 10**6, size=400):
        n = int(n)
        assert list(factorize(n, big).factors) == oracles.factorize_slow(n), n


def test_factorize_bounds():
    assert factorize(1, TABLE).factors == ()
    with pytest.raises(ValidationError):
        factorize(0, TABLE)
    with pytest.raises(ValidationError):
        factorize(TABLE.limit + 1, TABLE)


def test_arithmetic_functions_known_values():
    f12 = factorize(12, TABLE)
    assert (omega(f12), tau(f12), phi(f12)) == (2, 6, 4)
    assert phi(factorize(1, TABLE)) == 1
    assert tau(factorize(1, TABLE)) == 1
    assert phi(factorize(97, TABLE)) == 96
    euler = [phi(factorize(n, TABLE)) for n in range(1, 11)]
    assert euler == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_divisor_chi4_sum_direct_loop():
    for n in range(1, 800):
        f = factorize(n, TABLE)
        assert divisor_chi4_sum(f) == oracles.divisor_chi4_sum_slow(n), n


def test_is_prime_matches_oracle():
    assert [n for n in range(-2, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if oracles.is_prime_slow(n)
    ]


def test_predicate_classes():
    for n in range(1, 1200):
        f = factorize(n, TABLE)
        assert in_A(f) == oracles.in_a_slow(n), n
        assert is_sum_two_squares(f) == oracles.two_squares_slow(n), n


def test_factorization_validation():
    with pytest.raises(ValidationError):
        Factorization(value=6, factors=((3, 1), (2, 1)))
    with pytest.raises(ValidationError):
        Factorization(value=12, factors=((2, 1), (3, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 140), st.integers(2, 140))
def test_divisor_chi4_sum_multiplicative(m, n):
    import math

    if math.gcd(m, n) != 1:
        return
    fm, fn, fmn = (factorize(k, TABLE) for k in (m, n, m * n))
    assert divisor_chi4_sum(fmn) == divisor_chi4_sum(fm) * divisor_chi4_sum(fn)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20000))
def test_spf_is_smallest_factor(n):
    f = factorize(n, TABLE)
    if f.factors:
        smallest = f.factors[0][0]
        assert n % smallest == 0
        assert all(n % k for k in range(2, min(smallest, 200)))
