"""Factorization, primality and multiplicative helpers vs independent references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity.arith import Factorization, chi4, factorize, is_prime
from paucity.errors import ValidationError
from paucity.sieve import prime_mask, sieve_primes

import oracles
from oracles import divisor_chi4_sum, in_A, is_sum_two_squares, omega, phi, tau


def test_chi4_periodic():
    assert [chi4(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(ValidationError):
        chi4(0)
    with pytest.raises(ValidationError):
        chi4(-5)


def test_factorize_matches_trial_division():
    for n in range(1, 2001):
        expect = oracles.factorize_slow(n)
        got = factorize(n)
        assert got.value == n
        assert list(got.factors) == expect, n


def test_factorize_random_large():
    rng = np.random.default_rng(7)
    for n in rng.integers(2, 10**6, size=400):
        n = int(n)
        assert list(factorize(n).factors) == oracles.factorize_slow(n), n


ROOT_LIMIT = 31622  # sqrt(1e9)
ROOT_PRIMES = sieve_primes(ROOT_LIMIT)
ROOT_IS_PRIME = prime_mask(ROOT_LIMIT)


def _assert_factored_into_primes(n: int) -> None:
    """Checked by the sieve, not by trial division: every factor is prime by
    the sieve's bitmap, or, above its limit, has no sieved prime factor up
    to its root; the factors ascend strictly and multiply to n."""
    factors = factorize(n).factors
    product = 1
    for (p, _), (q, _) in zip(factors, factors[1:]):
        assert p < q, n
    for p, e in factors:
        if p <= ROOT_LIMIT:
            assert bool(ROOT_IS_PRIME[p]), (n, p)
        else:
            root = ROOT_PRIMES[ROOT_PRIMES * ROOT_PRIMES <= p]
            assert (p % root != 0).all(), (n, p)
        assert e >= 1, n
        product *= p**e
    assert product == n


def test_factorize_into_sieved_primes():
    for n in range(1, 20001):
        _assert_factored_into_primes(n)
    rng = np.random.default_rng(31)
    for n in rng.integers(2, 10**9, size=400):
        _assert_factored_into_primes(int(n))
    # The largest prime below 1e9, and the square of the largest prime below
    # its root.
    _assert_factored_into_primes(999999937)
    assert factorize(31607**2).factors == ((31607, 2),)


def test_factorize_bounds():
    assert factorize(1).factors == ()
    for n in (0, -1, -12):
        with pytest.raises(ValidationError):
            factorize(n)
    # No table bounds it: a prime above 2^31 is its own factorization.
    assert factorize(2**31 - 1).factors == ((2**31 - 1, 1),)


def test_arithmetic_functions_known_values():
    f12 = factorize(12)
    assert (omega(f12), tau(f12), phi(f12)) == (2, 6, 4)
    assert phi(factorize(1)) == 1
    assert tau(factorize(1)) == 1
    assert phi(factorize(97)) == 96
    euler = [phi(factorize(n)) for n in range(1, 11)]
    assert euler == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_divisor_chi4_sum_direct_loop():
    for n in range(1, 800):
        f = factorize(n)
        assert divisor_chi4_sum(f) == oracles.divisor_chi4_sum_slow(n), n


def test_is_prime_matches_oracle():
    assert [n for n in range(-2, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if oracles.is_prime_slow(n)
    ]
    assert [n for n in range(-2, 20001) if is_prime(n)] == sieve_primes(20000).tolist()


def test_predicate_classes():
    for n in range(1, 1200):
        f = factorize(n)
        assert in_A(f) == oracles.in_a_slow(n), n
        assert is_sum_two_squares(f) == oracles.two_squares_slow(n), n


def test_factorization_validation():
    with pytest.raises(ValidationError):
        Factorization(value=6, factors=((3, 1), (2, 1)))
    with pytest.raises(ValidationError):
        Factorization(value=12, factors=((2, 1), (3, 1)))


@settings(max_examples=60)
@given(st.integers(2, 140), st.integers(2, 140))
def test_divisor_chi4_sum_multiplicative(m, n):
    import math

    if math.gcd(m, n) != 1:
        return
    fm, fn, fmn = (factorize(k) for k in (m, n, m * n))
    assert divisor_chi4_sum(fmn) == divisor_chi4_sum(fm) * divisor_chi4_sum(fn)


@settings(max_examples=80)
@given(st.integers(1, 20000))
def test_spf_is_smallest_factor(n):
    f = factorize(n)
    if f.factors:
        smallest = f.factors[0][0]
        assert n % smallest == 0
        assert all(n % k for k in range(2, min(smallest, 200)))
