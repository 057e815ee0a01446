"""Closed-form congruence counts vs exhaustive residue scans."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity import congruence
from paucity.arith import factorize
from paucity.congruence import (
    NU_ORACLE_CAP,
    RHO_ORACLE_CAP,
    CongruenceCount,
    FormParams,
    nu_closed,
    nu_oracle,
    nu_prime_closed,
    rho_closed,
    rho_oracle,
)
from paucity.errors import CapacityError, ValidationError

import oracles


def test_rho_known_values():
    want = {1: 1, 2: 1, 3: 0, 4: 0, 5: 8, 8: 0, 9: 0, 10: 8, 13: 24, 25: 40, 65: 192}
    for d, expect in want.items():
        assert rho_closed(factorize(d)).count == expect, d
        assert rho_oracle(d).count == expect, d


def test_rho_closed_matches_oracle_small():
    for d in range(1, 601):
        assert rho_closed(factorize(d)).count == rho_oracle(d).count, d


def test_rho_oracle_matches_pure_loop():
    for d in (1, 2, 4, 5, 12, 13, 25, 50, 65, 100, 121, 169):
        assert rho_oracle(d).count == oracles.rho_slow(d), d


def test_rho_oracle_matches_full_grid():
    # Up to 400, a prime d has only d itself to strike v = 0, and d = 2p has
    # only the cofactor p > isqrt(d) to strike the odd multiples of p.
    # 1105 = 5*13*17 has rho > 0 with three primes, 2310 and 4620 have five
    # prime factors, and 5000 = 2^3*5^4 has high prime powers.
    for d in [*range(1, 401), 1105, 2310, 4620, 5000]:
        assert rho_oracle(d).count == oracles.rho_grid(d), d


def test_rho_oracle_halving_edges_and_cap():
    # rho_oracle lists 0 <= u, v <= d // 2.  d <= 2 has no residue pairs to
    # fold; d = 4, 6 and 8 end an even half on its own partner u = d/2.  The
    # range up to the cap uses the end of the squares table; 2^16 has only
    # powers of 2 to strike, 2*49999 strikes the multiples of 49999 only
    # through the cofactor, and 4*24989 (24989 = 1 mod 4) pairs 4 with a
    # large prime.
    for d in [1, 2, 3, 4, 6, 8, *range(99990, RHO_ORACLE_CAP + 1), 65536, 2 * 49999, 4 * 24989]:
        assert rho_oracle(d).count == rho_closed(factorize(d)).count, d
    for table in congruence._tables():
        with pytest.raises(ValueError):
            table[0] = 1
    with pytest.raises(CapacityError):
        rho_oracle(RHO_ORACLE_CAP + 1)


def test_rho_multiplicative_bound():
    for d in range(1, 400):
        f = factorize(d)
        rho = rho_closed(f).count
        phi_d = math.prod((p - 1) * p ** (e - 1) for p, e in f.factors)
        assert 0 <= rho <= 2 ** len(f.factors) * phi_d, d


def test_nu_prime_all_classes_small():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23]:
        for t in range(1, p + 1):
            for d in range(1, p + 1):
                if math.gcd(t, d) != 1:
                    continue
                params = FormParams(t=t, d=d)
                closed = nu_prime_closed(p, params).count
                oracle = nu_oracle(p, params).count
                assert closed == oracle, (p, t, d)


def test_nu_prime_generic_value():
    # t, d invertible and in none of the special classes: three distinct
    # lines through the origin, 3p - 2 points.
    assert nu_prime_closed(7, FormParams(t=1, d=3)).count == 19
    assert nu_prime_closed(2, FormParams(t=1, d=2)).count == 3
    assert nu_prime_closed(2, FormParams(t=1, d=1)).count == 2


def test_nu_oracle_matches_pure_loop():
    # The last two t enter F only through t mod delta: near 2^62, n * t would
    # wrap in int64, and 10^23 + 1 does not fit it at all.
    pairs = ((1, 2), (2, 3), (3, 5), (4, 7), (4611686018427387905, 2), (10**23 + 1, 2))
    for delta in (2, 3, 6, 10, 15, 21, 30, 35):
        for t, d in pairs:
            assert nu_oracle(delta, FormParams(t, d)).count == oracles.nu_slow(
                delta, t, d
            ), (delta, t, d)


def test_nu_oracle_matches_full_grid():
    # Non-squarefree delta (4, 8, 9, 12, 27, 36, ...) included.  Among the
    # large moduli, 2310 and 2730 have the most prime factors below the cap,
    # 2520 the most divisors (48 row classes), and 3000 is the cap itself.
    pairs = ((1, 1), (1, 2), (3, 5), (7, 12), (11, 4))
    for delta in [*range(1, 301), 2310, 2520, 2730, 3000]:
        for t, d in pairs:
            assert nu_oracle(delta, FormParams(t, d)).count == oracles.nu_grid(
                delta, t, d
            ), (delta, t, d)


def test_nu_closed_squarefree_composites():
    for delta in (6, 10, 15, 21, 30, 33, 35, 66, 105, 210):
        for t, d in ((1, 2), (3, 4), (5, 6)):
            closed = nu_closed(factorize(delta), FormParams(t, d)).count
            oracle = nu_oracle(delta, FormParams(t, d)).count
            assert closed == oracle, (delta, t, d)


def test_closed_forms_at_huge_parameters():
    # t near 2^62 and past 2^64: the closed forms reduce t mod p before any
    # product, so they must agree with the oracle as at small t.
    primes = [p for p in range(2, 200) if all(p % k for k in range(2, p))]
    for t, d in ((4611686018427387905, 2), (10**23 + 1, 2)):
        params = FormParams(t, d)
        for p in primes:
            assert nu_prime_closed(p, params).count == nu_oracle(p, params).count, (p, t)
        for delta in (6, 10, 15, 21, 30, 33, 35, 66, 105, 210):
            closed = nu_closed(factorize(delta), params).count
            assert closed == nu_oracle(delta, params).count, (delta, t)


def test_nu_closed_rejects_square_factor():
    with pytest.raises(ValidationError):
        nu_closed(factorize(12), FormParams(t=1, d=2))
    with pytest.raises(ValidationError):
        nu_closed(factorize(49), FormParams(t=1, d=2))


def test_params_validation():
    with pytest.raises(ValidationError):
        FormParams(t=2, d=4)
    with pytest.raises(ValidationError):
        FormParams(t=0, d=1)
    with pytest.raises(ValidationError):
        FormParams(t=1, d=-2)


def test_oracle_bounds():
    params = FormParams(t=1, d=2)
    with pytest.raises(ValidationError):
        rho_oracle(0)
    with pytest.raises(ValidationError):
        nu_oracle(0, params)
    with pytest.raises(CapacityError):
        rho_oracle(RHO_ORACLE_CAP + 1)
    with pytest.raises(CapacityError):
        nu_oracle(NU_ORACLE_CAP + 1, params)


def test_count_type_validation():
    with pytest.raises(ValidationError):
        CongruenceCount(modulus=5, count=26)
    with pytest.raises(ValidationError):
        CongruenceCount(modulus=5, count=-1)


@settings(max_examples=50)
@given(st.integers(2, 97), st.integers(1, 30), st.integers(1, 30))
def test_nu_prime_upper_bound(p, t, d):
    if math.gcd(t, d) != 1:
        return
    if any(p % k == 0 for k in range(2, p)):
        return
    count = nu_prime_closed(p, FormParams(t, d)).count
    assert count <= 3 * p - 2
    assert count >= p if p > 2 else count >= 2
