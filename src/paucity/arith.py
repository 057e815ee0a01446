"""Elementary multiplicative machinery shared by every other module.

Everything here is exact integer arithmetic on single integers: the
non-principal character mod 4, trial-division primality, smallest-prime-factor
tables and factorizations.  The congruence closed forms factor through these,
and the tests factor with them to check the sieve's multiplicative arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

# Hard cap for table builds; a table of this size costs ~4 GB of int32.
MAX_TABLE_LIMIT = 1 << 30


def chi4(n: int) -> int:
    """Non-principal Dirichlet character mod 4: 1, 0, -1, 0 on 1, 2, 3, 0 mod 4."""
    if n < 1:
        raise ValidationError(f"chi4 needs n >= 1, got {n}")
    r = n & 3
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def is_prime(n: int) -> bool:
    """Primality by trial division over odd factors up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of `value` as an ascending tuple of (prime, exponent)."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValidationError(f"value must be >= 1, got {self.value}")
        prev = 1
        prod = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValidationError(f"factors of {self.value} not strictly ascending")
            if e < 1:
                raise ValidationError(f"exponent {e} of prime {p} must be >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValidationError(f"factors multiply to {prod}, not {self.value}")


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 2..limit; spf[p] = p exactly when p is prime.

    Entries 0 and 1 are sentinels (0) and must not be consulted.
    """

    limit: int
    spf: np.ndarray


def build_spf_table(limit: int) -> SpfTable:
    """Sieve smallest prime factors up to `limit` (inclusive).

    Parameters
    ----------
    limit : int
        Largest value the table can factor, >= 2.

    Returns
    -------
    SpfTable
    """
    if limit < 2:
        raise ValidationError(f"spf table needs limit >= 2, got {limit}")
    if limit > MAX_TABLE_LIMIT:
        raise CapacityError(f"spf table limit {limit} exceeds cap {MAX_TABLE_LIMIT}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            sl = spf[p * p :: 2 * p]
            sl[sl == 0] = p
    # Whatever is still unset is an odd prime above sqrt(limit) (or 1).
    rest = np.flatnonzero(spf == 0)
    rest = rest[rest >= 2]
    spf[rest] = rest
    return SpfTable(limit=limit, spf=spf)


def factorize(n: int, table: SpfTable) -> Factorization:
    """Factor n by walking the smallest-prime-factor table.

    Accepts 1 <= n <= table.limit; n = 1 yields the empty factorization.
    """
    if n < 1 or n > table.limit:
        raise ValidationError(f"factorize needs 1 <= n <= {table.limit}, got {n}")
    spf = table.spf
    factors: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return Factorization(value=n, factors=tuple(factors))
