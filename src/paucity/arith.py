"""Exact integer arithmetic on single integers: the non-principal character
mod 4, and factorization and primality by trial division, with no table.

Only `congruence` and the `congruence` command import it: the closed forms
factor through it.  The tests also factor with it to check the sieve's
multiplicative arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


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
    """Primality by trial division: n >= 2 is its own only prime factor."""
    return n >= 2 and factorize(n).factors == ((n, 1),)


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


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division: 2, then each odd f with f^2 <= m,
    the part still unfactored; an m > 1 left over is prime.  n = 1 yields
    the empty factorization."""
    if n < 1:
        raise ValidationError(f"factorize needs n >= 1, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            factors.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(value=n, factors=tuple(factors))
