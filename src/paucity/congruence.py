"""Congruence counts for the quadratic forms behind the off-diagonal sieve.

rho(d) counts residue pairs (u, v) mod d with u^2 + v^2 = 0 and gcd(v, d) = 1;
it is multiplicative with rho(p^a) = (1 + chi4(p)) phi(p^a) for odd p and
rho(2) = 1, rho(2^a) = 0 for a >= 2.

nu(delta) counts pairs (n1, n2) mod delta annihilating the product
F = (n2 t - n1 d)(n2 d + n1 t)(n1 d + n2 t) for a fixed coprime pair (t, d).
For an odd prime p each factor is a line (p points) through the origin, and
two of the lines coincide exactly when p divides td, t^2 - d^2 or t^2 + d^2.
For coprime (t, d) at most one of these holds, and for p = 3 mod 4,
p | t^2 + d^2 would force p | t and p | d.  So nu(p) = 2p - 1 when
p | td(t^2 - d^2)(t^2 + d^2) and 3p - 2 otherwise, in every residue class.

The exhaustive oracles assume neither multiplicativity, CRT, phi, square
roots of -1 nor any factorization.  rho_oracle counts every residue pair: it
finds the units mod d by striking the multiples of every divisor g > 1 of d
(divisors found by trial, not by factoring) and looks up -v^2 in a bincount
of the squares.  nu_oracle uses only that F is homogeneous, scanning one full
row per gcd class of n1 and counting (not deriving) the class sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Factorization, chi4, is_prime
from .errors import CapacityError, ValidationError

# Largest moduli the exhaustive oracles accept.
NU_ORACLE_CAP = 3000
RHO_ORACLE_CAP = 10**5


@dataclass(frozen=True)
class CongruenceCount:
    """A counted congruence solution total for one modulus."""

    modulus: int
    count: int

    def __post_init__(self) -> None:
        if not 0 <= self.count <= self.modulus**2:
            raise ValidationError(f"count {self.count} outside [0, {self.modulus}^2]")


@dataclass(frozen=True)
class FormParams:
    """The coprime pair (t, d) fixing the three linear forms."""

    t: int
    d: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.d < 1:
            raise ValidationError(f"(t, d) must be positive, got ({self.t}, {self.d})")
        if math.gcd(self.t, self.d) != 1:
            raise ValidationError(f"(t, d) must be coprime, got ({self.t}, {self.d})")


def rho_closed(f: Factorization) -> CongruenceCount:
    """rho(d) from the factorization of d, via multiplicativity."""
    count = 1
    for p, e in f.factors:
        count *= (e == 1) if p == 2 else (1 + chi4(p)) * (p - 1) * p ** (e - 1)
    return CongruenceCount(modulus=f.value, count=count)


def rho_oracle(d: int) -> CongruenceCount:
    """Exhaustive rho(d): counts every residue pair (u, v) mod d.

    v is a unit when no divisor g > 1 of d divides it.  The divisors g up to
    isqrt(d) are found by one vectorised d % g, and each of them, its
    cofactor d // g and d itself strikes its multiples from the unit mask.
    A bincount of u^2 mod d then gives, for every unit v, the number of u
    with u^2 = -v^2 mod d.  No factorization, CRT, multiplicativity, phi or
    square root of -1 is used.
    """
    if d < 1:
        raise ValidationError(f"rho_oracle needs d >= 1, got {d}")
    if d > RHO_ORACLE_CAP:
        raise CapacityError(f"rho_oracle modulus {d} exceeds cap {RHO_ORACLE_CAP}")
    u = np.arange(d, dtype=np.int64)
    sq = u * u % d
    # squares[d] repeats squares[0], so squares[d - s] counts u^2 = -s for every s.
    squares = np.bincount(sq, minlength=d + 1)
    squares[d] = squares[0]
    unit = np.ones(d, dtype=bool)
    if d > 1:  # d itself divides only v = 0
        unit[0] = False
    g = np.arange(2, math.isqrt(d) + 1)
    for k in g[d % g == 0].tolist():
        unit[::k] = False
        unit[:: d // k] = False
    count = int(squares[d - sq[unit]].sum())
    return CongruenceCount(modulus=d, count=count)


def nu_prime_closed(p: int, params: FormParams) -> CongruenceCount:
    """nu(p) by the line-counting closed form.

    2 for p = 2 with t, d both odd, 3 for p = 2 otherwise; for odd p,
    2p - 1 when p | td(t^2 - d^2)(t^2 + d^2), else 3p - 2 (three distinct
    lines through the origin).
    """
    if not is_prime(p):
        raise ValidationError(f"nu_prime_closed needs a prime, got {p}")
    t, d = params.t, params.d
    if p == 2:
        count = 2 if (t & 1) and (d & 1) else 3
        return CongruenceCount(modulus=2, count=count)
    t, d = t % p, d % p
    count = 3 * p - 2 if t * d * (t * t - d * d) * (t * t + d * d) % p else 2 * p - 1
    return CongruenceCount(modulus=p, count=count)


def nu_oracle(delta: int, params: FormParams) -> CongruenceCount:
    """Exhaustive nu(delta): one full row of n2 per gcd class of n1 mod delta.

    F is homogeneous of degree 3, so for a unit u mod delta the map
    n2 -> u*n2 sends the zeros of row n1 one-to-one onto the zeros of row
    u*n1; every n1 with gcd(n1, delta) = g is such a u*g.  The oracle
    therefore scans the rows g mod delta for the divisors g of delta, every
    n2 of each, and weights each row by its class size.  The class sizes are
    counted from gcd(n, delta) over all n mod delta, not derived from phi,
    the factorization or CRT, which are what the closed form rests on.

    The linear forms are assembled from pre-reduced vectors (k*t) mod delta
    and (k*d) mod delta, shifted into [0, 2*delta), so each cell needs a
    single modulo; 8*delta^3 stays well inside int64.  F mod delta depends
    only on t and d mod delta, so they are reduced first and parameters of
    any size stay exact.
    """
    if delta < 1:
        raise ValidationError(f"nu_oracle needs delta >= 1, got {delta}")
    if delta > NU_ORACLE_CAP:
        raise CapacityError(f"nu_oracle modulus {delta} exceeds cap {NU_ORACLE_CAP}")
    n = np.arange(delta, dtype=np.int64)
    g, sizes = np.unique(np.gcd(n, delta), return_counts=True)
    rows = g % delta
    vt = (n * (params.t % delta)) % delta
    vd = (n * (params.d % delta)) % delta
    prod = vt[None, :] - (vd[rows, None] - delta)
    prod *= vd[None, :] + vt[rows, None]
    prod *= vd[rows, None] + vt[None, :]
    prod %= delta
    zeros = delta - np.count_nonzero(prod, axis=1)
    count = int(sizes @ zeros)
    return CongruenceCount(modulus=delta, count=count)


def nu_closed(f: Factorization, params: FormParams) -> CongruenceCount:
    """nu(delta) for squarefree delta, from its factorization, as the product
    of nu(p) over p | delta."""
    count = 1
    for p, e in f.factors:
        if e > 1:
            raise ValidationError(f"nu_closed needs squarefree delta, got {f.value}")
        count *= nu_prime_closed(p, params).count
    return CongruenceCount(modulus=f.value, count=count)
