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
of the squares.  It lists only half the residues, by two symmetries: u and
d - u have the same square, and v and d - v are units together with the same
-v^2.  nu_oracle uses only that F is homogeneous, scanning one full row per
gcd class of n1 and counting (not deriving) the class sizes.  Both read the
shared read-only tables of _tables, built on the first oracle call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .arith import Factorization, chi4, is_prime
from .errors import CapacityError, ValidationError

# Largest moduli the exhaustive oracles accept.
NU_ORACLE_CAP = 3000
RHO_ORACLE_CAP = 10**5


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables shared by every oracle call, built on the first one.

    ramp[k] = k for k <= NU_ORACLE_CAP: the residues of nu_oracle and the
    divisor candidates of rho_oracle.  squares[u] = u^2 for u <=
    RHO_ORACLE_CAP // 2, the half of the residues that rho_oracle lists.
    """
    ramp = np.arange(max(NU_ORACLE_CAP, math.isqrt(RHO_ORACLE_CAP)) + 1, dtype=np.int64)
    squares = np.arange(RHO_ORACLE_CAP // 2 + 1, dtype=np.int64) ** 2
    for table in (ramp, squares):
        table.flags.writeable = False
    return ramp, squares


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

    u and d - u have the same square, and v and d - v are units together
    with the same -v^2, so only 0 <= u, v <= d // 2 are listed.  A bincount
    of u^2 mod d over that half, doubled, less one for u = 0 and one for
    u = d/2 (their own partners), counts the u mod d with each square; it is
    read at -v^2 for every listed v.  v is a unit when no divisor g > 1 of d
    divides it: the divisors g up to isqrt(d) come from one vectorised d % g
    over the shared ramp, and each of them, its cofactor d // g and d itself
    strikes the reads at its multiples.  For d > 2 the half holds neither
    v = 0 nor v = d/2 as a unit, so the sum over its units counts each unit
    pair once and is doubled; for d <= 2 every listed v is its own partner.
    No factorization, CRT, multiplicativity, phi or square root of -1 is
    used.
    """
    if d < 1:
        raise ValidationError(f"rho_oracle needs d >= 1, got {d}")
    if d > RHO_ORACLE_CAP:
        raise CapacityError(f"rho_oracle modulus {d} exceeds cap {RHO_ORACLE_CAP}")
    ramp, squares = _tables()
    h = d // 2
    sq = squares[: h + 1] % d
    # counts[d] repeats counts[0], so counts[d - s] counts u^2 = -s for every s.
    counts = np.bincount(sq, minlength=d + 1)
    counts += counts
    counts[0] -= 1
    if d % 2 == 0:
        counts[sq[h]] -= 1
    counts[d] = counts[0]
    # hits[v] counts the u with u^2 = -v^2; the non-units v are struck to 0.
    hits = counts[d - sq]
    if d > 1:  # d itself divides only v = 0
        hits[0] = 0
    g = ramp[2 : math.isqrt(d) + 1]
    for k in g[d % g == 0].tolist():
        hits[::k] = 0
        hits[:: d // k] = 0
    half = int(hits.sum())
    return CongruenceCount(modulus=d, count=half if d <= 2 else 2 * half)


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
    counted by a bincount of gcd(n, delta) over all n mod delta, not derived
    from phi, the factorization or CRT, which are what the closed form rests
    on; its nonzero bins are the divisors g.  The count is delta^2 less the
    weighted nonzero cells.

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
    # Residues 1..delta, with delta standing for 0, so residue g sits at g - 1.
    n = _tables()[0][1 : delta + 1]
    sizes = np.bincount(np.gcd(n, delta))
    g = np.flatnonzero(sizes)
    vt = n * (params.t % delta) % delta
    vd = n * (params.d % delta) % delta
    rt, rd = vt[g - 1, None], vd[g - 1, None]
    prod = vt - (rd - delta)
    prod *= vd + rt
    prod *= rd + vt
    prod %= delta
    count = delta * delta - int(sizes[g] @ np.count_nonzero(prod, axis=1))
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
