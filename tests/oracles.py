"""Brute-force reference implementations used to pin expected values.

Everything here favours obviousness over speed: trial division, direct
divisor loops, exhaustive residue grids, quadruple loops over prime pairs.
Tests compare the package against these on small ranges; a handful of
frozen dictionaries below record values computed once with this module
(and cross-checked by hand where feasible).
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from paucity.arith import Factorization
from paucity.errors import ValidationError
from paucity.quadruples import ParamTuple, Quadruple
from paucity.sieve import SieveConfig, chi4_divisor_sums, pair_windows


def chi4_slow(n: int) -> int:
    return (0, 1, 0, -1)[n % 4]


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def eratosthenes(limit: int) -> np.ndarray:
    """is_prime[n] for 0 <= n <= limit: every n >= 2 struck at the multiples
    of each p <= sqrt(limit) still standing."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def catalan_fsum(eps: float) -> float:
    """Catalan's constant as constants.catalan sums it, term by term in
    integer arithmetic: math.fsum of 1/(4j+1)^2 - 1/(4j+3)^2 over its pairs."""
    pairs = int(math.ceil((1.0 / math.sqrt(eps) - 1.0) / 4.0)) + 1
    return math.fsum(1.0 / (4 * j + 1) ** 2 - 1.0 / (4 * j + 3) ** 2 for j in range(pairs))


def factorize_slow(n: int) -> list[tuple[int, int]]:
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def divisor_chi4_sum_slow(n: int) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += chi4_slow(d)
    return total


def in_a_slow(n: int) -> bool:
    """n composed only of primes congruent to 1 mod 4 (n = 1 included)."""
    return all(p % 4 == 1 for p, _ in factorize_slow(n))


def two_squares_slow(n: int) -> bool:
    """No prime 3 mod 4 to an odd exponent."""
    return all(e % 2 == 0 for p, e in factorize_slow(n) if p % 4 == 3)


# Multiplicative functions of a factorization from arith.factorize, which
# neither the sieve nor the census calls: the references for the sieve's
# multiplicative arrays and the LEMMA sums.


def omega(f: Factorization) -> int:
    """Number of distinct prime factors."""
    return len(f.factors)


def tau(f: Factorization) -> int:
    """Number of divisors."""
    out = 1
    for _, e in f.factors:
        out *= e + 1
    return out


def phi(f: Factorization) -> int:
    """Euler totient."""
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def in_A(f: Factorization) -> bool:
    """True when every prime factor is 1 mod 4 (vacuously true at n = 1)."""
    return all(p & 3 == 1 for p, _ in f.factors)


def is_sum_two_squares(f: Factorization) -> bool:
    """b(n): n is a sum of two integer squares, i.e. every p = 3 mod 4 has even exponent."""
    return all(e & 1 == 0 for p, e in f.factors if p & 3 == 3)


def divisor_chi4_sum(f: Factorization) -> int:
    """sum_{d | n} chi4(d), multiplicatively: (e+1) at p=1(4), parity gate at p=3(4)."""
    out = 1
    for p, e in f.factors:
        r = p & 3
        if r == 1:
            out *= e + 1
        elif r == 3 and e & 1 == 1:
            return 0
    return out


def multiplicative_slow(ns: np.ndarray) -> tuple[np.ndarray, ...]:
    """r0_div, omega, phi and in_a at each n of `ns` by trial division.

    Vectorised over `ns`: each prime p <= sqrt(max(ns)) is divided out to its
    full exponent e, which is then read off directly; what remains above 1
    is a single prime.
    """
    rest = np.array(ns, dtype=np.int64)
    r0d = np.ones(rest.size, dtype=np.int64)
    om = np.zeros(rest.size, dtype=np.int64)
    ph = np.ones(rest.size, dtype=np.int64)
    ina = np.ones(rest.size, dtype=bool)
    for p in filter(is_prime_slow, range(2, math.isqrt(int(rest.max())) + 1)):
        hit = rest % p == 0
        e = np.zeros(rest.size, dtype=np.int64)
        while hit.any():
            e += hit
            rest[hit] //= p
            hit = rest % p == 0
        om += e > 0
        ph *= np.where(e > 0, (p - 1) * p ** np.maximum(e - 1, 0), 1)
        if p % 4 == 1:
            r0d *= e + 1
        else:
            ina &= e == 0
            if p % 4 == 3:
                r0d *= e % 2 == 0
    big = rest > 1
    om += big
    ph *= np.where(big, rest - 1, 1)
    r0d *= np.where(big, 1 + np.array([0, 1, 0, -1])[rest % 4], 1)  # 1 + chi4(q)
    ina &= ~big | (rest % 4 == 1)
    return r0d, om, ph, ina


def r_arrays_slow(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Representation tallies on [0, limit] by direct enumeration.

    r0_pair counts ordered (a, b) with a, b >= 1 and a^2 + b^2 = n; r1
    additionally needs b prime, r2 needs both prime.  r0_div comes from a
    divisor-stride pass over chi4, a different route from the package's,
    which adds one to r0_pair at each square (Jacobi's two-square theorem).
    """
    r0 = np.zeros(limit + 1, dtype=np.int64)
    r1 = np.zeros(limit + 1, dtype=np.int64)
    r2 = np.zeros(limit + 1, dtype=np.int64)
    prime = [is_prime_slow(k) for k in range(int(math.isqrt(limit)) + 1)]
    a = 1
    while a * a + 1 <= limit:
        b = 1
        while a * a + b * b <= limit:
            n = a * a + b * b
            r0[n] += 1
            if prime[b]:
                r1[n] += 1
                if prime[a]:
                    r2[n] += 1
            b += 1
        a += 1
    r0d = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        c = chi4_slow(d)
        if c:
            r0d[d::d] += c
    r0d[0] = 0
    return r0, r0d, r1, r2


def dispersion_terms_dense(lo: int, r0: np.ndarray, r1: np.ndarray, c: float) -> np.ndarray:
    """(r1 - c r0 / log max(n, 2))^2 at every n = lo, lo + 1, ..., with the
    n = 1 slot zeroed: the DISPERSION term evaluated at every n."""
    n = np.arange(lo, lo + r1.size, dtype=np.float64)
    res = r1 - c * r0 / np.log(np.maximum(n, 2.0))
    if lo == 1:
        res[0] = 0.0
    return res * res


def lemma_terms_dense(
    lo: int, omega: np.ndarray, phi: np.ndarray, in_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """where(in_a, 2^omega, 0)/n and where(in_a, 2^omega, 0)/phi at every
    n = lo, lo + 1, ...: the LEMMA31 and LEMMA32 terms evaluated at every n."""
    weight = np.where(in_a, np.exp2(omega.astype(np.float64)), 0.0)
    n = np.arange(lo, lo + in_a.size, dtype=np.float64)
    return weight / n, weight / phi.astype(np.float64)


def spread_walk(lo: int, hi: int, walk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """omega, phi and in_a at every n = lo, ..., hi - 1 from `walk`, the
    compact arrays (on_a, omega_a, phi_a) of sieve.multiplicative_arrays on
    [lo, hi), spread to full width with omega 0 and phi 1 off A.

    The offsets must ascend strictly and lie in [0, hi - lo)."""
    width = hi - lo
    at, omega_a, phi_a = walk
    assert at.size == omega_a.size == phi_a.size
    assert (np.diff(at) > 0).all() and (at.size == 0 or 0 <= at[0] <= at[-1] < width)
    omega = np.zeros(width, dtype=np.int8)
    phi = np.ones(width, dtype=np.int32)
    in_a = np.zeros(width, dtype=bool)
    omega[at] = omega_a
    phi[at] = phi_a
    in_a[at] = True
    return omega, phi, in_a


def pair_tallies_loop(lo: int, hi: int, is_prime: np.ndarray) -> tuple[np.ndarray, ...]:
    """r0_pair, r1, r2 on [lo, hi) as int32, one numpy call per a.

    For each a <= sqrt(hi - 1), b runs over the whole range with
    lo <= a^2 + b^2 < hi and the three tallies are bumped by fancy indexing;
    `is_prime` must cover sqrt(hi - 1).
    """
    width = hi - lo
    r0 = np.zeros(width, dtype=np.int32)
    r1 = np.zeros(width, dtype=np.int32)
    r2 = np.zeros(width, dtype=np.int32)
    for a in range(1, math.isqrt(hi - 1) + 1):
        a2 = a * a
        bhi = math.isqrt(hi - 1 - a2) if a2 < hi - 1 else 0
        blo = 1 if a2 >= lo - 1 else math.isqrt(lo - 1 - a2) + 1
        if blo > bhi:
            continue
        b = np.arange(blo, bhi + 1, dtype=np.int64)
        idx = a2 + b * b - lo
        r0[idx] += 1
        prime_b = idx[is_prime[b]]
        r1[prime_b] += 1
        if is_prime[a]:
            r2[prime_b] += 1
    return r0, r1, r2


class Block(NamedTuple):
    """The tallies of [lo, hi), arrays indexed by n - lo."""

    lo: int
    hi: int
    r0_pair: np.ndarray
    r0_div: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


def joined_windows(lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """r0_pair, r1, r2 on [lo, hi) as uint16: the windows of
    sieve.pair_windows, checked to tile [lo, hi) in order, joined."""
    edge, parts = lo, []
    for s, e, *tallies in pair_windows(lo, hi):
        assert s == edge < e and all(t.shape == (e - s,) for t in tallies), (lo, hi, s, e)
        edge = e
        parts.append(tallies)
    assert edge == hi, (lo, hi, edge)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def blocks(cfg: SieveConfig) -> Iterator[Block]:
    """The Block of each (lo, hi) of cfg.block_ranges(), in order: the pair
    tallies from sieve.pair_windows, r0_div from sieve.chi4_divisor_sums."""
    for lo, hi in cfg.block_ranges():
        r0, r1, r2 = joined_windows(lo, hi)
        yield Block(lo, hi, r0, chi4_divisor_sums(lo, r0), r1, r2)


_DUMP_HEADER = struct.Struct("<4sIQQ")


def read_blocks(handle: BinaryIO) -> Iterator[Block]:
    """The Blocks of a `sieve` dump, record by record.  Version 2: magic
    "PCTY", version u32, lo u64, hi u64, then r0_pair, r1 and r2 as u16
    little-endian arrays of hi - lo entries; r0_div is derived as in blocks."""
    while head := handle.read(_DUMP_HEADER.size):
        magic, version, lo, hi = _DUMP_HEADER.unpack(head)
        assert (magic, version) == (b"PCTY", 2) and 1 <= lo < hi, (magic, version, lo, hi)
        r0, r1, r2 = (np.frombuffer(handle.read(2 * (hi - lo)), dtype="<u2") for _ in range(3))
        assert r0.size == r1.size == r2.size == hi - lo, "truncated block payload"
        yield Block(lo, hi, r0, chi4_divisor_sums(lo, r0), r1, r2)


def rho_slow(d: int) -> int:
    """#{(u, v) in [0, d)^2 : gcd(v, d) = 1, u^2 + v^2 = 0 mod d}."""
    count = 0
    for v in range(d):
        if math.gcd(v, d) != 1:
            continue
        w = (-v * v) % d
        for u in range(d):
            if (u * u) % d == w:
                count += 1
    return count


def rho_grid(d: int) -> int:
    """The count of rho_slow, evaluated with numpy over the full d x d grid.

    Every (u, v) cell is evaluated; units are found by np.gcd.
    """
    n = np.arange(d, dtype=np.int64)
    sq = n * n % d
    unit = np.gcd(n, d) == 1
    count = 0
    chunk = max(1, (1 << 22) // d)
    for start in range(0, d, chunk):
        rows = slice(start, min(start + chunk, d))
        zero = (sq[rows, None] + sq[None, :]) % d == 0
        count += int(np.count_nonzero(zero & unit[None, :]))
    return count


def nu_slow(delta: int, t: int, d: int) -> int:
    """#{(n1, n2) mod delta : (n2 t - n1 d)(n2 d + n1 t)(n1 d + n2 t) = 0 mod delta}."""
    count = 0
    for n1 in range(delta):
        for n2 in range(delta):
            f1 = (n2 * t - n1 * d) % delta
            f2 = (n2 * d + n1 * t) % delta
            f3 = (n1 * d + n2 * t) % delta
            if (f1 * f2 * f3) % delta == 0:
                count += 1
    return count


def nu_grid(delta: int, t: int, d: int) -> int:
    """The count of nu_slow, evaluated with numpy over the full delta x delta grid.

    Every (n1, n2) cell is evaluated; no row is inferred from another.
    """
    n = np.arange(delta, dtype=np.int64)
    vt = (n * t) % delta
    vd = (n * d) % delta
    count = 0
    chunk = max(1, (1 << 22) // delta)
    for start in range(0, delta, chunk):
        rows = slice(start, min(start + chunk, delta))
        prod = vt[None, :] - (vd[rows, None] - delta)
        prod *= vd[None, :] + vt[rows, None]
        prod *= vd[rows, None] + vt[None, :]
        prod %= delta
        count += prod.size - int(np.count_nonzero(prod))
    return count


def offdiag_census_slow(limit: int) -> dict:
    """Census of a^2 + p^2 = q^2 + r^2 = n <= limit, a >= 1, p/q/r prime.

    Collects canonical solutions (q <= r) and the class counts; N doubles
    the q < r rows to account for both (q, r) orders.
    """
    root = math.isqrt(limit - 1) if limit > 1 else 1
    primes = [k for k in range(2, root + 1) if is_prime_slow(k)]
    sols = []
    for qi, q in enumerate(primes):
        for r in primes[qi:]:
            n = q * q + r * r
            if n > limit:
                break
            for p in primes:
                aa = n - p * p
                if aa < 1:
                    break
                a = math.isqrt(aa)
                if a * a == aa and sorted((a, p)) != [q, r]:
                    sols.append((a, p, q, r, n))
    counts = {"n1": 0, "n1p": 0, "n1pp": 0, "deg": 0}
    for a, p, q, r, n in sols:
        if a == p or q == r or a < 3 or p == 2 or q == 2:
            counts["deg"] += 1
        elif 2 < a < q < r < p:
            counts["n1"] += 1
        elif 2 < p < q < r < a:
            counts["n1pp"] += 1
        elif q < min(a, p) and max(a, p) < r:
            counts["n1p"] += 1
    counts["canon"] = len(sols)
    counts["N"] = 2 * sum(1 for s in sols if s[2] != s[3]) + sum(
        1 for s in sols if s[2] == s[3]
    )
    sols.sort(key=lambda t: (t[4], t[0]))
    return {"counts": counts, "quadruples": sols}


def diagonal_slow(limit: int) -> int:
    """Diagonal solutions of a^2 + p^2 = q^2 + r^2 <= limit: p, q, r prime, {a, p} = {q, r}."""
    count = 0
    for p in range(2, math.isqrt(limit) + 1):
        if not is_prime_slow(p):
            continue
        for a in range(1, math.isqrt(max(limit - p * p, 0)) + 1):
            orders = {(a, p), (p, a)}  # every (q, r) with {q, r} = {a, p}
            count += sum(1 for q, r in orders if is_prime_slow(q) and is_prime_slow(r))
    return count


# Both directions of the N1 bijection, for the round-trip tests.


def param_apply(pt: ParamTuple) -> tuple[int, int, int, int]:
    """The four linear forms (x1, x2, x3, x4) = (r, q, p, a); x1^2+x2^2 = x3^2+x4^2."""
    d, t, n1, n2 = pt.d, pt.t, pt.n1, pt.n2
    if n2 * t <= n1 * d or n1 * t <= n2 * d:
        raise ValidationError(f"positivity violated for {pt}")
    return (n2 * t - n1 * d, n2 * d + n1 * t, n1 * d + n2 * t, n1 * t - n2 * d)


def param_invert(quad: Quadruple) -> ParamTuple:
    """Invert an N1 quadruple (2 < a < q < r < p) to its unique ParamTuple."""
    a, p, q, r = quad.a, quad.p, quad.q, quad.r
    if not (2 < a < q < r < p):
        raise ValidationError(f"param_invert needs 2 < a < q < r < p, got {quad}")
    if (p - r) & 1 or (q - a) & 1:
        raise ValidationError(f"parity failure in {quad}: p=r, q=a mod 2 required")
    m1 = (p - r) // 2
    m2 = (q - a) // 2
    d = math.gcd(m1, m2)
    n1 = m1 // d
    n2 = m2 // d
    if (q + a) % (2 * n1):
        raise ValidationError(f"non-integral t for {quad} (inversion bug)")
    t = (q + a) // (2 * n1)
    pt = ParamTuple(d=d, t=t, n1=n1, n2=n2)
    if param_apply(pt) != (r, q, p, a):
        raise ValidationError(f"round trip failed for {quad} -> {pt} (inversion bug)")
    return pt


# Frozen values computed with this module (spot-checked by hand for the
# smallest cases, e.g. 50 = 1 + 49 = 25 + 25 is the only collision below 100).
FROZEN_R2_SUPPORT_30 = {8: 1, 13: 2, 18: 1, 29: 2}
FROZEN_CENSUS = {
    1000: {"N": 67, "n1": 3, "n1p": 11, "n1pp": 5, "deg": 17, "canon": 36},
    10000: {"N": 680, "n1": 59, "n1p": 157, "n1pp": 82, "deg": 48, "canon": 346},
    100000: {"N": 6521, "n1": 633, "n1p": 1637, "n1pp": 856, "deg": 151, "canon": 3277},
}
FROZEN_PARTITION = {
    49: {"s12": 14, "diagonal": 14, "offdiag": 0, "s22": 14},
    50: {"s12": 16, "diagonal": 15, "offdiag": 1, "s22": 15},
}
