"""Independent computations that the benchmark checks the CLI's outputs against.

Nothing here imports the package under test.  The routes are deliberately
different from the program's: representation counts come from bincounting
every lattice pair (a, b) of a segment at once instead of the sieve's
per-a loop, the set A comes from striking out multiples of 2 and of the
primes 3 mod 4 instead of factorizing, and residue counts come from the full
(u, v) grid instead of a closed form.
"""

from __future__ import annotations

import math

import numpy as np

# Integer statistics of the mean-value table and their terms in r0, r1, r2.
INTEGER_TERMS = {
    "S00": lambda r0, r1, r2: r0 * r0,
    "S01": lambda r0, r1, r2: r0 * r1,
    "S02": lambda r0, r1, r2: r0 * r2,
    "S11": lambda r0, r1, r2: r1 * r1,
    "S12": lambda r0, r1, r2: r1 * r2,
    "S22": lambda r0, r1, r2: r2 * r2,
    "M1": lambda r0, r1, r2: r1,
    "M2": lambda r0, r1, r2: r2,
    "R2CUBE": lambda r0, r1, r2: r2 * r2 * r2,
    "SUPP1": lambda r0, r1, r2: (r1 > 0).astype(np.int64),
    "SUPP2": lambda r0, r1, r2: (r2 > 0).astype(np.int64),
}

CATALAN = 0.91596559417721901505  # G = sum (-1)^k / (2k+1)^2

# n-range per segment; about 0.8 * _SEGMENT lattice pairs are live at once.
_SEGMENT = 1 << 20


def decade_grid(limit: int) -> list[int]:
    """The CLI's default checkpoints: 1000, 10^4, ... up to limit, closed at limit."""
    points = []
    x = 1000
    while x <= limit:
        points.append(x)
        x *= 10
    if not points or points[-1] != limit:
        points.append(limit)
    return points


def prime_mask(limit: int) -> np.ndarray:
    """is_prime[n] for 0 <= n <= limit, by Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def _isqrt(v: np.ndarray) -> np.ndarray:
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _lattice_pairs(lo: int, hi: int, smallest: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with a, b >= smallest and lo <= a^2 + b^2 < hi."""
    a = np.arange(smallest, math.isqrt(hi - 1 - smallest * smallest) + 1, dtype=np.int64)
    a2 = a * a
    b_hi = _isqrt(hi - 1 - a2)
    below = lo - a2  # b^2 must reach this
    b_lo = np.where(below > 0, _isqrt(np.maximum(below - 1, 0)) + 1, 0)
    b_lo = np.maximum(b_lo, smallest)
    cnt = np.maximum(b_hi - b_lo + 1, 0)
    first = np.cumsum(cnt) - cnt
    b = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(first - b_lo, cnt)
    return np.repeat(a, cnt), b


def _segments(limit: int):
    for lo in range(1, limit + 1, _SEGMENT):
        yield lo, min(lo + _SEGMENT, limit + 1)


def _prefix_sums(values: dict, totals: dict, terms: dict, lo: int, hi: int, points) -> None:
    cuts = [x - lo + 1 for x in points if lo <= x < hi]
    for name, t in terms.items():
        for cut in cuts:
            values[name].append(totals[name] + t[:cut].sum().item())
        totals[name] += t.sum().item()


def representation_sums(limit: int, points: list[int], dispersion_c: float = 1.0) -> dict:
    """Every INTEGER_TERMS statistic and DISPERSION at each checkpoint.

    r0, r1, r2 of each segment are bincounts of a^2 + b^2 over all pairs with
    a, b >= 1, over those with b prime, and over those with both prime.
    DISPERSION is the plain float64 sum of (r1 - c r0 / log n)^2 over n >= 2.
    """
    is_p = prime_mask(math.isqrt(limit))
    values = {name: [] for name in (*INTEGER_TERMS, "DISPERSION")}
    totals = {name: 0 for name in values}
    totals["DISPERSION"] = 0.0
    for lo, hi in _segments(limit):
        a, b = _lattice_pairs(lo, hi, 1)
        n = a * a + b * b - lo
        pb = is_p[b]
        r0 = np.bincount(n, minlength=hi - lo)
        r1 = np.bincount(n[pb], minlength=hi - lo)
        r2 = np.bincount(n[pb & is_p[a]], minlength=hi - lo)
        terms = {name: f(r0, r1, r2) for name, f in INTEGER_TERMS.items()}
        logn = np.log(np.arange(lo, hi, dtype=np.float64))
        res = r1 - dispersion_c * r0 / np.where(logn > 0, logn, 1.0)
        if lo == 1:
            res[0] = 0.0  # the sum starts at n = 2
        terms["DISPERSION"] = res * res
        _prefix_sums(values, totals, terms, lo, hi, points)
    return values


def sums_of_two_squares(limit: int, points: list[int]) -> list[int]:
    """#{1 <= n <= x: n = a^2 + b^2 with a, b >= 0} at each checkpoint."""
    values: dict = {"B": []}
    totals = {"B": 0}
    for lo, hi in _segments(limit):
        a, b = _lattice_pairs(lo, hi, 0)
        hit = np.zeros(hi - lo, dtype=np.int64)
        hit[a * a + b * b - lo] = 1
        _prefix_sums(values, totals, {"B": hit}, lo, hi, points)
    return values["B"]


def count_in_a(limit: int, points: list[int]) -> list[int]:
    """#{1 <= n <= x: every prime factor of n is 1 mod 4} at each checkpoint."""
    primes = np.flatnonzero(prime_mask(limit))
    keep = np.ones(limit + 1, dtype=bool)
    keep[0] = False
    for p in primes[(primes == 2) | (primes % 4 == 3)].tolist():
        keep[p::p] = False
    return [int(np.count_nonzero(keep[: x + 1])) for x in points]


def prime_pair_diagonal(limit: int) -> int:
    """Diagonal part of S12(limit): 2 per ordered prime pair a != p, 1 per a = p, a^2 + p^2 <= limit."""
    primes = np.flatnonzero(prime_mask(math.isqrt(limit)))
    ordered = int(np.searchsorted(primes, _isqrt(limit - primes * primes), side="right").sum())
    equal = int(np.count_nonzero(2 * primes * primes <= limit))
    return 2 * (ordered - equal) + equal


def rho_brute(d: int) -> int:
    """#{(u, v) mod d: u^2 + v^2 = 0 mod d, gcd(v, d) = 1}, over the whole grid."""
    u = np.arange(d, dtype=np.int64)
    sq = (u * u) % d
    coprime = sq[np.gcd(u, d) == 1]
    count = 0
    for start in range(0, coprime.size, 512):
        rows = coprime[start : start + 512, None]
        count += int(np.count_nonzero((sq[None, :] + rows) % d == 0))
    return count


def nu_brute(delta: int, t: int, d: int) -> int:
    """#{(n1, n2) mod delta: (n2 t - n1 d)(n2 d + n1 t)(n1 d + n2 t) = 0 mod delta}."""
    n1 = np.arange(delta, dtype=np.int64)[:, None]
    n2 = np.arange(delta, dtype=np.int64)[None, :]
    f = (n2 * t - n1 * d) % delta
    f = f * ((n2 * d + n1 * t) % delta) % delta
    f = f * ((n1 * d + n2 * t) % delta) % delta
    return int(np.count_nonzero(f == 0))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))
