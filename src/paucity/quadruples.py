"""Census and parametrization of off-diagonal solutions of a^2+p^2 = q^2+r^2.

A solution quadruple (a, p, q, r) in N x P^3 with common value n <= limit is
off-diagonal when {a,p} != {q,r} as multisets.  N counts ordered quadruples
(both orderings of (q, r)); classification works on the normalized form
q <= r, where exactly one of the following holds for every non-degenerate
off-diagonal solution (degenerate: a = p, q = r, or a coordinate below 3):

* N1:   2 < a < q < r < p        (q, r nest inside (a, p), a < p)
* N1'': 2 < p < q < r < a        (mirror: the interval (p, a) read as (min, max))
* N1':  q < min(a, p), max(a, p) < r

The trichotomy is forced: max(a,p) = max(q,r) would make the solution
diagonal, and whichever of the two maxima is larger, the sum constraint nests
the other pair strictly inside its interval.

N1 quadruples biject with tuples (d, t, n1, n2) of positive integers,
gcd(d,t) = gcd(n1,n2) = 1, through r = n2*t - n1*d, q = n2*d + n1*t,
p = n1*d + n2*t, a = n1*t - n2*d.  enumerate_n1_params counts N1 from the
tuple side and the census counts it from the quadruples; the two
independent enumerations must agree exactly.

The direct census walks n in bands of _BAND integers.  Per band it lists the
prime pairs (q, r) with q^2 + r^2 in the band, counts them per n into dense
offsets, and matches each probe (a, p) of the band with the rows at its
offset, so it holds O(_BAND + sqrt(limit)) items at any limit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .sieve import sieve_primes

_ENUM_CAP = 10**8
_COLLECT_CAP = 10**5
# Integers n per band of enumerate_offdiag.
_BAND = 1 << 16
# Items per vectorized run of enumerate_n1_params: (d, t, n1) triples, then cells.
_BATCH = 1 << 14


@dataclass(frozen=True)
class Quadruple:
    """One off-diagonal solution a^2 + p^2 = q^2 + r^2 = n."""

    a: int
    p: int
    q: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if self.a * self.a + self.p * self.p != self.n or self.q * self.q + self.r * self.r != self.n:
            raise ValidationError(f"not a solution: {self}")
        if sorted((self.a, self.p)) == sorted((self.q, self.r)):
            raise ValidationError(f"diagonal quadruple: {self}")


@dataclass(frozen=True)
class ParamTuple:
    """The (d, t, n1, n2) coordinates of an N1 quadruple."""

    d: int
    t: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if min(self.d, self.t, self.n1, self.n2) < 1:
            raise ValidationError(f"ParamTuple needs positive entries: {self}")
        if math.gcd(self.d, self.t) != 1:
            raise ValidationError(f"gcd(d, t) != 1 in {self}")
        if math.gcd(self.n1, self.n2) != 1:
            raise ValidationError(f"gcd(n1, n2) != 1 in {self}")


@dataclass(frozen=True)
class OffdiagCensus:
    """Counts from enumerate_offdiag; classification is over normalized q <= r.

    Every count is a running total over the bands of n, streamed one band's
    matches at a time.  s12 counts every match of the probe, which is
    S_{1,2}(limit); diagonal is its part with {a, p} = {q, r}, counted from
    the bands' prime-pair rows alone, so s12 - diagonal == n checks the
    probe's diagonal test.
    """

    limit: int
    n: int
    n1: int
    n1_prime: int
    n1_double_prime: int
    degenerate_count: int
    n_canonical: int
    s12: int
    diagonal: int
    quadruples: tuple[Quadruple, ...] | None


@dataclass(frozen=True)
class ParamCensus:
    """Counts from the (d, t, n1, n2)-side enumeration of N1."""

    limit: int
    n1: int
    tuples: tuple[ParamTuple, ...] | None


def _flatten(lo: np.ndarray, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and value of every cell of the integer windows [lo, lo + cnt)."""
    owner = np.repeat(np.arange(cnt.size), cnt)
    return owner, np.arange(owner.size, dtype=np.int64) - (np.cumsum(cnt) - cnt)[owner] + lo[owner]


def _runs(cnt: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Consecutive [i, j) runs of items holding fewer than size + max(cnt) cells each."""
    key = (np.cumsum(cnt) - cnt) // size
    cuts = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), cnt.size]
    return list(zip(cuts[:-1], cuts[1:]))


def check_limit(limit: int) -> None:
    """Refuse a census or param-route limit before either starts."""
    if limit < 1:
        raise ValidationError(f"census limit must be >= 1, got {limit}")
    if limit > _ENUM_CAP:
        raise CapacityError(f"census limit {limit} exceeds budget {_ENUM_CAP}")


def enumerate_offdiag(limit: int, collect: bool = True) -> OffdiagCensus:
    """Exhaustive census of off-diagonal solutions up to `limit`.

    Walks the bands [s, s + _BAND) of n.  Each band lists its prime pairs
    (q, r) with q^2 + r^2 in the band, sorted by n with dense per-n offsets,
    and its probes (a, p) with a^2 + p^2 in the band; a probe's matches are
    the rows at its offset, classified and counted before the next band, so
    memory holds O(_BAND + sqrt(limit)) items at any limit.  The quadruple
    list (normalized q <= r) is attached when collect=True and at most 1e5
    solutions exist; its rows are dropped as soon as the running count passes
    that cap.
    """
    check_limit(limit)
    primes = sieve_primes(max(math.isqrt(max(limit - 1, 1)), 2)).primes.astype(np.int64)
    pp = primes * primes
    # Squares 0, 1, ..., (isqrt(limit) + 1)^2 for the probes' a-ranges.
    squares = np.arange(math.isqrt(limit) + 2, dtype=np.int64) ** 2
    s12 = 0
    pair_rows = 0
    # Off-diagonal, canonical, degenerate, N1, N1' and N1'' matches so far.
    counts = np.zeros(6, dtype=np.int64)
    rows: list[np.ndarray] | None = [np.zeros((5, 0), dtype=np.int64)] if collect else None
    # Dense per-n row counts and first-row offsets of one band, kept across
    # bands: only the n that hold rows are set and cleared (start is read
    # only where cnt > 0), so a band costs O(rows + probes), not O(_BAND).
    cnt = np.zeros(min(_BAND, limit + 1), dtype=np.int64)
    start = np.zeros_like(cnt)
    for s in range(0, limit + 1, _BAND):
        e = min(s + _BAND, limit + 1)
        # The band's prime pairs in q-major order, then stably by n: ascending
        # q within each n, the order the quadruples are listed in.
        lo = np.searchsorted(pp, s - pp, side="left")
        owner, pos = _flatten(lo, np.searchsorted(pp, e - pp, side="left") - lo)
        key = pp[owner] + pp[pos] - s
        order = np.argsort(key, kind="stable")
        key = key[order]
        qs, rs = primes[owner[order]], primes[pos[order]]
        pair_rows += qs.size
        head = np.flatnonzero(np.diff(key, prepend=-1))
        held = key[head]
        cnt[held] = np.diff(head, append=key.size)
        start[held] = head
        # The band's probes (a, p), a >= 1, and the rows at their offsets.
        lo = np.maximum(np.searchsorted(squares, s - pp, side="left"), 1)
        owner, a = _flatten(lo, np.maximum(np.searchsorted(squares, e - pp, side="left") - lo, 0))
        n = pp[owner] + a * a
        k = n - s
        match, pos = _flatten(start[k], cnt[k])
        cnt[held] = 0
        a, p, n, q, r = a[match], primes[owner[match]], n[match], qs[pos], rs[pos]
        off = ~(((a == q) & (p == r)) | ((a == r) & (p == q)))
        canon = off & (q <= r)
        deg = canon & ((a == p) | (q == r) | (a < 3) | (p == 2) | (q == 2))
        chain = (q < r) & canon
        n1 = chain & (2 < a) & (a < q) & (r < p)
        n1pp = chain & (2 < p) & (p < q) & (r < a)
        n1p = chain & (q > 2) & (a != p) & (q < a) & (q < p) & (a < r) & (p < r)
        s12 += a.size
        counts += np.count_nonzero([off, canon, deg, n1, n1p, n1pp], axis=1)
        if counts[1] > _COLLECT_CAP:
            rows = None
        elif rows is not None:
            rows.append(np.stack((a, p, q, r, n))[:, canon])
    quadruples: tuple[Quadruple, ...] | None = None
    if rows is not None:
        found = np.concatenate(rows, axis=1)
        found = found[:, np.lexsort((found[0], found[4]))]
        quadruples = tuple(Quadruple(*row) for row in found.T.tolist())
    n_total, n_canonical, n_deg, n_1, n_1p, n_1pp = counts.tolist()
    # The diagonal from the prime pairs alone: a diagonal (a, p) has a prime,
    # so it is a pair row, and it matches (q, r) = (a, p) and (p, a), which
    # are one row when a = p, that is for the primes with 2p^2 <= limit.
    equal_pairs = int(np.count_nonzero(2 * pp <= limit))
    return OffdiagCensus(
        limit=limit,
        n=n_total,
        n1=n_1,
        n1_prime=n_1p,
        n1_double_prime=n_1pp,
        degenerate_count=n_deg,
        n_canonical=n_canonical,
        s12=s12,
        diagonal=2 * pair_rows - equal_pairs,
        quadruples=quadruples,
    )


def _pair_batches(s: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Coprime (d, t) in order with their n1 ranges 1..top, in batches by d.

    n1(t+d)/(t-d) < n2 < n1*t/d is empty unless t^2 - 2dt - d^2 > 0, and
    n2 <= (s - n1*d)/t then leaves n1 < s(t-d)/(t^2 + 2dt - d^2) <= (s-t)/d.
    A batch closes after the d that brings it to _BATCH triples; one d adds
    fewer than s(1 + ln s) triples (its top is below s/t).
    """
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    triples = 0
    last = (s - 1) // 2
    for d in range(1, last + 1):
        # t^2 - 2dt - d^2 > 0 is (t - d)^2 > 2d^2, never an equality.
        t = np.arange(d + math.isqrt(2 * d * d) + 1, s - d + 1, dtype=np.int64)
        top = (s * (t - d) - 1) // (t * t + 2 * d * t - d * d)
        # gcd last, on the t that the bounds leave.
        keep = np.flatnonzero(top >= 1)
        keep = keep[np.gcd(t[keep], d) == 1]
        parts.append((np.full(keep.size, d, dtype=np.int64), t[keep], top[keep]))
        triples += int(top[keep].sum())
        if triples >= _BATCH or d == last:
            yield tuple(np.concatenate(col) for col in zip(*parts))
            parts, triples = [], 0


def enumerate_n1_params(limit: int, collect: bool = False) -> ParamCensus:
    """Count N1 quadruples from the (d, t, n1, n2) side, independently.

    Constraints: coprime (d, t) with t > d (q < r forces it), three prime
    forms r, q, p <= s = isqrt(limit - 9), gcd(n1, n2) = 1, a = n1*t - n2*d >= 3,
    q < r via n2(t-d) > n1(t+d), and the exact cut p^2 + a^2 <= limit.

    Vectorized over flattened batches instead of one step per (d, t): each
    batch of coprime pairs from _pair_batches is expanded into its (d, t, n1)
    triples, each triple into its [lo2, hi2] window of n2, and the cells are
    filtered in runs cut by _runs, all in (d, t, n1, n2) order.  A run tests
    the p form for primality first and keeps only its survivors, then the r
    and q forms, and only then gcd(n1, n2) and the exact cut.  A batch holds
    fewer than _BATCH + s(1 + ln s) triples and a run fewer than _BATCH + s
    cells, so memory is O(_BATCH + sqrt(limit) log limit) however many triples
    there are.  It uses its own prime sieve and no census helper, since the
    census is what it checks.
    """
    check_limit(limit)
    s = math.isqrt(max(limit - 9, 0))
    if s < 3:
        return ParamCensus(limit=limit, n1=0, tuples=() if collect else None)
    is_p = sieve_primes(s).is_prime
    total = 0
    found: list[ParamTuple] = []
    for pair_d, pair_t, top in _pair_batches(s):
        pair, n1 = _flatten(np.ones(top.size, dtype=np.int64), top)
        d, t = pair_d[pair], pair_t[pair]
        lo2 = n1 * (t + d) // (t - d) + 1
        nd = n1 * d
        cnt = np.maximum(np.minimum((s - nd) // t, (n1 * t - 3) // d) - lo2 + 1, 0)
        for k, m in _runs(cnt, _BATCH):
            cell, n2 = _flatten(lo2[k:m], cnt[k:m])
            cell += k
            # The p form first: only its primes reach the other tests.
            p_f = nd[cell] + n2 * t[cell]
            keep = np.flatnonzero(is_p[p_f])
            cell, n2, p_f = cell[keep], n2[keep], p_f[keep]
            dc, tc, n1c = d[cell], t[cell], n1[cell]
            keep = np.flatnonzero(is_p[n2 * tc - n1c * dc] & is_p[n2 * dc + n1c * tc])
            dc, tc, n1c, n2, p_f = dc[keep], tc[keep], n1c[keep], n2[keep], p_f[keep]
            a_f = n1c * tc - n2 * dc
            hits = np.flatnonzero((np.gcd(n1c, n2) == 1) & (p_f * p_f + a_f * a_f <= limit))
            total += hits.size
            if collect:
                found += map(
                    ParamTuple,
                    dc[hits].tolist(), tc[hits].tolist(), n1c[hits].tolist(), n2[hits].tolist(),
                )
    return ParamCensus(limit=limit, n1=total, tuples=tuple(found) if collect else None)
