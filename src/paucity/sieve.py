"""Segmented sieves for primes and the representation tallies.

pair_windows yields, for each window [s, e) of a range, three 16-bit arrays
indexed by n - s:

* r0_pair: ordered pairs (a, b), a, b >= 1, with a^2 + b^2 = n
* r1:      ordered pairs (a, p), a >= 1, p prime
* r2:      ordered pairs (p, q), both prime

and chi4_divisor_sums derives a fourth from r0_pair:

* r0_div:  sum_{d | n} chi4(d), the divisor-sum variant of r0

By Jacobi's two-square theorem the 4 sum_{d | n} chi4(d) lattice points on
x^2 + y^2 = n are the 4 r0_pair(n) off the axes plus 4 on them when n is a
square, so r0_div = r0_pair + [n is a square].  The two r0 conventions
differ exactly on perfect squares; both are carried so mean values can be
reported under either.  b(n), the indicator of sums of two squares, is
r0_div(n) > 0.

r0_pair, r1 and r2 are counted without a loop over a, one window at a time:
pair_windows cuts [lo, hi) at the multiples of _SUB, and the cells (row,
col) with row^2 + col^2 in a window are listed at once from vectorised
integer square roots (exact below 2^52).  Each tally lists only the cells it
needs: r0_pair is symmetric, so it is twice the count of the half lattice
col >= row, less one at each diagonal n = 2a^2; r1 is the count of the prime
rows, and r2 that of their cells with a prime column.  Each window's counts
pass the 16-bit check and are yielded as uint16 arrays, so the generator
holds O(_SUB + sqrt(hi)) memory and runs no per-a Python loop.
meanvalue reduces each window as it comes, and write_blocks copies the
windows into one block's three arrays, the record of a sieve dump.

pair_windows and multiplicative_arrays take a range [lo, hi) alone and
sieve the primes up to sqrt(hi - 1) themselves, the rows of r1 and r2 and
the strides of the walk, in tens of microseconds per range.  sieve_primes
sieves the odd numbers only and returns the int64 primes; prime_mask
spreads them into a bool bitmap.

write_blocks sieves the dump's blocks one after another in the calling
process.  numpy's bincount and repeat and the walk's short strided updates
hold the GIL, so a thread pool over blocks measured slower than one thread
(0.67-1.05x per kernel on 2 cores) and held about 40-50 MB more.
meanvalue.accumulate reads pair_windows itself, over its own tasks
(meanvalue.task_ranges), in this process or in worker processes.

multiplicative_arrays lists the set A of n whose prime factors are all
1 mod 4 (n = 1 included), about a twelfth of n at 1e7, for one block.
meanvalue's reduction runs this walk once per block, the first time a term
reads A, so only LEMMA31, LEMMA32 and COUNT_A pay for it.  It returns three
compact arrays:

* on_a:    int64, the ascending offsets n - lo of the n in A
* omega_a: int8, the number of distinct prime factors at those n
* phi_a:   int32, Euler's totient at those n

Every n in A is 1 mod 4, so the walk over the primes p <= sqrt(hi - 1) runs
only on the quarter lattice n = n0 + 4j of the block, each prime power
starting at j = -n0 * 4^-1 mod p^k.  A prime 3 mod 4 only strikes n from A;
a prime 1 mod 4 multiplies an int32 smooth part by p at its multiples and
at those of each p^k, and updates omega and phi, so one division per
block, n // smooth(n), leaves the cofactor (on A, 1 or a single prime above
the root).  Only the values on A leave the walk, and every temporary is
lattice-sized.  Every intermediate is at most n <= MAX_SIEVE_LIMIT < 2^31,
which is what lets smooth and phi live in int32.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from .errors import CapacityError, TallyOverflowError, ValidationError

# A full boolean sieve at this cap costs ~1 GB; beyond it, refuse.
MAX_SIEVE_LIMIT = 10**9
# In mean, block width costs only the walk: the pair tallies arrive a window
# at a time (a tracemalloc peak of 4.3 MiB at the cap, at any width), and
# the walk peaks at 4.5 MiB for a 2^20 block at the cap and at 17.7 MiB for
# one of this width.  write_blocks, for the dump, holds one block's three
# arrays and a window: 9.2 and 27.2 MiB.  A wider block is refused before
# any sieving starts.
MAX_BLOCK_SIZE = 1 << 22

# Pair tallies are counted in windows that end at the multiples of this
# width.  meanvalue reduces each window as it is counted, so a process
# holds one window of tallies, 768 KiB of uint16 and a 1 MiB int64 count
# at 2^17, whatever the block width.
_SUB = 1 << 17

_MAGIC = b"PCTY"
_VERSION = 2
_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class SieveConfig:
    """Run geometry: the overall limit and the block width."""

    limit: int
    block_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValidationError(f"limit must be >= 1, got {self.limit}")
        if self.limit > MAX_SIEVE_LIMIT:
            raise CapacityError(f"limit {self.limit} exceeds cap {MAX_SIEVE_LIMIT}")
        if self.block_size < 2:
            raise ValidationError(f"block_size must be >= 2, got {self.block_size}")
        if self.block_size > MAX_BLOCK_SIZE:
            raise CapacityError(f"block_size {self.block_size} exceeds cap {MAX_BLOCK_SIZE}")

    def block_ranges(self) -> Iterator[tuple[int, int]]:
        """(lo, hi) of every block, in ascending order, covering [1, limit]."""
        for lo in range(1, self.limit + 1, self.block_size):
            yield lo, min(lo + self.block_size, self.limit + 1)


def sieve_primes(limit: int) -> np.ndarray:
    """Every prime up to `limit` inclusive, ascending, as int64.

    Eratosthenes over the odd numbers only: slot i >= 1 of the mask stands
    for 2i + 1, and each odd p strikes p^2, p^2 + 2p, ... at a stride of p
    slots.  Slot 0 stands for 2, not 1."""
    if limit < 2:
        raise ValidationError(f"sieve_primes needs limit >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds cap {MAX_SIEVE_LIMIT}")
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[p * p >> 1 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def prime_mask(limit: int) -> np.ndarray:
    """is_prime[n] for 0 <= n <= limit, as bool, from sieve_primes(limit)."""
    mask = np.zeros(limit + 1, dtype=bool)
    mask[sieve_primes(limit)] = True
    return mask


def _check_tally(name: str, arr: np.ndarray, lo: int) -> np.ndarray:
    """`arr`, the tally at n = lo, lo + 1, ..., as uint16 once its peak fits in 16 bits."""
    peak = int(arr.max(initial=0))
    if peak >= 1 << 16:
        n = lo + int(arr.argmax())
        raise TallyOverflowError(f"{name}({n}) = {peak} exceeds 16-bit tally range")
    return arr.astype(np.uint16)


def chi4_divisor_sums(lo: int, r0_pair: np.ndarray) -> np.ndarray:
    """sum_{d | n} chi4(d) for n = lo, lo + 1, ... as int64: r0_pair plus 1
    at each square m^2 in the range (Jacobi's two-square theorem)."""
    r0_div = r0_pair.astype(np.int64)
    m = np.arange(math.isqrt(lo - 1) + 1, math.isqrt(lo + r0_pair.size - 1) + 1, dtype=np.int64)
    r0_div[m * m - lo] += 1
    return r0_div


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) of a non-negative int64 array.

    The float64 root is within one of the answer, and the two corrections
    make it exact, for every x < 2^52; the sieve's arguments are at most
    MAX_SIEVE_LIMIT.
    """
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _cells(
    rows: np.ndarray, s: int, e: int, upper: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(col, row^2 + col^2 - s) for every cell (row, col), col >= 1, of the
    int64 `rows` with s <= row^2 + col^2 < e; with `upper`, col >= row too.

    Every row needs row^2 <= e - 1.  For all rows at once col runs from
    isqrt(max(s - 1 - row^2, 0)) + 1 to isqrt(e - 1 - row^2), and the cells
    are expanded by repeat and cumsum, with no loop over the rows.
    """
    r2 = rows * rows
    first = _isqrt(np.maximum(s - 1 - r2, 0)) + 1
    if upper:
        first = np.maximum(first, rows)
    cnt = np.maximum(_isqrt(e - 1 - r2) - first + 1, 0)
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if ends.size else 0
    col = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt - first, cnt)
    return col, np.repeat(r2 - s, cnt) + col * col


def pair_windows(
    lo: int, hi: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """(s, e, r0_pair, r1, r2) for each window [s, e) of [lo, hi), in order:
    each e is the next multiple of _SUB after s, or hi, and the three
    tallies are uint16 arrays indexed by n - s.

    Each window's counts are complete, so they do not depend on where the
    windows are cut.  Each tally lists only the cells it needs:

    * r0_pair from the half lattice, rows a <= sqrt((e - 1) / 2) and columns
      b >= a: twice their count, less one at n = 2a^2, where the diagonal
      cell a = b stands for itself alone;
    * r1 from the prime rows p <= sqrt(e - 1) and any column a >= 1, the
      ordered pairs (a, p) read with p first;
    * r2 from those same cells whose column is prime.

    Each window's counts pass the 16-bit check before they are cast to
    uint16, so none can wrap.  Memory is O(_SUB + sqrt(hi)), and the work
    O(width + cells + (width / _SUB + 1) * sqrt(hi)), where cells is about
    half the lattice for r0_pair plus an eighth of it for the prime rows.
    """
    is_p = prime_mask(max(2, math.isqrt(hi - 1)))
    primes = np.flatnonzero(is_p)
    s = lo
    while s < hi:
        e = min((s // _SUB + 1) * _SUB, hi)
        rows = np.arange(1, math.isqrt((e - 1) // 2) + 1, dtype=np.int64)
        _, idx = _cells(rows, s, e, upper=True)
        counts = np.bincount(idx, minlength=e - s)
        counts *= 2
        diag = np.arange(math.isqrt((s - 1) // 2) + 1, rows.size + 1, dtype=np.int64)
        counts[2 * diag * diag - s] -= 1
        r0 = _check_tally("r0_pair", counts, s)
        del counts
        rows = primes[: np.searchsorted(primes, math.isqrt(e - 1), side="right")]
        col, idx = _cells(rows, s, e)
        r1 = _check_tally("r1", np.bincount(idx, minlength=e - s), s)
        r2 = _check_tally("r2", np.bincount(idx[is_p[col]], minlength=e - s), s)
        del col, idx  # the consumer holds only the window's tallies
        yield s, e, r0, r1, r2
        s = e


def _inverse_of_4(m: np.ndarray) -> np.ndarray:
    """4^-1 mod m for odd int64 m, elementwise, in closed form: 3m + 1 and
    m + 1 are both 1 mod m, and the one that is a multiple of 4 is taken
    ((3m + 1)/4 when m is 1 mod 4, else (m + 1)/4)."""
    return np.where(m & 3 == 1, (3 * m + 1) >> 2, (m + 1) >> 2)


def _live_strides(
    n0: int, size: int, p: np.ndarray, m: np.ndarray
) -> Iterator[tuple[int, int, int]]:
    """(p, m, j) for each odd int64 modulus m <= 2^31 whose first lattice
    index j, the least j >= 0 with m | n0 + 4j, is below size."""
    j = (-n0 % m) * _inverse_of_4(m) % m
    live = j < size
    return zip(p[live].tolist(), m[live].tolist(), j[live].tolist())


def multiplicative_arrays(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """on_a, omega_a, phi_a for [lo, hi): the ascending offsets n - lo of
    the n in A (int64), and omega (int8) and phi (int32) at those n.

    Every n in A is 1 mod 4, so the walk runs only on the lattice
    n = n0 + 4j of the block, with strided slice updates and no per-prime
    division, power or boolean mask.  The odd prime powers m = p^k <= hi - 1
    start at j = -n0 * 4^-1 mod m, computed for all of them at once.

    * A prime 3 mod 4 strikes its multiples from A and does nothing else.
    * A prime 1 mod 4 multiplies smooth by p and phi by p - 1 at its
      multiples and adds one to omega; each p^k, k >= 2, multiplies smooth
      and phi by p.  n // smooth(n) is then, on A, 1 or the single prime
      factor above sqrt(hi - 1): one division per block, taken in place.
      Where no prime 3 mod 4 struck n, that cofactor is 1 mod 4 like n
      and smooth(n), so those n are exactly A.

    Every temporary is lattice-sized, and only the values on A are kept.
    Headroom: smooth and phi never exceed n <= MAX_SIEVE_LIMIT < 2^31, so
    both are int32.  omega is at most 9 < 2^7.
    """
    top = hi - 1
    n0 = lo + (1 - lo) % 4
    n = np.arange(n0, hi, 4, dtype=np.int32)
    size = n.size
    smooth = np.ones(size, dtype=np.int32)
    om = np.zeros(size, dtype=np.int8)
    ph = np.ones(size, dtype=np.int32)
    ina = np.ones(size, dtype=bool)
    odd = sieve_primes(max(2, math.isqrt(top)))[1:]
    p3, p1 = odd[odd & 3 == 3], odd[odd & 3 == 1]
    for _, p, s in _live_strides(n0, size, p3, p3):
        ina[s::p] = False
    for _, p, s in _live_strides(n0, size, p1, p1):
        sl = slice(s, size, p)
        smooth[sl] *= p
        om[sl] += 1
        ph[sl] *= p - 1
    base, pk = p1, p1 * p1
    while base.size:
        keep = pk <= top
        base, pk = base[keep], pk[keep]
        for p, q, s in _live_strides(n0, size, base, pk):
            sl = slice(s, size, q)
            smooth[sl] *= p
            ph[sl] *= p
        pk = pk * base
    n //= smooth  # n becomes its cofactor
    om += n > 1
    n -= 1
    ph *= np.maximum(n, 1, out=n)
    at = np.flatnonzero(ina)
    om, ph = om[at], ph[at]
    at *= 4
    at += n0 - lo
    return at, om, ph


def raise_malloc_thresholds() -> None:
    """Let the C heap keep the pages that each window and walk frees.

    glibc maps each request above its mmap threshold afresh, and trims its
    heap whenever more than twice that threshold lies free at the top;
    freeing a mapped chunk raises the threshold to that chunk's size
    (mallopt(3), M_MMAP_THRESHOLD).  At the start-up thresholds the arrays
    of every window and every walk, freed before the next are made, are
    handed back to the system and faulted in again.  Freeing one 8 MiB
    array, never touched and so never resident, raises the thresholds to
    8 and 16 MiB, and worker processes forked later inherit them.
    `mean --limit 100000000 --stats S01,S02,S22,M2` took 92k minor faults
    and 1.36 s without this step, 21k after a 2 MiB array, and 6.4k and
    1.18-1.22 s after 4, 8 or 16 MiB, at the same peak RSS.  8 MiB is
    twice the walk's largest arrays at MAX_BLOCK_SIZE.  Calling mallopt
    would switch the dynamic thresholds off.
    """
    np.empty(8 << 20, dtype=np.uint8)


def write_blocks(handle: BinaryIO, cfg: SieveConfig) -> int:
    """Sieve [1, cfg.limit] one block of cfg.block_ranges() at a time into
    an open binary file; returns the number of blocks written.

    Record layout (version 2): magic "PCTY", version u32, lo u64, hi u64,
    then the three u16 little-endian arrays r0_pair, r1, r2 of [lo, hi),
    copied from pair_windows.  r0_div is not stored: it is r0_pair +
    [n is a square].
    """
    raise_malloc_thresholds()
    tallies = np.empty((3, min(cfg.block_size, cfg.limit)), dtype="<u2")
    count = 0
    for lo, hi in cfg.block_ranges():
        for s, e, *window in pair_windows(lo, hi):
            for row, part in zip(tallies, window):
                row[s - lo : e - lo] = part
        handle.write(_HEADER.pack(_MAGIC, _VERSION, lo, hi))
        for row in tallies:
            handle.write(row[: hi - lo])
        count += 1
    return count
