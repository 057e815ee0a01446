"""Segmented sieves for primes and the representation tallies.

Per block [lo, hi) this produces three 16-bit arrays indexed by n - lo:

* r0_pair: ordered pairs (a, b), a, b >= 1, with a^2 + b^2 = n
* r1:      ordered pairs (a, p), a >= 1, p prime
* r2:      ordered pairs (p, q), both prime

and derives a fourth from r0_pair on first read:

* r0_div:  sum_{d | n} chi4(d), the divisor-sum variant of r0

By Jacobi's two-square theorem the 4 sum_{d | n} chi4(d) lattice points on
x^2 + y^2 = n are the 4 r0_pair(n) off the axes plus 4 on them when n is a
square, so r0_div = r0_pair + [n is a square] (chi4_divisor_sums).  The two
r0 conventions differ exactly on perfect squares; both are carried so mean
values can be reported under either.  b(n), the indicator of sums of two
squares, is r0_div(n) > 0.

r0_pair, r1 and r2 are counted without a loop over a: each block is cut into
sub-windows of _SUB integers, every (a, b) with a^2 + b^2 in a sub-window is
listed at once from vectorised integer square roots (exact below 2^52), and
three bincounts tally them.  That keeps memory at O(_SUB + sqrt(hi)) beyond
the block's own arrays and leaves no per-a Python loop.

sieve_all sieves blocks one after another in the calling process.  numpy's
bincount and repeat and the walk's short strided updates hold the GIL, so a
thread pool over blocks measured slower than one thread (0.67-1.05x per
kernel on 2 cores) and held about 40-50 MB more.  meanvalue.accumulate
calls sieve_block itself, one block per task, in this process or in worker
processes.

With SieveConfig.multiplicative set, each block also gets three
multiplicative arrays, which the set-A statistics read:

* in_a:  bool, every prime factor is 1 mod 4 (true at n = 1), exact at every n
* omega: int8, the number of distinct prime factors, on A; 0 off A
* phi:   int32, Euler's totient, on A; 1 off A

Every n in A is 1 mod 4, so the walk over the primes p <= sqrt(hi - 1) runs
only on the quarter lattice n = n0 + 4j of the block, each prime power
starting at j = -n0 * 4^-1 mod p^k.  A prime 3 mod 4 only clears in_a; a
prime 1 mod 4 multiplies an int32 smooth part by p at its multiples and at
those of each p^k, and updates omega and phi, so one division per block,
n // smooth(n), leaves the cofactor (on A, 1 or a single prime above the
root).  The lattice results are scattered to full width, and off A in_a
is false, omega 0 and phi 1; phi is never 0, so a term divided by it is 0
off A.  Every intermediate is at most n <= MAX_SIEVE_LIMIT < 2^31, which is
what lets smooth and phi live in int32.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import CapacityError, TallyOverflowError, ValidationError

# A full boolean sieve at this cap costs ~1 GB; beyond it, refuse.
MAX_SIEVE_LIMIT = 10**9
# sieve_block's tracemalloc peak is 24 MiB per 2^20 integers with the
# multiplicative arrays (18 MiB without), and 96 MiB for one block of this
# width at the cap; a wider block is refused before any sieving starts.
MAX_BLOCK_SIZE = 1 << 22

# Pair tallies are counted in sub-windows of this many integers.
_SUB = 1 << 16

_MAGIC = b"PCTY"
_VERSION = 2
_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to `limit`: sorted array plus membership bitmap."""

    limit: int
    primes: np.ndarray
    is_prime: np.ndarray

    @property
    def count(self) -> int:
        return int(self.primes.size)


@dataclass(frozen=True)
class SieveConfig:
    """Run geometry (overall limit, block width) and whether each block runs,
    beyond the pair tallies, the walk for the multiplicative arrays omega,
    phi and in_a."""

    limit: int
    block_size: int = 1 << 20
    multiplicative: bool = False

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValidationError(f"limit must be >= 1, got {self.limit}")
        if self.limit > MAX_SIEVE_LIMIT:
            raise CapacityError(f"limit {self.limit} exceeds cap {MAX_SIEVE_LIMIT}")
        if self.block_size < 2:
            raise ValidationError(f"block_size must be >= 2, got {self.block_size}")
        if self.block_size > MAX_BLOCK_SIZE:
            raise CapacityError(f"block_size {self.block_size} exceeds cap {MAX_BLOCK_SIZE}")

    @property
    def kernels(self) -> tuple[str, ...]:
        """Names of the kernels every block runs, in the order they run."""
        return ("pair_tallies",) + ("multiplicative_arrays",) * self.multiplicative

    @property
    def block_count(self) -> int:
        return len(range(1, self.limit + 1, self.block_size))

    def block_ranges(self) -> Iterator[tuple[int, int]]:
        """(lo, hi) of every block, in ascending order, covering [1, limit]."""
        for lo in range(1, self.limit + 1, self.block_size):
            yield lo, min(lo + self.block_size, self.limit + 1)


_PAIR_DTYPES = {"r0_pair": np.uint16, "r1": np.uint16, "r2": np.uint16}
_MULTIPLICATIVE_DTYPES = {"omega": np.int8, "phi": np.int32, "in_a": np.bool_}


@dataclass(frozen=True)
class RepresentationBlock:
    """Tallies for the half-open range [lo, hi), arrays indexed by n - lo.

    omega, phi and in_a are either all present or all None.  in_a is exact
    at every n; omega and phi are defined only on A (where in_a holds) and
    read 0 and 1 elsewhere.  r0_div is derived from r0_pair on first read.
    """

    lo: int
    hi: int
    r0_pair: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    omega: np.ndarray | None = None
    phi: np.ndarray | None = None
    in_a: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi <= self.lo:
            raise ValidationError(f"bad block range [{self.lo}, {self.hi})")
        width = self.hi - self.lo
        if len({self.omega is None, self.phi is None, self.in_a is None}) > 1:
            raise ValidationError("omega, phi and in_a must be given together")
        dtypes = dict(_PAIR_DTYPES)
        if self.omega is not None:
            dtypes.update(_MULTIPLICATIVE_DTYPES)
        for field, dtype in dtypes.items():
            arr = getattr(self, field)
            if arr.shape != (width,):
                raise ValidationError(f"{field} has shape {arr.shape}, expected ({width},)")
            if arr.dtype != dtype:
                raise ValidationError(f"{field} dtype {arr.dtype}, expected {np.dtype(dtype)}")

    @cached_property
    def r0_div(self) -> np.ndarray:
        """sum_{d | n} chi4(d) as uint16, checked like the sieved tallies."""
        return _check_tally("r0_div", chi4_divisor_sums(self.lo, self.r0_pair), self.lo)


def sieve_primes(limit: int) -> PrimeTable:
    """Eratosthenes up to `limit` inclusive."""
    if limit < 2:
        raise ValidationError(f"sieve_primes needs limit >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds cap {MAX_SIEVE_LIMIT}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(mask), is_prime=mask)


def _check_tally(name: str, arr: np.ndarray, lo: int) -> np.ndarray:
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


def _pair_tallies(lo: int, hi: int, primes: PrimeTable) -> tuple[np.ndarray, ...]:
    """r0_pair, r1, r2 for [lo, hi) as int32 arrays, one sub-window at a time.

    The sub-windows [s, e) of _SUB integers partition the block, so each one's
    counts are complete and are assigned, not added.  For every a <= sqrt(e - 1)
    at once, b runs from isqrt(max(s - 1 - a^2, 0)) + 1 to isqrt(e - 1 - a^2);
    the (a, b) cells are expanded by repeat and cumsum, and three bincounts of
    a^2 + b^2 - s fill r0 (all cells), r1 (prime b) and r2 (prime a and b).
    Memory is O(_SUB + sqrt(hi)) beyond the three output arrays, and the work
    O(width + cells + (width / _SUB) * sqrt(hi)).
    """
    width = hi - lo
    r0 = np.empty(width, dtype=np.int32)
    r1 = np.empty(width, dtype=np.int32)
    r2 = np.empty(width, dtype=np.int32)
    is_p = primes.is_prime
    for s in range(lo, hi, _SUB):
        e = min(s + _SUB, hi)
        a = np.arange(1, math.isqrt(e - 1) + 1, dtype=np.int64)
        a2 = a * a
        blo = _isqrt(np.maximum(s - 1 - a2, 0)) + 1
        cnt = np.maximum(_isqrt(e - 1 - a2) - blo + 1, 0)
        ends = np.cumsum(cnt)
        b = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - cnt - blo, cnt)
        idx = np.repeat(a2 - s, cnt) + b * b
        prime_b = is_p[b]
        idx1 = idx[prime_b]
        out = slice(s - lo, e - lo)
        r0[out] = np.bincount(idx, minlength=e - s)
        r1[out] = np.bincount(idx1, minlength=e - s)
        r2[out] = np.bincount(idx1[np.repeat(is_p[a], cnt)[prime_b]], minlength=e - s)
    return r0, r1, r2


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


def _multiplicative_arrays(
    lo: int, hi: int, primes: PrimeTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """omega, phi, in_a for [lo, hi); omega and phi are 0 and 1 off A.

    Every n in A is 1 mod 4, so the walk runs only on the lattice
    n = n0 + 4j of the block, with strided slice updates and no per-prime
    division, power or boolean mask.  The odd prime powers m = p^k <= hi - 1
    start at j = -n0 * 4^-1 mod m, computed for all of them at once.

    * A prime 3 mod 4 clears in_a at its multiples and does nothing else.
    * A prime 1 mod 4 multiplies smooth by p and phi by p - 1 at its
      multiples and adds one to omega; each p^k, k >= 2, multiplies smooth
      and phi by p.  n // smooth(n) is then, on A, 1 or the single prime
      factor above sqrt(hi - 1): one division per block.

    Headroom: smooth and phi never exceed n <= MAX_SIEVE_LIMIT < 2^31, so
    both are int32.  omega is at most 9 < 2^7.
    """
    width = hi - lo
    top = hi - 1
    n0 = lo + (1 - lo) % 4
    n = np.arange(n0, hi, 4, dtype=np.int32)
    size = n.size
    smooth = np.ones(size, dtype=np.int32)
    om = np.zeros(size, dtype=np.int8)
    ph = np.ones(size, dtype=np.int32)
    ina = np.ones(size, dtype=bool)
    cut = int(np.searchsorted(primes.primes, math.isqrt(top), side="right"))
    odd = primes.primes[1:cut].astype(np.int64)
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
    # On A what survives is 1 or a single prime above sqrt(hi - 1), 1 mod 4;
    # off A, omega and phi are reset to their fixed values.
    val = n // smooth
    ina &= (val & 3) == 1
    om += val > 1
    ph *= np.maximum(val - 1, 1)
    om *= ina
    ph = np.where(ina, ph, 1)
    full_om = np.zeros(width, dtype=np.int8)
    full_ph = np.ones(width, dtype=np.int32)
    full_ina = np.zeros(width, dtype=bool)
    lattice = slice(n0 - lo, width, 4)
    full_om[lattice] = om
    full_ph[lattice] = ph
    full_ina[lattice] = ina
    return full_om, full_ph, full_ina


def sieve_block(cfg: SieveConfig, lo: int, hi: int, primes: PrimeTable) -> RepresentationBlock:
    """Tally r0_pair, r1, r2 for [lo, hi), plus omega, phi and in_a when
    cfg.multiplicative is set.

    Parameters
    ----------
    cfg : SieveConfig
        Supplies the overall limit bound, 1 <= lo < hi <= cfg.limit + 1, and
        the kernels to run.
    lo, hi : int
        Half-open block bounds.
    primes : PrimeTable
        Must cover floor(sqrt(hi - 1)).

    Returns
    -------
    RepresentationBlock

    Raises
    ------
    TallyOverflowError
        If any tally would exceed 16 bits (never silently saturates).
    """
    if lo < 1 or hi <= lo or hi > cfg.limit + 1:
        raise ValidationError(f"block [{lo}, {hi}) out of range for limit {cfg.limit}")
    if primes.limit < math.isqrt(hi - 1):
        raise ValidationError(
            f"prime table limit {primes.limit} below sqrt({hi - 1})"
        )
    r0, r1, r2 = _pair_tallies(lo, hi, primes)
    om = ph = ina = None
    if cfg.multiplicative:
        om, ph, ina = _multiplicative_arrays(lo, hi, primes)
    return RepresentationBlock(
        lo=lo,
        hi=hi,
        r0_pair=_check_tally("r0_pair", r0, lo),
        r1=_check_tally("r1", r1, lo),
        r2=_check_tally("r2", r2, lo),
        omega=om,
        phi=ph,
        in_a=ina,
    )


def sieve_all(cfg: SieveConfig) -> Iterator[RepresentationBlock]:
    """Stream RepresentationBlocks covering [1, limit] in ascending order.

    Each block is sieved in this process when the consumer asks for the next
    one, so blocks arrive in order whatever their size.
    """
    primes = sieve_primes(max(2, math.isqrt(cfg.limit)))
    for lo, hi in cfg.block_ranges():
        yield sieve_block(cfg, lo, hi, primes)


def write_blocks(handle: BinaryIO, blocks: Iterable[RepresentationBlock]) -> int:
    """Dump blocks to an open binary file; returns the number written.

    Record layout (version 2): magic "PCTY", version u32, lo u64, hi u64,
    then the three u16 little-endian arrays r0_pair, r1, r2.  r0_div is not
    stored: it is r0_pair + [n is a square].
    """
    count = 0
    for blk in blocks:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, blk.lo, blk.hi))
        for arr in (blk.r0_pair, blk.r1, blk.r2):
            handle.write(np.ascontiguousarray(arr, dtype="<u2").tobytes())
        count += 1
    return count


def read_blocks(handle: BinaryIO) -> Iterator[RepresentationBlock]:
    """Read back a block dump produced by write_blocks; a record of any other
    version is refused."""
    while True:
        head = handle.read(_HEADER.size)
        if not head:
            return
        if len(head) != _HEADER.size:
            raise ValidationError("truncated block header")
        magic, version, lo, hi = _HEADER.unpack(head)
        if magic != _MAGIC or version != _VERSION:
            raise ValidationError(f"bad block header: magic={magic!r} version={version}")
        # Before any read: no sieve writes past the cap, and read(2 * width)
        # allocates its buffer up front.
        if not 1 <= lo < hi <= MAX_SIEVE_LIMIT + 1:
            raise ValidationError(f"bad block range [{lo}, {hi}) in header")
        width = hi - lo
        arrays = []
        for _ in range(3):
            raw = handle.read(2 * width)
            if len(raw) != 2 * width:
                raise ValidationError("truncated block payload")
            arrays.append(np.frombuffer(raw, dtype="<u2").copy())
        yield RepresentationBlock(lo, hi, *arrays)
