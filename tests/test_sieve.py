"""Segmented representation sieve vs direct enumeration."""

import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity import sieve
from paucity.arith import factorize
from paucity.constants import STATISTICS, Tallies
from paucity.errors import CapacityError, TallyOverflowError, ValidationError
from paucity.sieve import (
    MAX_BLOCK_SIZE,
    MAX_SIEVE_LIMIT,
    PrimeTable,
    SieveConfig,
    chi4_divisor_sums,
    multiplicative_arrays,
    sieve_primes,
    write_blocks,
)

import oracles
from oracles import in_A, is_sum_two_squares, omega, phi

ORACLE_LIMIT = 30000
ORACLE = oracles.r_arrays_slow(ORACLE_LIMIT)


def _collect(cfg: SieveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    out = [np.zeros(cfg.limit + 1, dtype=np.int64) for _ in range(4)]
    for block in oracles.blocks(cfg):
        for arr, field in zip(out, ("r0_pair", "r0_div", "r1", "r2")):
            arr[block.lo : block.hi] = getattr(block, field)
    return tuple(out)


def test_sieve_primes_small():
    table = sieve_primes(100)
    assert table.primes.tolist() == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    ]
    assert table.count == 25
    assert bool(table.is_prime[97]) and not bool(table.is_prime[91])


def test_sieve_primes_pi_million():
    assert sieve_primes(10**6).count == 78498


def test_sieve_primes_match_eratosthenes():
    for limit in [*range(2, 2001), 10**6]:
        table = sieve_primes(limit)
        assert "is_prime" not in vars(table), limit  # built on first read only
        mask = oracles.eratosthenes(limit)
        assert table.primes.dtype == np.int64, limit
        assert np.array_equal(table.primes, np.flatnonzero(mask)), limit
        assert table.is_prime.dtype == np.bool_ and np.array_equal(table.is_prime, mask), limit


def test_sieve_primes_bounds():
    assert sieve_primes(2).count == 1
    with pytest.raises(ValidationError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(MAX_SIEVE_LIMIT + 1)


def test_config_validation():
    with pytest.raises(ValidationError):
        SieveConfig(limit=0)
    with pytest.raises(ValidationError):
        SieveConfig(limit=10, block_size=1)
    with pytest.raises(CapacityError):
        SieveConfig(limit=MAX_SIEVE_LIMIT + 1)
    SieveConfig(limit=MAX_SIEVE_LIMIT, block_size=MAX_BLOCK_SIZE)
    with pytest.raises(CapacityError):
        SieveConfig(limit=MAX_SIEVE_LIMIT, block_size=MAX_BLOCK_SIZE + 1)


def test_tallies_match_direct_enumeration():
    got = _collect(SieveConfig(limit=ORACLE_LIMIT, block_size=4096))
    for mine, ref in zip(got, ORACLE):
        assert np.array_equal(mine[1:], ref[1:])


def test_frozen_small_support():
    _, _, _, r2 = _collect(SieveConfig(limit=30))
    assert {n: int(r2[n]) for n in range(1, 31) if r2[n]} == oracles.FROZEN_R2_SUPPORT_30
    assert int(r2.sum()) == 6


def test_divisor_form_counts_square_root_term():
    r0, r0d, _, _ = _collect(SieveConfig(limit=5000, block_size=777))
    n = np.arange(1, 5001)
    squares = (np.sqrt(n).astype(np.int64) ** 2 == n).astype(np.int64)
    assert np.array_equal(r0d[1:], r0[1:] + squares)


def test_multiplicative_arrays_match_factorize():
    limit = 20000
    primes = sieve_primes(141)
    # n = 1, blocks with lo > 1, and a block ending at the limit.
    for lo, hi in ((1, 600), (500, 1200), (9999, 10500), (19000, limit + 1)):
        r0_div = chi4_divisor_sums(lo, oracles.joined_windows(lo, hi, primes)[0])
        om, ph, in_a = oracles.spread_walk(lo, hi, multiplicative_arrays(lo, hi, primes))
        for n in range(lo, hi):
            f = factorize(n)
            i = n - lo
            assert bool(in_a[i]) == in_A(f), n
            # omega and phi are listed on A only.
            if in_A(f):
                assert om[i] == omega(f), n
                assert ph[i] == phi(f), n
            assert bool(r0_div[i] > 0) == is_sum_two_squares(f), n


def test_multiplicative_arrays_near_cap():
    # The multiplicative walk keeps smooth parts and phi (both <= n) in int32.
    assert MAX_SIEVE_LIMIT < 2**31
    cap = MAX_SIEVE_LIMIT
    primes = sieve_primes(math.isqrt(cap))
    # 31607 is the largest prime below sqrt(cap); its square needs every
    # prime of the table, and the powers are the highest of their primes.
    assert oracles.is_prime_slow(31607) and primes.primes[-1] == 31607
    windows = [(cap - 3000, cap + 1)]
    windows += [(q - 300, q + 301) for q in (2**29, 3**18, 5**12, 7**10, 13**8, 31607**2)]
    want = oracles.multiplicative_slow(np.concatenate([np.arange(lo, hi) for lo, hi in windows]))
    blocks = []
    for lo, hi in windows:
        r0, r1, r2 = oracles.joined_windows(lo, hi, primes)
        blocks.append(oracles.Block(lo, hi, r0, chi4_divisor_sums(lo, r0), r1, r2))
    # r0_div comes from r0_pair alone, before any walk has run.
    pairs = ("r0_pair", "r1", "r2", "r0_div")
    before = {f: np.concatenate([getattr(b, f) for b in blocks]) for f in pairs}
    assert np.array_equal(before["r0_div"], want[0])
    walks = [oracles.spread_walk(lo, hi, multiplicative_arrays(lo, hi, primes))
             for lo, hi in windows]
    got = {f: np.concatenate([w[i] for w in walks]) for i, f in enumerate(("omega", "phi", "in_a"))}
    got["r0_div"] = np.concatenate([b.r0_div for b in blocks])
    r0_div, om, ph, in_a = want
    assert np.array_equal(got["r0_div"], r0_div)
    assert np.array_equal(got["in_a"], in_a)
    # omega and phi are listed on A only; the windows hold 464 n in A.
    assert np.count_nonzero(in_a) > 400
    assert np.array_equal(got["omega"][in_a], om[in_a])
    assert np.array_equal(got["phi"][in_a], ph[in_a])
    # Running the walk leaves the pair tallies and r0_div as they were.
    for field in pairs:
        after = np.concatenate([getattr(b, field) for b in blocks])
        assert np.array_equal(after, before[field]), field


CAP_PRIMES = sieve_primes(math.isqrt(MAX_SIEVE_LIMIT + 1))


def test_inverse_of_4_closed_form():
    # Every p^k <= MAX_SIEVE_LIMIT for p = 1 (mod 4), and every p = 3 (mod 4).
    mods = []
    for p in CAP_PRIMES.primes[1:].tolist():
        pk = p
        while pk <= MAX_SIEVE_LIMIT:
            mods.append(pk)
            if p % 4 == 3:
                break
            pk *= p
    m = np.array(mods, dtype=np.int64)
    assert 5**12 in mods and m.size > CAP_PRIMES.count
    inv = sieve._inverse_of_4(m)
    assert ((4 * inv) % m == 1).all() and ((0 < inv) & (inv < m)).all()
    for n0 in (1, 5, 1001, MAX_SIEVE_LIMIT - 3):
        _, live, starts = map(np.array, zip(*sieve._live_strides(n0, m.max(), m, m)))
        assert np.array_equal(live, m)
        assert ((n0 + 4 * starts) % m == 0).all() and ((0 <= starts) & (starts < m)).all()


def test_multiplicative_arrays_lattice_edges():
    # Every [lo, lo + w) with lo < 60 and w < 30, including the empty
    # lattices of w < 4, then random windows below 1e9 and windows around
    # the highest powers of 5, 13 and 17 below it.
    windows = [(lo, lo + w) for lo in range(1, 60) for w in range(1, 30)]
    rng = random.Random(4)
    for _ in range(200):
        width = rng.randint(1, 80)
        lo = rng.randint(1, MAX_SIEVE_LIMIT + 1 - width)
        windows.append((lo, lo + width))
    windows += [(q - 300, q + 301) for q in (5**12, 13**8, 17**7)]
    ns = np.concatenate([np.arange(lo, hi) for lo, hi in windows])
    _, om, ph, in_a = oracles.multiplicative_slow(ns)
    arrays = [multiplicative_arrays(lo, hi, CAP_PRIMES) for lo, hi in windows]
    for walk in arrays:
        assert tuple(a.dtype for a in walk) == (np.int64, np.int8, np.int32)
    walks = [oracles.spread_walk(lo, hi, walk) for (lo, hi), walk in zip(windows, arrays)]
    got_om, got_ph, got_a = (np.concatenate([w[i] for w in walks]) for i in range(3))
    assert np.array_equal(got_a, in_a)
    assert np.array_equal(got_om[in_a], om[in_a])
    assert np.array_equal(got_ph[in_a], ph[in_a])
    assert (got_ph != 0).all()
    assert (got_om[~in_a] == 0).all() and (got_ph[~in_a] == 1).all()
    # LEMMA31 and LEMMA32 terms stay finite, phi never divides by zero.  The
    # blocks have zero pair tallies: the LEMMA terms read only the walk.
    with np.errstate(all="raise"):
        for (lo, hi), walk in zip(windows, arrays):
            zeros = np.zeros(hi - lo, dtype=np.uint16)
            tallies = Tallies(zeros, zeros, zeros, lambda: walk, lo, lo, hi, 0.0)
            for name in ("LEMMA31", "LEMMA32"):
                assert np.isfinite(STATISTICS[name].term(tallies)).all(), (name, lo)


def _assert_pairs_match(lo: int, hi: int, want: tuple[np.ndarray, ...]) -> None:
    got = oracles.joined_windows(lo, hi, CAP_PRIMES)
    for name, mine, ref in zip(("r0_pair", "r1", "r2"), got, want):
        assert mine.dtype == np.uint16 and np.array_equal(mine, ref), (name, lo, hi)


def _assert_pairs_match_loop(lo: int, hi: int) -> None:
    _assert_pairs_match(lo, hi, oracles.pair_tallies_loop(lo, hi, CAP_PRIMES.is_prime))


def test_pair_tallies_match_loop():
    # Every [lo, hi) with hi < 300 and width <= 40, each checked against a
    # slice of the loop over the widest window ending at hi.
    for hi in range(2, 300):
        base = max(1, hi - 40)
        wide = oracles.pair_tallies_loop(base, hi, CAP_PRIMES.is_prime)
        for lo in range(base, hi):
            _assert_pairs_match(lo, hi, tuple(arr[lo - base :] for arr in wide))
    top = MAX_SIEVE_LIMIT + 1
    rng = random.Random(2024)
    windows = []
    for _ in range(50):
        width = rng.randint(1, 3000)
        lo = rng.randint(1, top - width)
        windows.append((lo, lo + width))
    windows.append((top - (1 << 16), top))
    # 22349 is prime and 2 * 22349^2 <= 1e9: the r2 diagonal of a large prime.
    assert oracles.is_prime_slow(22349)
    centres = [31622**2, 2 * 22349**2] + [a * a + 1 for a in (31622, 30011, 22349, 17389)]
    windows += [(c - 300, c + 301) for c in centres]
    for lo, hi in windows:
        _assert_pairs_match_loop(lo, hi)


def test_pair_tallies_subwindow_invariance(monkeypatch):
    # Blocks [1, 5001) and [5001, 6008): neither is a multiple of 7 or 4099
    # wide, the first starts at 1 and the last ends at the limit.
    limit = 6007
    top = MAX_SIEVE_LIMIT + 1
    # One sub-window costs O(sqrt(hi)), so the top block narrows with _SUB.
    for sub, top_width in ((1, 301), (7, 2001), (4099, 9001), (2**30, 9001)):
        monkeypatch.setattr(sieve, "_SUB", sub)
        r0, _, r1, r2 = _collect(SieveConfig(limit=limit, block_size=5000))
        for mine, ref in zip((r0, r1, r2), (ORACLE[0], ORACLE[2], ORACLE[3])):
            assert np.array_equal(mine[1:], ref[1 : limit + 1]), sub
        _assert_pairs_match_loop(top - top_width, top)


def test_pair_tallies_diagonal_at_window_edges(monkeypatch):
    # r0_pair counts the half lattice b >= a twice, less the diagonal n = 2a^2
    # once.  Put 2a^2 at a sub-window's first n, at its last, and just past
    # its end, at the block's first and last sub-windows.  22349 is prime, so
    # 2 * 22349^2 is also on the r2 diagonal; 2 * 22360^2 lies near the cap.
    subs = (1, 7, 64, 4099)
    span = 2 * max(subs) + 2
    for a in (1, 2, 3, 22349, 22360):
        d = 2 * a * a
        base = max(1, d - span)
        wide = oracles.pair_tallies_loop(base, d + span, CAP_PRIMES.is_prime)
        for sub in subs:
            monkeypatch.setattr(sieve, "_SUB", sub)
            w = 2 * sub + 1
            for lo, hi in (
                (d, d + w),
                (d - sub, d - sub + w),
                (d + 1 - sub, d + 1 - sub + w),
                (d + 1 - w, d + 1),
                (d - w, d),
            ):
                if lo >= 1:
                    _assert_pairs_match(lo, hi, tuple(arr[lo - base : hi - base] for arr in wide))


def test_block_partition_invariance():
    base = _collect(SieveConfig(limit=12000, block_size=1 << 20))
    for block_size in (2, 97, 4096, 11999):
        other = _collect(SieveConfig(limit=12000, block_size=block_size))
        for a, b in zip(base, other):
            assert np.array_equal(a, b), block_size


def test_dump_round_trip():
    cfg = SieveConfig(limit=9000, block_size=2048)
    blocks = list(oracles.blocks(cfg))
    buf = io.BytesIO()
    assert write_blocks(buf, cfg) == len(blocks)
    buf.seek(0)
    loaded = list(oracles.read_blocks(buf))
    assert len(loaded) == len(blocks)
    for a, b in zip(blocks, loaded):
        assert (a.lo, a.hi) == (b.lo, b.hi)
        assert np.array_equal(a.r0_pair, b.r0_pair)
        assert np.array_equal(a.r0_div, b.r0_div)
        assert np.array_equal(a.r1, b.r1)
        assert np.array_equal(a.r2, b.r2)


def test_dump_layout():
    buf = io.BytesIO()
    assert write_blocks(buf, SieveConfig(limit=5000, block_size=2048)) == 3
    # Three records, each a header and r0_pair, r1, r2; r0_div is not stored.
    assert len(buf.getvalue()) == 3 * sieve._HEADER.size + 3 * 2 * 5000


def test_block_type_validation():
    primes = sieve_primes(9)
    walk = multiplicative_arrays(1, 5, primes)
    assert oracles.spread_walk(1, 5, walk)[2].tolist() == [True, False, False, False]
    # The walk needs every prime up to sqrt(hi - 1): 9 covers hi = 100, not 101.
    multiplicative_arrays(96, 100, primes)
    with pytest.raises(ValidationError, match=r"below sqrt\(100\)"):
        multiplicative_arrays(97, 101, primes)
    # So do the pair tallies.
    next(sieve.pair_windows(96, 100, primes))
    with pytest.raises(ValidationError, match=r"below sqrt\(100\)"):
        next(sieve.pair_windows(97, 101, primes))


def test_overflow_guard():
    from paucity.sieve import _check_tally

    big = np.zeros(10, dtype=np.int32)
    big[7] = 1 << 16
    with pytest.raises(TallyOverflowError):
        _check_tally("r1", big, lo=100)
    big[7] = (1 << 16) - 1
    assert _check_tally("r1", big, lo=100).dtype == np.uint16
    # The pair tallies check each window before it is cast into uint16.
    big[7] = 1 << 16
    with pytest.raises(TallyOverflowError, match=r"^r2\(107\) = 65536 "):
        _check_tally("r2", big, lo=100)
    # r0_div arrives as int64 from chi4_divisor_sums.
    small = np.arange(10, dtype=np.int64) * 3000
    checked = _check_tally("r0_div", small, lo=100)
    assert checked.dtype == np.uint16 and np.array_equal(checked, small)


@settings(max_examples=25)
@given(st.integers(2, 1500))
def test_arbitrary_geometry_matches_oracle(block_size):
    got = _collect(SieveConfig(limit=2500, block_size=block_size))
    for mine, ref in zip(got, ORACLE):
        assert np.array_equal(mine[1 : 2501], ref[1 : 2501])
