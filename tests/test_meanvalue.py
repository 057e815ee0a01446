"""Checkpointed mean values vs direct sums over the oracle tallies."""

import io
import math
import tracemalloc
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity import meanvalue, sieve
from paucity.arith import factorize
from paucity.constants import STATISTICS, Tallies, find_statistic
from paucity.errors import ValidationError
from paucity.meanvalue import (
    CheckpointGrid,
    MeanValueSeries,
    accumulate,
    csv_fields,
    read_csv,
    task_ranges,
    write_csv,
)
from paucity.quadruples import enumerate_offdiag
from paucity.sieve import SieveConfig, sieve_primes

import oracles
from oracles import in_A, omega, phi

LIMIT = 10000
GRID = CheckpointGrid(points=(10, 100, 1000, 10000))
R0, R0D, R1, R2 = oracles.r_arrays_slow(LIMIT)
# The statistics with float64 terms; every other term is int64 or bool.
FLOAT_STATISTICS = {"DISPERSION", "LEMMA31", "LEMMA32"}


def _cfg(block_size=2048, limit=LIMIT):
    return SieveConfig(limit=limit, block_size=block_size)


def _slow_sum(term: np.ndarray) -> list[int]:
    return [int(term[1 : x + 1].sum()) for x in GRID.points]


def test_grid_validation():
    with pytest.raises(ValidationError):
        CheckpointGrid(points=())
    with pytest.raises(ValidationError):
        CheckpointGrid(points=(1, 10))
    with pytest.raises(ValidationError):
        CheckpointGrid(points=(10, 10))
    geo = CheckpointGrid.geometric(25000, ratio=10, start=1000)
    assert geo.points == (1000, 10000, 25000)


def _dispersion(c, cfg, r0_convention="pair"):
    return accumulate(
        cfg, GRID, ["DISPERSION"], r0_convention=r0_convention, dispersion_c=c
    )[0]


def test_integer_statistics_match_direct_sums():
    expected = {
        "S00": _slow_sum(R0 * R0),
        "S01": _slow_sum(R0 * R1),
        "S02": _slow_sum(R0 * R2),
        "S11": _slow_sum(R1 * R1),
        "S12": _slow_sum(R1 * R2),
        "S22": _slow_sum(R2 * R2),
        "M1": _slow_sum(R1),
        "M2": _slow_sum(R2),
        "R2CUBE": _slow_sum(R2**3),
        "SUPP1": _slow_sum((R1 > 0).astype(np.int64)),
        "SUPP2": _slow_sum((R2 > 0).astype(np.int64)),
    }
    # The Landau counts have their own oracles in test_landau_counts_exact.
    exact = set(STATISTICS) - FLOAT_STATISTICS - {"LANDAU_B", "COUNT_A"}
    assert set(expected) == exact
    series = accumulate(_cfg(), GRID, list(expected))
    for s in series:
        assert list(s.values) == expected[s.statistic], s.statistic
        assert all(isinstance(v, int) for v in s.values)


def test_div_convention():
    series = accumulate(_cfg(), GRID, ["S00", "S01"], r0_convention="div")
    assert list(series[0].values) == _slow_sum(R0D * R0D)
    assert list(series[1].values) == _slow_sum(R0D * R1)
    with pytest.raises(ValidationError):
        accumulate(_cfg(), GRID, ["S01"], r0_convention="both")


def test_known_small_values():
    grid = CheckpointGrid(points=(10, 30, 49, 50))
    series = accumulate(_cfg(limit=50), grid, ["S01", "M2", "S12", "S22"])
    by_name = {s.statistic: list(s.values) for s in series}
    assert by_name["S01"][0] == 5
    assert by_name["M2"][0] == 1
    assert by_name["M2"][1] == 6
    assert by_name["S12"][2:] == [14, 16]
    assert by_name["S22"][2:] == [14, 15]


def test_chain_inequalities():
    series = accumulate(_cfg(), GRID, ["S11", "S12", "S22"])
    s11, s12, s22 = (list(s.values) for s in series)
    for a, b, c in zip(s11, s12, s22):
        assert c <= b <= a
    for name, vals in (("S11", s11), ("S12", s12), ("S22", s22)):
        assert all(x < y for x, y in zip(vals, vals[1:])), name


def test_cauchy_schwarz():
    series = accumulate(_cfg(), GRID, ["S11", "S12", "S22"])
    s11, s12, s22 = (list(s.values) for s in series)
    for a, b, c in zip(s11, s12, s22):
        assert b * b <= a * c


def test_dispersion_matches_fsum():
    for c, convention, r0 in ((1.0, "pair", R0), (0.0, "pair", R0), (2.5, "div", R0D)):
        series = _dispersion(c, _cfg(), r0_convention=convention)
        assert series.statistic == f"DISPERSION(c={c:g})"
        for x, got in zip(GRID.points, series.values):
            terms = [
                (R1[n] - c * r0[n] / math.log(n)) ** 2 for n in range(2, x + 1)
            ]
            assert got == pytest.approx(math.fsum(terms), rel=1e-12, abs=1e-9), (c, x)
    with pytest.raises(ValidationError):
        _dispersion(-1.0, _cfg())


def test_float_determinism_across_geometry(monkeypatch):
    # mean rounds the block size up to a multiple of _ATOM; at 256 the sizes
    # below give 1, 2, 20, 3 and 40 tasks.
    monkeypatch.setattr(meanvalue, "_ATOM", 256)
    stats = ["DISPERSION", "LEMMA31", "LEMMA32", "LANDAU_B", "COUNT_A"]

    def values(block_size):
        cfg = _cfg(block_size=block_size)
        return [s.values for s in accumulate(cfg, GRID, stats)]

    base = values(LIMIT)
    for block_size in (7777, 512, 4096, 99):
        assert values(block_size) == base, block_size


def test_slice_width_does_not_change_any_series(monkeypatch):
    # Every sum is cut at the multiples of _ATOM and at the checkpoint
    # edges.  Some checkpoints p have their edge p + 1 on such a cut (333,
    # 666, 2331; 4096, 8192) or on a 2048-wide block's edge (2049, 4097,
    # 6145); the others cut a slice.  The int series must not depend on the
    # width or the block size.  The width is the float series' cut grid, so
    # at each width they must not depend on the block size.
    grid = CheckpointGrid(
        points=(2, 332, 333, 665, 2048, 2330, 4095, 4096, 6144, 8191, 9999, 10000)
    )
    runs = {}
    for width in (333, 4096, 1 << 16, 1 << 18):
        monkeypatch.setattr(meanvalue, "_ATOM", width)
        for block_size in (2048, LIMIT):
            cfg = _cfg(block_size=block_size)
            runs[width, block_size] = accumulate(cfg, grid, list(STATISTICS))
    base = runs[333, 2048]
    assert len(base) == len(STATISTICS)
    direct = {"S01": R0 * R1, "M2": R2, "SUPP1": R1 > 0}
    for series in base:
        if series.statistic in direct:
            want = [int(direct[series.statistic][1 : p + 1].sum()) for p in grid.points]
            assert list(series.values) == want, series.statistic
    for (width, block_size), run in runs.items():
        for got, want, same_width in zip(run, base, runs[width, 2048]):
            name = find_statistic(got.statistic).name
            expected = same_width if name in FLOAT_STATISTICS else want
            assert got.values == expected.values, (got.statistic, width, block_size)


def _block_walk(block):
    """The walk of `block`, run once on first call, as _Plan.reduce runs it."""
    primes = sieve_primes(max(2, math.isqrt(block.hi - 1)))
    return cache(lambda: sieve.multiplicative_arrays(block.lo, block.hi, primes))


def _sliced_tallies(block, lo, hi, c, convention):
    """Tallies of n in [lo, hi) of `block`, built as _Plan.reduce builds them
    from a window's arrays."""
    pairs = (arr[lo - block.lo : hi - block.lo] for arr in (block.r0_pair, block.r1, block.r2))
    return Tallies(*pairs, _block_walk(block), block.lo, lo, hi, c, convention)


def test_support_terms_match_dense_formulas():
    # Terms are evaluated only where they can be nonzero.  The float terms
    # must equal the dense formulas evaluated at every n, array for array;
    # the exact r terms, which list the support only, must have their sums.
    block = next(oracles.blocks(_cfg(block_size=LIMIT)))
    omega_full, phi_full, in_a_full = oracles.spread_walk(block.lo, block.hi, _block_walk(block)())
    in_a = np.flatnonzero(in_a_full) + 1
    k = int(np.argmax(np.diff(in_a) > 20))
    outside_a = (int(in_a[k]) + 1, int(in_a[k]) + 21)
    # n = 6, 7 have r0 = 0 under both conventions, and neither is in A.
    windows = [(1, 3000), (2, 40), (6, 8), outside_a, (4097, 10001)]
    for lo, hi in windows:
        for convention in ("pair", "div"):
            for c in (0.0, 1.0, 2.5):
                v = _sliced_tallies(block, lo, hi, c, convention)
                om, ph, ina = (a[lo - 1 : hi - 1] for a in (omega_full, phi_full, in_a_full))
                assert ina.any() != ((lo, hi) in ((6, 8), outside_a))
                assert np.array_equal(v.on_a, np.flatnonzero(ina)), (lo, hi)
                r0, r1, r2 = (R0D if convention == "div" else R0)[lo:hi], R1[lo:hi], R2[lo:hi]
                disp = oracles.dispersion_terms_dense(lo, r0, r1, c)
                l31, l32 = oracles.lemma_terms_dense(lo, om, ph, ina)
                for name, dense in (("DISPERSION", disp), ("LEMMA31", l31), ("LEMMA32", l32)):
                    got = STATISTICS[name].term(v)
                    assert got.dtype == np.float64, name
                    assert np.array_equal(got, dense), (name, lo, convention, c)
                for name, dense in (
                    ("S01", r0 * r1), ("R2CUBE", r2**3), ("SUPP2", r2 > 0), ("COUNT_A", ina)
                ):
                    assert np.sum(STATISTICS[name].term(v)) == dense.sum(), (name, lo)


def test_float_accumulator_keeps_no_view():
    # What a worker sends back for a task: per statistic, one Python int or
    # float per interval the task closes, and no array, not even for the
    # pieces the last task leaves open past the last checkpoint.
    atom = meanvalue._ATOM
    cfg = SieveConfig(limit=(1 << 21) + 4999, block_size=1 << 20)
    primes = sieve_primes(math.isqrt(cfg.limit))
    grid = CheckpointGrid(points=(100000, 500000, (1 << 21) + 2999))
    stats = [*sorted(FLOAT_STATISTICS), "S01", "SUPP1", "COUNT_A"]
    plan = meanvalue._Plan(cfg, grid, stats, "pair", 1.0)
    assert task_ranges(cfg)[1:] == [(1 << 20, 1 << 21), (1 << 21, cfg.limit + 1)]
    for lo, hi, cuts in (
        # 16 multiples of _ATOM and 2 checkpoint edges fall in (lo, hi].
        (1 << 20, 1 << 21, range((1 << 20) + atom, (1 << 21) + 1, atom)),
        (1 << 21, cfg.limit + 1, [(1 << 21) + 3000]),
    ):
        reduction = plan.reduce(lo, hi, primes)
        assert (reduction.lo, reduction.hi) == (lo, hi)
        assert vars(reduction).keys() == {"lo", "hi", "sums"}
        for name, sums in zip(stats, reduction.sums):
            kind = float if name in FLOAT_STATISTICS else int
            assert [cut for cut, _ in sums] == list(cuts), name
            assert all(type(cut) is int and type(x) is kind for cut, x in sums), name


def test_registry_term_dtypes():
    # A term's dtype sets its summation: int64 and bool terms exactly (the
    # series print ints), float64 terms compensated (they print floats).
    block = next(oracles.blocks(_cfg(block_size=LIMIT)))
    for lo, hi in ((1, 3000), (4097, 10001)):
        for convention in ("pair", "div"):
            v = _sliced_tallies(block, lo, hi, 1.0, convention)
            for name, stat in STATISTICS.items():
                dtype = stat.term(v).dtype
                want = (np.float64,) if name in FLOAT_STATISTICS else (np.bool_, np.int64)
                assert dtype in want, (name, lo, convention, dtype)
    for series in accumulate(_cfg(), GRID, list(STATISTICS)):
        kind = float if find_statistic(series.statistic).name in FLOAT_STATISTICS else int
        for x, raw in zip(GRID.points, series.values):
            assert type(raw) is kind, series.statistic
            printed = csv_fields(series.statistic, x, raw)[0]
            assert printed == (f"{raw:.15g}" if kind is float else str(raw)), series.statistic


def test_accumulate_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no sieve may run")

    # Every refusal comes before the first sieve.
    monkeypatch.setattr(meanvalue, "sieve_primes", refuse)
    monkeypatch.setattr(meanvalue, "pair_windows", refuse)
    too_large = math.nextafter(meanvalue.MAX_DISPERSION_C, math.inf)
    for cfg, stats, options in (
        (_cfg(), [], {}),
        (_cfg(), ["S99"], {}),
        (_cfg(), ["S01", "S01"], {}),
        (_cfg(), ["COUNT_A", "COUNT_A"], {}),
        (_cfg(), ["DISPERSION"], {"dispersion_c": math.nan}),
        (_cfg(), ["DISPERSION"], {"dispersion_c": math.inf}),
        (_cfg(), ["DISPERSION"], {"dispersion_c": too_large}),
        (_cfg(), ["S01"], {"dispersion_c": 1e200}),
        (_cfg(), ["S01"], {"r0_convention": "both"}),
        (_cfg(limit=5000), ["S01"], {}),
    ):
        with pytest.raises(ValidationError):
            accumulate(cfg, GRID, stats, **options)


def test_walk_runs_only_when_read(monkeypatch):
    # The reduction runs a block's walk behind omega, phi and in_a the first
    # time a term reads one of them, and never twice.
    calls = []
    walk = sieve.multiplicative_arrays

    def counted(lo, hi, primes):
        calls.append((lo, hi))
        return walk(lo, hi, primes)

    monkeypatch.setattr(meanvalue, "multiplicative_arrays", counted)
    monkeypatch.setattr(meanvalue, "_ATOM", 2048)
    cfg = _cfg()
    assert len(task_ranges(cfg)) == 5
    walked = {"LEMMA31", "LEMMA32", "COUNT_A"}
    pairs_only = [name for name in STATISTICS if name not in walked]
    assert len(pairs_only) == 13
    for convention in ("pair", "div"):
        accumulate(cfg, GRID, pairs_only, r0_convention=convention)
        assert calls == [], convention
    accumulate(cfg, GRID, ["LEMMA31", "LEMMA32", "COUNT_A", "S01"])
    assert calls == task_ranges(cfg)


@pytest.mark.parametrize("block_size", [2, 65535, 65536, 65537, 3 << 18, 1 << 22])
def test_task_ranges_close_on_the_cut_grid(block_size):
    # Tasks cover [1, limit] in order, every inner edge on a multiple of
    # _ATOM, each as wide as the rounded block size but the first, which
    # starts at 1, and the last, which ends at limit + 1.
    atom = meanvalue._ATOM
    width = -(-block_size // atom) * atom
    assert width in (atom, 2 * atom, 3 << 18, 1 << 22)
    limits = {1, 2, 3 << 20, 10**7, *(k * m + d for m in (atom, width)
                                     for k in (1, 2, 5) for d in (-2, -1, 0, 1))}
    for limit in sorted(limits):
        ranges = task_ranges(SieveConfig(limit=limit, block_size=block_size))
        assert ranges[0][0] == 1 and ranges[-1][1] == limit + 1, limit
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), limit
        assert all(hi % atom == 0 for _, hi in ranges[:-1]), limit
        widths = [hi - lo for lo, hi in ranges]
        assert widths[0] == min(width - 1, limit), limit
        assert all(w == width for w in widths[1:-1]), limit
        assert 1 <= widths[-1] <= width, limit
    # A limit on the task grid leaves a one-integer last task.
    assert task_ranges(SieveConfig(limit=width, block_size=block_size)) == [
        (1, width), (width, width + 1)
    ]


def test_block_size_sets_no_finer_task(monkeypatch):
    # A block size below _ATOM sieves no more windows than one of _ATOM.
    calls = []
    windows = sieve.pair_windows

    def counted(lo, hi, primes):
        calls.append((lo, hi))
        return windows(lo, hi, primes)

    monkeypatch.setattr(meanvalue, "pair_windows", counted)
    grid = CheckpointGrid.geometric(300000)
    runs = {}
    for block_size in (64, 1 << 16):
        calls.clear()
        series = accumulate(SieveConfig(300000, block_size), grid, ["S01", "DISPERSION"])
        runs[block_size] = series, list(calls)
    assert runs[64] == runs[1 << 16]
    assert len(runs[64][1]) == 5


def test_accumulate_memory():
    # The walk keeps only its list of A (offsets, omega and phi there), its
    # temporaries are lattice-sized, and it dies with its block's reduction;
    # the pair tallies are reduced a window at a time.  Every statistic at
    # 1e7 peaks at 9.8 MiB with landau_ramanujan's sieve for the constants
    # and at 8.0 MiB once it is cached, the size of the allocator step's
    # array, never touched.  It peaked at 13.9 MiB while two blocks of pair
    # tallies were alive, 15.0 MiB while the last block kept its walk and
    # 19.9 MiB with omega, phi and in_a at every n.
    cfg = SieveConfig(limit=10**7)
    tracemalloc.start()
    try:
        accumulate(cfg, CheckpointGrid.geometric(cfg.limit), list(STATISTICS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2**20, peak / 2**20


@pytest.mark.parametrize("block_size", [1 << 20, 1 << 22])
def test_block_width_costs_no_tally_memory(block_size):
    # The pair tallies are reduced a window at a time, so a wider block
    # costs S01 no memory: 8.0 MiB at both widths, the allocator step's
    # untouched array (3.5 MiB without it), against 13.7 and 49.7 MiB while
    # a block's tallies and the last block's were alive.
    cfg = SieveConfig(limit=10**7, block_size=block_size)
    tracemalloc.start()
    try:
        accumulate(cfg, CheckpointGrid.geometric(cfg.limit), ["S01"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


@st.composite
def _window_geometry(draw):
    """(limit, checkpoints, block size, _SUB, workers) with at most 256
    blocks and 300 windows, and checkpoint edges p + 1 on or next to the
    multiples of 2^16."""
    atom = meanvalue._ATOM
    edges = [k * atom + d for k in range(1, 5) for d in (-1, 0, 1)]
    block_size = draw(st.sampled_from([2, 333, atom - 1, atom, atom + 1, 1 << 22])
                      | st.integers(2, 1 << 22))
    top = min(3 * 10**5, 256 * block_size)
    limit = draw(st.sampled_from([top, *(e for e in edges if e <= top)]) | st.integers(3, top))
    points = draw(st.sets(st.sampled_from(edges) | st.integers(3, limit), max_size=6))
    points = sorted(p for p in {e - 1 for e in points} | {limit} if 3 <= p <= limit)
    sub = draw(st.sampled_from([1 << 17, 1 << 16, 65537, 99991, 3 << 15])
               | st.integers(1000, 1 << 20))
    return limit, tuple(points), block_size, max(sub, -(-limit // 300)), draw(st.sampled_from([1, 2]))


@settings(max_examples=40)
@given(_window_geometry())
def test_mean_bytes_do_not_depend_on_windows(geometry):
    # mean.csv at any block size, window width and worker count equals the
    # one from a single block at the default window width.
    limit, points, block_size, sub, workers = geometry
    grid = CheckpointGrid(points=points)
    stats = list(STATISTICS)

    def mean_csv(cfg, workers=1):
        buf = io.StringIO()
        write_csv(buf, accumulate(cfg, grid, stats, workers=workers), grid)
        return buf.getvalue()

    want = mean_csv(SieveConfig(limit=limit, block_size=limit))
    with mock.patch.object(sieve, "_SUB", sub):
        got = mean_csv(SieveConfig(limit=limit, block_size=block_size), workers)
    assert got == want, geometry


def test_support_counts():
    supp1, supp2 = accumulate(_cfg(), GRID, ["SUPP1", "SUPP2"])
    assert list(supp1.values) == _slow_sum((R1 > 0).astype(np.int64))
    assert list(supp2.values) == _slow_sum((R2 > 0).astype(np.int64))


def test_lemma_sums_match_fsum():
    l31, l32 = accumulate(_cfg(), GRID, ["LEMMA31", "LEMMA32"])
    w = np.zeros(LIMIT + 1)
    ph = np.zeros(LIMIT + 1)
    for n in range(1, LIMIT + 1):
        f = factorize(n)
        if in_A(f):
            w[n] = 2.0 ** omega(f) / n
            ph[n] = 2.0 ** omega(f) / phi(f)
    for x, got31, got32 in zip(GRID.points, l31.values, l32.values):
        assert got31 == pytest.approx(math.fsum(w[1 : x + 1]), rel=1e-13)
        assert got32 == pytest.approx(math.fsum(ph[1 : x + 1]), rel=1e-13)


def test_landau_counts_exact():
    lb, ca = accumulate(_cfg(), GRID, ["LANDAU_B", "COUNT_A"])
    b = np.array([0] + [oracles.two_squares_slow(n) for n in range(1, LIMIT + 1)], dtype=np.int64)
    a = np.array([0] + [oracles.in_a_slow(n) for n in range(1, LIMIT + 1)], dtype=np.int64)
    assert list(lb.values) == _slow_sum(b)
    assert list(ca.values) == _slow_sum(a)


def test_partition_exact_small():
    points = tuple(oracles.FROZEN_PARTITION)
    s22 = accumulate(_cfg(limit=points[-1]), CheckpointGrid(points=points), ["S22"])[0]
    for x, got_s22 in zip(points, s22.values):
        want = oracles.FROZEN_PARTITION[x]
        census = enumerate_offdiag(x, collect=False)
        assert (census.s12, census.diagonal, census.n) == (
            want["s12"], want["diagonal"], want["offdiag"]
        ), x
        assert got_s22 == want["s22"], x


def test_partition_consistent_with_s12_series():
    grid = CheckpointGrid(points=(1000,))
    series = accumulate(_cfg(limit=1000), grid, ["S12"])
    census = enumerate_offdiag(1000, collect=False)
    assert census.s12 == series[0].values[0]
    assert census.s12 - census.diagonal == census.n == oracles.FROZEN_CENSUS[1000]["N"]


def test_csv_round_trip():
    series = accumulate(_cfg(), GRID, ["S01", "S22"])
    series.append(_dispersion(1.0, _cfg()))
    buf = io.StringIO()
    write_csv(buf, series, GRID)
    text = buf.getvalue()
    assert text.startswith("x,statistic,raw_value,normalized_value,predicted_constant,deviation\n")
    assert "\r" not in text
    rows = read_csv(io.StringIO(text))
    assert len(rows) == 3 * len(GRID.points)
    s01 = [r for r in rows if r["statistic"] == "S01"]
    assert [r["x"] for r in s01] == list(GRID.points)
    assert [r["raw_value"] for r in s01] == [float(v) for v in series[0].values]
    disp = [r for r in rows if r["statistic"].startswith("DISPERSION")]
    assert all(math.isnan(r["predicted_constant"]) for r in disp)


def test_csv_rejects_bad_header():
    with pytest.raises(ValidationError):
        read_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_series_validation():
    with pytest.raises(ValidationError):
        MeanValueSeries(statistic="S01", values=(), limit=100)
    buf = io.StringIO()
    with pytest.raises(ValidationError):
        write_csv(buf, [MeanValueSeries("S01", (1, 2), 100)], GRID)


@settings(max_examples=20)
@given(st.integers(2, 900))
def test_accumulate_geometry_free(block_size):
    grid = CheckpointGrid(points=(7, 50, 444, 2000))
    stats = ["S11", "M2", "DISPERSION"]
    # At an _ATOM of 64 the block sizes give 3 to 32 tasks.
    with mock.patch.object(meanvalue, "_ATOM", 64):
        series = accumulate(_cfg(block_size=block_size, limit=2000), grid, stats)
        whole = accumulate(_cfg(block_size=2000, limit=2000), grid, ["DISPERSION"])
    assert list(series[0].values) == [int((R1[1 : x + 1] ** 2).sum()) for x in grid.points]
    assert list(series[1].values) == [int(R2[1 : x + 1].sum()) for x in grid.points]
    # The float sums of many tasks equal those of one, bit for bit.
    assert series[2].values == whole[0].values
