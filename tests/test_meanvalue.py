"""Checkpointed mean values vs direct sums over the oracle tallies."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity import meanvalue
from paucity.arith import build_spf_table, factorize, in_A, omega, phi
from paucity.constants import STATISTICS, Tallies
from paucity.errors import ValidationError
from paucity.meanvalue import (
    CheckpointGrid,
    MeanValueSeries,
    _FloatSums,
    accumulate,
    read_csv,
    write_csv,
)
from paucity.quadruples import enumerate_offdiag
from paucity.sieve import SieveConfig, sieve_all

import oracles

LIMIT = 10000
GRID = CheckpointGrid(points=(10, 100, 1000, 10000))
R0, R0D, R1, R2 = oracles.r_arrays_slow(LIMIT)


def _cfg(block_size=2048, limit=LIMIT, multiplicative=False):
    return SieveConfig(limit=limit, block_size=block_size, multiplicative=multiplicative)


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
    exact = {s.name for s in STATISTICS.values() if s.exact} - {"LANDAU_B", "COUNT_A"}
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


def test_float_determinism_across_geometry():
    stats = ["DISPERSION", "LEMMA31", "LEMMA32", "LANDAU_B", "COUNT_A"]

    def values(block_size):
        cfg = _cfg(block_size=block_size, multiplicative=True)
        return [s.values for s in accumulate(cfg, GRID, stats)]

    base = values(LIMIT)
    for block_size in (7777, 512, 4096, 99):
        assert values(block_size) == base, block_size


def test_slice_width_does_not_change_any_series(monkeypatch):
    # Slices are cut at the multiples of _SLICE.  Some checkpoints p have
    # their edge p + 1 on such a cut (333, 666, 2331; 4096, 8192) or on a
    # 2048-wide block's edge (2049, 4097, 6145); the others cut a slice.
    grid = CheckpointGrid(
        points=(2, 332, 333, 665, 2048, 2330, 4095, 4096, 6144, 8191, 9999, 10000)
    )
    runs = []
    for width in (333, 4096, 1 << 16, 1 << 18):
        monkeypatch.setattr(meanvalue, "_SLICE", width)
        for block_size in (2048, LIMIT):
            cfg = _cfg(block_size=block_size, multiplicative=True)
            runs.append(accumulate(cfg, grid, list(STATISTICS)))
    assert len(runs[0]) == len(STATISTICS)
    direct = {"S01": R0 * R1, "M2": R2, "SUPP1": R1 > 0}
    for series in runs[0]:
        if series.statistic in direct:
            want = [int(direct[series.statistic][1 : p + 1].sum()) for p in grid.points]
            assert list(series.values) == want, series.statistic
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert got.values == want.values, got.statistic


def _sliced_tallies(block, lo, hi, c, convention):
    """Tallies of n in [lo, hi) of `block`, built as _Plan.reduce builds them."""
    sl = slice(lo - block.lo, hi - block.lo)
    return Tallies(
        lo, block.r0_pair[sl], block.r1[sl], block.r2[sl],
        c, convention, block.omega[sl], block.phi[sl], block.in_a[sl],
    )


def test_support_terms_match_dense_formulas():
    # Terms are evaluated only where they can be nonzero.  The float terms
    # must equal the dense formulas evaluated at every n, array for array;
    # the exact r terms, which list the support only, must have their sums.
    block = next(sieve_all(_cfg(block_size=LIMIT, multiplicative=True)))
    in_a = np.flatnonzero(block.in_a) + 1
    k = int(np.argmax(np.diff(in_a) > 20))
    outside_a = (int(in_a[k]) + 1, int(in_a[k]) + 21)
    # n = 6, 7 have r0 = 0 under both conventions, and neither is in A.
    windows = [(1, 3000), (2, 40), (6, 8), outside_a, (4097, 10001)]
    for lo, hi in windows:
        for convention in ("pair", "div"):
            for c in (0.0, 1.0, 2.5):
                v = _sliced_tallies(block, lo, hi, c, convention)
                assert v.in_a.any() != ((lo, hi) in ((6, 8), outside_a))
                r0, r1, r2 = (R0D if convention == "div" else R0)[lo:hi], R1[lo:hi], R2[lo:hi]
                disp = oracles.dispersion_terms_dense(lo, r0, r1, c)
                l31, l32 = oracles.lemma_terms_dense(lo, v.omega, v.phi, v.in_a)
                for name, dense in (("DISPERSION", disp), ("LEMMA31", l31), ("LEMMA32", l32)):
                    got = STATISTICS[name].term(v)
                    assert got.dtype == np.float64, name
                    assert np.array_equal(got, dense), (name, lo, convention, c)
                for name, dense in (("S01", r0 * r1), ("R2CUBE", r2**3), ("SUPP2", r2 > 0)):
                    assert np.sum(STATISTICS[name].term(v)) == dense.sum(), (name, lo)


def test_float_accumulator_keeps_no_view():
    # Runs without a cut point, with cuts, and one that only extends the tail.
    sums = _FloatSums((10**6,))
    fed = []
    for lo, size in ((1, 1000), (1001, 99000), (100001, 200000), (300001, 1000)):
        fed.append(np.ones(size))
        sums.add(lo, lo + size, fed[-1])
        held = [sums.head, sums.tail]
        assert not any(np.shares_memory(a, terms) for a in held for terms in fed), lo
    assert sums.first == 1 << 16 and sums.tail.size == 300001 + 1000 - (1 << 18)


def test_accumulate_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no sieve may run")

    # Every refusal comes before the first sieve.  omega, phi and in_a come
    # only from the walk, so a statistic that reads them needs a config that
    # runs it.
    with monkeypatch.context() as patched:
        patched.setattr(meanvalue, "sieve_primes", refuse)
        patched.setattr(meanvalue, "sieve_block", refuse)
        too_large = math.nextafter(meanvalue.MAX_DISPERSION_C, math.inf)
        for cfg, stats, options in (
            (_cfg(), [], {}),
            (_cfg(), ["S99"], {}),
            (_cfg(), ["S01", "S01"], {}),
            (_cfg(multiplicative=True), ["COUNT_A", "COUNT_A"], {}),
            (_cfg(), ["DISPERSION"], {"dispersion_c": math.nan}),
            (_cfg(), ["DISPERSION"], {"dispersion_c": math.inf}),
            (_cfg(), ["DISPERSION"], {"dispersion_c": too_large}),
            (_cfg(), ["S01"], {"dispersion_c": 1e200}),
            (_cfg(), ["S01"], {"r0_convention": "both"}),
            (_cfg(limit=5000), ["S01"], {}),
            (_cfg(), ["LEMMA31"], {}),
            (_cfg(), ["S01", "COUNT_A"], {}),
        ):
            with pytest.raises(ValidationError):
                accumulate(cfg, GRID, stats, **options)
        with pytest.raises(ValidationError, match="multiplicative arrays"):
            accumulate(_cfg(), GRID, ["COUNT_A"])
    # r0_div comes from r0_pair, so LANDAU_B and the div convention read any block.
    for convention in ("pair", "div"):
        stats = ["S01", "DISPERSION", "LANDAU_B"]
        pairs_only = accumulate(_cfg(), GRID, stats, r0_convention=convention)
        walked = accumulate(_cfg(multiplicative=True), GRID, stats, r0_convention=convention)
        assert pairs_only == walked


def test_support_counts():
    supp1, supp2 = accumulate(_cfg(), GRID, ["SUPP1", "SUPP2"])
    assert list(supp1.values) == _slow_sum((R1 > 0).astype(np.int64))
    assert list(supp2.values) == _slow_sum((R2 > 0).astype(np.int64))


def test_lemma_sums_match_fsum():
    spf = build_spf_table(LIMIT)
    l31, l32 = accumulate(_cfg(multiplicative=True), GRID, ["LEMMA31", "LEMMA32"])
    w = np.zeros(LIMIT + 1)
    ph = np.zeros(LIMIT + 1)
    for n in range(1, LIMIT + 1):
        f = factorize(n, spf)
        if in_A(f):
            w[n] = 2.0 ** omega(f) / n
            ph[n] = 2.0 ** omega(f) / phi(f)
    for x, got31, got32 in zip(GRID.points, l31.values, l32.values):
        assert got31 == pytest.approx(math.fsum(w[1 : x + 1]), rel=1e-13)
        assert got32 == pytest.approx(math.fsum(ph[1 : x + 1]), rel=1e-13)


def test_landau_counts_exact():
    lb, ca = accumulate(_cfg(multiplicative=True), GRID, ["LANDAU_B", "COUNT_A"])
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


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 900))
def test_accumulate_geometry_free(block_size):
    grid = CheckpointGrid(points=(7, 50, 444, 2000))
    stats = ["S11", "M2", "DISPERSION"]
    series = accumulate(_cfg(block_size=block_size, limit=2000), grid, stats)
    assert list(series[0].values) == [int((R1[1 : x + 1] ** 2).sum()) for x in grid.points]
    assert list(series[1].values) == [int(R2[1 : x + 1].sum()) for x in grid.points]
    # Float merges across runs of blocks that hold no cut point, bit for bit.
    whole = accumulate(_cfg(block_size=2000, limit=2000), grid, ["DISPERSION"])
    assert series[2].values == whole[0].values
