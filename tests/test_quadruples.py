"""Off-diagonal census, its S12 split and the parametrization bijection."""

import dataclasses
import functools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paucity import quadruples
from paucity.errors import CapacityError, ValidationError
from paucity.quadruples import (
    OffdiagCensus,
    ParamTuple,
    Quadruple,
    enumerate_n1_params,
    enumerate_offdiag,
)

import oracles
from oracles import param_apply, param_invert


def _census_tuple(c: OffdiagCensus) -> dict:
    return {
        "N": c.n,
        "n1": c.n1,
        "n1p": c.n1_prime,
        "n1pp": c.n1_double_prime,
        "deg": c.degenerate_count,
        "canon": c.n_canonical,
    }


def test_census_matches_slow_oracle():
    for limit in (100, 1000, 2500):
        slow = oracles.offdiag_census_slow(limit)
        census = enumerate_offdiag(limit)
        assert _census_tuple(census) == slow["counts"], limit
        got = [(q.a, q.p, q.q, q.r, q.n) for q in census.quadruples]
        assert got == slow["quadruples"], limit


def test_census_frozen_values():
    for limit, want in oracles.FROZEN_CENSUS.items():
        census = enumerate_offdiag(limit, collect=False)
        assert _census_tuple(census) == want, limit


@functools.cache
def _census_at(limit: int) -> OffdiagCensus:
    return enumerate_offdiag(limit, collect=False)


def test_census_frozen_at_cap():
    census = _census_at(10**8)
    assert _census_tuple(census) == {
        "N": 3041321, "n1": 323365, "n1p": 784439, "n1pp": 410248, "deg": 2839, "canon": 1520891,
    }
    assert (census.s12, census.diagonal) == (5522297, 2480976)


def test_census_partition_is_exact():
    for limit in (1000, 10000, 100000):
        c = enumerate_offdiag(limit, collect=False)
        assert c.n_canonical == c.n1 + c.n1_prime + c.n1_double_prime + c.degenerate_count


def test_census_diagonal_matches_slow():
    # Every limit to 600, and both sides of 2p^2 for 17 <= p <= 47, where the
    # probe (a, p) = (p, p) starts to match its one diagonal row.
    edges = [2 * p * p + k for p in (17, 19, 23, 29, 31, 37, 41, 43, 47) for k in (-1, 0, 1)]
    for limit in (*range(1, 601), *edges):
        census = enumerate_offdiag(limit, collect=False)
        assert census.diagonal == oracles.diagonal_slow(limit), limit
        assert census.s12 - census.diagonal == census.n, limit


def test_census_collect_cap(monkeypatch):
    # The rows are dropped once the running canonical count passes the cap,
    # and never the counts: a cap of exactly n_canonical keeps every row.
    full = enumerate_offdiag(10000)
    for cap, want in ((full.n_canonical, full.quadruples), (full.n_canonical - 1, None)):
        monkeypatch.setattr(quadruples, "_COLLECT_CAP", cap)
        capped = enumerate_offdiag(10000)
        assert capped.quadruples == want, cap
        assert dataclasses.replace(capped, quadruples=None) == dataclasses.replace(
            full, quadruples=None
        ), cap


def _census_peak(limit: int) -> int:
    tracemalloc.start()
    try:
        enumerate_offdiag(limit, collect=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_memory_is_streamed():
    # The census holds one band's prime pairs, probes and matches at a time,
    # never all 724,863 matches at 1e7 (five int64 columns of them alone
    # take 27.6 MiB).
    peak = _census_peak(10**7)
    assert peak < 20 * 2**20, peak


def test_census_memory_is_flat():
    # A band's dense per-n counts and offsets dominate: the peak read
    # 2.2 MiB at both 1e6 and 1e7.  A table of every prime pair up to the
    # limit (167,229 rows at 1e7) took it to 7.7 MiB.
    small, large = _census_peak(10**6), _census_peak(10**7)
    assert large < 4 * 2**20, large
    assert abs(large - small) < 2**20, (small, large)


def test_census_band_invariance(monkeypatch):
    # Every band width gives the one-band census, quadruples included, also
    # where the limit sits on a band edge.  Pairs with more than 2000 bands
    # are left out: at one integer per band 1e5 takes 14 s.
    limits = (50, 1000, 10000, 100000, *(k * 64 + j for k in (1, 5, 31, 313) for j in (-1, 0, 1)))
    for limit in limits:
        monkeypatch.setattr(quadruples, "_BAND", 1 << 30)
        base = enumerate_offdiag(limit)
        if limit <= 2600:
            slow = oracles.offdiag_census_slow(limit)
            assert _census_tuple(base) == slow["counts"], limit
            assert [(q.a, q.p, q.q, q.r, q.n) for q in base.quadruples] == slow["quadruples"]
            assert base.diagonal == oracles.diagonal_slow(limit), limit
        for band in (1, 7, 64, 1000, 1 << 16):
            if limit > 2000 * band:
                continue
            monkeypatch.setattr(quadruples, "_BAND", band)
            assert enumerate_offdiag(limit) == base, (limit, band)


def test_smallest_collision():
    census = enumerate_offdiag(50)
    assert census.n == 1
    assert [(q.a, q.p, q.q, q.r, q.n) for q in census.quadruples] == [(1, 7, 5, 5, 50)]


def test_census_validation():
    with pytest.raises(ValidationError):
        enumerate_offdiag(0)
    with pytest.raises(CapacityError):
        enumerate_offdiag(10**8 + 1)
    with pytest.raises(ValidationError):
        enumerate_n1_params(0)
    with pytest.raises(CapacityError):
        enumerate_n1_params(10**8 + 1)


def test_quadruple_validation():
    Quadruple(a=1, p=7, q=5, r=5, n=50)
    with pytest.raises(ValidationError):
        Quadruple(a=1, p=7, q=5, r=5, n=51)
    with pytest.raises(ValidationError):
        Quadruple(a=5, p=5, q=5, r=5, n=50)
    with pytest.raises(ValidationError):
        Quadruple(a=5, p=13, q=13, r=5, n=194)


def test_param_tuple_validation():
    ParamTuple(d=1, t=2, n1=1, n2=4)
    with pytest.raises(ValidationError):
        ParamTuple(d=2, t=4, n1=1, n2=3)
    with pytest.raises(ValidationError):
        ParamTuple(d=1, t=2, n1=2, n2=4)
    with pytest.raises(ValidationError):
        ParamTuple(d=0, t=1, n1=1, n2=1)


def test_param_apply_known():
    # d=1, t=2, n1=2, n2=3: x = (n2 t - n1 d, n2 d + n1 t, n1 d + n2 t, n1 t - n2 d)
    pt = ParamTuple(d=1, t=2, n1=2, n2=3)
    assert param_apply(pt) == (4, 7, 8, 1)
    with pytest.raises(ValidationError):
        param_apply(ParamTuple(d=3, t=1, n1=5, n2=1))


def test_param_round_trip_on_census():
    census = enumerate_offdiag(10000)
    n1_quads = [
        q
        for q in census.quadruples
        if 2 < q.a < q.q < q.r < q.p
    ]
    assert len(n1_quads) == census.n1 == 59
    for quad in n1_quads:
        pt = param_invert(quad)
        assert param_apply(pt) == (quad.r, quad.q, quad.p, quad.a)


def test_param_enumeration_agrees_with_direct():
    # Every limit up to 450 covers s < 3, the first non-empty windows and the
    # first N1 solution (at 410).
    for limit in (*range(1, 451), 1000, 10000, 100000):
        pc = enumerate_n1_params(limit)
        census = enumerate_offdiag(limit, collect=False)
        assert pc.n1 == census.n1, limit


def test_param_enumeration_frozen_decade():
    for limit, want in ((2 * 10**6, 9434), (10**7, 40585), (10**8, 323365)):
        assert enumerate_n1_params(limit).n1 == want, limit
        assert _census_at(limit).n1 == want, limit


def test_param_enumeration_collect_matches_inversion():
    for limit in (10000, 100000):
        pc = enumerate_n1_params(limit, collect=True)
        census = enumerate_offdiag(limit)
        inverted = sorted(
            (pt.d, pt.t, pt.n1, pt.n2)
            for pt in (
                param_invert(q) for q in census.quadruples if 2 < q.a < q.q < q.r < q.p
            )
        )
        assert [(pt.d, pt.t, pt.n1, pt.n2) for pt in pc.tuples] == inverted, limit
        assert len(pc.tuples) == pc.n1


def test_param_enumeration_batch_invariance(monkeypatch):
    for limit in (1000, 10000, 100000):
        base = enumerate_n1_params(limit, collect=True)
        # 1 << 30 exceeds every triple and cell count: a single batch and run.
        for batch in (1, 7, 1 << 30):
            monkeypatch.setattr(quadruples, "_BATCH", batch)
            got = enumerate_n1_params(limit, collect=True)
            assert (got.n1, got.tuples) == (base.n1, base.tuples), (limit, batch)
            monkeypatch.undo()


def test_param_invert_rejects_wrong_class():
    with pytest.raises(ValidationError):
        param_invert(Quadruple(a=1, p=7, q=5, r=5, n=50))


def _n_windows(d: int, t: int) -> list[tuple[int, int]]:
    """Coprime (n1, n2), n1 <= 12 and 2 <= n2 <= 20, with 2 < a < q < r < p.

    a < q and r < p always hold; q < r is n2 > n1(t+d)/(t-d) and a >= 3 is
    n2 <= (n1 t - 3)/d, and together they imply both positivity conditions.
    """
    return [
        (n1, n2)
        for n1 in range(1, 13)
        for n2 in range(max(2, n1 * (t + d) // (t - d) + 1), min(20, (n1 * t - 3) // d) + 1)
        if math.gcd(n1, n2) == 1
    ]


@st.composite
def _n1_param_tuples(draw) -> ParamTuple:
    d = draw(st.integers(1, 6))
    t = draw(st.sampled_from(
        [t for t in range(d + 1, 31) if math.gcd(d, t) == 1 and _n_windows(d, t)]
    ))
    n1, n2 = draw(st.sampled_from(_n_windows(d, t)))
    return ParamTuple(d=d, t=t, n1=n1, n2=n2)


@settings(max_examples=120)
@given(_n1_param_tuples())
def test_param_round_trip_property(pt):
    r, q, p, a = param_apply(pt)
    assert 2 < a < q < r < p
    quad = Quadruple(a=a, p=p, q=q, r=r, n=a * a + p * p)
    assert param_invert(quad) == pt
