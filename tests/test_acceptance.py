"""Acceptance gate: ten criteria, one test (and one verdict line) each.

Exact criteria (1-4, 8, 10) pin equality or decimal digits; trend criteria
(5-7, 9) pin the grid, the direction, and a tolerance.  Shared heavy series
are computed once per module.  Each docstring states the pinned numbers.
"""

import math
import time

import numpy as np
import pytest

from paucity.arith import build_spf_table, factorize
from paucity.congruence import FormParams, nu_closed, nu_oracle, nu_prime_closed, rho_closed, rho_oracle
from paucity.constants import catalan, landau_ramanujan, predicted_constant
from paucity.meanvalue import CheckpointGrid, accumulate
from paucity.quadruples import enumerate_n1_params, enumerate_offdiag, param_apply, param_invert
from paucity.sieve import SieveConfig, sieve_all
from paucity.cli import main as cli_main

import oracles

DECADES = (10**4, 10**5, 10**6, 10**7)
# |S22 - 2*M2| * log^3(x)/x recorded once at x = 1e6 (criterion 7).
RECORDED_C7 = 85.9


@pytest.fixture(scope="module")
def decade_series():
    grid = CheckpointGrid(points=DECADES)
    cfg = SieveConfig(limit=10**7, block_size=1 << 20)
    series = accumulate(cfg, grid, ["S01", "S02", "S22", "M2"])
    return {s.statistic: s.values for s in series}


def test_criterion_01_oracle_equivalence():
    """Sieve tallies at 1e5 equal the double-loop / divisor-loop oracles; < 10 s."""
    start = time.monotonic()
    limit = 10**5
    ref0, ref0d, ref1, ref2 = oracles.r_arrays_slow(limit)
    mine = [np.zeros(limit + 1, dtype=np.int64) for _ in range(4)]
    for block in sieve_all(SieveConfig(limit=limit)):
        for arr, field in zip(mine, ("r0_pair", "r0_div", "r1", "r2")):
            arr[block.lo : block.hi] = getattr(block, field)
    assert np.array_equal(mine[0][1:], ref0[1:]), "r0_pair mismatch"
    assert np.array_equal(mine[1][1:], ref0d[1:]), "r0_div mismatch"
    assert np.array_equal(mine[2][1:], ref1[1:]), "r1 mismatch"
    assert np.array_equal(mine[3][1:], ref2[1:]), "r2 mismatch"
    n = np.arange(1, limit + 1)
    squares = (np.sqrt(n).astype(np.int64) ** 2 == n).astype(np.int64)
    assert np.array_equal(mine[1][1:] - mine[0][1:], squares), "square-term identity"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_02_congruence_closed_forms():
    """rho d <= 5000; nu at all odd p < 100 over every (t, d) class mod p and
    p = 2 both parities; nu at every squarefree delta <= 1000 on 20 random
    coprime (t, d).  All exact; < 60 s."""
    start = time.monotonic()
    spf = build_spf_table(5000)
    for d in range(1, 5001):
        assert rho_closed(factorize(d, spf)).count == rho_oracle(d).count, f"rho({d})"

    def class_rep(alpha: int, beta: int, p: int) -> FormParams:
        t = alpha if alpha else p
        d = beta if beta else p
        while math.gcd(t, d) != 1:
            d += p
        return FormParams(t=t, d=d)

    odd_primes = [p for p in range(3, 100) if all(p % k for k in range(2, p))]
    for p in odd_primes:
        for alpha in range(p):
            for beta in range(p):
                if alpha == 0 and beta == 0:
                    continue  # p | gcd(t, d) here, so no coprime pair hits it
                params = class_rep(alpha, beta, p)
                closed = nu_prime_closed(p, params).count
                oracle = nu_oracle(p, params).count
                assert closed == oracle, f"nu({p}) class ({alpha},{beta}): {closed} != {oracle}"
    for params in (FormParams(1, 2), FormParams(1, 1)):
        assert nu_prime_closed(2, params).count == nu_oracle(2, params).count

    rng = np.random.default_rng(20260814)
    pairs = []
    while len(pairs) < 20:
        t, d = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        if math.gcd(t, d) == 1:
            pairs.append((t, d))
    spf1k = build_spf_table(1000)
    for delta in range(1, 1001):
        f = factorize(delta, spf1k)
        if any(e > 1 for _, e in f.factors):
            continue
        for t, d in pairs:
            params = FormParams(t, d)
            closed = nu_closed(f, params).count
            oracle = nu_oracle(delta, params).count
            assert closed == oracle, f"nu({delta}; t={t}, d={d}): {closed} != {oracle}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_03_parametrization_bijection():
    """At 1e6 the direct and (d, t, n1, n2)-side N1 counts agree (5097) and
    invert/apply is the identity on every N1 quadruple; < 2 min."""
    start = time.monotonic()
    census = enumerate_offdiag(10**6, collect=True)
    params = enumerate_n1_params(10**6)
    assert census.n1 == params.n1 == 5097, (census.n1, params.n1)
    n1_quads = [q for q in census.quadruples if 2 < q.a < q.q < q.r < q.p]
    assert len(n1_quads) == census.n1
    for quad in n1_quads:
        pt = param_invert(quad)
        assert param_apply(pt) == (quad.r, quad.q, quad.p, quad.a), quad
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_04_partition_identity():
    """S12(x) = diagonal(x) + N(x) at x in {1e3, 1e4, 1e5, 1e6}; N(50) = 1."""
    grid = CheckpointGrid(points=(10**3, 10**4, 10**5, 10**6))
    series = accumulate(SieveConfig(limit=10**6), grid, ["S12"])
    s12_values = series[0].values
    for x, s12 in zip(grid.points, s12_values):
        census = enumerate_offdiag(x, collect=False)
        assert census.s12 == s12, f"S12({x})"
        assert census.diagonal + census.n == s12, f"partition at {x}"
    assert enumerate_offdiag(50).n == 1


def test_criterion_05_s01_trend(decade_series):
    """|S01(x)/x - 1/2| strictly decreases over 1e4..1e7 and must shrink by
    a factor >= 1.5 between 1e4 and 1e7.  The measured factor is ~1.446:
    under the governing error shape C*loglog(x)/log(x), the largest factor
    attainable on this window is loglog(1e4)/log(1e4) / (loglog(1e7)/log(1e7))
    = 1.398, so the 1.5 bar exceeds what the asymptotics allow at desk scale.
    The trend clause passes; the factor clause is expected to fail and is
    asserted anyway with the measured values in the message."""
    values = decade_series["S01"]
    devs = [abs(v / x - 0.5) for x, v in zip(DECADES, values)]
    assert all(a > b for a, b in zip(devs, devs[1:])), f"not decreasing: {devs}"
    factor = devs[0] / devs[-1]
    assert factor >= 1.5, (
        f"deviation factor 1e4->1e7 is {factor:.4f} < 1.5 (devs: "
        + ", ".join(f"{d:.6f}" for d in devs)
        + ")"
    )


def test_criterion_06_s02_trend(decade_series):
    """S02(x)*log(x)/x approaches 12G/pi^2 with shrinking decade deviations.
    Grid pinned to {1e5, 1e6, 1e7}: at 1e4 the secondary term still wins
    (deviation 0.781 vs 0.812 at 1e5); from 1e5 on the march is monotone."""
    const = predicted_constant("S02")
    assert const == pytest.approx(1.1137, abs=5e-4)
    devs = [
        abs(v * math.log(x) / x - const)
        for x, v in zip(DECADES[1:], decade_series["S02"][1:])
    ]
    assert all(a > b for a, b in zip(devs, devs[1:])), f"not shrinking: {devs}"


def test_criterion_07_r2_baselines(decade_series):
    """S22*log^2(x)/x and M2*log^2(x)/x move toward 2*pi and pi on
    {1e5, 1e6, 1e7}; |S22 - 2*M2|*log^3(x)/x stays within +-50% of the
    recorded constant 85.9 across the same window."""
    s22 = decade_series["S22"]
    m2 = decade_series["M2"]
    s22_norm = [v * math.log(x) ** 2 / x for x, v in zip(DECADES[1:], s22[1:])]
    m2_norm = [v * math.log(x) ** 2 / x for x, v in zip(DECADES[1:], m2[1:])]
    for name, norm, target in (("S22", s22_norm, 2 * math.pi), ("M2", m2_norm, math.pi)):
        gaps = [abs(v - target) for v in norm]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), f"{name} not converging: {norm}"
    paucity_gap = [
        abs(v22 - 2 * v2) * math.log(x) ** 3 / x
        for x, v22, v2 in zip(DECADES[1:], s22[1:], m2[1:])
    ]
    for x, value in zip(DECADES[1:], paucity_gap):
        assert 0.5 * RECORDED_C7 <= value <= 1.5 * RECORDED_C7, (
            f"|S22 - 2 M2|*log^3/x at {x} is {value:.3f}, "
            f"outside +-50% of {RECORDED_C7}"
        )


def test_criterion_08_constants():
    """catalan(1e-10) = 0.9159655941 to 10 places against an independently
    coded series; landau_ramanujan(1e7) = 0.764223653 to >= 6 places; the
    two product forms agree within stated error bounds."""
    g = catalan(1e-10)
    total = 0.0
    binom = 1.0
    for n in range(60):
        total += 1.0 / ((2 * n + 1) ** 2 * binom)
        binom = binom * (2 * n + 1) * (2 * n + 2) / ((n + 1) ** 2)
    independent = (math.pi / 8) * math.log(2 + math.sqrt(3)) + 0.375 * total
    assert abs(g.value - independent) < 1e-10
    assert f"{g.value:.10f}" == "0.9159655941"
    k1 = landau_ramanujan(10**7, form="1mod4")
    k3 = landau_ramanujan(10**7, form="3mod4")
    assert abs(k1.value - 0.764223653) < 5e-7
    assert abs(k3.value - 0.764223653) < 5e-7
    assert abs(k1.value - k3.value) <= k1.error_bound + k3.error_bound


def test_criterion_09_lemma_slopes():
    """Finite-difference slopes of the weighted sums between 1e6 and 1e7:
    within +-10% of 1/pi and 12G/pi^3 (measured: both within 0.01%)."""
    cfg = SieveConfig(limit=10**7, block_size=1 << 20, multiplicative=True)
    grid = CheckpointGrid(points=(10**6, 10**7))
    l31, l32 = accumulate(cfg, grid, ["LEMMA31", "LEMMA32"])
    dlog = math.log(10**7) - math.log(10**6)
    slope31 = (l31.values[1] - l31.values[0]) / dlog
    slope32 = (l32.values[1] - l32.values[0]) / dlog
    target31 = 1 / math.pi
    target32 = 12 * catalan(1e-10).value / math.pi**3
    assert abs(slope31 - target31) <= 0.1 * target31, (slope31, target31)
    assert abs(slope32 - target32) <= 0.1 * target32, (slope32, target32)


def test_criterion_10_determinism(tmp_path):
    """Reruns yield byte-identical CSVs: mean statistics, including the float
    dispersion, at a different thread count and block size, and offdiag."""
    runs = (("1", "1048576"), ("4", "31337"))
    mean_bytes = []
    off_bytes = []
    for i, (threads, block) in enumerate(runs):
        out = tmp_path / f"run{i}"
        rc = cli_main([
            "mean", "--limit", "100000",
            "--stats", "S01,S02,S22,M2,DISPERSION",
            "--threads", threads, "--block-size", block,
            "--out-dir", str(out),
        ])
        assert rc == 0
        mean_bytes.append((out / "mean.csv").read_bytes())
        rc = cli_main([
            "offdiag", "--limit", "100000", "--mode", "both", "--out-dir", str(out),
        ])
        assert rc == 0
        off_bytes.append((out / "offdiag.csv").read_bytes())
    assert mean_bytes[0] == mean_bytes[1], "mean.csv differs across geometry"
    assert off_bytes[0] == off_bytes[1], "offdiag.csv differs across reruns"
