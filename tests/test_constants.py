"""Predicted-constant toolbox: series values, Euler products, normalizations."""

import math
import tracemalloc

import mpmath
import pytest

from paucity import constants
from paucity.constants import (
    STATISTICS,
    ConstantValue,
    catalan,
    find_statistic,
    landau_ramanujan,
    normalized_value,
    predicted_constant,
    sieve_density_product,
)
from paucity.errors import ValidationError

import oracles

MP_CATALAN = float(mpmath.catalan)
# Landau constant to 20 places, from the 1 mod 4 Euler product evaluated
# with mpmath at very high precision (frozen once; see test below).
LANDAU_REF = 0.76422365358922066299
# float.hex of landau_ramanujan(10**7) in each form, frozen from the product
# that passed all its log terms to math.fsum as one list.
LANDAU_BITS = {"1mod4": "0x1.874852a79b634p-1", "3mod4": "0x1.874852945f578p-1"}


def test_catalan_matches_mpmath():
    g = catalan(1e-10)
    assert abs(g.value - MP_CATALAN) <= g.error_bound
    assert abs(g.value - MP_CATALAN) < 1e-10
    assert f"{g.value:.10f}" == "0.9159655941"


def test_catalan_error_bound_scales():
    loose = catalan(1e-6)
    tight = catalan(1e-12)
    assert loose.error_bound <= 1e-6 * 1.01
    assert tight.error_bound <= 1e-12 * 1.5
    assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12])
def test_catalan_bits_match_integer_terms(eps):
    # The float64 arange builds every pair term with the bits of its
    # integer-arithmetic form, so the one fsum returns the same float.
    assert catalan(eps).value.hex() == oracles.catalan_fsum(eps).hex()


def test_catalan_validation():
    with pytest.raises(ValidationError):
        catalan(0.0)
    with pytest.raises(ValidationError):
        catalan(1.5)
    with pytest.raises(ValidationError):
        catalan(1e-16)


def test_landau_forms_agree():
    k1 = landau_ramanujan(10**6, form="1mod4")
    k3 = landau_ramanujan(10**6, form="3mod4")
    assert abs(k1.value - k3.value) <= k1.error_bound + k3.error_bound
    assert abs(k1.value - LANDAU_REF) <= k1.error_bound
    assert abs(k3.value - LANDAU_REF) <= k3.error_bound


def test_landau_reference_value():
    # The frozen reference reproduces under mpmath with a modest product
    # plus the tail expressed through L-function values; here a cheap check
    # that 1e6 primes already give 7 correct digits.
    k = landau_ramanujan(10**6)
    assert abs(k.value - LANDAU_REF) < 5e-7


@pytest.mark.parametrize("chunk", [1000, 1 << 16, 664580])
def test_landau_bits_frozen_across_chunks(monkeypatch, chunk):
    # fsum rounds exactly once, so K keeps its bits whatever the chunk size,
    # including one chunk above pi(1e7) = 664579 that holds every prime.
    monkeypatch.setattr(constants, "_CHUNK", chunk)
    for form, bits in LANDAU_BITS.items():
        assert landau_ramanujan.__wrapped__(10**7, form).value.hex() == bits, form


def test_landau_memory():
    # The log terms are streamed, so the peak is the prime sieve's (the odd
    # mask and the primes, about 10 MiB), not a list of 332k floats and
    # four arrays of the selected primes (20.3 MiB before).
    tracemalloc.start()
    try:
        landau_ramanujan.__wrapped__(10**7, "1mod4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


def test_landau_validation():
    with pytest.raises(ValidationError):
        landau_ramanujan(100)
    with pytest.raises(ValidationError):
        landau_ramanujan(10**6, form="2mod4")


def test_density_product_exact_small():
    assert sieve_density_product(4).value == pytest.approx(2 / 9, rel=1e-12)
    assert sieve_density_product(6).value == pytest.approx(8 / 75, rel=1e-12)
    with pytest.raises(ValidationError):
        sieve_density_product(2.5)


def test_density_product_decreasing():
    values = [sieve_density_product(z).value for z in (5, 10, 50, 200, 1000)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_constant_value_validation():
    with pytest.raises(ValidationError):
        ConstantValue(name="x", value=1.0, error_bound=0.0, method="t")


def test_statistic_table_round_trip():
    assert "S01" in STATISTICS and "DISPERSION" in STATISTICS
    for s in STATISTICS:
        assert find_statistic(s) is STATISTICS[s], s
    assert predicted_constant("S02") == pytest.approx(
        12 * MP_CATALAN / math.pi**2, rel=1e-9
    )
    assert predicted_constant("S11") == pytest.approx(math.pi / 2 + 9 / 4, rel=1e-12)
    assert predicted_constant("S22") == pytest.approx(2 * math.pi, rel=1e-12)
    assert predicted_constant("S12") is None
    assert predicted_constant("S00") is None
    assert predicted_constant("DISPERSION(c=1)") is None
    with pytest.raises(ValidationError):
        predicted_constant("S03")


def test_normalized_value_shapes():
    x = 10**4
    assert normalized_value("S01", x, 7838.0) == pytest.approx(0.7838)
    assert normalized_value("S02", x, 1000.0) == pytest.approx(1000 * math.log(x) / x)
    assert normalized_value("LEMMA31", x, 5.0) == pytest.approx(5 / math.log(x))
    assert normalized_value("LANDAU_B", x, 3000.0) == pytest.approx(
        3000 * math.sqrt(math.log(x)) / x
    )
    raw = 27786.0
    affine = (raw - x * math.log(x) / 4) * 4 / x
    assert normalized_value("S00", x, raw) == pytest.approx(affine)
    with pytest.raises(ValidationError):
        normalized_value("S01", 2, 1.0)
