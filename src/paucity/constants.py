"""Constants behind every predicted main term, and the statistic registry.

G (Catalan) comes from the alternating series sum (-1)^k/(2k+1)^2 with
pairwise term grouping; K (Landau-Ramanujan) from either Euler product form,
evaluated in log space with an explicit tail bound.  The statistic registry
(STATISTICS) defines every reported statistic once: its term over a sieve
block, its normalization and its predicted constant, so that every CSV row is
recomputable from this module alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .errors import CapacityError, ValidationError
from .sieve import MAX_SIEVE_LIMIT, chi4_divisor_sums, sieve_primes


@dataclass(frozen=True)
class ConstantValue:
    """A computed constant with a rigorous error bound and the method used."""

    name: str
    value: float
    error_bound: float
    method: str

    def __post_init__(self) -> None:
        if not self.error_bound > 0:
            raise ValidationError(f"error_bound must be positive, got {self.error_bound}")


# catalan and landau_ramanujan build their fsum terms this many at a time.
_CHUNK = 1 << 16


@cache
def catalan(eps: float = 1e-10) -> ConstantValue:
    """Catalan's constant G = sum_{k>=0} (-1)^k / (2k+1)^2 to within eps.

    Consecutive alternating terms are grouped in pairs
    g_j = 1/(4j+1)^2 - 1/(4j+3)^2 (all positive), summed exactly with
    math.fsum; truncation error after J pairs is below the first omitted
    term 1/(4J+1)^2 <= eps.  The pairs are built from a float64 arange,
    _CHUNK at a time; every (4j+3)^2 is below 2^53, so each is
    exact and every term has the bits of its integer-arithmetic form.
    """
    check_eps(eps)
    pairs = int(math.ceil((1.0 / math.sqrt(eps) - 1.0) / 4.0)) + 1

    def terms():
        for start in range(0, pairs, _CHUNK):
            j = np.arange(start, min(start + _CHUNK, pairs), dtype=np.float64)
            yield from (1.0 / (4.0 * j + 1.0) ** 2 - 1.0 / (4.0 * j + 3.0) ** 2).tolist()

    value = math.fsum(terms())
    bound = 1.0 / (4 * pairs + 1) ** 2 + 1e-15
    return ConstantValue("G", value, bound, f"alternating-series-pairs:{pairs}")


@cache
def landau_ramanujan(prime_limit: int = 10**7, form: str = "1mod4") -> ConstantValue:
    """Landau-Ramanujan constant K via an Euler product over primes <= prime_limit.

    form="1mod4": K = (pi/4) * prod_{p=1(4)} (1 - p^-2)^(1/2)
    form="3mod4": K = 2^(-1/2) * prod_{p=3(4)} (1 - p^-2)^(-1/2)

    Both are evaluated as exp of a compensated log sum; the truncated tail of
    sum_{p>P} |log(1 - p^-2)|/2 is below 1/(P-1), which bounds the error.
    The log terms reach math.fsum from a generator over _CHUNK primes at a
    time; fsum rounds once, exactly, so the value does not depend on the
    chunking.
    """
    check_prime_limit(prime_limit)
    if form not in ("1mod4", "3mod4"):
        raise ValidationError(f"unknown product form {form!r}")
    p = sieve_primes(prime_limit).primes
    residue = 1 if form == "1mod4" else 3

    def terms():
        for start in range(0, p.size, _CHUNK):
            chunk = p[start : start + _CHUNK]
            sel = chunk[chunk & 3 == residue].astype(np.float64)
            yield from np.log1p(-1.0 / (sel * sel)).tolist()

    logsum = math.fsum(terms())
    if form == "1mod4":
        value = (math.pi / 4.0) * math.exp(0.5 * logsum)
    else:
        value = math.exp(-0.5 * logsum) / math.sqrt(2.0)
    bound = 1.0 / (prime_limit - 1)
    return ConstantValue("K", value, bound, f"euler-product-{form}:{prime_limit}")


def check_eps(eps: float) -> None:
    """Refuse a catalan eps before any constant is computed."""
    if not (1e-15 <= eps < 1.0):
        raise ValidationError(f"catalan needs 1e-15 <= eps < 1, got {eps}")


def check_prime_limit(prime_limit: int) -> None:
    """Refuse a landau_ramanujan prime_limit before its sieve runs."""
    if prime_limit < 10**3:
        raise ValidationError(f"prime_limit must be >= 1000, got {prime_limit}")
    if prime_limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"prime_limit {prime_limit} exceeds cap {MAX_SIEVE_LIMIT}")


def check_density_z(z: float) -> None:
    """Refuse a sieve_density_product z before its sieve, which runs to the
    largest integer below z, can start."""
    if not math.isfinite(z) or z < 3:
        raise ValidationError(f"sieve_density_product needs a finite z >= 3, got {z:g}")
    if z > MAX_SIEVE_LIMIT + 1:
        raise CapacityError(f"z {z:g} needs primes beyond the sieve cap {MAX_SIEVE_LIMIT}")


@cache
def sieve_density_product(z: float) -> ConstantValue:
    """V(z) = prod_{2 < p < z} (1 - (3p-2)/p^2), evaluated in log space."""
    check_density_z(z)
    pmax = int(math.floor(z))
    if float(z).is_integer():
        pmax -= 1
    p = sieve_primes(max(pmax, 2)).primes
    p = p[p > 2].astype(np.float64)
    p = p[p < z]
    logsum = math.fsum(np.log1p(-(3.0 * p - 2.0) / (p * p)))
    value = math.exp(logsum)
    bound = max(abs(value), 1.0) * 1e-12 * max(p.size, 1)
    return ConstantValue(f"V({z:g})", value, bound, f"log-space-product:{p.size}")


# ---------------------------------------------------------------- registry
#
# Each reported statistic is defined once, in STATISTICS: its terms over a
# slice of a sieve block, whose dtype sets its summation (int and bool terms
# exactly, float64 terms compensated), its normalization and its limit
# constant.  A block's walk behind its list of A runs only when a term
# reads it: LEMMA31, LEMMA32 and COUNT_A.  Constants are thunks evaluated on
# first use, so only LANDAU_B and COUNT_A pay for landau_ramanujan's prime
# sieve.

_PI = math.pi


def _a_slice(index: int) -> property:
    """A Tallies attribute: the walk's compact array at `index` on the n of
    A in the slice, as a view."""
    return property(lambda v: v.walk()[index][v.a_range])


@dataclass(frozen=True)
class Tallies:
    """The slice [lo, hi) of one sieve block.

    r0_pair, r1 and r2 are the slice's pair tallies, indexed by n - lo:
    views of one window of sieve.pair_windows.  `walk` returns the
    sieve.multiplicative_arrays of the block that starts at `base`, whose
    offsets count from base; the caller runs it at most once per block and
    shares it between the block's slices.  omega_a and phi_a are views of
    the walk's compact arrays on the n of A in the slice, found by a_range;
    so a slice calls walk only when a term reads A.  Every other array is
    built on first read, so it costs nothing where no term reads it:

    * r0_div, int64 over the slice;
    * support, the offsets n - lo with r0(n) != 0, where r0 is r0_pair or
      r0_div as r0_convention says, and r0s, r1s and r2s, the values of r0,
      r1 and r2 there as int64.  r2 <= r1 <= r0_pair <= r0_div, so a term
      made of the r's is 0 off the support;
    * on_a, the offsets n - lo of the n in A.
    """

    r0_pair: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    walk: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]
    base: int
    lo: int
    hi: int
    c: float  # the dispersion parameter
    r0_convention: str = "pair"

    omega_a = _a_slice(1)
    phi_a = _a_slice(2)

    @cached_property
    def r0_div(self) -> np.ndarray:
        return chi4_divisor_sums(self.lo, self.r0_pair)

    @property
    def r0(self) -> np.ndarray:
        return self.r0_div if self.r0_convention == "div" else self.r0_pair

    @cached_property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.r0 != 0)

    @cached_property
    def r0s(self) -> np.ndarray:
        return self.r0[self.support].astype(np.int64)

    @cached_property
    def r1s(self) -> np.ndarray:
        return self.r1[self.support].astype(np.int64)

    @cached_property
    def r2s(self) -> np.ndarray:
        return self.r2[self.support].astype(np.int64)

    @cached_property
    def a_range(self) -> slice:
        """The part of the walk's compact arrays on A that lies in the slice."""
        start = self.lo - self.base
        return slice(*np.searchsorted(self.walk()[0], (start, start + self.hi - self.lo)).tolist())

    @cached_property
    def on_a(self) -> np.ndarray:
        """The offsets n - lo of the n in A, ascending."""
        return self.walk()[0][self.a_range] - (self.lo - self.base)

    @cached_property
    def lemma_weight(self) -> np.ndarray:
        """2^omega(n) at the offsets on_a, with f_A(1) = 1; shared by
        LEMMA31 and LEMMA32, whose terms are 0 off A."""
        return np.exp2(self.omega_a.astype(np.float64))

    def scatter(self, at: np.ndarray, values: np.ndarray) -> np.ndarray:
        """A float term over the slice: `values` at the offsets `at`, 0 elsewhere."""
        terms = np.zeros(self.hi - self.lo)
        terms[at] = values
        return terms


# Normalizations: (raw, x, log x) -> the normalized value.
_PER_X = lambda raw, x, lx: raw / x
_LOG = lambda raw, x, lx: raw * lx / x
_LOG2 = lambda raw, x, lx: raw * lx * lx / x
_SQRT_LOG = lambda raw, x, lx: raw * math.sqrt(lx) / x
_PER_LOG = lambda raw, x, lx: raw / lx
_AFFINE = lambda raw, x, lx: (raw - x * lx / 4.0) * 4.0 / x


@dataclass(frozen=True)
class Statistic:
    """One mean-value statistic: the sum of `term` over n <= x at each checkpoint x.

    `term` maps a Tallies to its terms over the slice, evaluated only where
    they can be nonzero; their dtype sets the summation.  An int64 or bool
    term is summed exactly (a bool term is counted) from its total alone,
    so it may leave out zeros: the terms made of r0, r1 and r2 list the
    support only.  A float64 term is summed with compensation and is given
    at every n of the slice, since its sums are cut by position: its values
    on its support (where r0 != 0, or on A) and 0 elsewhere.  `normalization`
    maps (raw, x, log x) to the normalized value; `constant` is None where no
    limit is claimed; `parameter` names the argument carried in the
    reported label.
    """

    name: str
    term: Callable[[Tallies], np.ndarray]
    normalization: Callable[[float, int, float], float]
    constant: Callable[[], float] | None = None
    parameter: str | None = None

    def label(self, value: float) -> str:
        """The identifier written to CSV, e.g. DISPERSION(c=1)."""
        return f"{self.name}({self.parameter}={value:g})" if self.parameter else self.name


def _dispersion_terms(v: Tallies) -> np.ndarray:
    n = (v.support + v.lo).astype(np.float64)
    res = v.r1s - v.c * v.r0s / np.log(np.maximum(n, 2.0))
    if v.lo == 1:
        res[v.support == 0] = 0.0  # sum starts at n = 2
    return v.scatter(v.support, res * res)


def _g() -> float:
    return catalan().value


def _k() -> float:
    return landau_ramanujan().value


STATISTICS: dict[str, Statistic] = {s.name: s for s in (
    Statistic("S00", lambda v: v.r0s * v.r0s, _AFFINE),
    Statistic("S01", lambda v: v.r0s * v.r1s, _PER_X, lambda: 0.5),
    Statistic("S02", lambda v: v.r0s * v.r2s, _LOG, lambda: 12.0 * _g() / _PI**2),
    Statistic("S11", lambda v: v.r1s * v.r1s, _LOG, lambda: _PI / 2.0 + 9.0 / 4.0),
    Statistic("S12", lambda v: v.r1s * v.r2s, _LOG2),
    Statistic("S22", lambda v: v.r2s * v.r2s, _LOG2, lambda: 2.0 * _PI),
    Statistic("M1", lambda v: v.r1s, _LOG, lambda: _PI / 2.0),
    Statistic("M2", lambda v: v.r2s, _LOG2, lambda: _PI),
    Statistic("R2CUBE", lambda v: v.r2s * v.r2s * v.r2s, _LOG2, lambda: 4.0 * _PI),
    Statistic("SUPP1", lambda v: v.r1s > 0, _LOG, lambda: _PI / 2.0),
    Statistic("SUPP2", lambda v: v.r2s > 0, _LOG2, lambda: _PI / 2.0),
    Statistic("DISPERSION", _dispersion_terms, _LOG, parameter="c"),
    Statistic(
        "LEMMA31",
        lambda v: v.scatter(v.on_a, v.lemma_weight / (v.on_a + v.lo).astype(np.float64)),
        _PER_LOG, lambda: 1.0 / _PI,
    ),
    Statistic(
        "LEMMA32",
        lambda v: v.scatter(v.on_a, v.lemma_weight / v.phi_a.astype(np.float64)),
        _PER_LOG, lambda: 12.0 * _g() / _PI**3,
    ),
    # b(n) = [r0_div(n) > 0] under either r0 convention.
    Statistic("LANDAU_B", lambda v: v.r0_div > 0, _SQRT_LOG, _k),
    # One True per n of A, listed on A only.
    Statistic("COUNT_A", lambda v: np.ones(v.phi_a.size, dtype=bool), _SQRT_LOG,
              lambda: 1.0 / (4.0 * _k())),
)}

# What `paucity mean` reports when no --stats is given.
DEFAULT_STATISTICS = ("S01", "S02", "S22")


def find_statistic(identifier: str) -> Statistic:
    """Registry entry for a statistic name or a reported label like DISPERSION(c=1)."""
    name, paren, _ = identifier.partition("(")
    stat = STATISTICS.get(name)
    if stat is None or (paren and stat.parameter is None):
        raise ValidationError(f"unknown statistic {identifier!r}")
    return stat


def predicted_constant(statistic: str) -> float | None:
    """Limit constant of the normalized statistic, or None where no limit is claimed."""
    constant = find_statistic(statistic).constant
    return None if constant is None else constant()


def normalized_value(statistic: str, x: int, raw: float) -> float:
    """Rescale a raw partial sum to the quantity that should converge."""
    if x < 3:
        raise ValidationError(f"normalization needs x >= 3, got {x}")
    return find_statistic(statistic).normalization(raw, x, math.log(x))
