"""Checkpointed accumulation of every reported sum.

Every statistic is summed in one pass over the sieve blocks.  accumulate
checks the whole request, then sieves and reduces each block to the sums of
one run of n, and merges the runs in ascending block order; one type of
sums does both for every statistic.  The blocks are sieved and reduced in
this process or by worker processes (workers.ordered_map).  A block's pair
tallies are reduced one window of sieve.pair_windows at a time, as each is
counted, so a process holds one window of tallies, not a block of them.
The reduction runs the multiplicative walk behind a block's list of A
(sieve.multiplicative_arrays) once, the first time a term reads it, and
drops it when the block is reduced.

Every sum is cut on one fixed absolute grid: the multiples of _ATOM (2^16)
and the checkpoint edges p + 1.  Each window is reduced in slices cut on
that grid, so a slice lies inside one interval between cuts and its
temporaries stay in cache.  The terms are evaluated only where they can be
nonzero (the r terms where r0 != 0, about a fifth of n at 1e7; the LEMMA
sums on A, about a twelfth).  An int term only needs its total, so it lists
just those n, and an indicator is a bool array, counted.  A float term is
scattered into zeros, so every interval sum below sees the array an
evaluation at every n would give, bit for bit.

A run holds the pieces before its first cut, the sum of each whole interval
between cuts, and the pieces after its last cut; a merge sums the interval
that spans two runs once, from their pieces.  A piece is a slice's int
total, and the int sums (the S_{i,j}, first moments, support and Landau
counts) are exact.  A float piece is the slice's raw terms (harmonic-weighted
and squared-residual sums), and an interval's float pieces are concatenated
and passed once to np.sum.  Every interval's sum thus has
partition-independent content, and the interval sums are added in ascending
order with Neumaier compensation (the ordered merge of Demmel and Nguyen,
"Parallel reproducible summation", IEEE Trans. Comput. 64(7), 2015), so the
result is bit-identical for every block size and worker count, and whether
or not the walk ran.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import IO, Iterable, Sequence

import numpy as np

from .constants import STATISTICS, Tallies, normalized_value, predicted_constant
from .errors import ValidationError
from .sieve import (
    MAX_SIEVE_LIMIT,
    PrimeTable,
    SieveConfig,
    multiplicative_arrays,
    pair_windows,
    raise_malloc_thresholds,
    sieve_primes,
)
from .workers import ordered_map

_ATOM = 1 << 16
# Windows are reduced in slices cut at the multiples of this width and at
# the checkpoint edges.  It sets the order in which float terms are added,
# so it fixes the mean.csv bytes; the window width, sieve._SUB, does not.
# At _ATOM each float interval is one slice, summed where it lies, and a
# slice's 8-byte temporaries (512 KiB) stay in a 2 MiB L2 from one numpy
# pass to the next.  Reducing the blocks of
# `mean --limit 10000000 --stats all`, sieved beforehand, took a median
# 0.39 s at 2^14 (per-slice overhead), 0.29 s at 2^15, 0.22 s at 2^16 and
# 2^17 and 0.25 s at 2^18 on a 2-core Xeon with 2 MiB of L2 per core; with
# every term evaluated at every n it took 0.42 s at 2^16 and 0.62 s at 2^18.

# Above this c a DISPERSION sum could overflow a double: MAX_SIEVE_LIMIT
# terms, each a squared residual of at most 65535 * (1 + c / log 2).
MAX_DISPERSION_C = (math.sqrt(sys.float_info.max / MAX_SIEVE_LIMIT) / 65535 - 1) * math.log(2)


@dataclass(frozen=True)
class CheckpointGrid:
    """Strictly increasing evaluation points, all >= 2."""

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("checkpoint grid must be nonempty")
        if any(p < 2 for p in self.points):
            raise ValidationError(f"checkpoints must be >= 2, got {self.points}")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValidationError(f"checkpoints must increase strictly: {self.points}")

    @classmethod
    def geometric(cls, limit: int, ratio: int = 10, start: int = 1000) -> "CheckpointGrid":
        """Default decade grid: start, start*ratio, ... capped and closed at limit."""
        if limit < 2:
            raise ValidationError(f"grid limit must be >= 2, got {limit}")
        pts = []
        x = start
        while x <= limit:
            pts.append(x)
            x *= ratio
        if not pts or pts[-1] != limit:
            pts.append(limit)
        return cls(points=tuple(pts))


@dataclass(frozen=True)
class MeanValueSeries:
    """Per-checkpoint partial sums of one statistic up to `limit`."""

    statistic: str
    values: tuple
    limit: int

    def __post_init__(self) -> None:
        if not self.statistic:
            raise ValidationError("statistic name must be non-empty")
        if not self.values:
            raise ValidationError(f"series {self.statistic} has no values")
        if self.limit < 1:
            raise ValidationError(f"limit must be >= 1, got {self.limit}")


class _Sums:
    """The sums of one statistic over a run of n, on a fixed absolute grid of
    cut points: the multiples of _ATOM and the checkpoint edges.

    Each slice added becomes one piece: the int total of an int or bool term
    (a bool term is counted) or the raw terms of a float64 term.  `head`
    holds the pieces before the run's first cut, `first`; `sums` holds
    (cut, sum) for each whole interval after it; `tail` holds the pieces
    after the last cut.  A run without a cut point has first None and is all
    head.  Each interval is summed once, from all of its pieces, and
    values() adds the interval sums in ascending order.
    """

    def __init__(self, points: Sequence[int]):
        self.edges = {p + 1 for p in points}
        self.head: list = []
        self.first: int | None = None
        self.sums: list[tuple[int, int | float]] = []
        self.tail: list = []

    def add(self, lo: int, hi: int, terms: np.ndarray) -> None:
        """Append the n in [lo, hi), which holds no cut point after lo.

        An int or bool term only needs its total, so it may leave out zeros.
        """
        if terms.dtype == np.float64:
            piece = terms
        else:
            piece = int(np.count_nonzero(terms) if terms.dtype == np.bool_ else terms.sum())
        (self.head if self.first is None else self.tail).append(piece)
        if hi % _ATOM == 0 or hi in self.edges:
            if self.first is None:
                self.first = hi
            else:
                self.sums.append((hi, _total(self.tail)))
                self.tail = []

    def merge(self, later: "_Sums") -> None:
        """Append the run that follows this one, summing the interval they share."""
        if self.first is None:
            self.head += later.head
            self.first = later.first
        elif later.first is None:
            self.tail += later.head
            return
        else:
            self.sums.append((later.first, _total(self.tail + later.head)))
        self.sums += later.sums
        self.tail = later.tail

    def values(self) -> list[int | float]:
        """The running total at every checkpoint edge the run closed, with
        the interval sums added in ascending order under Neumaier
        compensation, which stays exact on the ints of an int term."""
        total = comp = 0
        out = []
        for cut, x in [(self.first, _total(self.head)), *self.sums]:
            s = total + x
            if abs(total) >= abs(x):
                comp += (total - s) + x
            else:
                comp += (x - s) + total
            total = s
            if cut in self.edges:
                out.append(total + comp)
        return out


def _total(pieces: list) -> int | float:
    """One interval's sum: int pieces added, float pieces passed once to np.sum."""
    if isinstance(pieces[0], int):
        return sum(pieces)
    return float(np.sum(pieces[0] if len(pieces) == 1 else np.concatenate(pieces)))


def _cuts(points: Sequence[int], lo: int, hi: int) -> list[int]:
    """The multiples of _ATOM and the checkpoint edges p + 1 in (lo, hi]."""
    edges = (p + 1 for p in points[bisect_left(points, lo) : bisect_left(points, hi)])
    return sorted({*range((lo // _ATOM + 1) * _ATOM, hi + 1, _ATOM), *edges})


@dataclass(frozen=True)
class _BlockSums:
    """One block's reduction: a part per statistic, in request order."""

    lo: int
    hi: int
    parts: list


class _Plan:
    """A request checked against its sieve run: the statistics, the
    checkpoints, the r0 convention and the dispersion c, with the per-block
    reduction and the in-order merge of the reductions."""

    def __init__(
        self, cfg: SieveConfig, grid: CheckpointGrid, statistics: Sequence[str],
        r0_convention: str, dispersion_c: float,
    ):
        if not statistics:
            raise ValidationError("no statistics requested")
        stats = []
        for name in statistics:
            if name not in STATISTICS:
                raise ValidationError(f"unknown statistic {name!r}; known: {', '.join(STATISTICS)}")
            if STATISTICS[name] in stats:
                raise ValidationError(f"duplicate statistic {name!r}")
            stats.append(STATISTICS[name])
        if not 0 <= dispersion_c <= MAX_DISPERSION_C:
            raise ValidationError(
                f"dispersion c must be from 0 to {MAX_DISPERSION_C:.4g}, got {dispersion_c}"
            )
        if r0_convention not in ("pair", "div"):
            raise ValidationError(f"unknown r0 convention {r0_convention!r}")
        if grid.points[-1] > cfg.limit:
            raise ValidationError(
                f"checkpoint {grid.points[-1]} beyond covered range [1, {cfg.limit}]"
            )
        self.stats = stats
        self.points = grid.points
        self.r0_convention = r0_convention
        self.dispersion_c = dispersion_c + 0.0  # -0.0 becomes 0.0, so both label c=0

    def reduce(self, lo: int, hi: int, primes: PrimeTable) -> _BlockSums:
        """Every statistic's partial sums over the block [lo, hi), a slice at a time.

        The block's pair tallies arrive one window of sieve.pair_windows at
        a time, and each window is cut on the sums' grid, the multiples of
        _ATOM and the checkpoint edges, so each slice lies inside one
        interval, and each slice's support and int64 tallies are built once
        and shared by every statistic.  The block's walk over `primes`,
        which must cover sqrt(hi - 1), runs the first time a slice reads A
        and is shared by the slices after it.
        """
        parts = self._sums()
        walk = cache(lambda: multiplicative_arrays(lo, hi, primes))
        for s, e, *window in pair_windows(lo, hi, primes):
            bounds = [s, *_cuts(self.points, s, e - 1), e]
            for a, b in zip(bounds, bounds[1:]):
                pairs = (arr[a - s : b - s] for arr in window)
                tallies = Tallies(*pairs, walk, lo, a, b, self.dispersion_c, self.r0_convention)
                for stat, part in zip(self.stats, parts):
                    part.add(a, b, stat.term(tallies))
        return _BlockSums(lo, hi, parts)

    def merge(self, reductions: Iterable[_BlockSums]) -> list[MeanValueSeries]:
        """The series at every checkpoint from block reductions in ascending order."""
        runs = self._sums()
        covered = 0
        for red in reductions:
            if red.lo != covered + 1:
                raise ValidationError(f"blocks out of order: expected lo={covered + 1}, got {red.lo}")
            covered = red.hi - 1
            for run, part in zip(runs, red.parts):
                run.merge(part)
            del red, part  # free the raw heads before the next block is sieved
        return [
            MeanValueSeries(stat.label(self.dispersion_c), tuple(run.values()), covered)
            for stat, run in zip(self.stats, runs)
        ]

    def _sums(self) -> list:
        """An empty run of sums per statistic, in request order."""
        return [_Sums(self.points) for _ in self.stats]


def accumulate(
    cfg: SieveConfig,
    grid: CheckpointGrid,
    statistics: Sequence[str],
    r0_convention: str = "pair",
    dispersion_c: float = 1.0,
    workers: int = 1,
) -> list[MeanValueSeries]:
    """Partial sums of the requested statistics at every checkpoint <= cfg.limit.

    The whole request is checked before any sieve runs.  r0 follows the
    given convention ("pair" or "div").  Each block of cfg is sieved and
    reduced by one of `workers` processes, this one when workers is 1, and
    the reductions are merged in block order, so the series are the same,
    bit for bit, at every worker count.
    """
    plan = _Plan(cfg, grid, statistics, r0_convention, dispersion_c)
    # The predicted constants are computed first, on the small heap of a
    # fresh process.  Computed in write_csv, landau_ramanujan's prime sieve
    # (about 10 MB) ran on top of the heap the blocks left: mean --limit
    # 100000000 --stats all peaked at 50.3 MB that way, 43.7 MB this way.
    for stat in plan.stats:
        predicted_constant(stat.name)
    primes = sieve_primes(max(2, math.isqrt(cfg.limit)))
    raise_malloc_thresholds()
    return ordered_map(
        lambda bounds: plan.reduce(*bounds, primes), cfg.block_ranges(), workers, plan.merge
    )


def csv_fields(statistic: str, x: int, raw: int | float) -> tuple[str, str, str, str]:
    """raw_value, normalized_value, predicted_constant and deviation as CSV text.

    Exact sums print as integers, floats with 15 significant digits;
    statistics without a proven constant carry nan in the last two fields.
    """
    norm = normalized_value(statistic, x, float(raw))
    const = predicted_constant(statistic)
    raw_s = str(raw) if isinstance(raw, int) else f"{raw:.15g}"
    if const is None:
        return raw_s, f"{norm:.15g}", "nan", "nan"
    return raw_s, f"{norm:.15g}", f"{const:.15g}", f"{norm - const:.15g}"


def write_csv(handle: IO[str], series_list: Sequence[MeanValueSeries], grid: CheckpointGrid) -> None:
    """One row per (statistic, checkpoint): x, statistic, raw_value, normalized_value, predicted_constant, deviation.

    Output is plain '\\n'-terminated text so reruns are byte-comparable.
    """
    handle.write("x,statistic,raw_value,normalized_value,predicted_constant,deviation\n")
    for series in series_list:
        if len(series.values) != len(grid.points):
            raise ValidationError(
                f"series {series.statistic} has {len(series.values)} values "
                f"for {len(grid.points)} checkpoints"
            )
        for x, raw in zip(grid.points, series.values):
            fields = ",".join(csv_fields(series.statistic, x, raw))
            handle.write(f"{x},{series.statistic},{fields}\n")


def read_csv(handle: IO[str]) -> list[dict]:
    """Parse a CSV produced by write_csv back into row dicts.

    raw_value is an int where its text is an integer literal and a float
    otherwise, so csv_fields prints it back as it was read.  A row whose x
    or raw_value lies beyond the float range cannot be normalized: refused.
    """
    header = handle.readline().strip()
    expected = "x,statistic,raw_value,normalized_value,predicted_constant,deviation"
    if header != expected:
        raise ValidationError(f"unexpected CSV header: {header!r}")
    rows = []
    for line in handle:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ValidationError(f"malformed CSV row: {line!r}")
        try:
            x, raw = int(parts[0]), parts[2]
            raw = int(raw) if raw.lstrip("-").isdigit() else float(raw)
            float(x), float(raw)  # an int beyond the float range raises OverflowError
            rows.append(
                {
                    "x": x,
                    "statistic": parts[1],
                    "raw_value": raw,
                    "normalized_value": float(parts[3]),
                    "predicted_constant": float(parts[4]),
                    "deviation": float(parts[5]),
                }
            )
        except ValueError:
            raise ValidationError(f"malformed CSV row: {line!r}") from None
        except OverflowError:
            raise ValidationError(f"CSV row beyond the float range: {line!r}") from None
    return rows
