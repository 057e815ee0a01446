"""Checkpointed accumulation of every reported sum.

Every statistic is summed in one pass over the sieve blocks.  accumulate
checks the whole request, then sieves and reduces each block, a slice at a
time, to the sums of one run of n, and merges the runs in ascending block
order; an exact and a float type of sums each do both.  The blocks are
sieved and reduced in this process or by worker processes
(workers.ordered_map), and the sieve runs the multiplicative walk only when
a requested term reads omega, phi or in_a.

A slice holds at most 2^16 integers, so that its temporaries stay in
cache, and ends on a checkpoint edge wherever one falls inside the block.
The terms are evaluated only where they can be nonzero (the r terms where
r0 != 0, about a fifth of n at 1e7; the LEMMA sums on A, about a twelfth).
An exact term only needs its total, so it lists just those n, and an
indicator is a bool array, counted.  A float term is scattered into zeros,
so every interval sum below sees the array an evaluation at every n would
give, bit for bit.

Integer statistics (the S_{i,j}, first moments, support and Landau counts)
are exact in 64-bit: a run holds its sums between the checkpoint edges
inside it.  Harmonic-weighted and squared-residual sums accumulate on a
fixed absolute grid of cut points (64 Ki atoms plus the checkpoint edges)
with Neumaier compensation between cuts.  A run holds the raw terms before
its first cut, the np.sum of each whole interval between cuts, and the raw
terms after its last cut; a merge sums the interval that spans two runs
once, from their raw parts.  Every interval's sum thus has
partition-independent content and the intervals are added in ascending
order (the ordered merge of Demmel and Nguyen, "Parallel reproducible
summation", IEEE Trans. Comput. 64(7), 2015), so the result is
bit-identical for every block size, slice width and worker count, and
whether or not the walk ran.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .constants import STATISTICS, Tallies, normalized_value, predicted_constant
from .errors import ValidationError
from .sieve import MAX_SIEVE_LIMIT, RepresentationBlock, SieveConfig, sieve_block, sieve_primes
from .workers import ordered_map

_ATOM = 1 << 16
# Blocks are reduced in slices cut at the multiples of this width and at the
# checkpoint edges.  At _ATOM each float interval is one slice, summed where
# it lies, and a slice's 8-byte temporaries (512 KiB) stay in a 2 MiB L2
# from one numpy pass to the next.  Reducing the blocks of
# `mean --limit 10000000 --stats all`, sieved beforehand, took a median
# 0.39 s at 2^14 (per-slice overhead), 0.29 s at 2^15, 0.22 s at 2^16 and
# 2^17 and 0.25 s at 2^18 on a 2-core Xeon with 2 MiB of L2 per core; with
# every term evaluated at every n it took 0.42 s at 2^16 and 0.62 s at 2^18.
_SLICE = _ATOM
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


class _ExactSums:
    """Exact sums between consecutive checkpoint edges over a run of n.

    The last segment is open: it runs on to an edge beyond the run.
    """

    def __init__(self, points: Sequence[int]):
        self.edges = {p + 1 for p in points}
        self.segments = [0]

    def add(self, lo: int, hi: int, terms: np.ndarray) -> None:
        """Append the n in [lo, hi), which holds no checkpoint edge after lo.

        Only the sum of the terms counts, so they may leave out zeros; a
        bool array is counted.
        """
        self.segments[-1] += int(
            np.count_nonzero(terms) if terms.dtype == np.bool_ else terms.sum()
        )
        if hi in self.edges:
            self.segments.append(0)

    def merge(self, later: "_ExactSums") -> None:
        """Append the run that follows this one."""
        self.segments[-1] += later.segments[0]
        self.segments += later.segments[1:]

    def values(self) -> list[int]:
        """The running total at every checkpoint edge the run closed."""
        return list(itertools.accumulate(self.segments[:-1]))


class _FloatSums:
    """Float sums over a run of n on a fixed absolute grid of cut points:
    the multiples of _ATOM and the checkpoint edges.

    `head` holds the raw terms before the run's first cut, `first`; `sums`
    holds (cut, np.sum) for each whole interval after it; `tail` holds the
    raw terms after the last cut.  A run without a cut point has first None
    and is all head.  Each interval is summed once, from terms that do not
    depend on how the range was split, and values() adds the interval sums
    in ascending order.
    """

    def __init__(self, points: Sequence[int]):
        self.points = points
        self.head = np.empty(0)
        self.first: int | None = None
        self.sums: list[tuple[int, float]] = []
        self.tail = np.empty(0)

    def add(self, lo: int, hi: int, terms: np.ndarray) -> None:
        """Append the terms of the n in [lo, hi); whole intervals are summed from views."""
        cuts = _cuts(self.points, lo, hi, _ATOM)
        later = _FloatSums(self.points)
        later.head = terms[: cuts[0] - lo] if cuts else terms  # a view: merge copies or sums it
        if cuts:
            later.first = cuts[0]
            later.sums = [
                (cut, float(np.sum(terms[start - lo : cut - lo])))
                for start, cut in zip(cuts, cuts[1:])
            ]
            # A copy, not a view pinning the whole slice's terms.
            later.tail = terms[cuts[-1] - lo :].copy()
        self.merge(later)

    def merge(self, later: "_FloatSums") -> None:
        """Append the run that follows this one; copies or sums later's head and keeps its tail."""
        if self.first is None:
            self.head = np.concatenate([self.head, later.head])
            self.first = later.first
        elif later.first is None:
            self.tail = np.concatenate([self.tail, later.head])
            return
        else:
            # A slice that starts on a cut leaves the tail before it empty.
            spanning = np.concatenate([self.tail, later.head]) if self.tail.size else later.head
            self.sums.append((later.first, float(np.sum(spanning))))
        self.sums += later.sums
        self.tail = later.tail

    def values(self) -> list[float]:
        """The running total at every checkpoint edge the run closed, with
        the interval sums added in ascending order under Neumaier
        compensation."""
        edges = {p + 1 for p in self.points}
        total = comp = 0.0
        out = []
        for cut, x in [(self.first, float(np.sum(self.head))), *self.sums]:
            s = total + x
            if abs(total) >= abs(x):
                comp += (total - s) + x
            else:
                comp += (x - s) + total
            total = s
            if cut in edges:
                out.append(total + comp)
        return out


def _cuts(points: Sequence[int], lo: int, hi: int, step: int) -> list[int]:
    """The multiples of step and the checkpoint edges p + 1 in (lo, hi]."""
    edges = (p + 1 for p in points[bisect_left(points, lo) : bisect_left(points, hi)])
    return sorted({*range((lo // step + 1) * step, hi + 1, step), *edges})


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
                raise ValidationError(f"unknown statistic {name!r}")
            if STATISTICS[name] in stats:
                raise ValidationError(f"duplicate statistic {name!r}")
            stats.append(STATISTICS[name])
        if not 0 <= dispersion_c <= MAX_DISPERSION_C:
            raise ValidationError(
                f"dispersion c must be from 0 to {MAX_DISPERSION_C:.4g}, got {dispersion_c}"
            )
        if r0_convention not in ("pair", "div"):
            raise ValidationError(f"unknown r0 convention {r0_convention!r}")
        multiplicative = [s.name for s in stats if s.multiplicative]
        if multiplicative and not cfg.multiplicative:
            raise ValidationError(
                f"{', '.join(multiplicative)} need blocks sieved with the multiplicative arrays"
            )
        if grid.points[-1] > cfg.limit:
            raise ValidationError(
                f"checkpoint {grid.points[-1]} beyond covered range [1, {cfg.limit}]"
            )
        self.stats = stats
        self.points = grid.points
        self.r0_convention = r0_convention
        self.dispersion_c = dispersion_c

    def reduce(self, block: RepresentationBlock) -> _BlockSums:
        """Every statistic's partial sums over one block, a slice at a time.

        The slices are cut at the multiples of _SLICE and at the checkpoint
        edges, so no exact sum is split inside one, and each slice's support
        and int64 tallies are built once and shared by every statistic.
        """
        parts = self._sums()
        bounds = [block.lo, *_cuts(self.points, block.lo, block.hi - 1, _SLICE), block.hi]
        for lo, hi in zip(bounds, bounds[1:]):
            sl = slice(lo - block.lo, hi - block.lo)
            tallies = Tallies(
                lo, block.r0_pair[sl], block.r1[sl], block.r2[sl],
                self.dispersion_c, self.r0_convention,
                *(arr[sl] for arr in (block.omega, block.phi, block.in_a) if arr is not None),
            )
            for stat, part in zip(self.stats, parts):
                part.add(lo, hi, stat.term(tallies))
        return _BlockSums(block.lo, block.hi, parts)

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
        return [(_ExactSums if s.exact else _FloatSums)(self.points) for s in self.stats]


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
    primes = sieve_primes(max(2, math.isqrt(cfg.limit)))
    # A process's last block stays allocated while it sieves the next one, so
    # the allocator reuses its pages instead of handing them back to the
    # system and faulting them in again: freeing each block first cost 5x the
    # minor page faults (99k against 19k for mean --limit 30000000 in one
    # process).
    last = None

    def sieve_and_reduce(bounds: tuple[int, int]) -> _BlockSums:
        nonlocal last
        last = sieve_block(cfg, *bounds, primes)
        return plan.reduce(last)

    return ordered_map(sieve_and_reduce, cfg.block_ranges(), workers, plan.merge)


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
    """Parse a CSV produced by write_csv back into row dicts."""
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
            rows.append(
                {
                    "x": int(parts[0]),
                    "statistic": parts[1],
                    "raw_value": float(parts[2]),
                    "normalized_value": float(parts[3]),
                    "predicted_constant": float(parts[4]),
                    "deviation": float(parts[5]),
                }
            )
        except ValueError:
            raise ValidationError(f"malformed CSV row: {line!r}") from None
    return rows
