"""Checkpointed accumulation of every reported sum.

Every statistic is summed in one pass over mean's tasks (task_ranges), in
this process or in worker processes (workers.ordered_map).  accumulate
checks the whole request, then reduces each task to the sums of the
intervals it closes and concatenates them in task order.  A task's pair
tallies are reduced one window of sieve.pair_windows at a time, as each is
counted, so a process holds one window of tallies.  The multiplicative walk
behind a task's list of A (sieve.multiplicative_arrays) runs once, the
first time a term reads it, and dies with the task's reduction.

Every sum is cut on one fixed absolute grid: the multiples of _ATOM (2^16)
and the checkpoint edges p + 1.  Each window is reduced in slices cut on
that grid, so a slice lies inside one interval between cuts and its
temporaries stay in cache.  The terms are evaluated only where they can be
nonzero (the r terms where r0 != 0, about a fifth of n at 1e7; the LEMMA
sums on A, about a twelfth).  An int term only needs its total, so it lists
just those n, and an indicator is a bool array, counted.  A float term is
scattered into zeros, so every interval sum below sees the array an
evaluation at every n would give, bit for bit.

Tasks meet on multiples of _ATOM, so each closes every interval it opens
and sends back one Python number per interval.  An int interval's sum (the
S_{i,j}, first moments, support and Landau counts) adds its slices' totals,
exactly; a float interval's raw terms (harmonic-weighted and
squared-residual sums) are concatenated and passed once to np.sum.  So every
interval sum has partition-independent content, and the interval sums are
added in ascending order with Neumaier compensation (the ordered merge of
Demmel and Nguyen, "Parallel reproducible summation", IEEE Trans. Comput.
64(7), 2015): the result is bit-identical for every block size and worker
count, and whether or not the walk ran.
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
    SieveConfig,
    multiplicative_arrays,
    pair_windows,
    raise_malloc_thresholds,
)
from .workers import ordered_map

# The first point of CheckpointGrid.geometric.
_GRID_START = 1000
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
    def geometric(cls, limit: int, ratio: int = 10) -> "CheckpointGrid":
        """Default decade grid: _GRID_START, _GRID_START*ratio, ... capped
        and closed at limit."""
        if limit < 2:
            raise ValidationError(f"grid limit must be >= 2, got {limit}")
        pts = []
        x = _GRID_START
        while x <= limit:
            pts.append(x)
            x *= ratio
        if not pts or pts[-1] != limit:
            pts.append(limit)
        return cls(points=tuple(pts))


@dataclass(frozen=True)
class MeanValueSeries:
    """Per-checkpoint partial sums of one statistic."""

    statistic: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.statistic:
            raise ValidationError("statistic name must be non-empty")
        if not self.values:
            raise ValidationError(f"series {self.statistic} has no values")


class _Sums:
    """The sums of one statistic over one task, on a fixed absolute grid of
    cut points: the multiples of _ATOM and the checkpoint edges.

    `sums` holds (cut, sum) for each interval the task closes, and `open`
    the pieces of the interval being summed: the int total of each slice of
    an int or bool term (a bool term is counted), or the raw terms of each
    slice of a float64 term.  Only the last task leaves pieces open, past
    the last checkpoint.  values() adds the interval sums in ascending order.
    """

    def __init__(self, points: Sequence[int]):
        self.edges = {p + 1 for p in points}
        self.open: list = []
        self.sums: list[tuple[int, int | float]] = []

    def add(self, lo: int, hi: int, terms: np.ndarray) -> None:
        """Append the n in [lo, hi), which holds no cut point after lo.

        An int or bool term only needs its total, so it may leave out zeros.
        """
        if terms.dtype == np.float64:
            piece = terms
        else:
            piece = int(np.count_nonzero(terms) if terms.dtype == np.bool_ else terms.sum())
        self.open.append(piece)
        if hi % _ATOM == 0 or hi in self.edges:
            if isinstance(piece, int):
                total = sum(self.open)
            else:
                total = float(np.sum(np.concatenate(self.open) if len(self.open) > 1 else piece))
            self.sums.append((hi, total))
            self.open = []

    def values(self) -> list[int | float]:
        """The running total at every checkpoint edge closed, with the
        interval sums added in ascending order under Neumaier compensation,
        which stays exact on the ints of an int term."""
        total = comp = 0
        out = []
        for cut, x in self.sums:
            s = total + x
            if abs(total) >= abs(x):
                comp += (total - s) + x
            else:
                comp += (x - s) + total
            total = s
            if cut in self.edges:
                out.append(total + comp)
        return out


def _cuts(points: Sequence[int], lo: int, hi: int) -> list[int]:
    """The multiples of _ATOM and the checkpoint edges p + 1 in (lo, hi]."""
    edges = (p + 1 for p in points[bisect_left(points, lo) : bisect_left(points, hi)])
    return sorted({*range((lo // _ATOM + 1) * _ATOM, hi + 1, _ATOM), *edges})


def task_width(cfg: SieveConfig) -> int:
    """The width of mean's tasks: cfg.block_size rounded up to a multiple of _ATOM."""
    return -(-cfg.block_size // _ATOM) * _ATOM


def task_ranges(cfg: SieveConfig) -> list[tuple[int, int]]:
    """(lo, hi) of each of mean's tasks, in ascending order, covering [1, cfg.limit].

    The tasks are [1, W), [W, 2W), ..., with W = task_width(cfg) and the
    last one ending at cfg.limit + 1, so every inner edge is a cut of the
    sums' grid and each task closes every interval it opens.
    """
    width = task_width(cfg)
    return [(max(lo, 1), min(lo + width, cfg.limit + 1)) for lo in range(0, cfg.limit + 1, width)]


@dataclass(frozen=True)
class _TaskSums:
    """One task's reduction: per statistic, in request order, the (cut, sum)
    of each interval the task closes, all Python numbers."""

    lo: int
    hi: int
    sums: list[list[tuple[int, int | float]]]


class _Plan:
    """A request checked against its sieve run: the statistics, the
    checkpoints, the r0 convention and the dispersion c, with the per-task
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

    def reduce(self, task: tuple[int, int]) -> _TaskSums:
        """Every statistic's interval sums over the task [lo, hi), a slice at a time.

        The task's pair tallies arrive one window of sieve.pair_windows at
        a time, and each window is cut on the sums' grid, the multiples of
        _ATOM and the checkpoint edges, so each slice lies inside one
        interval, and each slice's support and int64 tallies are built once
        and shared by every statistic.  The task's walk runs the first time
        a slice reads A and is shared by the slices after it.  The pieces
        the last task leaves open lie past the last checkpoint and are
        dropped.
        """
        lo, hi = task
        parts = self._sums()
        walk = cache(lambda: multiplicative_arrays(lo, hi))
        for s, e, *window in pair_windows(lo, hi):
            bounds = [s, *_cuts(self.points, s, e - 1), e]
            for a, b in zip(bounds, bounds[1:]):
                pairs = (arr[a - s : b - s] for arr in window)
                tallies = Tallies(*pairs, walk, lo, a, b, self.dispersion_c, self.r0_convention)
                for stat, part in zip(self.stats, parts):
                    part.add(a, b, stat.term(tallies))
        return _TaskSums(lo, hi, [part.sums for part in parts])

    def merge(self, reductions: Iterable[_TaskSums]) -> list[MeanValueSeries]:
        """The series at every checkpoint from task reductions in ascending order."""
        runs = self._sums()
        covered = 0
        for red in reductions:
            if red.lo != covered + 1:
                raise ValidationError(f"tasks out of order: expected lo={covered + 1}, got {red.lo}")
            covered = red.hi - 1
            for run, sums in zip(runs, red.sums):
                run.sums += sums
        return [
            MeanValueSeries(stat.label(self.dispersion_c), tuple(run.values()))
            for stat, run in zip(self.stats, runs)
        ]

    def _sums(self) -> list:
        """Empty sums per statistic, in request order."""
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
    given convention ("pair" or "div").  Each of task_ranges(cfg) is sieved
    and reduced by one of `workers` processes, this one when workers is 1,
    and the reductions are merged in task order, so the series are the
    same, bit for bit, at every worker count.
    """
    plan = _Plan(cfg, grid, statistics, r0_convention, dispersion_c)
    raise_malloc_thresholds()
    return ordered_map(plan.reduce, task_ranges(cfg), workers, plan.merge)


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
