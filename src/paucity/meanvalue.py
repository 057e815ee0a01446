"""Checkpointed accumulation of every reported sum.

Every statistic is summed in one pass over the sieve blocks, in fixed slices
of each block, in the calling process: the blocks arrive in order from
sieve_all, which ran the multiplicative walk only when a requested term reads
omega, phi or in_a.  Integer statistics (the S_{i,j}, first moments, support
and Landau counts) accumulate exactly in 64-bit.  Harmonic-weighted and
squared-residual sums accumulate on a fixed absolute grid of cut points
(64 Ki atoms plus the checkpoint edges) with Neumaier compensation between
cuts, so the result is bit-identical for every block size and whether or not
the walk ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .constants import STATISTICS, Tallies, normalized_value, predicted_constant
from .errors import ValidationError
from .sieve import RepresentationBlock

_ATOM = 1 << 16
# Terms are evaluated over slices of this width, which bounds the float64
# temporaries whatever the block size.
_SLICE = 1 << 18


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


class _IntAccumulator:
    """Exact segment sums between checkpoints."""

    def __init__(self, points: Sequence[int]):
        self.points = points
        self.ci = 0
        self.total = 0
        self.out: list[int] = []

    def feed(self, lo: int, terms: np.ndarray) -> None:
        end = lo + terms.size
        off = 0
        while self.ci < len(self.points) and self.points[self.ci] < end:
            cut = self.points[self.ci] + 1 - lo
            self.total += int(terms[off:cut].sum())
            off = cut
            self.out.append(self.total)
            self.ci += 1
        self.total += int(terms[off:].sum())


class _FloatAccumulator:
    """Deterministic float accumulation over a fixed absolute cut grid.

    Incoming fragments are buffered and flushed at cut points (multiples of
    the atom width, plus each checkpoint edge).  Every flushed interval has
    partition-independent content, and intervals merge in ascending order
    under Neumaier compensation, so totals never depend on how the range was
    split across blocks.
    """

    def __init__(self, points: Sequence[int]):
        self.points = points
        self.ci = 0
        self.total = 0.0
        self.comp = 0.0
        self.buf: list[np.ndarray] = []
        self.start = 0
        self.size = 0
        self.out: list[float] = []

    def _add(self, x: float) -> None:
        s = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - s) + x
        else:
            self.comp += (x - s) + self.total
        self.total = s

    def _flush_to(self, cut: int) -> None:
        take = cut - self.start
        if take > 0:
            merged = self.buf[0] if len(self.buf) == 1 else np.concatenate(self.buf)
            self._add(float(np.sum(merged[:take])))
            self.buf = [merged[take:]] if merged.size > take else []
            self.start = cut
            self.size -= take

    def feed(self, lo: int, terms: np.ndarray) -> None:
        if not self.buf:
            self.start = lo
            self.size = 0
        self.buf.append(terms)
        self.size += terms.size
        end = self.start + self.size
        flushed = False
        while True:
            atom_cut = ((self.start // _ATOM) + 1) * _ATOM
            ck_cut = self.points[self.ci] + 1 if self.ci < len(self.points) else None
            cut = atom_cut if ck_cut is None else min(atom_cut, ck_cut)
            if cut > end:
                break
            self._flush_to(cut)
            flushed = True
            if ck_cut is not None and cut == ck_cut:
                self.out.append(self.total + self.comp)
                self.ci += 1
        if flushed and self.buf:
            # Keep the tail (under one atom), not a view pinning the whole fed array.
            self.buf = [self.buf[0].copy()]


def accumulate(
    blocks: Iterable[RepresentationBlock],
    grid: CheckpointGrid,
    statistics: Sequence[str],
    r0_convention: str = "pair",
    dispersion_c: float = 1.0,
) -> list[MeanValueSeries]:
    """Partial sums of the requested statistics at every checkpoint.

    Blocks must arrive in ascending order covering [1, limit] with
    limit >= the last checkpoint, and must carry the multiplicative arrays
    when a requested statistic reads them; r0 follows the given convention
    ("pair" or "div").  Each slice's tallies are widened to int64 once and
    shared by every statistic.
    """
    if not statistics:
        raise ValidationError("no statistics requested")
    stats = []
    for name in statistics:
        if name not in STATISTICS:
            raise ValidationError(f"unknown statistic {name!r}")
        if STATISTICS[name] in stats:
            raise ValidationError(f"duplicate statistic {name!r}")
        stats.append(STATISTICS[name])
    accs = [(_IntAccumulator if s.exact else _FloatAccumulator)(grid.points) for s in stats]
    if not math.isfinite(dispersion_c) or dispersion_c < 0:
        raise ValidationError(f"dispersion c must be finite and >= 0, got {dispersion_c}")
    if r0_convention not in ("pair", "div"):
        raise ValidationError(f"unknown r0 convention {r0_convention!r}")
    multiplicative = [s.name for s in stats if s.multiplicative]
    expected = 1
    covered = 0
    for block in blocks:
        if block.lo != expected:
            raise ValidationError(f"blocks out of order: expected lo={expected}, got {block.lo}")
        if multiplicative and block.omega is None:
            raise ValidationError(
                f"{', '.join(multiplicative)} need blocks sieved with the multiplicative arrays"
            )
        expected = block.hi
        covered = block.hi - 1
        for off in range(0, block.hi - block.lo, _SLICE):
            sl = slice(off, off + _SLICE)
            tallies = Tallies(
                block.lo + off,
                block.r0_pair[sl],
                block.r1[sl].astype(np.int64),
                block.r2[sl].astype(np.int64),
                dispersion_c,
                r0_convention,
                *(arr[sl] for arr in (block.omega, block.phi, block.in_a) if arr is not None),
            )
            for stat, acc in zip(stats, accs):
                acc.feed(tallies.lo, stat.term(tallies))
        del tallies  # free the int64 copies before the next block arrives
    if covered < grid.points[-1]:
        raise ValidationError(
            f"checkpoint {grid.points[-1]} beyond covered range [1, {covered}]"
        )
    return [
        MeanValueSeries(stat.label(dispersion_c), tuple(acc.out), covered)
        for stat, acc in zip(stats, accs)
    ]


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
