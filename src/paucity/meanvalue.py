"""Checkpointed accumulation of every reported sum.

Every statistic is summed in one pass over the sieve blocks, as a reduction
of each block followed by an in-order merge.  A block is reduced in fixed
slices to partial sums; the merge feeds those to one accumulator per
statistic in ascending block order.  accumulate reduces the blocks of
sieve_all in the calling process; accumulate_forked has worker processes
sieve and reduce the blocks and merges their reductions in block order.
The sieve runs the multiplicative walk only when a requested term reads
omega, phi or in_a.

Integer statistics (the S_{i,j}, first moments, support and Landau counts)
are exact in 64-bit: a block reduces to its sums between the checkpoint
edges inside it.  Harmonic-weighted and squared-residual sums accumulate on
a fixed absolute grid of cut points (64 Ki atoms plus the checkpoint edges)
with Neumaier compensation between cuts.  A block reduces to the raw terms
before its first cut, the np.sum of each whole interval between cuts, and
the raw terms after its last cut; the merge sums an interval that spans
blocks from their raw parts.  Every interval's sum thus has
partition-independent content and the intervals are added in ascending
order (the ordered merge of Demmel and Nguyen, "Parallel reproducible
summation", IEEE Trans. Comput. 64(7), 2015), so the result is
bit-identical for every block size and worker count, and whether or not the
walk ran.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .constants import STATISTICS, Tallies, normalized_value, predicted_constant
from .errors import CapacityError, ValidationError
from .sieve import PrimeTable, RepresentationBlock, SieveConfig, sieve_block, sieve_primes

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
    """Exact running total, read out at every checkpoint edge."""

    def __init__(self) -> None:
        self.total = 0
        self.out: list[int] = []

    def merge(self, lo: int, hi: int, segments: list[int]) -> None:
        """Add a block's sums between the checkpoint edges inside it."""
        self.total += segments[0]
        for segment in segments[1:]:
            self.out.append(self.total)
            self.total += segment


class _FloatAccumulator:
    """Deterministic float accumulation over a fixed absolute cut grid.

    Raw fragments are buffered and flushed at cut points (multiples of the
    atom width, plus each checkpoint edge).  Every flushed interval has
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
        self.out: list[float] = []

    def _add(self, x: float) -> None:
        s = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - s) + x
        else:
            self.comp += (x - s) + self.total
        self.total = s

    def _close(self, cut: int, value: float) -> None:
        """Add the sum of the interval that ends at `cut`; read out a checkpoint edge."""
        self._add(value)
        self.start = cut
        if self.ci < len(self.points) and cut == self.points[self.ci] + 1:
            self.out.append(self.total + self.comp)
            self.ci += 1

    def feed(self, lo: int, terms: np.ndarray) -> None:
        """Buffer raw terms from n = lo on, closing every interval they complete."""
        if not self.buf:
            self.start = lo
        self.buf.append(terms)
        base = self.start
        end = base + sum(b.size for b in self.buf)
        cuts = _cuts(self.points, base, end)
        if not cuts:
            return
        merged = self.buf[0] if len(self.buf) == 1 else np.concatenate(self.buf)
        for cut in cuts:
            self._close(cut, float(np.sum(merged[self.start - base : cut - base])))
        # Keep the tail (under one atom), not a view pinning the whole fed array.
        self.buf = [merged[self.start - base :].copy()] if end > self.start else []

    def merge(self, lo: int, hi: int, part: tuple) -> None:
        """Add a block's float reduction: its head and tail raw, its whole intervals summed."""
        head, sums, tail = part
        self.feed(lo, head)
        for cut, value in sums:
            self._close(cut, value)
        if tail.size:
            self.feed(hi - tail.size, tail)


def _edges(points: Sequence[int], lo: int, hi: int) -> list[int]:
    """p + 1 for every checkpoint lo <= p < hi: the exact sums' cut points in (lo, hi]."""
    return [p + 1 for p in points[bisect_left(points, lo) : bisect_left(points, hi)]]


def _cuts(points: Sequence[int], lo: int, hi: int) -> list[int]:
    """The float sums' cut points in (lo, hi]: multiples of _ATOM and checkpoint edges."""
    return sorted({*range((lo // _ATOM + 1) * _ATOM, hi + 1, _ATOM), *_edges(points, lo, hi)})


class _ExactReduction:
    """One block's exact sums between the checkpoint edges inside it."""

    def __init__(self) -> None:
        self.segments = [0]

    def add(self, points: Sequence[int], lo: int, terms: np.ndarray) -> None:
        off = 0
        for edge in _edges(points, lo, lo + terms.size):
            self.segments[-1] += int(terms[off : edge - lo].sum())
            self.segments.append(0)
            off = edge - lo
        self.segments[-1] += int(terms[off:].sum())

    def result(self) -> list[int]:
        return self.segments


class _FloatReduction:
    """One block's float terms as (head, sums, tail): the raw terms before
    its first cut point, (cut, np.sum) for each whole interval between cut
    points, and the raw terms after its last one.  A block without a cut
    point is all head."""

    def __init__(self) -> None:
        self.head: np.ndarray | None = None
        self.sums: list[tuple[int, float]] = []
        self.pending: list[np.ndarray] = []

    def add(self, points: Sequence[int], lo: int, terms: np.ndarray) -> None:
        off = 0
        for cut in _cuts(points, lo, lo + terms.size):
            piece = terms[off : cut - lo]
            interval = np.concatenate([*self.pending, piece]) if self.pending else piece
            self.pending = []
            if self.head is None:
                self.head = interval.copy()
            else:
                self.sums.append((cut, float(np.sum(interval))))
            off = cut - lo
        if off < terms.size:
            self.pending.append(terms[off:].copy())

    def result(self) -> tuple[np.ndarray, list[tuple[int, float]], np.ndarray]:
        rest = np.concatenate(self.pending) if self.pending else np.empty(0)
        if self.head is None:
            return rest, [], np.empty(0)
        return self.head, self.sums, rest


@dataclass(frozen=True)
class _BlockSums:
    """One block's reduction: a part per statistic, in request order."""

    lo: int
    hi: int
    parts: list


class _Plan:
    """A validated request: the statistics, the checkpoints, the r0
    convention and the dispersion c, with the per-block reduction and the
    in-order merge of the reductions."""

    def __init__(
        self,
        grid: CheckpointGrid,
        statistics: Sequence[str],
        r0_convention: str,
        dispersion_c: float,
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
        if not math.isfinite(dispersion_c) or dispersion_c < 0:
            raise ValidationError(f"dispersion c must be finite and >= 0, got {dispersion_c}")
        if r0_convention not in ("pair", "div"):
            raise ValidationError(f"unknown r0 convention {r0_convention!r}")
        self.stats = stats
        self.multiplicative = [s.name for s in stats if s.multiplicative]
        self.points = grid.points
        self.r0_convention = r0_convention
        self.dispersion_c = dispersion_c

    def reduce(self, block: RepresentationBlock) -> _BlockSums:
        """Every statistic's partial sums over one block, a slice at a time.

        Each slice's tallies are widened to int64 once and shared by every
        statistic.
        """
        if self.multiplicative and block.omega is None:
            raise ValidationError(
                f"{', '.join(self.multiplicative)} need blocks sieved with the multiplicative arrays"
            )
        parts = [_ExactReduction() if s.exact else _FloatReduction() for s in self.stats]
        for off in range(0, block.hi - block.lo, _SLICE):
            sl = slice(off, off + _SLICE)
            tallies = Tallies(
                block.lo + off,
                block.r0_pair[sl],
                block.r1[sl].astype(np.int64),
                block.r2[sl].astype(np.int64),
                self.dispersion_c,
                self.r0_convention,
                *(arr[sl] for arr in (block.omega, block.phi, block.in_a) if arr is not None),
            )
            for stat, part in zip(self.stats, parts):
                part.add(self.points, tallies.lo, stat.term(tallies))
        return _BlockSums(block.lo, block.hi, [part.result() for part in parts])

    def merge(self, reductions: Iterable[_BlockSums]) -> list[MeanValueSeries]:
        """The series at every checkpoint from block reductions in ascending order."""
        accs = [_IntAccumulator() if s.exact else _FloatAccumulator(self.points) for s in self.stats]
        covered = 0
        for red in reductions:
            if red.lo != covered + 1:
                raise ValidationError(f"blocks out of order: expected lo={covered + 1}, got {red.lo}")
            covered = red.hi - 1
            for acc, part in zip(accs, red.parts):
                acc.merge(red.lo, red.hi, part)
            del red, part  # free the raw parts before the next block is sieved
        if covered < self.points[-1]:
            raise ValidationError(
                f"checkpoint {self.points[-1]} beyond covered range [1, {covered}]"
            )
        return [
            MeanValueSeries(stat.label(self.dispersion_c), tuple(acc.out), covered)
            for stat, acc in zip(self.stats, accs)
        ]


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
    ("pair" or "div").  Each block is reduced in this process as it arrives.
    """
    plan = _Plan(grid, statistics, r0_convention, dispersion_c)
    # Not map(plan.reduce, blocks): the generator keeps each block alive
    # while the next one is sieved (see _Worker).
    return plan.merge(plan.reduce(block) for block in blocks)


class _Worker:
    """Sieves and reduces blocks in a worker process.

    The last block stays allocated while the next one is sieved, so the
    allocator reuses its pages instead of handing them back to the system
    and faulting them in again: freeing each block first cost 5x the minor
    page faults (99k against 19k for mean --limit 30000000 in one process).
    """

    def __init__(self, plan: _Plan, cfg: SieveConfig, primes: PrimeTable):
        self.plan = plan
        self.cfg = cfg
        self.primes = primes
        self.block: RepresentationBlock | None = None

    def __call__(self, bounds: tuple[int, int]) -> _BlockSums:
        self.block = sieve_block(self.cfg, *bounds, self.primes)
        return self.plan.reduce(self.block)


# Set by _adopt in each worker process, and only there, from the plan, the
# sieve geometry and the prime table that the worker inherited at fork.
_worker: _Worker | None = None


def _adopt(plan: _Plan, cfg: SieveConfig, primes: PrimeTable) -> None:
    global _worker
    _worker = _Worker(plan, cfg, primes)


def _sieve_and_reduce(bounds: tuple[int, int]) -> _BlockSums:
    return _worker(bounds)


def accumulate_forked(
    cfg: SieveConfig,
    workers: int,
    grid: CheckpointGrid,
    statistics: Sequence[str],
    r0_convention: str = "pair",
    dispersion_c: float = 1.0,
) -> list[MeanValueSeries]:
    """accumulate(sieve_all(cfg), ...), with each block sieved and reduced
    by one of `workers` worker processes.

    The workers are forked once the plan and the prime table exist, so they
    receive only each block's (lo, hi) and send back its reduction.  Fork,
    not spawn: the plan's statistic terms are lambdas, which cannot be
    pickled, and a spawned worker would import numpy and the package again
    (about 0.13 s each on a 2-core machine).  At most two blocks per worker
    are in flight, and the reductions are merged in block order, so the
    series are those of accumulate, bit for bit.  An error raised in a worker
    is raised here; a worker that dies raises CapacityError.  Every worker
    has exited when this returns or raises.
    """
    plan = _Plan(grid, statistics, r0_convention, dispersion_c)
    primes = sieve_primes(max(2, math.isqrt(cfg.limit)))
    # Imported here: a run on one process does not pay for multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_adopt,
        initargs=(plan, cfg, primes),
    )

    def in_order() -> Iterator[_BlockSums]:
        pending: deque = deque()
        for bounds in cfg.block_ranges():
            pending.append(pool.submit(_sieve_and_reduce, bounds))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        return plan.merge(in_order())
    except BrokenProcessPool as exc:
        raise CapacityError(f"a worker process died before returning its block: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


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
