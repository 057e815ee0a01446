"""Command-line surface: batch experiments, CSV outputs, JSON run manifests.

Subcommands: sieve, mean, constants, congruence, offdiag, report.  Exit code
0 on success, 2 on validation errors (including argparse failures, an
--out-dir that cannot be made and an output or a manifest whose path is a
directory, all refused before any work, since each command opens its
outputs before its heavy work; report also refuses two statistics that plot
to one file), 3 on capacity/overflow errors and on a file that cannot be
written, such as an output or the manifest.  mean makes one
meanvalue.accumulate call over meanvalue.task_ranges, with --block-size
rounded up to a multiple of 2^16, and with --threads (PAUCITY_THREADS
overrides it, and both are at most MAX_THREADS) as its count of processes
that sieve and reduce tasks; the other commands take no --threads and run
in this one process, where thread pools over sieve blocks and over the
offdiag census measured no faster than one thread.  sieve and mean record
the processes that sieved in the manifest, as config.sieve, and mean its
task width too.  Every output lands under --out-dir, written
under a hidden temporary name, .<name>.<pid>.tmp, and renamed onto its own
name, manifest last, only when the whole run has succeeded: a failed run
adds no file, though one killed by a signal may leave a temporary behind.
CSVs are deterministic (byte-identical across thread counts and block
sizes); manifests carry timestamps and are not.

This module imports only the standard library and errors, so no numpy.
Each command imports the modules it uses when it runs (sieve: sieve; mean
and report: meanvalue; constants: constants; congruence: arith and
congruence; offdiag: quadruples), so --version, --help and argparse errors
start at about the interpreter's own speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING

from . import __version__
from .errors import CapacityError, PaucityError, ValidationError

if TYPE_CHECKING:
    from .meanvalue import CheckpointGrid

_CENSUS_NOTE = (
    "classification over normalized quadruples (q <= r); N1'' interval (p,a) "
    "read as (min,max); ties and coordinates < 3 routed to degenerate_count"
)

# --threads and PAUCITY_THREADS above this are refused before any work.
MAX_THREADS = 64


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@dataclass
class _Outputs:
    """The files one run writes, each staged as (handle, temporary path, final path)."""

    dir: Path
    staged: list[tuple[IO, Path, Path]] = dataclasses.field(default_factory=list)

    def open(self, name: str, mode: str = "w") -> IO:
        """A handle on output `name`: UTF-8 text with '\\n' line ends, or bytes for mode 'wb'."""
        path = self.dir / name
        if path.is_dir():
            raise ValidationError(f"output {path} is a directory")
        temp = self.dir / f".{name}.{os.getpid()}.tmp"
        text = "b" not in mode
        fh = open(temp, mode, encoding="utf-8" if text else None, newline="\n" if text else None)
        self.staged.append((fh, temp, path))
        return fh


def _check_threads(source: str, value: int) -> int:
    if not 1 <= value <= MAX_THREADS:
        raise ValidationError(f"{source} must be from 1 to {MAX_THREADS}, got {value}")
    return value


def _thread_count(args: argparse.Namespace) -> int:
    _check_threads("--threads", args.threads)
    env = os.environ.get("PAUCITY_THREADS")
    if env is None:
        return args.threads
    try:
        value = int(env)
    except ValueError as exc:
        raise ValidationError(f"PAUCITY_THREADS must be an integer, got {env!r}") from exc
    return _check_threads("PAUCITY_THREADS", value)


def _parse_grid(spec: str, limit: int) -> CheckpointGrid:
    """Checkpoints from the --grid spec; each must be >= 3, where rows can be normalized."""
    from .meanvalue import CheckpointGrid

    kind, _, rest = spec.partition(":")
    try:
        numbers = [int(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise ValidationError(f"grid spec {spec!r} holds a non-integer") from None
    if kind == "geometric":
        ratio = numbers[0] if numbers else 10
        if len(numbers) > 1 or ratio < 2:
            raise ValidationError(f"grid ratio must be one integer >= 2, got {rest!r}")
        grid = CheckpointGrid.geometric(limit, ratio=ratio)
    elif kind == "explicit":
        if not numbers:
            raise ValidationError("explicit grid needs comma-separated points")
        grid = CheckpointGrid(points=tuple(numbers))
    else:
        raise ValidationError(f"unknown grid spec {spec!r} (use geometric:R or explicit:p1,p2,...)")
    if grid.points[0] < 3:
        raise ValidationError(f"checkpoints must be >= 3 to be normalized, got {grid.points[0]}")
    return grid


def _parse_stats(spec: str) -> list[str]:
    """The names in the --stats spec; accumulate checks them."""
    from .constants import STATISTICS

    if spec.strip().lower() == "all":
        return list(STATISTICS)
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _cmd_sieve(args: argparse.Namespace, out: _Outputs) -> None:
    from .sieve import SieveConfig, write_blocks

    cfg = SieveConfig(limit=args.limit, block_size=args.block_size)
    args.sieve = {"processes": 1}
    count = write_blocks(out.open("blocks.pcty", "wb"), cfg)
    print(f"sieved [1, {args.limit}] into {count} blocks -> {out.dir / 'blocks.pcty'}")


def _cmd_mean(args: argparse.Namespace, out: _Outputs) -> None:
    from .constants import DEFAULT_STATISTICS
    from .meanvalue import accumulate, task_ranges, task_width, write_csv
    from .sieve import SieveConfig

    # The manifest then records the count in effect, PAUCITY_THREADS included,
    # and the statistics in effect, the registry's default when --stats is absent.
    args.threads = _thread_count(args)
    if args.stats is None:
        args.stats = ",".join(DEFAULT_STATISTICS)
    if args.limit < 2:
        raise ValidationError(f"limit must be >= 2, got {args.limit}")
    stats = _parse_stats(args.stats)
    grid = _parse_grid(args.grid, args.limit)
    cfg = SieveConfig(limit=args.limit, block_size=args.block_size)
    workers = min(args.threads, len(task_ranges(cfg)))
    args.sieve = {"processes": workers, "task_width": task_width(cfg)}
    # The workers fork with this handle open: nothing may be buffered in it yet.
    fh = out.open("mean.csv")
    series = accumulate(cfg, grid, stats, args.r0_convention, args.dispersion_c, workers)
    write_csv(fh, series, grid)
    print(f"wrote {len(series)} series at {len(grid.points)} checkpoints -> {out.dir / 'mean.csv'}")


def _cmd_constants(args: argparse.Namespace, out: _Outputs) -> None:
    from .constants import (
        catalan, check_density_z, check_eps, check_prime_limit, landau_ramanujan,
        sieve_density_product,
    )

    # Every --z, --eps and --prime-limit is checked before the first sieve runs.
    for z in args.z:
        check_density_z(z)
    check_eps(args.eps)
    check_prime_limit(args.prime_limit)
    fh = out.open("constants.csv")
    densities = [sieve_density_product(z) for z in args.z]
    rows = []
    g = catalan(args.eps)
    k1 = landau_ramanujan(args.prime_limit, form="1mod4")
    k3 = landau_ramanujan(args.prime_limit, form="3mod4")
    rows.append(("G", g.value, g.error_bound, g.method))
    rows.append(("K", k1.value, k1.error_bound, k1.method))
    rows.append(("K_alt", k3.value, k3.error_bound, k3.method))
    pi = math.pi
    derived = [
        ("12G/pi^2", 12 * g.value / pi**2, 12 * g.error_bound / pi**2),
        ("12G/pi^3", 12 * g.value / pi**3, 12 * g.error_bound / pi**3),
        ("pi/2", pi / 2, 1e-16),
        ("2pi", 2 * pi, 1e-16),
        ("1/pi", 1 / pi, 1e-16),
        ("1/(4K)", 1 / (4 * k1.value), k1.error_bound),
    ]
    rows.extend((name, val, err, "derived") for name, val, err in derived)
    for z, v in zip(args.z, densities):
        rows.append((v.name, v.value, v.error_bound, v.method))
        rows.append((f"V({z:g})*log(z)^3", v.value * math.log(z) ** 3, v.error_bound, "derived"))
    fh.write("name,value,error_bound,method\n")
    for name, val, err, method in rows:
        fh.write(f"{name},{val:.15g},{err:.15g},{method}\n")
    print(f"wrote {len(rows)} constants -> {out.dir / 'constants.csv'}")


def _cmd_congruence(args: argparse.Namespace, out: _Outputs) -> None:
    from .arith import factorize
    from .congruence import (
        NU_ORACLE_CAP, RHO_ORACLE_CAP, FormParams, nu_closed, nu_oracle, rho_closed, rho_oracle,
    )

    params = FormParams(t=args.t, d=args.d)
    for flag, value, cap in (
        ("--rho-max", args.rho_max, RHO_ORACLE_CAP), ("--nu-max", args.nu_max, NU_ORACLE_CAP)
    ):
        if value < 0:
            raise ValidationError(f"{flag} must be >= 0, got {value}")
        if value > cap:
            raise CapacityError(f"{flag} {value} exceeds the oracle cap {cap}")
    fh = out.open("congruence.csv")
    rows = []
    for d in range(1, args.rho_max + 1):
        closed = rho_closed(factorize(d)).count
        oracle = rho_oracle(d).count
        rows.append(("rho", d, "", "", closed, oracle, int(closed == oracle)))
    for delta in range(1, args.nu_max + 1):
        f = factorize(delta)
        if any(e > 1 for _, e in f.factors):
            continue
        closed = nu_closed(f, params).count
        oracle = nu_oracle(delta, params).count
        rows.append(("nu", delta, args.t, args.d, closed, oracle, int(closed == oracle)))
    fh.write("kind,modulus,t,d,closed,oracle,match\n")
    fh.writelines(f"{k},{m},{t},{d},{c},{o},{ok}\n" for k, m, t, d, c, o, ok in rows)
    mismatches = sum(1 for row in rows if not row[-1])
    print(f"wrote {len(rows)} congruence rows ({mismatches} mismatches) -> "
          f"{out.dir / 'congruence.csv'}")


def _cmd_offdiag(args: argparse.Namespace, out: _Outputs) -> None:
    from .quadruples import check_limit, enumerate_n1_params, enumerate_offdiag

    check_limit(args.limit)
    if args.emit_quadruples and args.mode == "param":
        raise ValidationError("--emit-quadruples lists the census; use --mode direct or both")
    fh = out.open("offdiag.csv")
    quad_fh = out.open("quadruples.csv") if args.emit_quadruples else None
    rows: list[tuple[str, object]] = [("limit", args.limit), ("note", f"\"{_CENSUS_NOTE}\"")]
    census = None
    if args.mode in ("direct", "both"):
        census = enumerate_offdiag(args.limit, collect=args.emit_quadruples)
        if args.emit_quadruples and census.quadruples is None:
            raise CapacityError(
                "quadruple list exceeds the collection cap; rerun with a smaller limit"
            )
        offdiag = census.s12 - census.diagonal
        rows += [
            ("N", census.n),
            ("N1", census.n1),
            ("N1_prime", census.n1_prime),
            ("N1_double_prime", census.n1_double_prime),
            ("degenerate_count", census.degenerate_count),
            ("n_canonical", census.n_canonical),
            ("s12", census.s12),
            ("diagonal", census.diagonal),
            ("offdiag_via_partition", offdiag),
            ("partition_consistent", int(offdiag == census.n)),
        ]
    if args.mode in ("param", "both"):
        pc = enumerate_n1_params(args.limit)
        rows.append(("N1_param", pc.n1))
        if census is not None:
            rows.append(("param_consistent", int(pc.n1 == census.n1)))
    fh.write("field,value\n")
    for key, value in rows:
        fh.write(f"{key},{value}\n")
    print(f"note: {_CENSUS_NOTE}")
    for key, value in rows[2:]:
        print(f"  {key} = {value}")
    if quad_fh is not None:
        quad_fh.write("a,p,q,r,n\n")
        for quad in census.quadruples:
            quad_fh.write(f"{quad.a},{quad.p},{quad.q},{quad.r},{quad.n}\n")


def _plot_name(statistic: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in statistic).strip("_")
    return f"plot_{safe}.csv"


def _cmd_report(args: argparse.Namespace, out: _Outputs) -> None:
    from .meanvalue import csv_fields, read_csv

    if not args.inputs:
        raise ValidationError("report needs at least one input CSV")
    missing = [path for path in args.inputs if not os.path.isfile(path)]
    if missing:
        raise ValidationError(f"input CSV not found: {', '.join(missing)}")
    rows = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rows.extend(read_csv(fh))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input CSV {path} is not UTF-8: {exc.reason}") from None
    if not rows:
        raise ValidationError("input CSVs contain no data rows")
    by_stat: dict[str, list[dict]] = {}
    for row in rows:
        by_stat.setdefault(row["statistic"], []).append(row)
    report = out.open("report.csv")
    report.write("statistic,x,raw_value,normalized_value,predicted_constant,deviation\n")
    plotted: dict[str, str] = {}
    for stat in sorted(by_stat):
        name = _plot_name(stat)
        if name in plotted:
            raise ValidationError(f"statistics {plotted[name]} and {stat} both plot to {name}")
        plotted[name] = stat
        plot = out.open(name)
        plot.write("x,ratio\n")
        for row in sorted(by_stat[stat], key=lambda r: r["x"]):
            fields = csv_fields(stat, row["x"], row["raw_value"])
            report.write(f"{stat},{row['x']},{','.join(fields)}\n")
            plot.write(f"{row['x']},{fields[1]}\n")
    print(f"report over {len(by_stat)} statistics -> {out.dir / 'report.csv'}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paucity",
        description="Sieve experiments on sums of two squares with prime coordinates.",
    )
    parser.add_argument("--version", action="version", version=f"paucity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", default=".", help="output directory (default: .)")

    p = sub.add_parser("sieve", help="compute tallies and dump raw blocks")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--block-size", type=int, default=1 << 20)
    common(p)

    p = sub.add_parser("mean", help="checkpointed mean values")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--stats", help="comma list or 'all' (default: constants.DEFAULT_STATISTICS)")
    p.add_argument("--grid", default="geometric:10")
    p.add_argument("--block-size", type=int, default=1 << 20,
                   help="task width, rounded up to a multiple of 65536 (default: 2^20)")
    p.add_argument("--r0-convention", choices=("pair", "div"), default="pair")
    p.add_argument("--dispersion-c", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=1,
                   help=f"worker processes that sieve and reduce blocks, from 1 to "
                        f"{MAX_THREADS} (PAUCITY_THREADS overrides)")
    common(p)

    p = sub.add_parser("constants", help="evaluate the predicted-constant toolbox")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--prime-limit", type=int, default=10**7)
    p.add_argument("--z", type=float, nargs="*", default=[10.0, 100.0, 1000.0])
    common(p)

    p = sub.add_parser("congruence", help="closed forms vs exhaustive oracles")
    p.add_argument("--rho-max", type=int, default=100)
    p.add_argument("--nu-max", type=int, default=50)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    common(p)

    p = sub.add_parser("offdiag", help="off-diagonal census and parametrization")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--mode", choices=("direct", "param", "both"), default="both")
    p.add_argument("--emit-quadruples", action="store_true")
    common(p)

    p = sub.add_parser("report", help="join empirical CSVs with predictions")
    p.add_argument("--inputs", nargs="*", default=[])
    common(p)

    return parser


_DISPATCH = {
    "sieve": _cmd_sieve,
    "mean": _cmd_mean,
    "constants": _cmd_constants,
    "congruence": _cmd_congruence,
    "offdiag": _cmd_offdiag,
    "report": _cmd_report,
}


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, commit outputs plus a JSON manifest; return exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create --out-dir {out_dir}: {exc.strerror}") from None
    started = _timestamp()
    out = _Outputs(out_dir)
    try:
        # Opened first, so a directory in its place is refused before any work.
        manifest = out.open(f"{args.command}_manifest.json")
        _DISPATCH[args.command](args, out)
        config = {k: v for k, v in vars(args).items() if k not in ("command",)}
        outputs = [path.name for _, _, path in out.staged[1:]]
        json.dump({
            "command": args.command, "argv": list(argv), "config": config, "started": started,
            "finished": _timestamp(), "version": __version__, "outputs": outputs,
        }, manifest, indent=2, sort_keys=True)
        manifest.write("\n")
        # Every output is renamed onto its own name in the order opened, the
        # manifest last, once the whole run has succeeded.
        out.staged.append(out.staged.pop(0))
        for fh, _, _ in out.staged:
            fh.close()
        for _, temp, path in out.staged:
            os.replace(temp, path)
    except BaseException:
        for fh, temp, _ in out.staged:
            try:
                fh.close()
            except OSError:
                pass  # the error being raised already says what failed
            temp.unlink(missing_ok=True)
        raise
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except PaucityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
