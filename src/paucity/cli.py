"""Command-line surface: batch experiments, CSV outputs, JSON run manifests.

Subcommands: sieve, mean, constants, congruence, offdiag, report.  Exit code
0 on success, 2 on validation errors (including argparse failures), 3 on
capacity/overflow errors.  mean makes one meanvalue.accumulate call, with
--threads (PAUCITY_THREADS overrides it, and both are at most MAX_THREADS)
as its count of processes that sieve and reduce blocks; the other commands
take no --threads and run in this one process, where thread pools over
sieve blocks and over the offdiag census measured no faster than one
thread.  mean runs only the sieve
kernels its statistics read, and sieve and mean record the kernels and the
processes that ran them in the manifest.  Every output lands under
--out-dir.  CSVs are deterministic (byte-identical across thread counts and
block sizes); manifests carry timestamps and are not.
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

from . import __version__
from .arith import build_spf_table
from .congruence import (
    NU_ORACLE_CAP,
    RHO_ORACLE_CAP,
    FormParams,
    nu_closed,
    nu_oracle,
    rho_closed,
    rho_oracle,
)
from .constants import (
    DEFAULT_STATISTICS,
    STATISTICS,
    catalan,
    check_density_z,
    check_prime_limit,
    landau_ramanujan,
    sieve_density_product,
)
from .errors import CapacityError, PaucityError, ValidationError
from .meanvalue import CheckpointGrid, accumulate, csv_fields, read_csv, write_csv
from .quadruples import enumerate_n1_params, enumerate_offdiag
from .sieve import SieveConfig, sieve_all, write_blocks
from . import arith

_CENSUS_NOTE = (
    "classification over normalized quadruples (q <= r); N1'' interval (p,a) "
    "read as (min,max); ties and coordinates < 3 routed to degenerate_count"
)

# --threads and PAUCITY_THREADS above this are refused before any work.
MAX_THREADS = 64


@dataclass(frozen=True)
class RunManifest:
    """What ran, with what configuration, and what it produced."""

    command: str
    argv: list[str]
    config: dict
    started: str
    finished: str
    version: str
    outputs: list[str]


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _write_manifest(out_dir: Path, name: str, manifest: RunManifest) -> Path:
    path = out_dir / f"{name}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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
        if numbers[-1] > limit:
            raise ValidationError(f"grid point {numbers[-1]} exceeds limit {limit}")
        grid = CheckpointGrid(points=tuple(numbers))
    else:
        raise ValidationError(f"unknown grid spec {spec!r} (use geometric:R or explicit:p1,p2,...)")
    if grid.points[0] < 3:
        raise ValidationError(f"checkpoints must be >= 3 to be normalized, got {grid.points[0]}")
    return grid


def _parse_stats(spec: str) -> list[str]:
    if spec.strip().lower() == "all":
        return list(STATISTICS)
    stats = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not stats:
        raise ValidationError("no statistics requested")
    for s in stats:
        if s not in STATISTICS:
            raise ValidationError(f"unknown statistic {s!r}; known: {', '.join(STATISTICS)}")
    if len(set(stats)) < len(stats):
        raise ValidationError(f"duplicate statistic in {spec!r}")
    return stats


def _record_sieve(args: argparse.Namespace, cfg: SieveConfig, processes: int = 1) -> None:
    """Put the kernels that ran, and the processes that ran them, into the manifest's config."""
    args.sieve = {"kernels": list(cfg.kernels), "processes": processes}


def _cmd_sieve(args: argparse.Namespace, out_dir: Path) -> list[str]:
    cfg = SieveConfig(limit=args.limit, block_size=args.block_size)
    _record_sieve(args, cfg)
    outputs = []
    dump_path = out_dir / "blocks.pcty"
    with open(dump_path, "wb") as fh:
        count = write_blocks(fh, sieve_all(cfg))
    outputs.append(dump_path.name)
    print(f"sieved [1, {args.limit}] into {count} blocks -> {dump_path}")
    return outputs


def _cmd_mean(args: argparse.Namespace, out_dir: Path) -> list[str]:
    # The manifest then records the count in effect, PAUCITY_THREADS included.
    args.threads = _thread_count(args)
    if args.limit < 2:
        raise ValidationError(f"limit must be >= 2, got {args.limit}")
    stats = _parse_stats(args.stats)
    grid = _parse_grid(args.grid, args.limit)
    cfg = SieveConfig(
        limit=args.limit, block_size=args.block_size,
        multiplicative=any(STATISTICS[s].multiplicative for s in stats),
    )
    workers = min(args.threads, cfg.block_count)
    _record_sieve(args, cfg, workers)
    series = accumulate(cfg, grid, stats, args.r0_convention, args.dispersion_c, workers)
    csv_path = out_dir / "mean.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(fh, series, grid)
    print(f"wrote {len(series)} series at {len(grid.points)} checkpoints -> {csv_path}")
    return [csv_path.name]


def _cmd_constants(args: argparse.Namespace, out_dir: Path) -> list[str]:
    # Every --z and --prime-limit is checked before the first sieve runs.
    for z in args.z:
        check_density_z(z)
    check_prime_limit(args.prime_limit)
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
    csv_path = out_dir / "constants.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value,error_bound,method\n")
        for name, val, err, method in rows:
            fh.write(f"{name},{val:.15g},{err:.15g},{method}\n")
    print(f"wrote {len(rows)} constants -> {csv_path}")
    return [csv_path.name]


def _cmd_congruence(args: argparse.Namespace, out_dir: Path) -> list[str]:
    params = FormParams(t=args.t, d=args.d)
    for flag, value, cap in (
        ("--rho-max", args.rho_max, RHO_ORACLE_CAP), ("--nu-max", args.nu_max, NU_ORACLE_CAP)
    ):
        if value < 0:
            raise ValidationError(f"{flag} must be >= 0, got {value}")
        if value > cap:
            raise CapacityError(f"{flag} {value} exceeds the oracle cap {cap}")
    spf = build_spf_table(max(args.rho_max, args.nu_max, 2))
    rows = []
    for d in range(1, args.rho_max + 1):
        closed = rho_closed(arith.factorize(d, spf)).count
        oracle = rho_oracle(d).count
        rows.append(("rho", d, "", "", closed, oracle, int(closed == oracle)))
    for delta in range(1, args.nu_max + 1):
        f = arith.factorize(delta, spf)
        if any(e > 1 for _, e in f.factors):
            continue
        closed = nu_closed(f, params).count
        oracle = nu_oracle(delta, params).count
        rows.append(("nu", delta, args.t, args.d, closed, oracle, int(closed == oracle)))
    csv_path = out_dir / "congruence.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kind,modulus,t,d,closed,oracle,match\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    mismatches = sum(1 for row in rows if not row[-1])
    print(f"wrote {len(rows)} congruence rows ({mismatches} mismatches) -> {csv_path}")
    return [csv_path.name]


def _cmd_offdiag(args: argparse.Namespace, out_dir: Path) -> list[str]:
    if args.emit_quadruples and args.mode == "param":
        raise ValidationError("--emit-quadruples lists the census; use --mode direct or both")
    outputs = []
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
    csv_path = out_dir / "offdiag.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("field,value\n")
        for key, value in rows:
            fh.write(f"{key},{value}\n")
    outputs.append(csv_path.name)
    print(f"note: {_CENSUS_NOTE}")
    for key, value in rows[2:]:
        print(f"  {key} = {value}")
    if args.emit_quadruples:
        quad_path = out_dir / "quadruples.csv"
        with open(quad_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("a,p,q,r,n\n")
            for quad in census.quadruples:
                fh.write(f"{quad.a},{quad.p},{quad.q},{quad.r},{quad.n}\n")
        outputs.append(quad_path.name)
    return outputs


def _plot_name(statistic: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in statistic).strip("_")
    return f"plot_{safe}.csv"


def _report_fields(stat: str, row: dict) -> tuple[str, str, str, str]:
    # Values read back as floats; integral ones print as the integers they were.
    raw = row["raw_value"]
    return csv_fields(stat, row["x"], int(raw) if raw.is_integer() else raw)


def _cmd_report(args: argparse.Namespace, out_dir: Path) -> list[str]:
    if not args.inputs:
        raise ValidationError("report needs at least one input CSV")
    missing = [path for path in args.inputs if not os.path.isfile(path)]
    if missing:
        raise ValidationError(f"input CSV not found: {', '.join(missing)}")
    rows = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            rows.extend(read_csv(fh))
    if not rows:
        raise ValidationError("input CSVs contain no data rows")
    by_stat: dict[str, list[dict]] = {}
    for row in rows:
        by_stat.setdefault(row["statistic"], []).append(row)
    outputs = []
    report_path = out_dir / "report.csv"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("statistic,x,raw_value,normalized_value,predicted_constant,deviation\n")
        for stat in sorted(by_stat):
            for row in sorted(by_stat[stat], key=lambda r: r["x"]):
                fields = _report_fields(stat, row)
                fh.write(f"{stat},{row['x']},{','.join(fields)}\n")
    outputs.append(report_path.name)
    for stat in sorted(by_stat):
        plot_path = out_dir / _plot_name(stat)
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,ratio\n")
            for row in sorted(by_stat[stat], key=lambda r: r["x"]):
                fh.write(f"{row['x']},{_report_fields(stat, row)[1]}\n")
        outputs.append(plot_path.name)
    print(f"report over {len(by_stat)} statistics -> {report_path}")
    return outputs


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
    p.add_argument("--stats", default=",".join(DEFAULT_STATISTICS), help="comma list or 'all'")
    p.add_argument("--grid", default="geometric:10")
    p.add_argument("--block-size", type=int, default=1 << 20)
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
    """Parse argv, dispatch, write outputs plus a JSON manifest; return exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _timestamp()
    outputs = _DISPATCH[args.command](args, out_dir)
    config = {k: v for k, v in vars(args).items() if k not in ("command",)}
    manifest = RunManifest(
        command=args.command,
        argv=list(argv),
        config=config,
        started=started,
        finished=_timestamp(),
        version=__version__,
        outputs=outputs,
    )
    _write_manifest(out_dir, args.command, manifest)
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


if __name__ == "__main__":
    sys.exit(main())
