"""Benchmark of the paucity CLI: five workloads, each run as separate processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing).  For ``--seconds`` seconds the chosen
workload's CLI command is run again and again, each time in a fresh
interpreter with a fresh ``--out-dir``.  Every repetition must give the same
output bytes, and the first one is checked against computations made apart
from the program (``oracle.py``).

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (spawn to
exit), ``peak_rss_mb`` (the child's own maximum resident set size, from
``os.wait4``) and ``setup_s`` (spawn to exit of ``paucity.cli --version``),
each the median over the run.  With ``--trace 1`` each round runs the
command once untraced and once through ``tracing.py``, and the per-layer
metrics are printed, with the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Before numpy is imported: neither this process nor its children use more
# threads than a workload asks for.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
DISPERSION_RTOL = 1e-9
SLOPE_RTOL = 0.10


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]  # CLI arguments for a seed
    output: str  # the file every repetition must reproduce byte for byte
    check: Callable[[Path, int], list[str]]  # (out_dir, seed) -> problems
    twin: list[str] | None = None  # other CLI arguments that must give the same bytes


@dataclass
class Invocation:
    rc: int
    wall_s: float
    rss_mb: float
    out_dir: Path
    digest: str | None = None


# ---------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    """The workload's environment: no thread override, one BLAS thread, src first."""
    env = {k: v for k, v in os.environ.items() if k != "PAUCITY_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], out_dir: Path, env: dict[str, str]) -> Invocation:
    """Run cmd to its end; wall time from spawn to exit, peak RSS from its rusage."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.log", "wb") as out, open(out_dir / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=out_dir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_dir)


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "paucity.cli", *args]


# ------------------------------------------------------------------ checks


def _read_mean_csv(path: Path) -> tuple[dict[tuple[str, int], str], int]:
    rows = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        x, stat, raw = line.split(",")[:3]
        rows[(stat, int(x))] = raw
    return rows, len(lines) - 1


def mean_check(limit: int, stats: list[str]) -> Callable[[Path, int], list[str]]:
    def check(out_dir: Path, seed: int) -> list[str]:
        points = oracle.decade_grid(limit)
        rows, nrows = _read_mean_csv(out_dir / "mean.csv")
        labels = ["DISPERSION(c=1)" if s == "DISPERSION" else s for s in stats]
        expected = {(label, x) for label in labels for x in points}
        if set(rows) != expected or nrows != len(expected):
            return [f"mean.csv has {nrows} rows, expected {len(expected)} distinct (statistic, x)"]
        problems = []

        def exact(stat: str, want: list[int]) -> None:
            for x, value in zip(points, want):
                if rows[(stat, x)] != str(value):
                    problems.append(f"{stat}({x}) = {rows[(stat, x)]}, expected {value}")

        if set(stats) & {*oracle.INTEGER_TERMS, "DISPERSION"}:
            sums = oracle.representation_sums(limit, points)
            for stat in set(stats) & set(oracle.INTEGER_TERMS):
                exact(stat, sums[stat])
            if "DISPERSION" in stats:
                for x, want in zip(points, sums["DISPERSION"]):
                    got = float(rows[("DISPERSION(c=1)", x)])
                    if abs(got - want) > DISPERSION_RTOL * abs(want):
                        problems.append(f"DISPERSION({x}) = {got!r}, own sum {want!r}")
        if "LANDAU_B" in stats:
            exact("LANDAU_B", oracle.sums_of_two_squares(limit, points))
        if "COUNT_A" in stats:
            exact("COUNT_A", oracle.count_in_a(limit, points))
        slopes = {"LEMMA31": 1 / math.pi, "LEMMA32": 12 * oracle.CATALAN / math.pi**3}
        for stat, target in slopes.items():
            if stat in stats:
                rise = float(rows[(stat, 10**7)]) - float(rows[(stat, 10**6)])
                slope = rise / math.log(10)
                if abs(slope - target) > SLOPE_RTOL * target:
                    problems.append(f"{stat} slope {slope:.6f} not within 10% of {target:.6f}")
        return problems

    return check


def offdiag_check(limit: int, both: bool) -> Callable[[Path, int], list[str]]:
    def check(out_dir: Path, seed: int) -> list[str]:
        lines = (out_dir / "offdiag.csv").read_text(encoding="utf-8").splitlines()[1:]
        fields = dict(line.split(",", 1) for line in lines)
        s12 = oracle.representation_sums(limit, [limit])["S12"][0]
        diagonal = oracle.prime_pair_diagonal(limit)
        want = {
            "limit": limit, "partition_consistent": 1,
            "s12": s12, "diagonal": diagonal, "N": s12 - diagonal,
        }
        if both:
            want["param_consistent"] = 1
        return [
            f"offdiag {key} = {fields.get(key)}, expected {value}"
            for key, value in want.items()
            if fields.get(key) != str(value)
        ]

    return check


def congruence_params(seed: int) -> tuple[int, int]:
    rng = random.Random(f"congruence-{seed}")
    while True:
        t, d = rng.randint(1, 30), rng.randint(1, 30)
        if math.gcd(t, d) == 1:
            return t, d


RHO_MAX, NU_MAX, SAMPLE = 5000, 1000, 8


def congruence_argv(seed: int) -> list[str]:
    t, d = congruence_params(seed)
    return ["congruence", "--rho-max", str(RHO_MAX), "--nu-max", str(NU_MAX),
            "--t", str(t), "--d", str(d)]


def congruence_check(out_dir: Path, seed: int) -> list[str]:
    t, d = congruence_params(seed)
    lines = (out_dir / "congruence.csv").read_text(encoding="utf-8").splitlines()[1:]
    rho, nu = {}, {}
    problems = []
    for line in lines:
        kind, modulus, rt, rd, closed, orc, match = line.split(",")
        if match != "1" or closed != orc:
            problems.append(f"mismatch row {line}")
        if kind == "rho":
            rho[int(modulus)] = int(closed)
        elif (rt, rd) == (str(t), str(d)):
            nu[int(modulus)] = int(closed)
        else:
            problems.append(f"nu row for (t, d) = ({rt}, {rd}), expected ({t}, {d})")
    squarefree = [m for m in range(1, NU_MAX + 1) if oracle.squarefree(m)]
    if sorted(rho) != list(range(1, RHO_MAX + 1)) or sorted(nu) != squarefree:
        return problems + [f"{len(rho)} rho rows and {len(nu)} nu rows, expected {RHO_MAX} and {len(squarefree)}"]
    for m, count in rho.items():
        if count and (m % 4 == 0 or any(p % 4 == 3 for p in oracle.prime_factors(m))):
            problems.append(f"rho({m}) = {count}, expected 0")
    rng = random.Random(f"sample-{seed}")
    for m in rng.sample(range(1, RHO_MAX + 1), SAMPLE):
        if rho[m] != oracle.rho_brute(m):
            problems.append(f"rho({m}) = {rho[m]}, grid count {oracle.rho_brute(m)}")
    for m in rng.sample(squarefree, SAMPLE):
        if nu[m] != oracle.nu_brute(m, t, d):
            problems.append(f"nu({m}) = {nu[m]}, grid count {oracle.nu_brute(m, t, d)}")
    return problems


MEAN_WIDE = ["mean", "--limit", "30000000", "--stats", "S01,S02,S22,M2", "--threads", "2"]

WORKLOADS = {
    "mean-all": Workload(
        lambda seed: ["mean", "--limit", "10000000", "--stats", "all", "--threads", "1"],
        "mean.csv",
        mean_check(10**7, [
            "S00", "S01", "S02", "S11", "S12", "S22", "M1", "M2", "R2CUBE", "SUPP1",
            "SUPP2", "DISPERSION", "LEMMA31", "LEMMA32", "LANDAU_B", "COUNT_A",
        ]),
    ),
    "mean-wide": Workload(
        lambda seed: MEAN_WIDE,
        "mean.csv",
        mean_check(3 * 10**7, ["S01", "S02", "S22", "M2"]),
        # The CSV must not change at one thread and another block size.
        twin=[*MEAN_WIDE[:-1], "1", "--block-size", str(3 << 18)],
    ),
    "offdiag-param": Workload(
        lambda seed: ["offdiag", "--limit", "2000000", "--mode", "both"],
        "offdiag.csv",
        offdiag_check(2 * 10**6, both=True),
    ),
    "offdiag-census": Workload(
        lambda seed: ["offdiag", "--limit", "10000000", "--mode", "direct"],
        "offdiag.csv",
        offdiag_check(10**7, both=False),
    ),
    "congruence": Workload(congruence_argv, "congruence.csv", congruence_check),
}


# -------------------------------------------------------------------- runs


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    try:
        return _run(name, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    args = workload.argv(seed)
    env = child_env()
    dirs = (run_dir / f"inv{i}" for i in range(1 << 30))

    def cli(cli_args: list[str]) -> Invocation:
        out = next(dirs)
        return spawn(cli_cmd([*cli_args, "--out-dir", str(out)]), out, env)

    def traced_cli() -> Invocation:
        out = next(dirs)
        cmd = [sys.executable, str(HERE / "tracing.py"), str(out / "spans.json"),
               *args, "--out-dir", str(out)]
        return spawn(cmd, out, env)

    # Writes the package's bytecode once, as an installed package would have.
    warm = spawn(cli_cmd(["--version"]), next(dirs), env)
    if warm.rc != 0:
        raise SystemExit(f"paucity.cli does not start (exit {warm.rc})")
    setup = [] if trace else [
        spawn(cli_cmd(["--version"]), next(dirs), env).wall_s for _ in range(SETUP_SAMPLES)
    ]

    plain: list[Invocation] = []
    traces: list[dict] = []
    reference: Invocation | None = None
    attempted = failed = 0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        round_ = [cli(args)] + ([traced_cli()] if trace else [])
        plain.append(round_[0])
        for inv in round_:
            attempted += 1
            print(f"[{name}] exit {inv.rc}  {inv.wall_s:.3f} s  {inv.rss_mb:.1f} MB",
                  file=sys.stderr, flush=True)
            if inv.rc == 0 and (inv.out_dir / "spans.json").is_file():
                recorded = json.loads((inv.out_dir / "spans.json").read_text())
                traces.append({"args": args, "wall_s": inv.wall_s, **recorded})
            inv.digest = _digest(inv.out_dir / workload.output) if inv.rc == 0 else None
            if reference is None and inv.digest is not None:
                reference = inv
            elif inv.digest is None or inv.digest != reference.digest:
                failed += 1
                _report_failure(name, inv, "nonzero exit or output unlike the first repetition")
            if inv is not reference:
                shutil.rmtree(inv.out_dir, ignore_errors=True)

    problems = ["no repetition succeeded"] if reference is None else []
    if reference is not None:
        problems += workload.check(reference.out_dir, seed)
        if workload.twin and _digest(cli(workload.twin).out_dir / workload.output) != reference.digest:
            problems.append(f"{workload.output} differs under {' '.join(workload.twin)}")
        if problems:
            failed += 1
            _report_failure(name, reference, "; ".join(problems[:5]))

    ok = [inv for inv in plain if inv.rc == 0] or plain
    wall = statistics.median(inv.wall_s for inv in ok)
    if trace:
        layers = [tracing.layer_metrics(t["spans"]) for t in traces] or [tracing.layer_metrics([])]
        metrics = {
            key: {"value": statistics.median(m[key] for m in layers), "unit": tracing.unit(key)}
            for key in layers[0]
        }
        # Both sides pay interpreter start-up and import, so the difference is the tracing.
        overhead = statistics.median(t["wall_s"] for t in traces) - wall if traces else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        with open(RUNS / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(traces, fh)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(i.rss_mb for i in ok), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _report_failure(name: str, inv: Invocation, why: str) -> None:
    err = inv.out_dir / "stderr.log"
    tail = err.read_text(errors="replace")[-400:] if err.is_file() else ""
    print(f"[{name}] failed (exit {inv.rc}): {why}\n{tail}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "paucity" / "cli.py").is_file():
        print(f"error: no paucity sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
