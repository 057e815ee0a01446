"""End-to-end command-line runs: files, manifests, exit codes, determinism."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paucity
import paucity.cli
import paucity.constants
import paucity.meanvalue
from paucity.cli import MAX_THREADS, main
from paucity.constants import STATISTICS, catalan
from paucity.errors import ValidationError
from paucity.meanvalue import MAX_DISPERSION_C, read_csv
from paucity.sieve import MAX_BLOCK_SIZE, read_blocks

import oracles


def run_cli(*argv) -> int:
    return main(list(argv))


def test_mean_end_to_end(tmp_path):
    out = tmp_path / "m"
    rc = run_cli(
        "mean", "--limit", "20000", "--stats", "S01,S22,DISPERSION,LANDAU_B",
        "--grid", "explicit:100,1000,20000", "--out-dir", str(out),
    )
    assert rc == 0
    with open(out / "mean.csv", encoding="utf-8") as fh:
        rows = read_csv(fh)
    stats = {r["statistic"] for r in rows}
    assert stats == {"S01", "S22", "DISPERSION(c=1)", "LANDAU_B"}
    assert len(rows) == 12
    manifest = json.loads((out / "mean_manifest.json").read_text())
    assert manifest["command"] == "mean"
    assert manifest["outputs"] == ["mean.csv"]
    assert manifest["version"]
    assert manifest["config"]["limit"] == 20000


def test_mean_deterministic_across_geometry(tmp_path):
    texts = []
    for i, (threads, block) in enumerate((("1", "1048576"), ("4", "7777"), ("2", "333"))):
        out = tmp_path / f"d{i}"
        rc = run_cli(
            "mean", "--limit", "30000",
            "--stats", "S01,S02,S22,DISPERSION,LEMMA31,LEMMA32,LANDAU_B,COUNT_A",
            "--threads", threads, "--block-size", block, "--out-dir", str(out),
        )
        assert rc == 0
        texts.append((out / "mean.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_mean_rows_do_not_depend_on_walk(tmp_path):
    # The first run skips the multiplicative walk; COUNT_A makes the second one run it.
    rows = []
    for i, (stats, block) in enumerate((("S01,S02,S22,M2", "1048576"),
                                        ("S01,S02,S22,M2,COUNT_A", "31337"))):
        out = tmp_path / f"w{i}"
        rc = run_cli(
            "mean", "--limit", "100000", "--stats", stats, "--block-size", block,
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "mean.csv").read_text().splitlines()
        rows.append([line for line in lines if ",COUNT_A," not in line])
    assert len(rows[0]) == 1 + 4 * 3
    assert rows[0] == rows[1]


def test_manifest_records_sieve_kernels(tmp_path):
    # One block is sieved in this process, whatever --threads says.
    pairs = ["pair_tallies"]
    for i, (extra, kernels) in enumerate((
        (["--stats", "S01,S22,M2,DISPERSION"], pairs),
        (["--stats", "S01,LANDAU_B"], pairs),
        (["--stats", "S01", "--r0-convention", "div"], pairs),
        (["--stats", "M2,COUNT_A"], pairs + ["multiplicative_arrays"]),
    )):
        out = tmp_path / f"k{i}"
        rc = run_cli("mean", "--limit", "5000", "--threads", "2", *extra, "--out-dir", str(out))
        assert rc == 0
        manifest = json.loads((out / "mean_manifest.json").read_text())
        assert manifest["config"]["sieve"] == {"kernels": kernels, "processes": 1}, extra
        assert manifest["config"]["threads"] == 2
    # Over several blocks, mean uses min(--threads, blocks) worker processes.
    for i, (threads, processes) in enumerate((("1", 1), ("2", 2), ("8", 5))):
        out = tmp_path / f"p{i}"
        rc = run_cli("mean", "--limit", "5000", "--block-size", "1000", "--threads", threads,
                     "--out-dir", str(out))
        assert rc == 0
        manifest = json.loads((out / "mean_manifest.json").read_text())
        assert manifest["config"]["sieve"] == {"kernels": pairs, "processes": processes}
        assert multiprocessing.active_children() == []


def test_mean_bytes_across_workers(tmp_path):
    # Block sizes that split the 2^16 cut intervals, a first 65535 block that
    # ends on the cut 2^16, explicit checkpoints on block edges (16650 ends a
    # 333 block, 1048577 starts a 2^20 block), and a 2^20 block count below
    # --threads.
    for limit, grid, blocks in (
        ("30000", "explicit:1000,16650,16651,30000", ("333", "7777")),
        ("1248576", "explicit:1000,65536,200006,1048576,1048577,1248576",
         ("65535", "100003", "1048576")),
    ):
        texts = set()
        for block in blocks:
            for threads in ("1", "2", "3"):
                out = tmp_path / f"{limit}-{block}-{threads}"
                rc = run_cli("mean", "--limit", limit, "--stats", "all", "--grid", grid,
                             "--block-size", block, "--threads", threads, "--out-dir", str(out))
                assert rc == 0
                texts.add((out / "mean.csv").read_bytes())
        assert len(texts) == 1, (limit, grid)
    assert multiprocessing.active_children() == []


def _failing_term(monkeypatch, term):
    """Make S01's term call `term` on every slice, in this process and in forked workers."""
    s01 = STATISTICS["S01"]

    def failing(v):
        term(v.lo)
        return s01.term(v)

    monkeypatch.setitem(STATISTICS, "S01", dataclasses.replace(s01, term=failing))


def test_worker_error_exits_like_one_process(tmp_path, monkeypatch, capsys):
    def term(lo):
        if lo >= 3001:
            raise ValidationError(f"term refused n = {lo}")

    _failing_term(monkeypatch, term)
    messages = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        rc = run_cli("mean", "--limit", "5000", "--stats", "S01,S22", "--block-size", "1000",
                     "--threads", threads, "--out-dir", str(out))
        assert rc == 2
        assert not (out / "mean.csv").exists()
        messages.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1] == "error: term refused n = 3001\n"


def test_worker_death_exits_three(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def term(lo):
        if os.getpid() != parent and lo >= 2001:
            os._exit(1)

    _failing_term(monkeypatch, term)
    rc = run_cli("mean", "--limit", "5000", "--stats", "S01", "--block-size", "1000",
                 "--threads", "2", "--out-dir", str(tmp_path))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: a worker process died") and err.count("\n") == 1
    assert not (tmp_path / "mean.csv").exists()
    assert multiprocessing.active_children() == []


def test_thread_cap_refused_before_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no work may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(paucity.meanvalue, "sieve_primes", refuse)
    out = str(tmp_path)
    assert run_cli("mean", "--limit", "1000", "--threads", "100000000", "--out-dir", out) == 2
    assert capsys.readouterr().err == "error: --threads must be from 1 to 64, got 100000000\n"
    assert run_cli("mean", "--limit", "1000", "--threads", str(MAX_THREADS + 1),
                   "--out-dir", out) == 2
    monkeypatch.setenv("PAUCITY_THREADS", str(MAX_THREADS + 1))
    assert run_cli("mean", "--limit", "1000", "--out-dir", out) == 2
    assert capsys.readouterr().err.endswith("error: PAUCITY_THREADS must be from 1 to 64, got 65\n")
    assert list(tmp_path.iterdir()) == []
    # Only mean reads --threads and PAUCITY_THREADS.
    off = tmp_path / "offdiag"
    assert run_cli("offdiag", "--limit", "100", "--out-dir", str(off)) == 0
    assert "threads" not in json.loads((off / "offdiag_manifest.json").read_text())["config"]
    assert multiprocessing.active_children() == []


def test_thread_env_override(tmp_path, monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("PAUCITY_THREADS", "3")
    assert run_cli("mean", "--limit", "5000", "--stats", "S01", "--out-dir", str(out)) == 0
    manifest = json.loads((out / "mean_manifest.json").read_text())
    assert manifest["config"]["threads"] == 3
    monkeypatch.setenv("PAUCITY_THREADS", "zero-ish")
    assert run_cli("mean", "--limit", "5000", "--stats", "S01", "--out-dir", str(out)) == 2


def test_largest_dispersion_c_gives_finite_rows(tmp_path, capsys):
    # Above MAX_DISPERSION_C a sum could overflow; at it, every residual's square is finite.
    with np.errstate(all="raise"):
        rc = run_cli("mean", "--limit", "1000", "--stats", "DISPERSION",
                     "--dispersion-c", repr(MAX_DISPERSION_C), "--out-dir", str(tmp_path))
    assert rc == 0
    with open(tmp_path / "mean.csv", encoding="utf-8") as fh:
        rows = read_csv(fh)
    assert len(rows) == 1
    assert math.isfinite(rows[0]["raw_value"]) and math.isfinite(rows[0]["normalized_value"])
    bigger = repr(math.nextafter(MAX_DISPERSION_C, math.inf))
    assert run_cli("mean", "--limit", "1000", "--stats", "DISPERSION",
                   "--dispersion-c", bigger, "--out-dir", str(tmp_path / "no")) == 2
    assert capsys.readouterr().err.startswith("error: dispersion c must be from 0 to ")


def test_validation_exit_codes(tmp_path):
    out = str(tmp_path)
    assert run_cli("mean", "--limit", "1000", "--stats", "BOGUS", "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "-3", "--stats", "S01", "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "1000", "--grid", "weird:1", "--out-dir", out) == 2
    assert run_cli("report", "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "1000", "--grid", "explicit:10,abc", "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "1000", "--grid", "geometric:x", "--out-dir", out) == 2
    assert run_cli("report", "--inputs", str(tmp_path / "missing.csv"), "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "1000", "--grid", "explicit:2,1000", "--out-dir", out) == 2
    assert run_cli("mean", "--limit", "2", "--out-dir", out) == 2
    for c in ("nan", "inf", "1e200", "1e308"):
        assert run_cli(
            "mean", "--limit", "1000", "--stats", "DISPERSION", "--dispersion-c", c,
            "--out-dir", out,
        ) == 2
    assert not (tmp_path / "mean.csv").exists()
    # Checked before the first row: 5000 rho rows would precede the bad (t, d).
    assert run_cli(
        "congruence", "--rho-max", "5000", "--nu-max", "10", "--t", "2", "--d", "4",
        "--out-dir", out,
    ) == 2
    assert run_cli("congruence", "--rho-max", "-5", "--nu-max", "-3", "--out-dir", out) == 2
    assert run_cli("congruence", "--nu-max", "-1", "--out-dir", out) == 2
    assert not (tmp_path / "congruence.csv").exists()
    # sieve and offdiag take no --threads: argparse exits 2.
    for command, threads in (("offdiag", "0"), ("offdiag", "-1"), ("sieve", "1")):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--limit", "100", "--threads", threads, "--out-dir", out)
        assert exc.value.code == 2
    assert not (tmp_path / "offdiag.csv").exists()
    assert not (tmp_path / "blocks.pcty").exists()
    assert run_cli("mean", "--limit", "1000", "--threads", "0", "--out-dir", out) == 2
    assert not (tmp_path / "mean.csv").exists()
    for z in ("nan", "inf"):
        assert run_cli("constants", "--z", "10", z, "--out-dir", out) == 2
    assert not (tmp_path / "constants.csv").exists()


def test_capacity_exit_code(tmp_path):
    assert run_cli("sieve", "--limit", "2000000000", "--out-dir", str(tmp_path)) == 3
    # The oracle caps are checked before any row is computed.
    assert run_cli("congruence", "--rho-max", "100001", "--out-dir", str(tmp_path)) == 3
    assert run_cli("congruence", "--nu-max", "3001", "--out-dir", str(tmp_path)) == 3
    assert not (tmp_path / "congruence.csv").exists()
    # An oversized block is refused before the sieve allocates it.
    for command in ("mean", "sieve"):
        argv = ["--limit", "1000000000", "--block-size", str(MAX_BLOCK_SIZE + 1)]
        assert run_cli(command, *argv, "--out-dir", str(tmp_path)) == 3
    assert not (tmp_path / "mean.csv").exists()
    assert not (tmp_path / "blocks.pcty").exists()


def _child_env() -> dict:
    """Environment for a child that imports the package under test, installed or not."""
    src = str(Path(paucity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_argparse_errors_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "paucity.cli", "definitely-not-a-command"],
        capture_output=True,
        env=_child_env(),
    )
    assert proc.returncode == 2


def test_one_process_imports_no_pool(tmp_path):
    script = (
        "import sys\n"
        "from paucity.cli import main\n"
        f"rc = main(['mean', '--limit', '100000', '--stats', 'all', '--threads', '1',"
        f" '--out-dir', {str(tmp_path)!r}])\n"
        "print(rc, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    env = {k: v for k, v in _child_env().items() if k != "PAUCITY_THREADS"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False False", proc.stderr


def test_sieve_dump_round_trip(tmp_path):
    out = tmp_path / "s"
    assert run_cli("sieve", "--limit", "4000", "--block-size", "1024", "--out-dir", str(out)) == 0
    with open(out / "blocks.pcty", "rb") as fh:
        blocks = list(read_blocks(fh))
    assert blocks[0].lo == 1 and blocks[-1].hi == 4001
    manifest = json.loads((out / "sieve_manifest.json").read_text())
    assert manifest["config"]["sieve"] == {
        "kernels": ["pair_tallies"], "processes": 1,
    }
    total_r2 = sum(int(b.r2.sum()) for b in blocks)
    r2 = oracles.r_arrays_slow(4000)[3]
    assert total_r2 == int(r2.sum())


def test_constants_csv(tmp_path):
    out = tmp_path / "c"
    assert run_cli("constants", "--eps", "1e-10", "--out-dir", str(out)) == 0
    lines = (out / "constants.csv").read_text().splitlines()
    assert lines[0] == "name,value,error_bound,method"
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert table["G"] == pytest.approx(catalan(1e-10).value, abs=1e-12)
    assert table["K"] == pytest.approx(0.764223653, abs=5e-7)


@pytest.mark.parametrize("argv", [
    ("--z", "3", "1e300"),
    ("--z", "30000000", "1e300"),
    ("--z", "30000000", "--prime-limit", "2000000000"),
    ("--z", "1000000002"),
])
def test_constants_caps_checked_before_any_sieve(tmp_path, monkeypatch, capsys, argv):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(paucity.constants, "sieve_primes", no_sieve)
    assert run_cli("constants", *argv, "--out-dir", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 100, err
    assert not (tmp_path / "constants.csv").exists()


def test_congruence_sweep(tmp_path):
    # t only enters through its residues, however large it is.
    for i, argv in enumerate((
        ("--rho-max", "40", "--nu-max", "30"),
        ("--rho-max", "1", "--nu-max", "10", "--t", "4611686018427387905", "--d", "2"),
        ("--rho-max", "1", "--nu-max", "10", "--t", "100000000000000000000001", "--d", "2"),
    )):
        out = tmp_path / str(i)
        assert run_cli("congruence", *argv, "--out-dir", str(out)) == 0
        lines = (out / "congruence.csv").read_text().splitlines()
        assert lines[0] == "kind,modulus,t,d,closed,oracle,match"
        assert all(row.endswith(",1") for row in lines[1:]), lines


def test_congruence_csv_bytes(tmp_path):
    out = tmp_path / "g"
    assert run_cli("congruence", "--rho-max", "500", "--nu-max", "200", "--out-dir", str(out)) == 0
    digest = hashlib.sha256((out / "congruence.csv").read_bytes()).hexdigest()
    assert digest == "50f62825155dc027f5f95dd388b3dca9af7103f063f14f66b8e4dd506da92d3a"


@pytest.mark.parametrize("argv, digest", [
    (("mean", "--limit", "1000000", "--stats", "all"),
     "00232a4056868174773bd2d22e2456d341f25f43695ac8c560cdacf774f1d958"),
    (("mean", "--limit", "1000000", "--stats", "all", "--r0-convention", "div"),
     "becd4755223af3862a8b7e141189fe037ca49e444a13a08c2dea01e7997b5475"),
    # The first digest again, from two worker processes over ten blocks.
    (("mean", "--limit", "1000000", "--stats", "all", "--threads", "2",
      "--block-size", "100003"),
     "00232a4056868174773bd2d22e2456d341f25f43695ac8c560cdacf774f1d958"),
    # The float statistics at c != 1 under the div convention.
    (("mean", "--limit", "1000000", "--stats", "DISPERSION,LEMMA31,LEMMA32",
      "--r0-convention", "div", "--dispersion-c", "2.5"),
     "6d4c92ba34402b0daabb99658cb834f5572ccacec429872c4af69447f7472e4e"),
    (("sieve", "--limit", "2000000"),
     "2584b58646f4a5ccc35dca4dcb681c3abede084b67e3bbe883b27a505c659e54"),
], ids=["mean-all", "mean-all-div", "mean-all-workers", "mean-float-div-c2.5", "sieve"])
def test_mean_and_sieve_bytes(tmp_path, argv, digest):
    out = tmp_path / "b"
    assert run_cli(*argv, "--out-dir", str(out)) == 0
    name = "mean.csv" if argv[0] == "mean" else "blocks.pcty"
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_offdiag_both_modes(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        "offdiag", "--limit", "10000", "--mode", "both", "--emit-quadruples",
        "--out-dir", str(out),
    )
    assert rc == 0
    fields = dict(
        line.split(",", 1) for line in (out / "offdiag.csv").read_text().splitlines()[1:]
    )
    want = oracles.FROZEN_CENSUS[10000]
    assert int(fields["N"]) == want["N"]
    assert int(fields["N1"]) == want["n1"]
    assert int(fields["N1_param"]) == want["n1"]
    assert fields["param_consistent"] == "1"
    assert fields["partition_consistent"] == "1"
    assert "min,max" in fields["note"] or "(min" in fields["note"]
    quads = (out / "quadruples.csv").read_text().splitlines()
    assert quads[0] == "a,p,q,r,n"
    assert len(quads) - 1 == want["canon"]


def test_offdiag_smallest_case(tmp_path):
    out = tmp_path / "o50"
    rc = run_cli("offdiag", "--limit", "50", "--emit-quadruples", "--out-dir", str(out))
    assert rc == 0
    quads = (out / "quadruples.csv").read_text().splitlines()
    assert quads == ["a,p,q,r,n", "1,7,5,5,50"]


def test_offdiag_emit_needs_census(tmp_path):
    rc = run_cli(
        "offdiag", "--limit", "1000", "--mode", "param", "--emit-quadruples",
        "--out-dir", str(tmp_path),
    )
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_offdiag_emit_over_cap_writes_nothing(tmp_path):
    # 105280 canonical quadruples at 5e6, above the 1e5 collection cap.
    rc = run_cli("offdiag", "--limit", "5000000", "--emit-quadruples", "--out-dir", str(tmp_path))
    assert rc == 3
    assert list(tmp_path.iterdir()) == []


def test_report_joins_and_plots(tmp_path):
    mean_dir = tmp_path / "m"
    assert run_cli(
        "mean", "--limit", "10000", "--stats", "S01,S22",
        "--grid", "explicit:1000,10000", "--out-dir", str(mean_dir),
    ) == 0
    rep_dir = tmp_path / "r"
    rc = run_cli(
        "report", "--inputs", str(mean_dir / "mean.csv"), "--out-dir", str(rep_dir)
    )
    assert rc == 0
    report = (rep_dir / "report.csv").read_text().splitlines()
    assert report[0] == "statistic,x,raw_value,normalized_value,predicted_constant,deviation"
    assert len(report) == 5
    plot = (rep_dir / "plot_S01.csv").read_text().splitlines()
    assert plot[0] == "x,ratio"
    assert len(plot) == 3
    manifest = json.loads((rep_dir / "report_manifest.json").read_text())
    assert "report.csv" in manifest["outputs"]
    assert "plot_S01.csv" in manifest["outputs"]
    assert "plot_S22.csv" in manifest["outputs"]


def test_report_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run_cli("report", "--inputs", str(bad), "--out-dir", str(tmp_path)) == 2
    header = "x,statistic,raw_value,normalized_value,predicted_constant,deviation\n"
    bad.write_text(header + "ten,S01,1,2,3,4\n")
    assert run_cli("report", "--inputs", str(bad), "--out-dir", str(tmp_path)) == 2
