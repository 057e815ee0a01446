"""End-to-end command-line runs: files, manifests, exit codes, determinism."""

import concurrent.futures
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paucity
import paucity.cli
import paucity.constants
import paucity.meanvalue
from paucity.cli import MAX_THREADS, main
from paucity.congruence import NU_ORACLE_CAP, RHO_ORACLE_CAP
from paucity.constants import STATISTICS, catalan
from paucity.errors import ValidationError
from paucity.meanvalue import MAX_DISPERSION_C, read_csv
from paucity.sieve import MAX_BLOCK_SIZE, MAX_SIEVE_LIMIT

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


def test_mean_deterministic_across_geometry(tmp_path, monkeypatch):
    # At 4096-wide cuts the three runs below have 1, 4 and 8 tasks.
    monkeypatch.setattr(paucity.meanvalue, "_ATOM", 4096)
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


def test_manifest_records_sieve_kernels(tmp_path, monkeypatch):
    # One task is sieved in this process, whatever --threads says.
    for i, extra in enumerate((
        ["--stats", "S01,S22,M2,DISPERSION"],
        ["--stats", "S01,LANDAU_B"],
        ["--stats", "S01", "--r0-convention", "div"],
        ["--stats", "M2,COUNT_A"],
    )):
        out = tmp_path / f"k{i}"
        rc = run_cli("mean", "--limit", "5000", "--threads", "2", *extra, "--out-dir", str(out))
        assert rc == 0
        manifest = json.loads((out / "mean_manifest.json").read_text())
        assert manifest["config"]["sieve"] == {"processes": 1, "task_width": 1 << 20}, extra
        assert manifest["config"]["threads"] == 2
    # Over several tasks, mean uses min(--threads, tasks) worker processes.
    # With 1000-wide cuts the tasks are [1, 1000), [1000, 2000), ...,
    # [5000, 5001): six of them.
    monkeypatch.setattr(paucity.meanvalue, "_ATOM", 1000)
    for i, (threads, processes) in enumerate((("1", 1), ("2", 2), ("8", 6))):
        out = tmp_path / f"p{i}"
        rc = run_cli("mean", "--limit", "5000", "--block-size", "1000", "--threads", threads,
                     "--out-dir", str(out))
        assert rc == 0
        manifest = json.loads((out / "mean_manifest.json").read_text())
        assert manifest["config"]["sieve"] == {"processes": processes, "task_width": 1000}
        assert multiprocessing.active_children() == []


def test_mean_bytes_across_workers(tmp_path, monkeypatch):
    # mean rounds each --block-size up to a multiple of _ATOM.  At 30000,
    # with _ATOM patched to 1000, 333 and 7777 give 31 and 4 tasks, the 31st
    # [30000, 30001).  At 1248576 and the real 2^16, 65535, 100003 and
    # 1048576 give 20, 10 and 2 tasks, the last fewer than --threads 3, and
    # the checkpoint edges 65537, 1048577 and 1048578 fall one or two past a
    # task edge.
    for limit, grid, blocks, atom in (
        ("30000", "explicit:1000,16650,16651,30000", ("333", "7777"), 1000),
        ("1248576", "explicit:1000,65536,200006,1048576,1048577,1248576",
         ("65535", "100003", "1048576"), 1 << 16),
    ):
        monkeypatch.setattr(paucity.meanvalue, "_ATOM", atom)
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
    # Six tasks, cut at the multiples of 1000: no slice starts from 3001 to 3999.
    monkeypatch.setattr(paucity.meanvalue, "_ATOM", 1000)
    messages = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        rc = run_cli("mean", "--limit", "5000", "--stats", "S01,S22", "--block-size", "1000",
                     "--threads", threads, "--out-dir", str(out))
        assert rc == 2
        assert not (out / "mean.csv").exists()
        messages.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1] == "error: term refused n = 4000\n"


def test_worker_death_exits_three(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def term(lo):
        if os.getpid() != parent and lo >= 2001:
            os._exit(1)

    _failing_term(monkeypatch, term)
    monkeypatch.setattr(paucity.meanvalue, "_ATOM", 1000)
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


def test_negative_zero_dispersion_c_labels_like_zero(tmp_path):
    texts = []
    for i, c in enumerate(("-0.0", "0")):
        out = tmp_path / f"c{i}"
        rc = run_cli("mean", "--limit", "2000", "--stats", "DISPERSION",
                     f"--dispersion-c={c}", "--out-dir", str(out))
        assert rc == 0
        texts.append((out / "mean.csv").read_bytes())
    assert texts[0] == texts[1]
    assert b",DISPERSION(c=0)," in texts[0]


def test_validation_exit_codes(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no sieve may run")

    out = str(tmp_path)
    with monkeypatch.context() as patched:
        # accumulate checks the names and the grid, once, before any sieve.
        patched.setattr(paucity.meanvalue, "sieve_primes", refuse)
        assert run_cli("mean", "--limit", "1000", "--stats", "BOGUS", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'BOGUS'" in err, err
        assert all(name in err for name in STATISTICS), err
        for argv in (
            ("--stats", "S01,S01"),
            ("--stats", ","),
            ("--grid", "explicit:3,2000"),
        ):
            assert run_cli("mean", "--limit", "1000", *argv, "--out-dir", out) == 2, argv
            assert capsys.readouterr().err.count("\n") == 1, argv
        assert not (tmp_path / "mean.csv").exists()
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


def test_unwritable_out_dir_exits_cleanly(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no sieve may run")

    a_file = tmp_path / "f"
    a_file.write_text("not a directory\n")
    with monkeypatch.context() as patched:
        # --out-dir is a file, or lies under one: refused before any sieve.
        patched.setattr(paucity.meanvalue, "sieve_primes", refuse)
        for out in (a_file, a_file / "x"):
            assert run_cli("mean", "--limit", "1000", "--out-dir", str(out)) == 2, out
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(out) in err, err

    def refuse_census(*args, **kwargs):
        raise AssertionError("no census may run")

    # An output, or the manifest, whose path is a directory: refused before
    # any work, and no file is added.
    with monkeypatch.context() as patched:
        patched.setattr(paucity.meanvalue, "sieve_primes", refuse)
        patched.setattr(paucity.cli, "enumerate_offdiag", refuse_census)
        patched.setattr(paucity.cli, "enumerate_n1_params", refuse_census)
        for argv, name in (
            (["mean", "--limit", "1000"], "mean.csv"),
            (["mean", "--limit", "1000"], "mean_manifest.json"),
            (["offdiag", "--limit", "1000"], "offdiag.csv"),
            (["offdiag", "--limit", "1000"], "offdiag_manifest.json"),
            (["offdiag", "--limit", "1000", "--mode", "direct", "--emit-quadruples"],
             "quadruples.csv"),
        ):
            out = tmp_path / "taken" / name
            (out / name).mkdir(parents=True)
            assert run_cli(*argv, "--out-dir", str(out)) == 2, name
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and name in err, err
            assert [p.name for p in out.iterdir()] == [name], name


def test_capacity_exit_code(tmp_path):
    assert run_cli("sieve", "--limit", "2000000000", "--out-dir", str(tmp_path)) == 3
    # The oracle caps are checked before any row is computed.
    assert run_cli("congruence", "--rho-max", "100001", "--out-dir", str(tmp_path)) == 3
    assert run_cli("congruence", "--nu-max", "3001", "--out-dir", str(tmp_path)) == 3
    assert not (tmp_path / "congruence.csv").exists()
    # The census and the param route stop at 1e8, before either runs.
    for mode in ("direct", "param", "both"):
        argv = ["--limit", "100000001", "--mode", mode]
        assert run_cli("offdiag", *argv, "--out-dir", str(tmp_path)) == 3
    assert not (tmp_path / "offdiag.csv").exists()
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


def test_cli_import_loads_only_numpy_and_paucity():
    # What `import paucity.cli` adds to sys.modules sets every command's
    # start-up time.  Only the delta is checked: a site hook may preload more.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import paucity.cli\n"
        "new = set(sys.modules) - before\n"
        "tops = {name.partition('.')[0] for name in new}\n"
        "print(sorted(tops - set(sys.stdlib_module_names)))\n"
        "print(sorted(tops & {'multiprocessing', 'concurrent'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['numpy', 'paucity']", "[]"]


def test_sieve_dump_round_trip(tmp_path):
    out = tmp_path / "s"
    assert run_cli("sieve", "--limit", "4000", "--block-size", "1024", "--out-dir", str(out)) == 0
    with open(out / "blocks.pcty", "rb") as fh:
        blocks = list(oracles.read_blocks(fh))
    assert blocks[0].lo == 1 and blocks[-1].hi == 4001
    manifest = json.loads((out / "sieve_manifest.json").read_text())
    assert manifest["config"]["sieve"] == {"processes": 1}
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


@pytest.mark.parametrize("argv, digest", [
    (("--rho-max", "500", "--nu-max", "200"),
     "50f62825155dc027f5f95dd388b3dca9af7103f063f14f66b8e4dd506da92d3a"),
    # t^2 + d^2 = 65 = 5 * 13: two primes = 1 mod 4 that divide t^2 + d^2.
    (("--rho-max", "1", "--nu-max", "1000", "--t", "4", "--d", "7"),
     "90915a35383819b8259a828596c7b96c03228f4f039891060cda8eadc8f01a32"),
    # The congruence benchmark's size: every halved rho modulus up to 5000.
    (("--rho-max", "5000", "--nu-max", "1000", "--t", "3", "--d", "4"),
     "2fa94f0587bcace2da468b39f09dca1fba832a8b0a22499792c95a26856c3257"),
], ids=["default", "t4-d7", "rho5000-nu1000"])
def test_congruence_csv_bytes(tmp_path, argv, digest):
    out = tmp_path / "g"
    assert run_cli("congruence", *argv, "--out-dir", str(out)) == 0
    assert hashlib.sha256((out / "congruence.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("mean", "--limit", "1000000", "--stats", "all"),
     "00232a4056868174773bd2d22e2456d341f25f43695ac8c560cdacf774f1d958"),
    (("mean", "--limit", "1000000", "--stats", "all", "--r0-convention", "div"),
     "becd4755223af3862a8b7e141189fe037ca49e444a13a08c2dea01e7997b5475"),
    # The first digest again, from two worker processes over eight tasks
    # (--block-size 100003 rounds up to 2^17).
    (("mean", "--limit", "1000000", "--stats", "all", "--threads", "2",
      "--block-size", "100003"),
     "00232a4056868174773bd2d22e2456d341f25f43695ac8c560cdacf774f1d958"),
    # The float statistics at c != 1 under the div convention.
    (("mean", "--limit", "1000000", "--stats", "DISPERSION,LEMMA31,LEMMA32",
      "--r0-convention", "div", "--dispersion-c", "2.5"),
     "6d4c92ba34402b0daabb99658cb834f5572ccacec429872c4af69447f7472e4e"),
    # Checkpoint edges one before, on and one after a 2^16 float cut, and a
    # --block-size of 333, which mean rounds up to 2^16-wide tasks.
    (("mean", "--limit", "300000", "--stats", "all", "--block-size", "333",
      "--grid", "explicit:3,65535,65536,65537,131072,200000,299999"),
     "d69e51b2028d20ad517bbc1147183956069e532875dea6fe8948e6144dd35944"),
    (("sieve", "--limit", "2000000"),
     "2584b58646f4a5ccc35dca4dcb681c3abede084b67e3bbe883b27a505c659e54"),
    # Blocks of 333333 cross the 2^17 tally windows at unaligned offsets, so
    # each block's arrays are copied from parts of several windows.
    (("sieve", "--limit", "3000000", "--block-size", "333333"),
     "5b28fbd23a169a491015487a459fa2442d41fce5b75d3f77b186a7555ce241de"),
], ids=[
    "mean-all", "mean-all-div", "mean-all-workers", "mean-float-div-c2.5", "mean-edges-at-cuts",
    "sieve", "sieve-unaligned",
])
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


def test_report_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run_cli("report", "--inputs", str(bad), "--out-dir", str(tmp_path)) == 2
    header = "x,statistic,raw_value,normalized_value,predicted_constant,deviation\n"
    bad.write_text(header + "ten,S01,1,2,3,4\n")
    assert run_cli("report", "--inputs", str(bad), "--out-dir", str(tmp_path)) == 2
    # A bad UTF-8 byte in the header, then in a later row.
    capsys.readouterr()
    for data in (b"x,st\xffatistic\n", header.encode() + b"10,S01,1,2,3,4\n\xfe,S01\n"):
        bad.write_bytes(data)
        assert run_cli("report", "--inputs", str(bad), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err, err


_REPORT_HEADER = "x,statistic,raw_value,normalized_value,predicted_constant,deviation\n"


def test_report_checks_whole_input_before_writing(tmp_path, capsys):
    # An unknown statistic or an x below 3 in the last row, or a plot path
    # that is a directory: exit 2 with one line, and no file is added.
    good = "1000,S01,5,1,1,0\n10000,S22,7,1,1,0\n"
    out = tmp_path / "out"
    (out / "plot_S22.csv").mkdir(parents=True)
    for i, rows in enumerate((good + "1000,S99,1,1,1,0\n", good + "2,S22,1,1,1,0\n", good)):
        data = tmp_path / f"in{i}.csv"
        data.write_text(_REPORT_HEADER + rows)
        assert run_cli("report", "--inputs", str(data), "--out-dir", str(out)) == 2, rows
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert [p.name for p in out.iterdir()] == ["plot_S22.csv"], rows
    assert "plot_S22.csv is a directory" in err


def test_report_refuses_two_labels_for_one_plot(tmp_path, capsys):
    # Both labels become plot_DISPERSION_c_1e_10.csv: refused before any write.
    data = tmp_path / "in.csv"
    data.write_text(
        _REPORT_HEADER + "1000,DISPERSION(c=1e+10),5,1,nan,nan\n1000,DISPERSION(c=1e-10),5,1,nan,nan\n"
    )
    out = tmp_path / "out"
    assert run_cli("report", "--inputs", str(data), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "plot_DISPERSION_c_1e_10.csv" in err, err
    assert list(out.iterdir()) == []
    # One of them alone keeps its plot name.
    data.write_text(_REPORT_HEADER + "1000,DISPERSION(c=1e-10),5,1,nan,nan\n")
    assert run_cli("report", "--inputs", str(data), "--out-dir", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "plot_DISPERSION_c_1e_10.csv", "report.csv", "report_manifest.json"
    ]


def test_report_prints_raw_values_as_read(tmp_path):
    # DISPERSION at c = 1e100 has integral float raw values such as
    # 4.61130739278059e+200; report prints every row as mean wrote it.
    mean_dir, rep_dir = tmp_path / "m", tmp_path / "r"
    assert run_cli(
        "mean", "--limit", "1000", "--stats", "DISPERSION,S01", "--dispersion-c", "1e100",
        "--grid", "explicit:10,1000", "--out-dir", str(mean_dir),
    ) == 0
    assert run_cli("report", "--inputs", str(mean_dir / "mean.csv"), "--out-dir", str(rep_dir)) == 0
    mean = [line.split(",") for line in (mean_dir / "mean.csv").read_text().splitlines()[1:]]
    report = [line.split(",") for line in (rep_dir / "report.csv").read_text().splitlines()[1:]]
    assert "4.61130739278059e+200" in {row[2] for row in mean}
    assert sorted(report) == sorted([stat, x, *rest] for x, stat, *rest in mean)


def test_report_refuses_numbers_beyond_float_range(tmp_path, capsys):
    huge = "1" + "0" * 400
    data, out = tmp_path / "in.csv", tmp_path / "out"
    for row in (f"{huge},S01,5,1,1,0\n", f"1000,S01,{huge},1,1,0\n"):
        data.write_text(_REPORT_HEADER + "1000,S22,7,1,1,0\n" + row)
        assert run_cli("report", "--inputs", str(data), "--out-dir", str(out)) == 2, row
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "beyond the float range" in err, err
        assert list(out.iterdir()) == []


def test_failed_write_adds_no_file(tmp_path, monkeypatch, capsys):
    # The second file opened for writing fails as on a full disk: exit 3 with
    # one line, and the first one is not left behind.
    data = tmp_path / "in.csv"
    data.write_text(_REPORT_HEADER + "1000,S01,5,1,1,0\n1000,S22,7,1,1,0\n")
    for argv in (
        ["offdiag", "--limit", "1000", "--mode", "direct", "--emit-quadruples"],
        ["report", "--inputs", str(data)],
    ):
        writes = []

        def full_disk(file, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(file)
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
            return open(file, mode, *args, **kwargs)

        out = tmp_path / argv[0]
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        monkeypatch.setattr(paucity.cli, "open", full_disk, raising=False)
        assert run_cli(*argv, "--out-dir", str(out)) == 3, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No space left" in err, err
        assert [p.name for p in out.iterdir()] == ["kept.txt"], argv


# The exit-code contract, over argv drawn from a grammar of the six
# subcommands.  Each argv gives a command its required options and some of
# the others, all with small valid values, and replaces at most one value
# with a bad one: negative, zero, non-integer, nan, inf, above a cap, or a
# file or a directory where a path goes.  Paths are drawn as tokens and made
# in a fresh directory per example: @out an empty --out-dir, @fresh one that
# does not exist yet, @blocked one holding a directory named like an output,
# @file a regular file, @dir a directory, @missing a path to nothing; @csv a
# good mean.csv, @stat99 one with an unknown statistic, @x2 one with x = 2,
# @twin one with two labels for one plot file, @xhuge one with x beyond the
# float range, and @text no CSV at all.
_NUMBER = ["-1", "0", "1.5", "nan", "inf", "x", ""]
_GRAMMAR = {
    # command: (flag, good values, bad values) for each required option, then
    # for each optional one.  A value is one token, or a tuple of tokens.
    "sieve": (
        [("--limit", ["1", "2", "100", "1000"], [str(MAX_SIEVE_LIMIT + 1), *_NUMBER])],
        [("--block-size", ["2", "64", "4096"], [str(MAX_BLOCK_SIZE + 1), "1", *_NUMBER])],
    ),
    "mean": (
        [("--limit", ["3", "1000", "2000"], [str(MAX_SIEVE_LIMIT + 1), "2", *_NUMBER])],
        [
            ("--stats", ["S01", "all", "S01,LEMMA32,COUNT_A", "DISPERSION"],
             ["BOGUS", "S01,S01", ",", "nan"]),
            ("--grid", ["geometric:10", "explicit:3,500"],
             ["explicit:2", "explicit:3,99999", "geometric:1", "weird:1", "explicit:10,abc",
              "explicit:", "geometric:inf"]),
            ("--block-size", ["64", "4096"], [str(MAX_BLOCK_SIZE + 1), "1", *_NUMBER]),
            ("--r0-convention", ["pair", "div"], ["both", ""]),
            ("--dispersion-c", ["1", "2.5", "-0.0"], ["-1", "nan", "inf", "1e300", "x"]),
            ("--threads", ["1"], [str(MAX_THREADS + 1), *_NUMBER]),
        ],
    ),
    "constants": (
        # --prime-limit is always given: its default sieves to 1e7.
        [("--prime-limit", ["1000", "5000"], ["999", str(MAX_SIEVE_LIMIT + 1), *_NUMBER])],
        [
            ("--eps", ["1e-6", "0.5"], ["1", "0", "-1", "1e-20", "nan", "inf", "x"]),
            ("--z", [(), ("10",), ("3", "500")],
             [("2",), ("nan",), ("inf",), ("-1",), ("10", "1e10"), ("x",)]),
        ],
    ),
    "congruence": (
        [],
        [
            ("--rho-max", ["0", "1", "60"], [str(RHO_ORACLE_CAP + 1), "-1", "1.5", "nan", "x"]),
            ("--nu-max", ["0", "10"], [str(NU_ORACLE_CAP + 1), "-1", "1.5", "inf"]),
            ("--t", ["1", "3"], ["0", "-1", "2.5", "nan"]),
            ("--d", ["2", "4"], ["0", "-1", "x", "inf"]),
        ],
    ),
    "offdiag": (
        [("--limit", ["1", "2", "100", "3000"], [str(10**8 + 1), *_NUMBER])],
        [
            ("--mode", ["direct", "param", "both"], ["bogus"]),
            ("--emit-quadruples", [()], [("1",)]),
        ],
    ),
    "report": (
        [("--inputs", [("@csv",), ("@csv", "@csv")],
          [(), ("@stat99",), ("@csv", "@x2"), ("@twin",), ("@text",), ("@file",), ("@dir",),
           ("@missing",), ("@csv", "@xhuge")])],
        [],
    ),
}
_REPORT_INPUTS = {
    "@csv": _REPORT_HEADER + "1000,S01,5,1,1,0\n10000,S01,70,1,1,0\n"
            "1000,DISPERSION(c=1),3.5,1,nan,nan\n",
    "@stat99": _REPORT_HEADER + "1000,S01,5,1,1,0\n1000,S99,5,1,1,0\n",
    "@x2": _REPORT_HEADER + "2,S01,5,1,1,0\n",
    "@twin": _REPORT_HEADER + "1000,DISPERSION(c=1e+10),5,1,nan,nan\n"
             "1000,DISPERSION(c=1e-10),5,1,nan,nan\n",
    "@xhuge": _REPORT_HEADER + "1000,S01,5,1,1,0\n1" + "0" * 400 + ",S01,70,1,1,0\n",
    "@text": "not a csv\n",
}
_BLOCKERS = ["mean.csv", "report.csv", "plot_S01.csv", "congruence.csv", "offdiag.csv",
             "blocks.pcty", "constants.csv", "quadruples.csv", "sieve_manifest.json"]


@st.composite
def _contract_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    chosen = required + [opt for opt in optional if draw(st.booleans())]
    fault = draw(st.sampled_from([None, *range(len(chosen))]))
    argv = [command]
    for i, (flag, good, bad) in enumerate(chosen):
        value = draw(st.sampled_from(bad if i == fault else good))
        argv += [flag, *(value if isinstance(value, tuple) else (value,))]
    out = draw(st.sampled_from(["@out", "@out", "@fresh", "@blocked", "@file"]))
    return [*argv, "--out-dir", out]


def _tree(path: Path) -> set[str]:
    return {str(p.relative_to(path)) for p in path.rglob("*")} if path.is_dir() else set()


def _contract_paths(root: Path, argv: list[str], blocker: str) -> tuple[list[str], Path]:
    """argv with its path tokens made under `root`, and its --out-dir."""
    paths = {"@out": root / "out", "@fresh": root / "new" / "out",
             "@blocked": root / "blocked", "@file": root / "file", "@dir": root / "dir",
             "@missing": root / "missing"}
    paths["@out"].mkdir()
    (paths["@blocked"] / blocker).mkdir(parents=True)
    paths["@file"].write_text("a file\n")
    paths["@dir"].mkdir()
    for token, text in _REPORT_INPUTS.items():
        paths[token] = root / f"{token[1:]}.csv"
        paths[token].write_text(text)
    return [str(paths.get(tok, tok)) for tok in argv], paths[argv[-1]]


def _run_contract(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code, argparse's SystemExit counted as its code, and its stderr."""
    err = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        os.environ.pop("PAUCITY_THREADS", None)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@settings(max_examples=150)
@given(_contract_argv(), st.sampled_from(_BLOCKERS))
@example(["report", "--inputs", "@csv", "@xhuge", "--out-dir", "@out"], "report.csv")
def test_exit_code_contract(argv, blocker):
    # Every exit is 0, 2 or 3 (argparse's SystemExit counts as its code);
    # stderr holds no traceback and ends with the error; a failed run adds no file.
    with tempfile.TemporaryDirectory() as tmp:
        argv, out = _contract_paths(Path(tmp), argv, blocker)
        before = _tree(out)
        rc, err = _run_contract(argv)
        assert rc in (0, 2, 3), (argv, rc, err)
        assert "Traceback" not in err, (argv, err)
        if rc:
            lines = err.splitlines()
            assert lines and "error: " in lines[-1], (argv, err)
            assert _tree(out) == before, argv


def _bad_argv(command: str, flag: str, bad) -> list[str]:
    """`command` with each required option at its first good value, `flag`
    at the value `bad`, and --out-dir @out."""
    required, _ = _GRAMMAR[command]
    argv = [command]
    for name, good, _ in required:
        if name != flag:
            argv += [name, *(good[0] if isinstance(good[0], tuple) else (good[0],))]
    return [*argv, flag, *(bad if isinstance(bad, tuple) else (bad,)), "--out-dir", "@out"]


# The work each command may start only once its input is checked.
_HEAVY = [
    (paucity.cli, "write_blocks"), (paucity.meanvalue, "sieve_primes"),
    (paucity.cli, "catalan"), (paucity.cli, "landau_ramanujan"),
    (paucity.cli, "sieve_density_product"), (paucity.cli, "rho_oracle"),
    (paucity.cli, "nu_oracle"), (paucity.cli, "rho_closed"), (paucity.cli, "nu_closed"),
    (paucity.cli, "enumerate_offdiag"), (paucity.cli, "enumerate_n1_params"),
]


@pytest.mark.parametrize("command, flag, bad", [
    (command, flag, bad)
    for command, (required, optional) in sorted(_GRAMMAR.items())
    for flag, _, bads in required + optional
    for bad in bads
])
def test_every_bad_value_exits_before_work(command, flag, bad, tmp_path, monkeypatch):
    # The contract test draws its bad values at random; here each one runs
    # once, alone: exit 2 or 3 with one line of error, before any heavy work
    # starts, and no file added.
    def refuse(*args, **kwargs):
        raise AssertionError("no work may start")

    for module, name in _HEAVY:
        monkeypatch.setattr(module, name, refuse)
    argv, out = _contract_paths(tmp_path, _bad_argv(command, flag, bad), "mean.csv")
    rc, err = _run_contract(argv)
    assert rc in (2, 3), (argv, rc, err)
    lines = err.splitlines()
    assert lines and [line for line in lines if "error: " in line] == lines[-1:], (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert _tree(out) == set(), argv
