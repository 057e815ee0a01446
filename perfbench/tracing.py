"""One traced CLI invocation, measured from outside the program.

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json CLI_ARG...

Wraps the package's public functions at the names their callers bind (for
example ``paucity.cli.accumulate`` and ``paucity.meanvalue.factor_scan``),
runs ``paucity.cli.main`` in this process, keeps one span per call in memory
(name, start, end, parent, thread, work count) and writes them to SPANS.json
when the invocation ends.  Exits with the CLI's exit code.

``layer_metrics`` turns one invocation's spans into the per-layer metrics.
A binding that no longer exists is listed as missing and its layer reads
zero; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, attribute, span name, work count from the call's positional arguments)
BINDINGS = (
    ("paucity.cli", "main", "cli.main", None),
    ("paucity.cli", "accumulate", "meanvalue.accumulate", None),
    ("paucity.cli", "lemma_sums", "meanvalue.lemma_sums", None),
    ("paucity.cli", "landau_counts", "meanvalue.landau_counts", None),
    ("paucity.cli", "partition_s12", "meanvalue.partition_s12", None),
    ("paucity.cli", "write_csv", "meanvalue.write_csv", None),
    ("paucity.cli", "build_spf_table", "arith.build_spf_table", None),
    ("paucity.meanvalue", "factor_scan", "arith.factor_scan", lambda a: a[1] - a[0]),
    ("paucity.sieve", "sieve_block", "sieve.sieve_block", lambda a: a[2] - a[1]),
    ("paucity.sieve", "sieve_primes", "sieve.sieve_primes", None),
    ("paucity.constants", "sieve_primes", "sieve.sieve_primes", None),
    ("paucity.meanvalue", "sieve_primes", "sieve.sieve_primes", None),
    ("paucity.quadruples", "sieve_primes", "sieve.sieve_primes", None),
    ("paucity.constants", "landau_ramanujan", "constants.landau_ramanujan", None),
    ("paucity.cli", "landau_ramanujan", "constants.landau_ramanujan", None),
    ("paucity.cli", "enumerate_offdiag", "quadruples.enumerate_offdiag", None),
    ("paucity.cli", "enumerate_n1_params", "quadruples.enumerate_n1_params", None),
    ("paucity.cli", "rho_oracle", "congruence.rho_oracle", None),
    ("paucity.cli", "nu_oracle", "congruence.nu_oracle", lambda a: a[0] * a[0]),
    ("paucity.cli", "rho_closed", "congruence.rho_closed", None),
    ("paucity.cli", "nu_closed", "congruence.nu_closed", None),
)
# sieve_all's iterator: each next() is one "sieve.next" span.
SIEVE_ALL = ("paucity.cli", "sieve_all")

# span fields
NAME, START, END, PARENT, THREAD, WORK = range(6)


class Tracer:
    """Spans of one process; a span's parent is the open span on the same thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str, work: int = 0) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else None,
                 threading.get_ident(), work]
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, count(args) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_iterator_factory(self, fn, name: str):
        tracer = self

        class TracedIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                index = tracer.open(name)
                try:
                    return next(self._inner)
                finally:
                    tracer.close(index)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        return traced


def install(tracer: Tracer) -> list[str]:
    """Replace every binding in BINDINGS and SIEVE_ALL; return the missing ones."""
    missing = []
    for module_name, attr, name, count in BINDINGS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, name, count))
    module = importlib.import_module(SIEVE_ALL[0])
    fn = getattr(module, SIEVE_ALL[1], None)
    if fn is None:
        missing.append(".".join(SIEVE_ALL))
    else:
        setattr(module, SIEVE_ALL[1], tracer.wrap_iterator_factory(fn, "sieve.next"))
    return missing


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one invocation.

    Self time subtracts only the child spans recorded on the same thread, so
    sieve_block on pool workers does not reduce accumulate's self time.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for span in spans:
        name, dur = span[NAME], span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + span[WORK]
        if span[PARENT] is not None:
            parent = spans[span[PARENT]][NAME]
            own[parent] = own.get(parent, 0.0) - dur

    def per(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    busy = total.get("sieve.sieve_block", 0.0)
    nu_s = total.get("congruence.nu_oracle", 0.0)
    return {
        "sieve.block_busy_s": busy,
        "sieve.ints_per_busy_s": per(work.get("sieve.sieve_block", 0), busy),
        "sieve.wait_s": total.get("sieve.next", 0.0),
        "sieve.blocks": calls.get("sieve.sieve_block", 0),
        "sieve.primes_s": total.get("sieve.sieve_primes", 0.0),
        "meanvalue.accumulate_self_s": own.get("meanvalue.accumulate", 0.0),
        "meanvalue.lemma_sums_self_s": own.get("meanvalue.lemma_sums", 0.0),
        "meanvalue.landau_counts_self_s": own.get("meanvalue.landau_counts", 0.0),
        "meanvalue.partition_s12_s": total.get("meanvalue.partition_s12", 0.0),
        "meanvalue.write_csv_self_s": own.get("meanvalue.write_csv", 0.0),
        "arith.factor_scan_s": total.get("arith.factor_scan", 0.0),
        "arith.factor_scan_ints": work.get("arith.factor_scan", 0),
        "arith.build_spf_table_s": total.get("arith.build_spf_table", 0.0),
        "constants.landau_ramanujan_s": total.get("constants.landau_ramanujan", 0.0),
        "quadruples.enumerate_offdiag_s": total.get("quadruples.enumerate_offdiag", 0.0),
        "quadruples.enumerate_n1_params_s": total.get("quadruples.enumerate_n1_params", 0.0),
        "congruence.nu_oracle_s": nu_s,
        "congruence.nu_oracle_cells": work.get("congruence.nu_oracle", 0),
        "congruence.nu_cells_per_s": per(work.get("congruence.nu_oracle", 0), nu_s),
        "congruence.rho_oracle_s": total.get("congruence.rho_oracle", 0.0),
        "congruence.closed_s": total.get("congruence.rho_closed", 0.0)
        + total.get("congruence.nu_closed", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def unit(metric: str) -> str:
    """Unit of a layer_metrics key, from its suffix."""
    if metric.endswith("_per_s") or metric.endswith("_per_busy_s"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    cli = importlib.import_module("paucity.cli")
    try:
        rc = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
