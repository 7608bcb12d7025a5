"""Command-line front end.

    cvpqc run <config.json> --out PATH [--workers K]
                                 execute a sweep, write CSV rows plus a sidecar
    cvpqc validate <config.json> dry-run check: grids, cutoffs, memory

The config describes the sweep; the output path is a flag only.  A sweep
runs in one process; ``--workers K`` is accepted and checked for scripts that
pass it, and is otherwise ignored.

Exit codes: 0 success, 2 unusable config (also a value so large that the
default cutoff or the run overflows a float) or flags (no --out, or a
--workers below 1 or not an integer), 3 tail-mass violation (the message
names the offending grid point), 4 output I/O failure.

Importing this module pins OpenBLAS to one thread unless a thread-count
variable is already set; see ``BLAS_THREAD_VARS``.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

# The matrices here are at most a few hundred rows wide, where BLAS threads
# cost more than they save.  numpy reads these variables when it loads its
# OpenBLAS, so this runs before numpy is imported.  A user who sets any of
# them keeps control.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PINNED_BY_CLI = not any(os.environ.get(k) for k in BLAS_THREAD_VARS + ("GOTO_NUM_THREADS",))
if BLAS_PINNED_BY_CLI:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from . import __version__
from .config import ConfigError, load_config, validate
from .experiments import execute
from .fock import TailMassError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TAIL = 3
EXIT_IO = 4


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, columns, rows) -> None:
    # explicit lineterminator so output is byte-identical across platforms
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_cell(x) for x in row])


def _write_sidecar(path: str, cfg, columns, row_count: int, wall: float) -> None:
    doc = {
        "config": cfg.echo(),  # a config that runs again to the same rows
        "library_version": __version__,
        "columns": list(columns),
        "row_count": row_count,
        "wall_time_s": wall,
        "blas_threads": dict({k: os.environ.get(k) for k in BLAS_THREAD_VARS},
                             set_by_cli=BLAS_PINNED_BY_CLI),
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _workers(text: str) -> int:
    """The --workers value; argparse turns the error into exit 2 and a usage line."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return k


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cvpqc",
        description="Sweep runner for truncated-Fock private-channel experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep described by a JSON config")
    run_p.add_argument("config", help="path to a flat JSON config document")
    run_p.add_argument("--out", metavar="PATH",
                       help="output CSV path; the sidecar goes to PATH.meta.json")
    run_p.add_argument("--workers", type=_workers, default=1, metavar="K",
                       help="accepted and ignored: a sweep runs in one process")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a flat JSON config document")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rep = validate(cfg)

    if args.command == "validate":
        print(rep.render())
        return EXIT_OK

    if not rep.ok:
        print(rep.render(), file=sys.stderr)
        return EXIT_CONFIG
    if not args.out:
        print("config error: no output path; pass --out PATH", file=sys.stderr)
        return EXIT_CONFIG

    t0 = time.perf_counter()
    try:
        columns, rows = execute(cfg)
    except TailMassError as e:
        print(f"tail-mass violation: {e}", file=sys.stderr)
        return EXIT_TAIL
    except OverflowError as e:  # e.g. cosh r for r past ~710
        print(f"config error: a config value overflows a float: {e}", file=sys.stderr)
        return EXIT_CONFIG
    wall = time.perf_counter() - t0

    try:
        _write_csv(args.out, columns, rows)
        _write_sidecar(args.out, cfg, columns, len(rows), wall)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    print(f"wrote {len(rows)} rows to {args.out} in {wall:.2f}s")
    return EXIT_OK


def entry() -> None:
    """The console script: ``main``, then an exit that skips the interpreter's
    teardown.  The CSV and the sidecar are closed when ``main`` returns; what
    is left, freeing numpy's objects one by one, costs a run tens of
    milliseconds."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
