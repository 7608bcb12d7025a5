"""Command-line front end.

    cvpqc run <config.json>      execute a sweep, write rows plus a sidecar
    cvpqc validate <config.json> dry-run check: grids, cutoffs, memory

Exit codes: 0 success, 2 unusable config (also a value so large that the
run overflows a float), 3 tail-mass violation (the message names the
offending grid point), 4 output I/O failure.

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
# cost more than they save.  numpy and scipy each load their own OpenBLAS and
# read these variables when it loads, so this runs before either is imported;
# pool workers inherit os.environ.  A user who sets any of them keeps control.
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


def _write_json(path: str, columns, rows) -> None:
    doc = {"columns": list(columns), "rows": [list(r) for r in rows]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _write_sidecar(path: str, cfg, columns, row_count: int, wall: float) -> None:
    doc = {
        "config": cfg.to_dict(),
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cvpqc",
        description="Sweep runner for truncated-Fock private-channel experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep described by a JSON config")
    run_p.add_argument("config", help="path to a flat JSON config document")
    run_p.add_argument("--workers", type=int, default=None,
                       help="evaluate grid points in up to K processes")
    run_p.add_argument("--out", default=None, help="output file path")
    run_p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")

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

    if args.command == "run":
        for name in ("workers", "out", "format"):
            v = getattr(args, name)
            if v is not None:
                setattr(cfg, name, v)
    rep = validate(cfg)

    if args.command == "validate":
        print(rep.render())
        return EXIT_OK

    if not rep.ok:
        print(rep.render(), file=sys.stderr)
        return EXIT_CONFIG
    if not cfg.out:
        print("config error: no output path; set 'out' in the config or pass --out",
              file=sys.stderr)
        return EXIT_CONFIG
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)

    t0 = time.perf_counter()
    try:
        columns, rows = execute(cfg, workers=cfg.workers)
    except TailMassError as e:
        print(f"tail-mass violation: {e}", file=sys.stderr)
        return EXIT_TAIL
    except OverflowError as e:  # e.g. cosh r for r past ~710
        print(f"config error: a config value overflows a float: {e}", file=sys.stderr)
        return EXIT_CONFIG
    wall = time.perf_counter() - t0

    try:
        if cfg.format == "json":
            _write_json(cfg.out, columns, rows)
        else:
            _write_csv(cfg.out, columns, rows)
        _write_sidecar(cfg.out, cfg, columns, len(rows), wall)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    print(f"wrote {len(rows)} rows to {cfg.out} ({cfg.format}) in {wall:.2f}s")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
