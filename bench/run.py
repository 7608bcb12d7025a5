"""Sweep benchmark: `cvpqc run` end to end, plus a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is not installed, so
every child is `python -m cvpqc.cli` with `src` on PYTHONPATH and every
*_NUM_THREADS variable removed (the environment users get: OpenBLAS uses
all cores).  Workloads and their seeded grids live in workloads.py.

--trace 0 measures end to end, one child at a time:
  setup_s       median wall time of one `cvpqc validate` (interpreter start,
                imports, config parsing; no compute), cycling over the configs
  run_s         median wall time of one iteration: every `cvpqc run` of the
                workload in sequence, each timed from spawn to exit
  points_per_s  grid points in the workload / run_s
  peak_rss_mb   largest peak RSS of any `cvpqc run` child
--trace 1 runs trace_run.py once and reports per-layer counts and self
times (see BENCHMARK.json for the list), including the parallel efficiency
of `--workers 2` against a serial pass.

Every output is checked: exit code, columns, row count and finite values;
at seed 0 also every cell against bench/reference (ints and strings exactly,
floats within tail_tol).  In the traced run, the rows of every pass,
`--workers 2` included, must be byte-identical to the serial untraced rows.
The last stdout line is the JSON result; the lines before it are the same
numbers for people, and the environment.  The exit code is 1 if any output
or self-test failed, else 0.
"""
from __future__ import annotations

import argparse
import csv
import filecmp
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
STOP_STARTING_AFTER_S = 120.0   # keep a slow program inside the 180 s budget
CHILD_TIMEOUT_S = 170.0

# spans each workload is known to call; zero calls means the tracer missed a binding
EXPECTED_SPANS = {
    "large_mixtures": ["channel.mixture_gamma", "channel.squeezed_mixture",
                       "fock.squeeze_operator", "fock.coherent_amplitudes",
                       "fock.von_neumann_entropy", "fock.hs_distance"],
    "tap_gates": ["attack.attack", "nongauss.displacement_via_beamsplitter",
                  "fock.beam_splitter", "fock.TwoModeUnitary.apply",
                  "fock.displacement_operator", "fock.squeeze_operator",
                  "fock.coherent_amplitudes"],
}
EXPECTED_SPANS["paper_suite"] = sorted(set(EXPECTED_SPANS["large_mixtures"])
                                     | set(EXPECTED_SPANS["tap_gates"]))

# counts that must repeat exactly between the two traced passes
STABLE_KEYS = ("calls", "work_d3", "blocks_built", "miss", "hit")


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, log_path: Path):
    """Run argv to completion; returns (wall s, exit code, peak RSS MB).

    Reaped with wait4 so the peak RSS covers the child and every descendant it
    waited for.  A child still running after CHILD_TIMEOUT_S is
    killed and reported with its signal as a negative exit code.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cvpqc(args: list, env: dict, log_path: Path):
    return spawn([sys.executable, "-m", "cvpqc.cli", *args], env, log_path)


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def check_rows(out_path, cid: str, seed: int) -> str | None:
    """None if the output is right, else what is wrong.

    Every seed: columns and row count as in the seed-0 reference, every number
    finite.  Seed 0: every cell as in the reference, numbers within tail_tol
    unless both are integers.
    """
    ref_header, ref_rows = _read_csv(REFERENCE / f"{cid}.csv")
    try:
        header, rows = _read_csv(out_path)
    except OSError as e:
        return f"{cid}: no output ({e})"
    if header != ref_header:
        return f"{cid}: columns {header} != {ref_header}"
    if len(rows) != len(ref_rows):
        return f"{cid}: {len(rows)} rows, expected {len(ref_rows)}"
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return f"{cid}: row {i} has {len(row)} cells"
        for j, cell in enumerate(row):
            x = _number(cell)
            if isinstance(x, float) and not math.isfinite(x):
                return f"{cid}: row {i} {header[j]} = {cell}"
            if seed != 0:
                continue
            want = ref_rows[i][j]
            y = _number(want)
            if x is None or y is None:
                ok = cell == want
            elif isinstance(x, int) and isinstance(y, int):
                ok = x == y
            else:
                ok = abs(x - y) <= workloads.TAIL_TOL
            if not ok:
                return f"{cid}: row {i} {header[j]} = {cell}, reference {want}"
    return None


# ---------------------------------------------------------------------------
# environment

_PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
            break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration"),
                  "blas_threads": threads}))
"""


def environment(env: dict, log_path: Path) -> dict:
    """Versions, BLAS, threading and the source the numbers belong to."""
    probe = log_path.with_suffix(".json")
    spawn([sys.executable, "-c", _PROBE], env, probe)
    try:
        info = json.loads(probe.read_text().strip().splitlines()[-1])
    except (ValueError, IndexError):
        info = {"probe_error": probe.read_text()[-500:]}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    names = sorted({k for k in os.environ if k.endswith("_NUM_THREADS")}
                   | {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"})
    return dict(info, machine=platform.machine(), cpu_model=cpu,
                cpu_count=os.cpu_count(), cpu_affinity=sorted(os.sched_getaffinity(0)),
                thread_env={k: env.get(k) for k in names},
                git_commit=commit, source_sha256=digest.hexdigest())


# ---------------------------------------------------------------------------
# end to end


def tail_percentile(samples: list):
    """(percentile, value) of the highest percentile with >= 10 samples above
    it, by nearest rank; None with 10 samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def measure(seed: int, seconds: float, configs, paths, env, work: Path):
    t_start = time.perf_counter()
    attempted, failures = 0, []

    setup = []
    for i in range(SETUP_SAMPLES):
        cid, cfg_path = paths[i % len(paths)]
        attempted += 1
        log = work / f"validate-{i}.log"
        wall, rc, _ = cvpqc(["validate", str(cfg_path)], env, log)
        setup.append(wall)
        last = (log.read_text().strip().splitlines() or [""])[-1]
        if rc != 0 or last != "config valid":
            failures.append(f"{cid}: validate exit {rc}: {last}")

    iterations, peak = [], 0.0
    t_measure = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or \
            time.perf_counter() - t_measure + statistics.median(iterations) <= seconds:
        if iterations and time.perf_counter() - t_start > STOP_STARTING_AFTER_S:
            break
        total = 0.0
        for cid, cfg_path in paths:
            out, log = work / f"{cid}.csv", work / f"{cid}.log"
            attempted += 1
            wall, rc, rss = cvpqc(["run", str(cfg_path), "--out", str(out)], env, log)
            total += wall
            peak = max(peak, rss)
            problem = (f"{cid}: exit {rc}: {log.read_text()[-300:]}" if rc != 0
                       else check_rows(out, cid, seed))
            if problem:
                failures.append(problem)
        iterations.append(total)

    points = sum(workloads.grid_points(c) for _, c in configs)
    run_s = statistics.median(iterations)
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (points / run_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    tail = tail_percentile(iterations)
    print(f"run_s: {len(iterations)} iterations "
          f"[{', '.join(f'{x:.4f}' for x in iterations)}] s; "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
             "no percentile has 10 samples above it (needs more than 10 iterations)"))
    print(f"setup_s: {len(setup)} validate samples "
          f"[{', '.join(f'{x:.4f}' for x in setup)}] s")
    print(f"grid points per iteration: {points}")
    return metrics, attempted, failures, []


# ---------------------------------------------------------------------------
# traced


def traced(name: str, seed: int, configs, paths, env, work: Path):
    result_path = work / "trace.json"
    argv = [sys.executable, str(BENCH / "trace_run.py"), str(result_path), str(work),
            *[str(p) for _, p in paths]]
    wall, rc, _ = spawn(argv, env, work / "trace.log")
    if rc != 0:
        raise RuntimeError(f"trace run exit {rc}: {(work / 'trace.log').read_text()[-2000:]}")
    res = json.loads(result_path.read_text())
    passes = res["passes"]
    attempted, failures = 0, []
    selftest = [f"binding not wrapped: {b}" for b in res["unbound"]]

    for tag in ("plain", "traced1", "traced2", "pool"):
        for (cid, _), r, serial in zip(paths, passes[tag]["runs"], passes["plain"]["runs"]):
            attempted += 1
            problem = (f"{tag} {cid}: exit {r['rc']}" if r["rc"] != 0
                       else check_rows(r["out"], cid, seed))
            if not problem and not filecmp.cmp(r["out"], serial["out"], shallow=False):
                problem = f"{tag} {cid}: rows differ from the serial untraced rows"
            if problem:
                failures.append(problem)

    t1, t2 = passes["traced1"]["spans"], passes["traced2"]["spans"]
    for span in sorted(set(t1) | set(t2)):
        a, b = t1.get(span, {}), t2.get(span, {})
        for k in STABLE_KEYS:
            if a.get(k) != b.get(k):
                selftest.append(f"count not stable: {span}.{k} {a.get(k)} vs {b.get(k)}")
    for span in EXPECTED_SPANS[name] + ["cli.main", "experiments.execute"]:
        if not t2.get(span, {}).get("calls"):
            selftest.append(f"span {span} recorded no calls on {name}")

    def get(span, key="self_s"):  # from the warm traced pass
        return t2.get(span, {}).get(key, 0)

    def total(tag, span):
        return passes[tag]["spans"].get(span, {}).get("total_s", 0.0)

    points = sum(workloads.grid_points(c) for _, c in configs)
    mix_points = sum(workloads.grid_points(c) for _, c in configs
                     if c["experiment"] in workloads.MIXTURE_EXPERIMENTS)
    execute_s = get("experiments.execute", "total_s")
    bs_hit, bs_miss = get("fock.beam_splitter", "hit"), get("fock.beam_splitter", "miss")
    pool_execute = total("pool", "experiments.execute")
    m = {
        "cli.import_s": (res["import_s"], "s"),
        "cli.overhead_s": (get("cli.main", "total_s") - execute_s, "s"),
        "experiments.points": (points, "count"),
        "experiments.execute_s": (execute_s, "s"),
        "experiments.self_s": (get("experiments.execute"), "s"),
        "experiments.parallel_efficiency": (
            total("plain", "experiments.execute") / (2.0 * pool_execute)
            if pool_execute else 0.0, "ratio"),
        "channel.mixtures_per_point": (
            (get("channel.mixture_gamma", "calls") + get("channel.squeezed_mixture", "calls"))
            / mix_points if mix_points else 0.0, "ratio"),
    }
    for span in ("channel.mixture_gamma", "channel.squeezed_mixture", "fock.squeeze_operator",
                 "fock.coherent_amplitudes", "fock.beam_splitter", "fock.TwoModeUnitary.apply",
                 "fock.displacement_operator"):
        m[f"{span}.calls"] = (get(span, "calls"), "count")
        m[f"{span}.self_s"] = (get(span), "s")
    for span in ("fock.von_neumann_entropy", "fock.hs_distance", "attack.attack",
                 "nongauss.displacement_via_beamsplitter"):
        m[f"{span}.self_s"] = (get(span), "s")
    m["fock.squeeze_operator.work_d3"] = (get("fock.squeeze_operator", "work_d3"), "count")
    m["fock.beam_splitter.misses"] = (bs_miss, "count")
    m["fock.beam_splitter.cache_hit_ratio"] = (
        bs_hit / (bs_hit + bs_miss) if bs_hit + bs_miss else 0.0, "ratio")
    m["fock.beam_splitter.blocks_built"] = (get("fock.beam_splitter", "blocks_built"), "count")
    plain_execute = total("plain", "experiments.execute")
    m["trace.overhead_frac"] = (execute_s / plain_execute - 1.0 if plain_execute else 0.0,
                                "ratio")
    m["trace.layer_coverage"] = (1.0 - m["experiments.self_s"][0] / execute_s
                                 if execute_s else 0.0, "ratio")

    print(f"traced run: {wall:.2f} s wall for 4 passes over {len(paths)} config(s)")
    print("top self times (second traced pass):")
    for span, agg in sorted(t2.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        print(f"  {span:48s} calls {agg['calls']:7d}  self {agg['self_s']:9.4f} s")
    spans_out = WORK / f"spans-{name}-seed{seed}.json"
    spans_out.write_text(json.dumps({"fields": ["name", "parent", "start", "end", "extra"],
                                     "spans": res["span_log"]}))
    print(f"spans of the second traced pass: {spans_out.relative_to(ROOT)}")
    return m, attempted, failures, selftest


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cvpqc" / "cli.py").is_file():
        print(f"no program: {ROOT / 'src' / 'cvpqc'} is missing", file=sys.stderr)
        return 2
    env = child_env()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    configs = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        paths = []
        for cid, cfg in configs:
            path = work / f"{cid}.json"
            path.write_text(json.dumps(cfg, indent=1))
            paths.append((cid, path))
        worst = max((t for _, c in configs for _, t in workloads.screen(c)), default=0.0)
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{', '.join(cid for cid, _ in configs)}; honesty screen: worst true "
              f"tail {worst:.3e} <= tail_tol {workloads.TAIL_TOL:g}")
        print("environment " + json.dumps(environment(env, work / "probe.log")))
        if args.trace:
            metrics, attempted, failures, selftest = traced(
                args.workload, args.seed, configs, paths, env, work)
        else:
            metrics, attempted, failures, selftest = measure(
                args.seed, args.seconds, configs, paths, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in failures:
        print(f"FAILED {problem}")
    for problem in selftest:
        print(f"SELF-TEST FAILED {problem}")
    print(f"failed_frac: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for k, (v, unit) in metrics.items():
        print(f"{k}: {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 1 if failures or selftest else 0


if __name__ == "__main__":
    sys.exit(main())
