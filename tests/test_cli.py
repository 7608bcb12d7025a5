"""Command-line surface: validation reports, sweeps, flags, the sidecar, exit codes."""
import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cvpqc
from cvpqc import channel, fock, nongauss
from cvpqc.channel import maximally_mixed
from cvpqc.cli import main
from cvpqc.config import RUN_FIELDS, ConfigError, ExperimentConfig, config_from_dict, validate
from cvpqc.experiments import REGISTRY, _plan, _run_task, resolve_cutoff
from cvpqc.fock import FockCutoff, hs_distance
from oracles import projector, vacuum


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def argv(command, cfg, out):
    """`cvpqc validate CFG`, or `cvpqc run CFG --out OUT`."""
    return [command, cfg] + (["--out", str(out)] if command == "run" else [])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_reports_memory_model(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="attack", cutoff=30)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "961" in out       # two-mode basis dimension 31^2
    assert "10416" in out     # beam-splitter block entries 31 * 32 * 63 / 6
    assert "config valid" in out
    # the attack benchmark cutoff: 101 * 102 * 203 / 6 entries of 16 bytes
    cfg = write_config(tmp_path, experiment="attack", cutoff=100)
    assert main(["validate", cfg]) == 0
    assert "holds 348551 complex block entries (~5.6 MB)" in capsys.readouterr().out
    # displacement_bs stays in one mode: a d x d density matrix
    cfg = write_config(tmp_path, experiment="displacement_bs", cutoff=98)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "9801 complex entries" in out
    assert "two-mode" not in out
    # a convergence task holds its M x d key rows, M = N(N+1)/2 at the largest N, and
    # building them peaks at 4.4 times that: 7.27 MB under tracemalloc at N = 32, cutoff 195
    cfg = write_config(tmp_path, experiment="convergence", b_list=[5.0], cutoff=195)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert ("key-row stack at N = 32 holds 103488 complex entries, and building it peaks "
            "at 4.4 times that (~7.286 MB)") in out
    assert "the largest task peaks at about 11.0 MB" in out  # plus 6 d x d matrices
    # conformation's rows are closed forms
    cfg = write_config(tmp_path, experiment="conformation", cutoff=100000)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "a task holds no Fock-space array" in out
    assert "the run holds its 713 rows (~0.2 MB)" in out  # 3 + 10 + 36 + 136 + 528
    assert "config valid" in out


@pytest.mark.parametrize("physical, ok", [(256 * 713, True), (256 * 713 - 1, False)],
                         ids=["at_the_bound", "a_byte_short"])
def test_conformation_rows_are_bounded_by_physical_memory(monkeypatch, tmp_path, physical, ok):
    # the default grids give 713 rows, at 256 bytes a row
    monkeypatch.setattr("cvpqc.config._physical_bytes", lambda: physical)
    rep = validate(config_from_dict({"experiment": "conformation"}))
    assert rep.ok == ok


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fields", [
    {"experiment": "convergence", "cutoff": 10 ** 10},
    {"experiment": "convergence", "b_list": [1000.0]},  # default cutoff 1268983
    {"experiment": "convergence", "N_list": [1000000], "cutoff": 20},  # the key stack
    {"experiment": "attack", "cutoff": 100000},  # the splitter's d (d+1) (2d+1) / 6 entries
    {"experiment": "conformation", "N_list": [1000000]},  # 5e11 closed-form rows
], ids=["cutoff", "default_cutoff", "key_stack", "two_mode", "rows"])
def test_task_beyond_physical_memory_is_a_config_problem(monkeypatch, tmp_path, capsys,
                                                         command, fields):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr("cvpqc.cli.execute", refuse)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, **fields)
    assert main(argv(command, cfg, out)) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "MB of physical memory" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("n_max", [1, 30, 100])
def test_validate_counts_the_block_entries_of_the_gate(n_max):
    rep = validate(config_from_dict({"experiment": "attack", "cutoff": n_max}))
    count = re.search(r"holds (\d+) complex block entries", "\n".join(rep.info))
    gate = fock.beam_splitter(math.pi / 4, FockCutoff(n_max))
    assert int(count.group(1)) == sum(blk.size for _, blk in gate.blocks.values())


@pytest.mark.parametrize("n_alpha", [1, 4, 64])
@pytest.mark.parametrize("n_max", [60, 100])
def test_validate_bounds_the_peak_of_an_attack_task(monkeypatch, n_max, n_alpha):
    # one task is one (r, phi) with the input and target stacks of every alpha; it
    # builds the gate, as the first task of a process does
    cfg = config_from_dict({"experiment": "attack", "cutoff": n_max, "r_list": [0.3],
                            "phi_list": [0.5],
                            "alpha_list": np.linspace(0.1, 1.0, n_alpha).tolist()})
    (task,), _ = _plan(REGISTRY["attack"], cfg)
    fock.beam_splitter.cache_clear()
    tracemalloc.start()
    try:
        assert len(_run_task(task)) == n_alpha
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a task whose bound exceeds physical memory is a problem: the bound covers
    # the measured peak if it exceeds a byte less
    monkeypatch.setattr("cvpqc.config._physical_bytes", lambda: peak - 1)
    assert any("MB of physical memory" in p for p in validate(cfg).problems)


def test_readme_configs_validate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        rep = validate(config_from_dict(json.loads(block)))
        assert rep.ok, (block, rep.problems)


def test_validate_flags_empty_grid_but_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", N_list=[])
    assert main(["validate", cfg]) == 0  # report-only dry run
    out = capsys.readouterr().out
    assert "N_list" in out
    assert "config INVALID" in out


@pytest.mark.parametrize("experiment, grid", [
    (name, grid) for name, exp in REGISTRY.items() for grid in exp.grids])
def test_validate_flags_each_empty_grid(experiment, grid):
    rep = validate(config_from_dict({"experiment": experiment, grid: []}))
    assert not rep.ok
    assert any(repr(grid) in p for p in rep.problems)


@pytest.mark.parametrize("doc, n_max, how", [
    ({"experiment": "attack"}, 60, "default"),
    ({"experiment": "nongauss_overlap"}, 40, "default"),
    ({"experiment": "nongauss_variance"}, 40, "default"),
    ({"experiment": "convergence", "b_list": [2.0]}, 59, "default"),
    # displacement_bs: scale |eff| + |beta|, the largest amplitude a truncated vector holds
    ({"experiment": "displacement_bs"}, 35, "default"),
    ({"experiment": "displacement_bs", "eff_re": 0.0, "eff_im": 0.0}, 25, "default"),
    ({"experiment": "displacement_bs", "input_kind": "vacuum"}, 7, "default"),
    ({"experiment": "mmstate"}, 59, "default"),
    ({"experiment": "attack", "cutoff": 60}, 60, "explicit"),
    # squeezed_convergence: scale max b e^{max r}, the largest stretched quadrature
    ({"experiment": "squeezed_convergence"}, 59, "default"),
    ({"experiment": "squeezed_convergence", "r_list": [0.0, 0.5], "phi_list": [3.0]}, 112,
     "default"),
    ({"experiment": "squeezed_convergence", "r_list": [1.0]}, 218, "default"),
    ({"experiment": "conformation", "r_list": [1.0]}, 59, "default"),
], ids=["attack", "nongauss_overlap", "nongauss_variance", "convergence-b2",
        "displacement_bs", "displacement_bs-no_ancilla", "displacement_bs-vacuum", "mmstate",
        "attack-explicit", "squeezed_convergence-r0", "squeezed_convergence-r0.5",
        "squeezed_convergence-r1", "conformation-r1"])
def test_default_cutoffs(doc, n_max, how):
    cfg = config_from_dict(doc)
    assert resolve_cutoff(cfg) == n_max
    assert f"cutoff n_max = {n_max} ({how})" in validate(cfg).info


@pytest.mark.parametrize("fields", [
    {"r_list": [0.5], "phi_list": [3.0]},
    {"r_list": [1.0], "N_list": [8, 32]},
], ids=["r0.5", "r1"])
def test_squeezed_default_cutoff_holds_the_squeezed_keys(tmp_path, fields):
    # with the unsqueezed default 59 both runs exit 3 (tail 1.11e-8 at r = 0.5)
    cfg = write_config(tmp_path, experiment="squeezed_convergence", **fields)
    assert main(["run", cfg, "--out", str(tmp_path / "rows.csv")]) == 0


def test_displacement_bs_benchmark_cutoff_draws_no_warning():
    # the benchmark's displacement_bs_paper config: every truncated amplitude is
    # at most |eff| + |beta| = 1.3, far inside cutoff 98
    rep = validate(config_from_dict({
        "experiment": "displacement_bs", "cutoff": 98, "eff_re": 0.3, "eff_im": 0.0,
        "input_kind": "even_coherent", "input_beta_mag": 1.0, "input_varphi": 0.0,
        "T_list": [0.5, 0.25, 0.1, 0.04, 0.01]}))
    assert rep.ok


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run subcommand: correctness of emitted data


def test_run_convergence_single_ring(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    assert cols[:5] == ["N", "b", "r", "phi", "cutoff"]
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    cut = FockCutoff(59)
    expect = hs_distance(maximally_mixed(2.0, cut),
                         projector(vacuum(cut)))
    assert float(row["d_hs"]) == pytest.approx(expect, abs=1e-12)
    assert float(row["d_hs_times_Np1"]) == pytest.approx(2 * expect, abs=1e-12)
    assert "wrote 1 rows" in capsys.readouterr().out


def test_run_reruns_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    base = dict(experiment="convergence", N_list=[1, 2], b_list=[2.0], cutoff=40)
    cfg = write_config(tmp_path, **base)
    assert main(["run", cfg, "--out", out1]) == 0
    assert main(["run", cfg, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_squeezed_convergence_at_zero_squeezing_matches_plain(tmp_path):
    out1 = str(tmp_path / "plain.csv")
    out2 = str(tmp_path / "squeezed.csv")
    cfg1 = write_config(tmp_path, "c1.json", experiment="convergence",
                        N_list=[1, 2], b_list=[2.0], cutoff=40)
    cfg2 = write_config(tmp_path, "c2.json", experiment="squeezed_convergence",
                        N_list=[1, 2], b_list=[2.0], r_list=[0.0], cutoff=40)
    assert main(["run", cfg1, "--out", out1]) == 0
    assert main(["run", cfg2, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_an_angle_just_below_zero_runs_as_zero(tmp_path):
    # -1e-20 + 2 pi rounds to 2 pi itself, which used to print as phi = 6.2831853071795862
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="squeezed_convergence", N_list=[2],
                       b_list=[1.0], r_list=[0.3], phi_list=[-1e-20, 0.0, -0.0], cutoff=40)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    assert rows[0] == rows[1] == rows[2]
    assert rows[0][cols.index("phi")] == "0"


def test_run_conformation_rows(tmp_path):
    out = str(tmp_path / "rings.csv")
    cfg = write_config(tmp_path, experiment="conformation",
                       N_list=[4], b_list=[2.0], r_list=[0.0, 0.3],
                       phi_list=[0.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    recs = [dict(zip(cols, r)) for r in rows]
    assert len(recs) == 2 * 10  # two r values x sum(p for p in 1..4)
    for rec in recs:
        r = float(rec["r"])
        k = float(rec["k_factor"])
        assert 1 - math.tanh(r) - 1e-12 <= k <= 1 + math.tanh(r) + 1e-12
        if r == 0.0:
            assert k == 1.0
            r_p = float(rec["r_p"])
            assert float(rec["vacuum_weight"]) == pytest.approx(math.exp(-r_p * r_p))
        p, q = int(rec["p"]), int(rec["q"])
        assert float(rec["theta_pq"]) == pytest.approx(math.pi / p * (2 * q - 1))
        assert float(rec["r_p"]) == pytest.approx((p - 1) * 2.0 / 4)


def test_run_mmstate_weights(tmp_path):
    out = str(tmp_path / "mm.csv")
    cfg = write_config(tmp_path, experiment="mmstate",
                       b_list=[2.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    recs = [dict(zip(cols, r)) for r in rows]
    assert len(recs) == 60
    weights = [float(rec["weight"]) for rec in recs]
    assert sum(weights) == pytest.approx(1.0, abs=1e-6)
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert all(float(rec["mass"]) == pytest.approx(sum(weights)) for rec in recs)


def test_float_cells_round_trip_exactly(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    row = dict(zip(cols, rows[0]))
    cut = FockCutoff(59)
    expect = hs_distance(maximally_mixed(2.0, cut),
                         projector(vacuum(cut)))
    # 17 significant digits reproduce the double bit-for-bit
    assert float(row["d_hs"]) == expect


# ---------------------------------------------------------------------------
# sidecar


def test_sidecar_records_run(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1, 2], b_list=[2.0], cutoff=40)
    assert main(["run", cfg, "--out", out]) == 0
    with open(out + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    assert meta["row_count"] == 2
    assert meta["config"]["experiment"] == "convergence"
    assert meta["workers"] == 1
    assert meta["columns"][0] == "N"
    assert meta["wall_time_s"] >= 0
    assert "library_version" in meta
    threads = meta["blas_threads"]
    assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                            "set_by_cli"}
    assert isinstance(threads["set_by_cli"], bool)
    assert threads["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    if threads["set_by_cli"]:
        assert threads["OMP_NUM_THREADS"] == threads["MKL_NUM_THREADS"] == "1"


def test_sidecar_records_the_workers_beside_the_sweep(tmp_path):
    # one task runs serially whatever --workers asks for, so no pool starts here
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40)
    assert main(["run", cfg, "--out", out, "--workers", "2"]) == 0
    with open(out + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    assert meta["workers"] == 2
    # the config echo holds the fields convergence accepts, and no run setting
    assert set(meta["config"]) == {"experiment", "cutoff", "tail_tol", "b_list", "N_list"}
    assert not {"out", "format", "workers"} & set(meta["config"])


@pytest.mark.parametrize("experiment", sorted(REGISTRY))
def test_sidecar_config_echo_runs_again_to_the_same_rows(tmp_path, experiment):
    # the echo holds the run fields, the experiment's grids and its reads, so it
    # parses back, and its defaults are spelled out, so it reruns the same sweep
    first = str(tmp_path / "first.csv")
    assert main(["run", write_config(tmp_path, experiment=experiment), "--out", first]) == 0
    with open(first + ".meta.json", encoding="utf-8") as f:
        echo = json.load(f)["config"]
    again = str(tmp_path / "again.csv")
    assert main(["run", write_config(tmp_path, "echo.json", **echo), "--out", again]) == 0
    assert Path(first).read_bytes() == Path(again).read_bytes()


# ---------------------------------------------------------------------------
# parallel execution


def test_workers_do_not_change_output(tmp_path):
    # an attack task is one (r, phi) with every alpha: four tasks over two processes
    cfg = write_config(tmp_path, experiment="attack", alpha_list=[0.5, 1.0],
                       r_list=[0.0, 0.3], phi_list=[0.0, 1.0], cutoff=25)
    out1 = str(tmp_path / "serial.csv")
    out2 = str(tmp_path / "parallel.csv")
    assert main(["run", cfg, "--out", out1, "--workers", "1"]) == 0
    assert main(["run", cfg, "--out", out2, "--workers", "2"]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, cpus, expected", [
    (5000, 2, 2),        # one process per CPU
    (5000, 64, 4),       # one process per task: a (b, N) pair
    (3, 64, 3),
    (5000, None, None),  # unknown CPU count: serial
])
def test_pool_size_is_capped(monkeypatch, tmp_path, workers, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1, 2, 3, 4],
                       b_list=[2.0], cutoff=30)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["run", cfg, "--out", str(serial)]) == 0
    assert main(["run", cfg, "--out", str(pooled), "--workers", str(workers)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()
    assert _SerialPool.sizes == ([] if expected is None else [expected])


# ---------------------------------------------------------------------------
# BLAS thread pin

_THREAD_PROBE = r"""
import ctypes, glob, json, os, sys
import cvpqc
numpy_with_package = "numpy" in sys.modules
import cvpqc.cli
pool_modules = [m for m in ("multiprocessing", "concurrent.futures.process")
                if m in sys.modules]
import numpy, scipy
threads = {}
for mod in (numpy, scipy):
    for lib in glob.glob(os.path.dirname(mod.__file__) + ".libs/*openblas*"):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[os.path.basename(lib)] = fn()
                break
print(json.dumps({"numpy_with_package": numpy_with_package, "pool_modules": pool_modules,
                  "threads": threads}))
"""


def _probe_threads(**thread_env):
    """OpenBLAS thread counts of a child that imports cvpqc.cli, started with
    no *_NUM_THREADS variable but ``thread_env``."""
    src = os.path.dirname(os.path.dirname(cvpqc.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(thread_env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                          capture_output=True, text=True, env=env, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not got["numpy_with_package"], "import cvpqc loaded numpy before the CLI's pin"
    # the process pool is imported only by a run with workers > 1
    assert got["pool_modules"] == [], "import cvpqc.cli loaded the process-pool machinery"
    if not got["threads"]:
        pytest.skip("no OpenBLAS thread-count symbol found")
    return set(got["threads"].values())


def test_cli_import_pins_blas_to_one_thread():
    assert _probe_threads() == {1}


def test_user_thread_setting_wins():
    # OpenBLAS caps its thread count at the CPUs it may run on
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs to tell 2 threads from 1")
    assert _probe_threads(OPENBLAS_NUM_THREADS="2") == {2}


# ---------------------------------------------------------------------------
# numpy is the one runtime dependency

# one small config per experiment
_SMALL_RUNS = {
    "mmstate": {"b_list": [1.0]},
    "conformation": {"N_list": [3], "r_list": [0.3]},
    "convergence": {"N_list": [2, 4], "b_list": [1.0]},
    "squeezed_convergence": {"N_list": [2], "b_list": [1.0], "r_list": [0.3]},
    "attack": {"alpha_list": [0.5], "r_list": [0.3], "cutoff": 20},
    "nongauss_overlap": {"r_list": [0.1], "cutoff": 20},
    "nongauss_variance": {"r_list": [0.1], "cutoff": 20},
    "displacement_bs": {"T_list": [0.5]},
}

_WITHOUT_SCIPY = r"""
import json, sys
sys.modules["scipy"] = None  # any scipy import, lazy ones too, raises ImportError
from cvpqc.cli import main
codes = {name: [main([command, path] + (["--out", out] if command == "run" else []))
                for command in ("validate", "run")]
         for name, (path, out) in json.loads(sys.argv[1]).items()}
print(json.dumps(codes))
"""


# every experiment with no field but its name: the default cutoff and grids
_DEFAULT_ROWS = {
    "mmstate": 60,                 # levels 0..59 at b = 2
    "conformation": 713,           # N(N+1)/2 keys summed over N = 2, 4, 8, 16, 32
    "convergence": 5,              # one row per N
    "squeezed_convergence": 5,
    "attack": 1,
    "nongauss_overlap": 1,
    "nongauss_variance": 2,        # a squeezed-vacuum row and an even-coherent row
    "displacement_bs": 5,          # one row per transmission
}


def test_every_experiment_runs_on_its_defaults(tmp_path, capsys):
    assert set(_DEFAULT_ROWS) == set(REGISTRY)
    for name, count in _DEFAULT_ROWS.items():
        out = tmp_path / f"{name}.csv"
        cfg = write_config(tmp_path, f"{name}.json", experiment=name)
        assert main(["run", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
        assert len(read_csv(out)[1]) == count, name


def test_every_experiment_runs_without_scipy(tmp_path):
    assert set(_SMALL_RUNS) == set(REGISTRY)
    paths = {name: (write_config(tmp_path, f"{name}.json", experiment=name, **fields),
                    str(tmp_path / f"{name}.csv"))
             for name, fields in _SMALL_RUNS.items()}
    src = os.path.dirname(os.path.dirname(cvpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(paths)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == {name: [0, 0] for name in REGISTRY}, proc.stderr


# ---------------------------------------------------------------------------
# failure exit codes


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", n_list=[2])
    assert main(["run", cfg]) == 2
    assert "n_list" in capsys.readouterr().err
    # no experiment draws random numbers, so there is no seed field
    cfg = write_config(tmp_path, "seed.json", experiment="convergence", N_list=[1],
                       cutoff=40, seed=0)
    assert main(["run", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
    assert "unknown config field(s): seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, value", [
    ("b_list", [math.nan]),
    ("alpha_list", [math.inf]),
    ("r_list", [0.1, -math.inf]),
    ("tail_tol", math.nan),
    ("eff_re", math.inf),
    ("input_beta_mag", 10 ** 400),  # an integer literal beyond the double range
], ids=["b_list-nan", "alpha_list-inf", "r_list-minus_inf", "tail_tol-nan", "eff_re-inf",
        "input_beta_mag-huge_int"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, field, value):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="attack", cutoff=20, **{field: value})
    assert main(argv(command, cfg, out)) == 2
    assert f"field '{field}" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on integer string length")
@pytest.mark.parametrize("command", ["validate", "run"])
def test_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text('{"experiment": "attack", "cutoff": ' + "1" * 5000 + "}",
                    encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_wrong_type_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", cutoff="big")
    assert main(["run", cfg]) == 2
    assert "cutoff" in capsys.readouterr().err


def test_run_invalid_grid_exits_2(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence", N_list=[])
    assert main(["run", cfg, "--out", out]) == 2
    assert "N_list" in capsys.readouterr().err


def test_run_without_output_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40)
    for flags in ([], ["--out", ""]):
        assert main(["run", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert "no output path; pass --out PATH" in err
        assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("workers", ["0", "-1", "x", "1.5"])
def test_workers_below_one_or_not_an_integer_exit_2(tmp_path, capsys, workers):
    # argparse's usage error: exit 2 before the config is read
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40)
    with pytest.raises(SystemExit) as stop:
        main(["run", cfg, "--out", str(tmp_path / "rows.csv"), "--workers", workers])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --workers: must be an integer >= 1, got '{workers}'" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, value", [("out", "rows.csv"), ("format", "csv"),
                                          ("workers", 2)])
def test_run_settings_in_the_config_exit_2(tmp_path, capsys, command, field, value):
    # the output path, the format and the process count are not part of a sweep
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40,
                       **{field: value})
    assert main(argv(command, cfg, tmp_path / "rows.csv")) == 2
    err = capsys.readouterr().err
    assert f"config error: unknown config field(s): {field}" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_variance_uses_the_config_tail_tol(tmp_path):
    # the squeezed vacuum loses ~4.8e-6 at cutoff 24: inside tail_tol, so it must run
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="nongauss_variance", r_list=[0.8],
                       beta_mag_list=[0.1], cutoff=24, tail_tol=1e-5)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    assert [row[0] for row in rows] == ["squeezed_vacuum", "even_coherent"]


def test_tail_mass_violation_exits_3(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[3.0], cutoff=12)
    assert main(["run", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "tail-mass violation" in err
    assert "b=3.0" in err  # the offending grid point is named


def test_failing_attack_config_names_the_first_failing_alpha_of_the_first_failing_task(
        tmp_path, capsys):
    # tasks run in (r, phi) order, each over every alpha: r = 0 fails at alpha = 4
    # (a coherent row that loses 0.13 at cutoff 20) before r = 1.5 is reached,
    # although alpha = 1, r = 1.5 comes first in the row order
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="attack", alpha_list=[1.0, 4.0],
                       r_list=[0.0, 1.5], cutoff=20)
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "tail mass 1.318e-01" in err
    assert "for squeezed coherent r=0.0, phi=0.0, alpha=(4+0j)" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, what", [
    ("convergence", "mixture N=2, b=2.0, worst key p=1, q=1"),
    ("nongauss_overlap", "even coherent state |beta|=0.25"),
], ids=["convergence", "nongauss_overlap"])
def test_nan_amplitudes_exit_3(monkeypatch, tmp_path, capsys, experiment, what):
    # a NaN row has a NaN tail, which the one tail check fails on every path
    real = fock.coherent_amplitudes
    for module in (fock, channel, nongauss):
        monkeypatch.setattr(module, "coherent_amplitudes",
                            lambda alpha, cutoff: real(alpha, cutoff) * math.nan)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment=experiment, cutoff=30)
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"tail mass nan exceeds tolerance 1.000e-08 for {what}" in err
    assert not out.exists()


@pytest.mark.parametrize("fields, what", [
    ({"experiment": "squeezed_convergence", "b_list": [2.0], "N_list": [16],
      "r_list": [1.5], "cutoff": 59}, "tail mass 5.878e-01"),
    ({"experiment": "attack", "r_list": [1000.0], "cutoff": 20}, "tail mass 1.000e+00"),
    # b = 0.1 keeps the disk target inside cutoff 5, so the squeezer is what fails
    ({"experiment": "squeezed_convergence", "b_list": [0.1], "r_list": [800.0],
      "N_list": [1], "cutoff": 5}, "tail mass 1.000e+00"),
], ids=["squeezed_convergence-r1.5", "attack-r1000", "squeezed_convergence-r800"])
def test_squeezing_past_the_cutoff_exits_3(tmp_path, capsys, fields, what):
    # the squeezer's exact elements let the tail checks see the mass pushed past n_max
    cfg = write_config(tmp_path, **fields)
    assert main(["run", cfg, "--out", str(tmp_path / "rows.csv")]) == 3
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("fields, code", [
    # b^2 overflows: a validate problem, or the disk target would lose all its mass (exit 3)
    ({"experiment": "convergence", "b_list": [1e160], "N_list": [1], "cutoff": 5}, 2),
    ({"experiment": "attack", "alpha_list": [1e160], "cutoff": 5}, 3),  # an all-zero row
    ({"experiment": "conformation", "r_list": [1000.0], "N_list": [2]}, 2),
    ({"experiment": "squeezed_convergence", "r_list": [800.0], "N_list": [1]},
     2),  # the default-cutoff scale b e^r
], ids=["heuristic_cutoff-b", "coherent_amplitudes-alpha", "vacuum_weight-cosh_r",
        "heuristic_cutoff-e_r"])
def test_overflowing_values_exit_without_traceback(tmp_path, capsys, fields, code):
    cfg = write_config(tmp_path, **fields)
    assert main(["run", cfg, "--out", str(tmp_path / "rows.csv")]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fields", [
    # a tail of 1 passed a tolerance of 2, and the run divided by a zero norm
    {"experiment": "displacement_bs", "tail_tol": 2.0, "cutoff": 3, "eff_re": 40.0,
     "T_list": [1.0], "input_kind": "vacuum"},
    # the all-zero row of alpha = 1e160 passed, and eigh met its NaN state
    {"experiment": "attack", "tail_tol": 2.0, "cutoff": 3, "alpha_list": [1e160]},
    {"experiment": "mmstate", "tail_tol": 1.0},
], ids=["displacement_bs-ZeroDivisionError", "attack-LinAlgError", "mmstate-one"])
def test_tail_tol_of_one_or_more_is_a_config_problem(tmp_path, capsys, command, fields):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, **fields)
    assert main(argv(command, cfg, out)) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "tail_tol must lie in (0, 1)" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_input_beta_mag_is_a_config_problem(tmp_path, capsys, command):
    cfg = write_config(tmp_path, experiment="displacement_bs", input_beta_mag=-1.0,
                       T_list=[0.5], cutoff=20)
    assert main(argv(command, cfg, tmp_path / "rows.csv")) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "input_beta_mag must be >= 0" in captured.out + captured.err


def test_displacement_bs_target_tail_exits_3(tmp_path, capsys):
    # D(2.5)|+-2.5> reaches amplitude 5 and loses 6.8e-2 at cutoff 30
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="displacement_bs", input_beta_mag=2.5,
                       eff_re=2.5, T_list=[1.0], cutoff=30)
    assert main(["run", cfg, "--out", out]) == 3
    assert "displaced target" in capsys.readouterr().err


def test_b_whose_square_underflows_exits_2(tmp_path, capsys):
    # b^2 = 0 would make every disk-uniform weight 0/0
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="mmstate", b_list=[1e-200])
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "b^2 does not underflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_p_beyond_every_ring_count_is_a_config_problem(tmp_path, capsys, command):
    # ring p exists only for N >= p, so p = 5 at N = 2 would write a header and no rows
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="conformation", N_list=[2], p_list=[5])
    assert main(argv(command, cfg, out)) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "p_list entry 5 exceeds every N" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_empty_p_list_is_a_config_problem(tmp_path, capsys, command):
    # an empty p_list selects no ring, so the run would write a header and no rows
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="conformation", N_list=[4], p_list=[])
    assert main(argv(command, cfg, out)) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "p_list must not be empty" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fields, unread", [
    ({"experiment": "convergence", "N_list": [2], "p_list": [3], "cutoff": 30}, "p_list"),
    ({"experiment": "mmstate", "eff_re": 0.5, "input_kind": "vacuum"},
     "eff_re, input_kind"),
], ids=["convergence-p_list", "mmstate-displacement_bs_fields"])
def test_field_the_experiment_does_not_read_exits_2(tmp_path, capsys, command, fields,
                                                    unread):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, **fields)
    assert main(argv(command, cfg, out)) == 2
    assert f"does not read field(s): {unread}" in capsys.readouterr().err
    assert not out.exists()


def test_every_experiment_accepts_its_grids_reads_and_the_run_fields():
    defaults = ExperimentConfig("").to_dict()
    for name, exp in REGISTRY.items():
        accepted = set(exp.grids) | set(exp.reads) | RUN_FIELDS
        doc = {f: defaults[f] for f in accepted if defaults[f] is not None}
        assert config_from_dict(dict(doc, experiment=name)).experiment == name
        for field in set(defaults) - accepted:
            with pytest.raises(ConfigError, match=field):
                config_from_dict({"experiment": name, field: defaults[field]})


def test_unwritable_output_exits_4(tmp_path, capsys):
    out = str(tmp_path / "no_such_dir" / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=40)
    assert main(["run", cfg, "--out", out]) == 4
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzed configs: every JSON document ends in an exit code, never a traceback

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}), st.just([]))
_NASTY = st.one_of(
    st.floats(),  # NaN, +-inf, huge, subnormal and negative values included
    st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-200, 1e300, 10 ** 400]),
)
_SMALL_INT = st.integers(-3, 0)  # no large integers where they set a size


def _well_typed(name):
    """A value of the field's own type, in a range where a run is cheap."""
    if name == "experiment":
        return st.sampled_from(sorted(REGISTRY))
    if name == "cutoff":
        return st.integers(1, 30)
    if name in ("N_list", "p_list"):
        return st.lists(st.integers(1, 8), min_size=1, max_size=3)
    if name == "T_list":
        return st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3)
    if name.endswith("_list"):
        return st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)
    if name == "tail_tol":  # 1 and above are config problems: draw them often
        return st.one_of(st.floats(0.0, 3.0), st.sampled_from([1.0, 2.0]))
    if name == "input_kind":
        return st.sampled_from(["vacuum", "even_coherent"])
    return st.floats(0.0, 3.0)


def _ill_formed(name):
    """Wrong types, non-finite, huge, tiny, negative and empty values.  The cutoff
    is never null, which would take the default, nor N or p large: both set the
    size of a run."""
    if name == "cutoff":
        return st.one_of(_SMALL_INT, st.floats(), st.booleans(), st.text(max_size=3))
    if name in ("N_list", "p_list"):
        number = st.one_of(_SMALL_INT, st.floats())
    else:
        number = st.one_of(_NASTY, st.integers(-3, 3))
    return st.one_of(number, _JUNK, st.lists(st.one_of(number, _JUNK), max_size=3))


def _field(name):
    """Ill formed one time in eight, so that many configs pass validation and run.

    Here and below, the rare branch is the top value of the drawn integer:
    hypothesis draws 0, its simplest value, far more often than its share."""
    return st.integers(0, 7).flatmap(
        lambda k: _ill_formed(name) if k == 7 else _well_typed(name))


# the cutoff is always present, so it is drawn apart from the other fields
_UNFUZZED = ("cutoff",)
_FUZZED_FIELDS = sorted(f for f in ExperimentConfig.__dataclass_fields__ if f not in _UNFUZZED)


def _fields_read_by(experiment):
    """The grids, reads and run fields of a registered experiment, but not the
    experiment itself, or every field."""
    exp = REGISTRY.get(experiment) if isinstance(experiment, str) else None
    if exp is None:
        return _FUZZED_FIELDS
    return sorted((set(exp.grids) | set(exp.reads) | RUN_FIELDS) - {"experiment", *_UNFUZZED})


@st.composite
def _config_docs(draw):
    """Fields the experiment reads seven times in eight, so that most configs
    run; any field otherwise, so that unread fields exit 2."""
    doc = {"experiment": draw(_field("experiment")), "cutoff": draw(_field("cutoff"))}
    names = _FUZZED_FIELDS if draw(st.integers(0, 7)) == 7 else _fields_read_by(doc["experiment"])
    for name in draw(st.lists(st.sampled_from(names), max_size=5, unique=True)):
        doc[name] = draw(_field(name))
    if draw(st.integers(0, 9)) == 9:
        del doc["experiment"]  # a missing required field
    if draw(st.integers(0, 9)) == 9:
        # unknown, the run settings that are flags among them
        doc[draw(st.sampled_from(["seed", "n_list", "b", "out", "format", "workers"]))] = \
            draw(_NASTY)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.integers(0, 9).flatmap(lambda k: st.one_of(_NASTY, _JUNK) if k == 9
                                     else _config_docs()))
def test_fuzzed_configs_end_in_an_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        out = os.path.join(tmp, "rows.out")
        assert main(["validate", path]) in (0, 2)
        rc = main(["run", path, "--out", out])
        assert rc in (0, 2, 3, 4)
        assert os.path.exists(out) == (rc == 0)


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    # the child imports the same package the tests do, installed or not
    src = os.path.dirname(os.path.dirname(cvpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cvpqc.cli", "validate", "/nonexistent.json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
