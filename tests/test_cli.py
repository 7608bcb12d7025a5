"""Command-line surface: validation reports, sweeps, formats, exit codes."""
import csv
import json
import math
import os
import subprocess
import sys

import pytest

import cvpqc
from cvpqc import experiments
from cvpqc.channel import maximally_mixed
from cvpqc.cli import main
from cvpqc.config import config_from_dict, validate
from cvpqc.experiments import REGISTRY, execute, resolve_cutoff
from cvpqc.fock import FockCutoff, hs_distance, vacuum


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


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
    assert "19871" in out     # beam-splitter block entries (2*31^3 + 31)/3
    assert "config valid" in out
    # the attack benchmark cutoff: (2*101^3 + 101)/3 entries of 16 bytes
    cfg = write_config(tmp_path, experiment="attack", cutoff=100)
    assert main(["validate", cfg]) == 0
    assert "holds 686901 complex block entries (~11.0 MB)" in capsys.readouterr().out
    # displacement_bs stays in one mode: a d x d density matrix
    cfg = write_config(tmp_path, experiment="displacement_bs", cutoff=98)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "9801 complex entries" in out
    assert "two-mode" not in out


def test_validate_flags_empty_grid_but_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", N_list=[])
    assert main(["validate", cfg]) == 0  # report-only dry run
    out = capsys.readouterr().out
    assert "N_list" in out
    assert "config INVALID" in out


def test_validate_warns_on_low_cutoff(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence",
                       b_list=[3.0], cutoff=10)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "below the heuristic minimum" in out


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
    ({"experiment": "convergence", "b_list": [2.0]}, 59, "heuristic default"),
    # displacement_bs: scale |eff| + |beta|, the largest amplitude a truncated vector holds
    ({"experiment": "displacement_bs"}, 35, "heuristic default"),
    ({"experiment": "displacement_bs", "eff_re": 0.0, "eff_im": 0.0}, 25, "heuristic default"),
    ({"experiment": "displacement_bs", "input_kind": "vacuum"}, 7, "heuristic default"),
    ({"experiment": "mmstate"}, 59, "heuristic default"),
    ({"experiment": "attack", "cutoff": 60}, 60, "explicit"),
], ids=["attack", "nongauss_overlap", "nongauss_variance", "convergence-b2",
        "displacement_bs", "displacement_bs-no_ancilla", "displacement_bs-vacuum", "mmstate",
        "attack-explicit"])
def test_default_cutoffs(doc, n_max, how):
    cfg = config_from_dict(doc)
    assert resolve_cutoff(cfg) == n_max
    assert f"cutoff n_max = {n_max} ({how})" in validate(cfg).info


def test_displacement_bs_benchmark_cutoff_draws_no_warning():
    # the benchmark's displacement_bs_paper config: every truncated amplitude is
    # at most |eff| + |beta| = 1.3, far inside cutoff 98
    rep = validate(config_from_dict({
        "experiment": "displacement_bs", "cutoff": 98, "eff_re": 0.3, "eff_im": 0.0,
        "input_kind": "even_coherent", "input_beta_mag": 1.0, "input_varphi": 0.0,
        "T_list": [0.5, 0.25, 0.1, 0.04, 0.01]}))
    assert rep.ok
    assert rep.warnings == []


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run subcommand: correctness of emitted data


def test_run_convergence_single_ring(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=59, out=out)
    assert main(["run", cfg]) == 0
    cols, rows = read_csv(out)
    assert cols[:5] == ["N", "b", "r", "phi", "cutoff"]
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    cut = FockCutoff(59)
    expect = hs_distance(maximally_mixed(2.0, cut),
                         vacuum(cut).density_operator())
    assert float(row["d_hs"]) == pytest.approx(expect, abs=1e-12)
    assert float(row["d_hs_times_Np1"]) == pytest.approx(2 * expect, abs=1e-12)
    assert "wrote 1 rows" in capsys.readouterr().out


def test_run_reruns_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    base = dict(experiment="convergence", N_list=[1, 2], b_list=[2.0], cutoff=40)
    cfg1 = write_config(tmp_path, "c1.json", out=out1, **base)
    cfg2 = write_config(tmp_path, "c2.json", out=out2, **base)
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_squeezed_convergence_at_zero_squeezing_matches_plain(tmp_path):
    out1 = str(tmp_path / "plain.csv")
    out2 = str(tmp_path / "squeezed.csv")
    cfg1 = write_config(tmp_path, "c1.json", experiment="convergence",
                        N_list=[1, 2], b_list=[2.0], cutoff=40, out=out1)
    cfg2 = write_config(tmp_path, "c2.json", experiment="squeezed_convergence",
                        N_list=[1, 2], b_list=[2.0], r_list=[0.0], cutoff=40, out=out2)
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_run_conformation_rows(tmp_path):
    out = str(tmp_path / "rings.csv")
    cfg = write_config(tmp_path, experiment="conformation",
                       N_list=[4], b_list=[2.0], r_list=[0.0, 0.3],
                       phi_list=[0.0], cutoff=59, out=out)
    assert main(["run", cfg]) == 0
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
                       b_list=[2.0], cutoff=59, out=out)
    assert main(["run", cfg]) == 0
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
                       N_list=[1], b_list=[2.0], cutoff=59, out=out)
    assert main(["run", cfg]) == 0
    cols, rows = read_csv(out)
    row = dict(zip(cols, rows[0]))
    cut = FockCutoff(59)
    expect = hs_distance(maximally_mixed(2.0, cut),
                         vacuum(cut).density_operator())
    # 17 significant digits reproduce the double bit-for-bit
    assert float(row["d_hs"]) == expect


# ---------------------------------------------------------------------------
# formats and sidecar


def test_json_format_matches_csv_content(tmp_path):
    out_c = str(tmp_path / "rows.csv")
    out_j = str(tmp_path / "rows.json")
    base = dict(experiment="convergence", N_list=[1], b_list=[2.0], cutoff=40)
    cfg_c = write_config(tmp_path, "c.json", out=out_c, **base)
    cfg_j = write_config(tmp_path, "j.json", out=out_j, format="json", **base)
    assert main(["run", cfg_c]) == 0
    assert main(["run", cfg_j]) == 0
    cols, rows = read_csv(out_c)
    with open(out_j, encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["columns"] == cols
    assert len(doc["rows"]) == len(rows)
    for jrow, crow in zip(doc["rows"], rows):
        for jval, cval in zip(jrow, crow):
            if isinstance(jval, float):
                assert jval == float(cval)


def test_sidecar_records_run(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1, 2], b_list=[2.0], cutoff=40, out=out)
    assert main(["run", cfg]) == 0
    with open(out + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    assert meta["row_count"] == 2
    assert meta["config"]["experiment"] == "convergence"
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


def test_cli_overrides_reach_sidecar(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=40)
    assert main(["run", cfg, "--out", out, "--format", "json"]) == 0
    with open(out + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    assert meta["config"]["format"] == "json"
    assert meta["config"]["out"] == out


# ---------------------------------------------------------------------------
# parallel execution


def test_workers_do_not_change_output(tmp_path):
    base = dict(experiment="attack", alpha_list=[0.5, 1.0], r_list=[0.0, 0.3],
                phi_list=[0.0], cutoff=25)
    out1 = str(tmp_path / "serial.csv")
    out2 = str(tmp_path / "parallel.csv")
    cfg1 = write_config(tmp_path, "s.json", out=out1, workers=1, **base)
    cfg2 = write_config(tmp_path, "p.json", out=out2, workers=2, **base)
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
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
    (5000, 64, 4),       # one process per grid point
    (3, 64, 3),
    (5000, None, None),  # unknown CPU count: serial
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    cfg = config_from_dict(dict(experiment="convergence", N_list=[1, 2, 3, 4],
                                b_list=[2.0], cutoff=30))
    assert execute(cfg, workers=workers) == execute(cfg, workers=1)
    assert _SerialPool.sizes == ([] if expected is None else [expected])


# ---------------------------------------------------------------------------
# BLAS thread pin

_THREAD_PROBE = r"""
import ctypes, glob, json, os, sys
import cvpqc
numpy_with_package = "numpy" in sys.modules
import cvpqc.cli
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
print(json.dumps({"numpy_with_package": numpy_with_package, "threads": threads}))
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
                       cutoff=40, out=str(tmp_path / "rows.csv"), seed=0)
    assert main(["run", cfg]) == 2
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
    cfg = write_config(tmp_path, experiment="attack", cutoff=20, out=out, **{field: value})
    assert main([command, cfg]) == 2
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
    cfg = write_config(tmp_path, experiment="convergence", N_list=[], out=out)
    assert main(["run", cfg]) == 2
    assert "N_list" in capsys.readouterr().err


def test_run_without_output_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40)
    assert main(["run", cfg]) == 2
    assert "output path" in capsys.readouterr().err


def test_variance_uses_the_config_tail_tol(tmp_path):
    # the squeezed vacuum loses ~4.8e-6 at cutoff 24: inside tail_tol, so it must run
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="nongauss_variance", r_list=[0.8],
                       beta_mag_list=[0.1], cutoff=24, tail_tol=1e-5, out=out)
    assert main(["run", cfg]) == 0
    cols, rows = read_csv(out)
    assert [row[0] for row in rows] == ["squeezed_vacuum", "even_coherent"]


def test_tail_mass_violation_exits_3(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[3.0], cutoff=12, out=out)
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "tail-mass violation" in err
    assert "b=3.0" in err  # the offending grid point is named


@pytest.mark.parametrize("fields, what", [
    ({"experiment": "squeezed_convergence", "b_list": [2.0], "N_list": [16],
      "r_list": [1.5], "cutoff": 59}, "tail mass 5.878e-01"),
    ({"experiment": "attack", "r_list": [1000.0], "cutoff": 20}, "tail mass 1.000e+00"),
], ids=["squeezed_convergence-r1.5", "attack-r1000"])
def test_squeezing_past_the_cutoff_exits_3(tmp_path, capsys, fields, what):
    # the squeezer's exact elements let the tail checks see the mass pushed past n_max
    cfg = write_config(tmp_path, out=str(tmp_path / "rows.csv"), **fields)
    assert main(["run", cfg]) == 3
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("fields, code", [
    ({"experiment": "convergence", "b_list": [1e160], "N_list": [1], "cutoff": 5}, 2),
    ({"experiment": "attack", "alpha_list": [1e160], "cutoff": 5}, 3),  # an all-zero row
    ({"experiment": "conformation", "r_list": [1000.0], "N_list": [2]}, 2),
], ids=["heuristic_cutoff-b", "coherent_amplitudes-alpha", "vacuum_weight-cosh_r"])
def test_overflowing_values_exit_without_traceback(tmp_path, capsys, fields, code):
    cfg = write_config(tmp_path, out=str(tmp_path / "rows.csv"), **fields)
    assert main(["run", cfg]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_input_beta_mag_is_a_config_problem(tmp_path, capsys, command):
    cfg = write_config(tmp_path, experiment="displacement_bs", input_beta_mag=-1.0,
                       T_list=[0.5], cutoff=20, out=str(tmp_path / "rows.csv"))
    assert main([command, cfg]) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert "input_beta_mag must be >= 0" in captured.out + captured.err


def test_displacement_bs_target_tail_exits_3(tmp_path, capsys):
    # D(2.5)|+-2.5> reaches amplitude 5 and loses 6.8e-2 at cutoff 30
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="displacement_bs", input_beta_mag=2.5,
                       eff_re=2.5, T_list=[1.0], cutoff=30, out=out)
    assert main(["run", cfg]) == 3
    assert "displaced target" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    out = str(tmp_path / "no_such_dir" / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=40, out=out)
    assert main(["run", cfg]) == 4
    assert "i/o error" in capsys.readouterr().err


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
