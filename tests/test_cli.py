"""Command-line surface: validation reports, sweeps, flags, the sidecar, exit codes."""
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cvpqc
from cvpqc import attack, channel, fock, nongauss
from cvpqc.cli import _cell, main
from cvpqc.config import RUN_FIELDS, ConfigError, ExperimentConfig, config_from_dict, validate
from cvpqc.experiments import REGISTRY, execute, resolve_cutoff
from cvpqc.fock import FockCutoff, hs_distance
from oracles import (disk_state, even_variance_stable, k_factor_stable, overlap_stable,
                     projector, squeezed_vacuum_variance_stable, vacuum)


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
    # beam-splitter block entries 31 * 32 * 63 / 6, real, two to a complex entry
    assert ("5208 complex entries (~0.083 MB): the beam splitter's blocks, "
            "10416 real entries (8 bytes each)") in out
    assert "config valid" in out
    # the attack benchmark cutoff: 101 * 102 * 203 / 6 entries of 8 bytes
    cfg = write_config(tmp_path, experiment="attack", cutoff=100)
    assert main(["validate", cfg]) == 0
    assert ("174276 complex entries (~2.788 MB): the beam splitter's blocks, "
            "348551 real entries") in capsys.readouterr().out
    # displacement_bs stays in one mode: d x d density matrices
    cfg = write_config(tmp_path, experiment="displacement_bs", cutoff=98)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "6 d x d matrices, d = 99 (9801 entries each)" in out
    assert "two-mode" not in out
    # a convergence task holds its M x d key rows, M = N(N+1)/2 at the largest N, and
    # the plain mixture's real stack [Re; Im] beside them: 3.62 MB under tracemalloc
    # with the mixture at N = 32, cutoff 195
    cfg = write_config(tmp_path, experiment="convergence", b_list=[5.0], cutoff=195)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert ("206976 complex entries (~3.312 MB): the key-row stack at N = 32 "
            "(103488 entries) and the plain mixture's real stack") in out
    # plus 6 d x d matrices, 20 entries a key and the Python objects
    assert "the run peaks at about 7.2 MB" in out
    assert "squeezers" not in out
    # a squeezed_convergence task is one b and holds the squeezer of each of its
    # distinct squeezings with r > 0 side by side: here (0.1, 0), (0.1, 1), (0.3, 0), (0.3, 1)
    cfg = write_config(tmp_path, experiment="squeezed_convergence", b_list=[5.0], cutoff=195,
                       r_list=[0.0, 0.1, 0.3, 0.1], phi_list=[0.0, 1.0])
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "153664 complex entries (~2.459 MB): 4 squeezers S(xi) side by side" in out
    # and the Python objects: the run's 4 x 2 x 5 rows of 64 + 40 x 9 bytes each, a
    # b and 4 x 2 (r, phi) keyed values, and 16 KB
    assert ("2372 complex entries (~0.038 MB): Python objects: 40 rows of 424 bytes, "
            "9 keyed values of 512 bytes and 16 KB") in out
    assert "the run peaks at about 9.7 MB" in out
    # conformation's rows are closed forms: no cutoff term
    cfg = write_config(tmp_path, experiment="conformation", cutoff=100000)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "d x d" not in out
    # 3 + 10 + 36 + 136 + 528 rows of 64 + 40 x 11 bytes each, and 16 KB
    assert ("23484 complex entries (~0.376 MB): Python objects: 713 rows of 504 bytes, "
            "0 keyed values") in out
    assert "config valid" in out


@pytest.mark.parametrize("physical, ok", [(375744, True), (375743, False)],
                         ids=["at_the_bound", "a_byte_short"])
def test_conformation_rows_are_bounded_by_physical_memory(monkeypatch, tmp_path, physical, ok):
    # the default grids give 713 rows, at 504 bytes a row, and 16 KB for the
    # interpreter: 375736 bytes, rounded up to whole complex entries of 16 bytes
    monkeypatch.setattr("cvpqc.config._physical_bytes", lambda: physical)
    rep = validate(config_from_dict({"experiment": "conformation"}))
    assert rep.ok == ok


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fields, says", [
    ({"experiment": "convergence", "cutoff": 10 ** 10}, "MB of physical memory"),
    # default cutoff 1268983
    ({"experiment": "convergence", "b_list": [1000.0]}, "MB of physical memory"),
    # the key stack
    ({"experiment": "convergence", "N_list": [1000000], "cutoff": 20}, "MB of physical memory"),
    # the splitter's d (d+1) (2d+1) / 6 entries
    ({"experiment": "attack", "cutoff": 100000}, "MB of physical memory"),
    # 5e11 closed-form rows
    ({"experiment": "conformation", "N_list": [1000000]}, "MB of physical memory"),
    # peaks past the float range, which validate prints in integers: a default
    # cutoff near 1e200, an explicit one of 161 digits and 5e319 rows
    ({"experiment": "mmstate", "b_list": [1e100]}, "MB of physical memory"),
    ({"experiment": "convergence", "b_list": [1e100]}, "MB of physical memory"),
    ({"experiment": "attack", "cutoff": 10 ** 160}, "MB of physical memory"),
    ({"experiment": "conformation", "N_list": [10 ** 160]}, "MB of physical memory"),
    # counts past the 4300 digits str prints of an int
    ({"experiment": "attack", "cutoff": 10 ** 2500}, "too long to print"),
    ({"experiment": "conformation", "N_list": [10 ** 4000]}, "too long to print"),
], ids=["cutoff", "default_cutoff", "key_stack", "two_mode", "rows", "mmstate_1e100",
        "convergence_1e100", "cutoff_161_digits", "rows_5e319", "cutoff_2501_digits",
        "rows_8000_digits"])
def test_task_beyond_physical_memory_is_a_config_problem(monkeypatch, tmp_path, capsys,
                                                         command, fields, says):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr("cvpqc.cli.execute", refuse)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, **fields)
    assert main(argv(command, cfg, out)) == (0 if command == "validate" else 2)
    captured = capsys.readouterr()
    assert says in captured.out + captured.err
    assert not out.exists()


def test_validate_prints_a_peak_past_the_float_range(monkeypatch):
    # where the platform gives no physical memory nothing is capped, and the
    # report prints a peak of about d^3 / 3 = 3e479 entries
    monkeypatch.setattr("cvpqc.config._physical_bytes", lambda: 0)
    rep = validate(config_from_dict({"experiment": "attack", "cutoff": 10 ** 160}))
    assert rep.ok
    peak = re.search(r"peaks at about (\d+)\.\d MB \((\d+) complex entries\)",
                     "\n".join(rep.info))
    assert int(peak.group(1)) == 16 * int(peak.group(2)) // 10 ** 6 > 10 ** 474


@pytest.mark.parametrize("n_max", [1, 30, 100])
def test_validate_counts_the_block_entries_of_the_gate(n_max):
    rep = validate(config_from_dict({"experiment": "attack", "cutoff": n_max}))
    count = re.search(r"(\d+) complex entries \(~[0-9.]+ MB\): the beam splitter's blocks",
                      "\n".join(rep.info))
    gate = fock.beam_splitter(math.pi / 4, FockCutoff(n_max))
    # real blocks, two of their 8-byte entries to a complex entry of 16 bytes
    assert all(blk.dtype == np.float64 for blk in gate.blocks)
    assert int(count.group(1)) == -(-sum(blk.size for blk in gate.blocks) // 2)


def _assert_validate_bounds_the_run(monkeypatch, cfg):
    """Run ``cfg`` as a run starts: the tracemalloc peak stays within the bound
    validate prints, the sum of the terms it prints."""
    tracemalloc.start()
    try:
        execute(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    info = "\n".join(validate(cfg).info)
    bound = re.search(r"peaks at about [0-9.]+ MB \((\d+) complex entries\)", info)
    assert int(bound.group(1)) == sum(map(int, re.findall(r"^  (\d+) complex entries", info,
                                                            flags=re.M)))
    # and where the run holds more than 1 MB, the bound stays within 4 times its peak
    assert peak <= 10 ** 6 or 16 * int(bound.group(1)) <= 4 * peak
    # a run whose bound exceeds physical memory is a problem: the bound covers
    # the measured peak if it exceeds a byte less
    monkeypatch.setattr("cvpqc.config._physical_bytes", lambda: peak - 1)
    assert any("MB of physical memory" in p for p in validate(cfg).problems)


# A config per experiment whose run holds every term its memory lists at once.
# The loose tail_tol lets each run at cutoff 1; it changes no allocation.
_BOUND_CONFIGS = {
    "mmstate": {},
    "conformation": {"r_list": [0.3]},
    "convergence": {"N_list": [2, 8, 31, 32]},
    "squeezed_convergence": {"b_list": [1.0], "N_list": [1, 7, 8],
                             "r_list": [0.1, 0.3], "phi_list": [0.0, 1.0]},
    "attack": {"r_list": [0.3], "phi_list": [0.5],
               "alpha_list": np.linspace(0.1, 1.0, 16).tolist()},
    "nongauss_overlap": {"r_list": [0.3]},
    "nongauss_variance": {"r_list": [0.3]},
    "displacement_bs": {},
}


@pytest.mark.parametrize("experiment, size", [
    (name, size) for name in REGISTRY
    for size in ([1, 2, 8, 32] if name == "conformation" else [1, 10, 20, 40, 100])])
def test_validate_bounds_the_peak_of_a_task(monkeypatch, experiment, size):
    # size is the cutoff, or N for conformation, whose rows ignore the cutoff
    doc = dict(_BOUND_CONFIGS[experiment], experiment=experiment, tail_tol=0.99)
    doc.update({"N_list": [size]} if experiment == "conformation" else {"cutoff": size})
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(doc))


@pytest.mark.parametrize("n_alpha", [1, 4, 64])
@pytest.mark.parametrize("n_max", [1, 10, 20, 30, 60, 100])
def test_validate_bounds_the_peak_of_an_attack_task(monkeypatch, n_max, n_alpha):
    # the input and target stacks of up to 64 alphas
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(
        {"experiment": "attack", "cutoff": n_max, "r_list": [0.3], "phi_list": [0.5],
         "tail_tol": 0.5, "alpha_list": np.linspace(0.1, 1.0, n_alpha).tolist()}))


@pytest.mark.parametrize("n_max", [1, 10, 20, 40, 60, 100])
def test_validate_bounds_the_peak_of_an_attack_task_over_several_squeezings(monkeypatch,
                                                                            n_max):
    # an attack run taps 64 alphas at each of 6 squeezings, one
    # squeezing at a time, and holds every tap's tuples until its rows are laid out
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(
        {"experiment": "attack", "cutoff": n_max, "r_list": [0.0, 0.3, 0.6],
         "phi_list": [0.5, 1.0], "tail_tol": 0.99,
         "alpha_list": np.linspace(0.1, 1.0, 64).tolist()}))


@pytest.mark.parametrize("experiment", ["convergence", "squeezed_convergence"])
@pytest.mark.parametrize("b, n_max, N_list", [
    (0.5, 1, [1, 2]),
    (1.0, 10, [1, 3]),
    (2.0, 60, [1, 2, 4, 8]),
    (5.0, 195, [2, 4, 8, 16, 32]),
], ids=["cutoff1", "cutoff10", "paper", "large"])
def test_validate_bounds_the_peak_of_a_convergence_task(monkeypatch, experiment, b, n_max,
                                                        N_list):
    # the key rows of N up to 32 at cutoff 195 and, for squeezed_convergence, the
    # squeezers of four squeezings
    doc = {"experiment": experiment, "b_list": [b], "cutoff": n_max, "N_list": N_list,
           "tail_tol": 0.5}
    if experiment == "squeezed_convergence":
        doc.update(r_list=[0.1, 0.3], phi_list=[0.0, 1.0])
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(doc))


def _spread(n, lo=0.1, hi=0.9):
    return np.linspace(lo, hi, n).tolist()


# A config per experiment whose rows outweigh its states: execute holds
# every row until the CSV is written.  mmstate's is 2000 b at cutoff 100, whose
# 202000 rows peak at 26.3 MB under tracemalloc.
_LONG_RUNS = {
    "mmstate": {"cutoff": 100, "b_list": _spread(2000, 0.5, 2.0)},
    "conformation": {"N_list": [32], "b_list": _spread(10), "r_list": [0.3]},
    "convergence": {"cutoff": 5, "b_list": _spread(10), "N_list": [1, 2] * 100},
    "squeezed_convergence": {"cutoff": 5, "b_list": _spread(4), "N_list": [1, 2] * 10,
                             "r_list": _spread(5, 0.0, 0.3), "phi_list": [0.0, 1.0]},
    "attack": {"cutoff": 5, "alpha_list": _spread(1000), "r_list": [0.0, 0.3],
               "phi_list": [0.0, 1.0]},
    "nongauss_overlap": {"cutoff": 10, "r_list": _spread(4), "phi_list": _spread(5),
                         "beta_mag_list": _spread(10), "varphi_list": _spread(10)},
    "nongauss_variance": {"cutoff": 10, "r_list": _spread(4), "phi_list": _spread(5),
                          "beta_mag_list": _spread(4), "varphi_list": _spread(5),
                          "theta_list": _spread(100)},
    "displacement_bs": {"cutoff": 5, "T_list": _spread(2000, 0.05, 1.0)},
}


@pytest.mark.parametrize("experiment", list(REGISTRY))
def test_validate_bounds_the_rows_of_a_long_run(monkeypatch, experiment):
    doc = dict(_LONG_RUNS[experiment], experiment=experiment, tail_tol=0.5)
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(doc))


# One grid at 400 distinct values: each adds rows and, where a compute keys its
# states by it, a keyed value.  The other grids keep their defaults but N_list,
# which is [1]: the default's key rows would make each point a sweep of its own.
@pytest.mark.parametrize("n_max", [1, 10])
@pytest.mark.parametrize("experiment, grid", [
    (name, grid) for name, exp in REGISTRY.items() for grid in exp.grids if grid != "N_list"])
def test_validate_bounds_a_run_over_many_distinct_values(monkeypatch, experiment, grid, n_max):
    doc = {"experiment": experiment, "cutoff": n_max, "tail_tol": 0.99, grid: _spread(400)}
    if "N_list" in REGISTRY[experiment].grids:
        doc["N_list"] = [1]
    if experiment == "squeezed_convergence":
        doc.setdefault("r_list", [0.1])
    _assert_validate_bounds_the_run(monkeypatch, config_from_dict(doc))


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
    ({"experiment": "conformation", "r_list": [1.0]}, 1, "default"),
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
    expect = hs_distance(disk_state(2.0, cut),
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
    # -1e-20 + 2 pi rounds to 2 pi itself, which SqueezeParam wraps to 0.  Each
    # squeezing computes the rows of its wrapped angle, and each row prints phi
    # as configured, as every other experiment's grid columns do
    phis = [-1e-20, 0.0, -0.0, -1.0, 7.0]
    out, wrapped = str(tmp_path / "rows.csv"), str(tmp_path / "wrapped.csv")
    fields = dict(experiment="squeezed_convergence", N_list=[2], b_list=[1.0], r_list=[0.3],
                  cutoff=40)
    cfg = write_config(tmp_path, "rows.json", phi_list=phis, **fields)
    assert main(["run", cfg, "--out", out]) == 0
    cfg = write_config(tmp_path, "wrapped.json", phi_list=[fock.wrap_angle(p) for p in phis],
                       **fields)
    assert main(["run", cfg, "--out", wrapped]) == 0
    cols, rows = read_csv(out)
    first = cols.index("cutoff")
    assert [row[first:] for row in rows] == [row[first:] for row in read_csv(wrapped)[1]]
    assert rows[0][first:] == rows[1][first:] == rows[2][first:]
    assert [row[cols.index("phi")] for row in rows] == ["-9.9999999999999995e-21", "0", "-0",
                                                        "-1", "7"]


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
    assert [(int(rec["p"]), int(rec["q"])) for rec in recs[:10]] == \
        [(p, q) for p in range(1, 5) for q in range(1, p + 1)]


def test_conformation_vacuum_weight_is_computed_from_the_rows_own_cells(tmp_path):
    # e^{-r_p^2 K} / cosh r from the printed radius, k-factor and r, bit for bit
    out = str(tmp_path / "rings.csv")
    cfg = write_config(tmp_path, experiment="conformation", N_list=[3, 8], b_list=[2.0, 0.7],
                       r_list=[0.0, 0.4, 1.3], phi_list=[0.0, -1.0, 2.5])
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    assert len(rows) == 2 * 3 * 3 * (6 + 36)
    for row in rows:
        rec = dict(zip(cols, row))
        r_p, k, r = float(rec["r_p"]), float(rec["k_factor"]), float(rec["r"])
        assert rec["vacuum_weight"] == f"{math.exp(-r_p * r_p * k) / math.cosh(r):.17g}"


def test_conformation_vacuum_weight_is_the_squeezed_vacuum_amplitude(tmp_path):
    # |<0|S(xi) D(alpha)|0>|^2 from row 0 of the squeezer's recurrence, far from the
    # diagonal along which its rounding grows, and the coherent row
    out = str(tmp_path / "rings.csv")
    cfg = write_config(tmp_path, experiment="conformation", N_list=[6], b_list=[2.0],
                       r_list=[0.2, 0.7], phi_list=[0.0, 1.1, -2.0])
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    cut = FockCutoff(120)
    worst = 0.0
    for row in rows:
        rec = dict(zip(cols, row))
        xi = fock.SqueezeParam(float(rec["r"]), float(rec["phi"]))
        alpha = float(rec["r_p"]) * np.exp(1j * float(rec["theta_pq"]))
        amp = (fock.squeeze_operator(xi, cut, cut.dim)
               @ fock.coherent_amplitudes([alpha], cut)[0])[0]
        worst = max(worst, abs(float(rec["vacuum_weight"]) - abs(amp) ** 2))
    assert worst < 1e-12


@pytest.mark.parametrize("fields, n_rows", [
    ({"experiment": "nongauss_overlap", "r_list": [0.0, 0.1], "beta_mag_list": [0.25, 0.5]},
     4),
    ({"experiment": "nongauss_variance", "r_list": [0.1], "beta_mag_list": [0.25],
      "theta_list": [0.0, 1.0]}, 4),
    ({"experiment": "conformation", "N_list": [4, 16], "r_list": [0.0, 0.5],
      "phi_list": [0.0, -1.0]}, 4 * (10 + 136)),
], ids=["nongauss_overlap", "nongauss_variance", "conformation"])
def test_closed_form_rows_do_not_depend_on_the_cutoff(tmp_path, fields, n_rows):
    # the closed forms truncate nothing: at cutoff 1 and at cutoff 40 every
    # printed cell but the cutoff is the same
    cells = {}
    for n_max in (1, 40):
        out = tmp_path / f"{n_max}.csv"
        cfg = write_config(tmp_path, f"{n_max}.json", cutoff=n_max, **fields)
        assert main(["run", cfg, "--out", str(out)]) == 0
        cols, rows = read_csv(out)
        at = cols.index("cutoff")
        assert {row.pop(at) for row in rows} == {str(n_max)}
        cells[n_max] = rows
    assert len(cells[1]) == n_rows
    assert cells[1] == cells[40]


def test_run_mmstate_weights(tmp_path):
    # each b's mass prints the correctly rounded sum of the weights it prints
    out = str(tmp_path / "mm.csv")
    cfg = write_config(tmp_path, experiment="mmstate",
                       b_list=[2.0, 1.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    recs = [dict(zip(cols, r)) for r in rows]
    assert len(recs) == 120
    for b, disk in (("2", recs[:60]), ("1", recs[60:])):
        assert {rec["b"] for rec in disk} == {b}
        weights = [float(rec["weight"]) for rec in disk]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        assert all(x > y for x, y in zip(weights, weights[1:]))
        assert all(rec["mass"] == f"{math.fsum(weights):.17g}" for rec in disk)


def test_float_cells_round_trip_exactly(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence",
                       N_list=[1], b_list=[2.0], cutoff=59)
    assert main(["run", cfg, "--out", out]) == 0
    cols, rows = read_csv(out)
    row = dict(zip(cols, rows[0]))
    cut = FockCutoff(59)
    expect = hs_distance(disk_state(2.0, cut),
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


def test_sidecar_holds_no_run_setting(tmp_path):
    # --workers is accepted and ignored: the sidecar has no workers entry
    out = str(tmp_path / "rows.csv")
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], cutoff=40)
    assert main(["run", cfg, "--out", out, "--workers", "2"]) == 0
    with open(out + ".meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    assert "workers" not in meta
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
# the sweep


def _count_taps(monkeypatch):
    """Records the squeezings of each ``attack.attack`` call, one list a call,
    and counts the gates ``beam_splitter`` builds for the tap."""
    calls, gates, real_attack, real_gate = [], [], attack.attack, attack.beam_splitter
    monkeypatch.setattr(attack, "attack", lambda alphas, xis, *rest:
                        calls.append(list(xis)) or real_attack(alphas, xis, *rest))
    monkeypatch.setattr(attack, "beam_splitter",
                        lambda *args: gates.append(args) or real_gate(*args))
    return calls, gates


def test_repeated_r_phi_pair_runs_the_tap_once(monkeypatch):
    calls, gates = _count_taps(monkeypatch)
    cfg = config_from_dict({"experiment": "attack", "alpha_list": [0.5, 1.0],
                            "r_list": [0.3, 0.0, 0.3], "phi_list": [1.0, 1.0],
                            "cutoff": 20})
    _, rows = execute(cfg)
    assert len(rows) == 12
    # one tap call over both distinct squeezings, and one gate for both
    (xis,) = calls
    assert sorted((xi.r, xi.phi) for xi in xis) == [(0.0, 0.0), (0.3, 1.0)]
    assert len(gates) == 1
    # each alpha's rows: r = 0.3 twice, r = 0 twice, then r = 0.3 twice again
    for first in (0, 6):
        squeezed, coherent = rows[first], rows[first + 2]
        assert rows[first:first + 6] == [squeezed, squeezed, coherent, coherent,
                                         squeezed, squeezed]


_WRAPPED_TAP = {"experiment": "attack", "alpha_list": [0.5, -1.0, 0.5],
                "r_list": [0.3, 0.0, -0.0, 0.3], "phi_list": [0.0, 2.0 * math.pi, -0.0],
                "cutoff": 40}


def test_an_attack_run_taps_once_per_distinct_squeezing(monkeypatch, tmp_path):
    # r = 0 and -0, and phi = 0, 2 pi and -0, are one SqueezeParam each: the 12
    # (r, phi) pairs are 2 squeezers, so one tap call runs both for all 36 rows,
    # with one gate
    calls, gates = _count_taps(monkeypatch)
    out = tmp_path / "rows.csv"
    assert main(["run", write_config(tmp_path, **_WRAPPED_TAP), "--out", str(out)]) == 0
    assert calls == [[fock.SqueezeParam(0.3), fock.SqueezeParam(0.0)]]
    assert len(gates) == 1
    # alpha-major rows, each byte for byte the run of its own point; r and phi
    # print as configured, -0 included
    _, rows = read_csv(out)
    points = [(a, r, phi) for a in _WRAPPED_TAP["alpha_list"] for r in _WRAPPED_TAP["r_list"]
              for phi in _WRAPPED_TAP["phi_list"]]
    assert len(rows) == len(points) == 36
    assert [row[3:5] for row in rows[:12]] == [[_cell(r), _cell(phi)]
                                               for _, r, phi in points[:12]]
    assert rows[6][3:5] == ["-0", "0"] and rows[8][3:5] == ["-0", "-0"]
    for row, (a, r, phi) in zip(rows, points):
        _, (one,) = execute(config_from_dict(
            dict(_WRAPPED_TAP, alpha_list=[a], r_list=[r], phi_list=[phi])))
        assert row == [_cell(v) for v in one]


_TWO_PI = 2.0 * math.pi

# every grid holds a repeat, every grid that admits it a -0.0, and every angle
# grid a 2 pi that wraps onto 0
_REPEATED_GRIDS = {
    "N_list": [3, 1, 3], "b_list": [1.0, 1.5, 1.0], "T_list": [0.5, 0.1, 0.5],
    "r_list": [0.2, 0.0, -0.0, 0.2], "alpha_list": [0.5, -0.0, 0.5],
    "beta_mag_list": [0.25, -0.0, 0.25], "phi_list": [1.0, _TWO_PI, -0.0, 1.0],
    "varphi_list": [0.5, _TWO_PI, -0.0, 0.5], "theta_list": [0.3, _TWO_PI, -0.0, 0.3],
}

# nongauss_variance lists its squeezed vacua, then its even coherent states: a
# one-point run gives one row of each, so each section picks its own
_SECTIONS = {"nongauss_variance": [(("r_list", "phi_list", "theta_list"), 0),
                                   (("beta_mag_list", "varphi_list", "theta_list"), -1)]}


def _builds(cfg):
    """How often each Fock-state builder runs in a run of ``cfg``: once per
    distinct physical value, an (r, wrapped phi) with every phi one at r = 0 or
    a b.  The non-Gaussian closed forms build none."""
    xis = {(r, fock.wrap_angle(phi) if r else 0.0) for r in cfg.r_list for phi in cfg.phi_list}
    squeezed = len({(r, phi) for r, phi in xis if r})
    disks = len(set(cfg.b_list))
    return {
        "mmstate": {"maximally_mixed": disks},
        "conformation": {},
        "convergence": {"maximally_mixed": disks},
        "squeezed_convergence": {"maximally_mixed": disks, "squeeze_operator": squeezed},
        "attack": {"attack": 1, "squeeze_operator": 2 * squeezed},
        "nongauss_overlap": {},
        "nongauss_variance": {},
        "displacement_bs": {"even_coherent_state": 1},
    }[cfg.experiment]


@pytest.mark.parametrize("experiment", list(REGISTRY))
def test_each_row_is_its_own_points_and_each_state_is_built_once(monkeypatch, experiment):
    exp = REGISTRY[experiment]
    cfg = config_from_dict(dict({g: _REPEATED_GRIDS[g] for g in exp.grids},
                                experiment=experiment, cutoff=30, tail_tol=1e-6))
    calls = dict.fromkeys(("squeeze_operator", "even_coherent_state", "maximally_mixed",
                           "attack"), 0)

    def count(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted
    for module, name in ((fock, "squeeze_operator"), (channel, "squeeze_operator"),
                         (nongauss, "even_coherent_state"), (channel, "maximally_mixed"),
                         (attack, "attack")):
        monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    _, rows = execute(cfg)
    assert {k: v for k, v in calls.items() if v} == _builds(cfg)
    # byte for byte the rows of a run of each point alone, in grid order
    expect = []
    for grids, pick in _SECTIONS.get(experiment, [(exp.grids, None)]):
        for values in itertools.product(*(getattr(cfg, g) for g in grids)):
            _, one = execute(dataclasses.replace(cfg, **{g: [v] for g, v in zip(grids, values)}))
            expect += one if pick is None else [one[pick]]
    assert [[_cell(v) for v in row] for row in rows] == \
        [[_cell(v) for v in row] for row in expect]


@pytest.mark.parametrize("doc, n_rows", [
    # the benchmark's seed-0 grids: 6 squeezed vacua and 6 (|beta|, varphi)
    ({"experiment": "nongauss_overlap", "cutoff": 40, "r_list": [0.05, 0.1, 0.2],
      "phi_list": [0.0, 1.0], "beta_mag_list": [0.1, 0.25, 0.5],
      "varphi_list": [0.0, math.pi / 2]}, 36),
    # 2 squeezed and 2 even coherent states, each read at 4 thetas
    ({"experiment": "nongauss_variance", "cutoff": 40, "r_list": [0.05, 0.1],
      "phi_list": [0.0], "beta_mag_list": [0.1, 0.25], "varphi_list": [0.0],
      "theta_list": [0.0, 0.5, 1.0, math.pi / 2]}, 16),
], ids=["overlap", "variance"])
def test_each_nongauss_state_is_built_once_a_task(monkeypatch, doc, n_rows):
    # every row is a closed form, so no task builds a Fock-space row, squeezer
    # or even state: each state is built not once a task but never
    def refuse(*_):
        raise AssertionError("a Fock-space state was built")
    for module, name in ((fock, "coherent_amplitudes"), (nongauss, "coherent_amplitudes"),
                         (fock, "squeeze_operator"), (channel, "squeeze_operator"),
                         (nongauss, "even_coherent_state")):
        monkeypatch.setattr(module, name, refuse)
    _, rows = execute(config_from_dict(doc))
    assert len(rows) == n_rows


def test_negative_zero_phi_prints_in_exactly_its_own_rows(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="attack", alpha_list=[0.5, 1.0], r_list=[0.3],
                       phi_list=[0.0, -0.0], cutoff=20)
    assert main(["run", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row[4] for row in rows] == ["0", "-0", "0", "-0"]


def test_failing_second_task_names_its_grid_point(tmp_path, capsys):
    # cutoff 12 holds the b = 1 disk but not the b = 3 one
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="convergence", b_list=[1.0, 3.0], N_list=[1],
                       cutoff=12)
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "b=3.0" in err and "b=1.0" not in err
    assert not out.exists()


def test_workers_do_not_change_output(tmp_path):
    # --workers is accepted and ignored: any K gives the same rows
    cfg = write_config(tmp_path, experiment="attack", alpha_list=[0.5, 1.0],
                       r_list=[0.0, 0.3], phi_list=[0.0, 1.0], cutoff=25)
    out1 = str(tmp_path / "serial.csv")
    out2 = str(tmp_path / "parallel.csv")
    assert main(["run", cfg, "--out", out1, "--workers", "1"]) == 0
    assert main(["run", cfg, "--out", out2, "--workers", "2"]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


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
    # a sweep runs in one process, so no module loads the process-pool machinery
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
from cvpqc.cli import _cell, main
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


# the experiments that build no array: the closed forms, and mmstate, whose disk
# state is a list of floats
_NUMPY_FREE = ("mmstate", "conformation", "nongauss_overlap", "nongauss_variance")

_NUMPY_ON_FIRST_USE = r"""
import json, sys
from cvpqc.cli import main
modules, paths, numpy_free = json.loads(sys.argv[1])
missing = [m for m in modules if f"cvpqc.{m}" not in sys.modules]
codes = [main(["validate", path]) for path, _ in paths.values()]
codes += [main(["run", paths[name][0], "--out", paths[name][1]]) for name in numpy_free]
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
codes.append(main(["run", paths["convergence"][0], "--out", paths["convergence"][1]]))
print(json.dumps({"missing": missing, "codes": codes, "loaded": loaded,
                  "loaded_by_convergence": any(m.startswith("numpy.") for m in sys.modules)}))
"""


def test_numpy_loads_only_when_a_run_builds_an_array(tmp_path):
    # bench/trace_run.py looks each of these modules up in sys.modules after
    # `import cvpqc.cli`, so the CLI imports them all, numpy or not
    trace_run = Path(__file__).resolve().parents[1] / "bench" / "trace_run.py"
    modules = runpy.run_path(str(trace_run))["MODULES"]
    paths = {name: (write_config(tmp_path, f"{name}.json", experiment=name, **fields),
                    str(tmp_path / f"{name}.csv"))
             for name, fields in _SMALL_RUNS.items()}
    src = os.path.dirname(os.path.dirname(cvpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_FIRST_USE, json.dumps([modules, paths, _NUMPY_FREE])],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["missing"] == []
    assert got["codes"] == [0] * (len(_SMALL_RUNS) + len(_NUMPY_FREE) + 1), proc.stderr
    # validate, and a run that builds no array, never run numpy's __init__
    assert got["loaded"] == []
    assert got["loaded_by_convergence"]


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
    # nongauss_variance accepts tail_tol, as every experiment does, though its closed
    # forms have no tail to judge: r = 0.8 at cutoff 24, where a Fock-space squeezed
    # vacuum would lose ~4.8e-6, runs
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
    # the taps run in (r, phi) order, each over every alpha: r = 0 fails at alpha = 4
    # (a coherent row that loses 0.13 at cutoff 20) before r = 1 is reached,
    # although alpha = 1, r = 1 comes first in the row order
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="attack", alpha_list=[1.0, 4.0],
                       r_list=[0.0, 1.0], cutoff=20)
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "tail mass 1.318e-01" in err
    assert "for squeezed coherent r=0.0, phi=0.0, alpha=(4+0j)" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, what", [
    ("convergence", "mixture N=2, b=2.0, worst key p=1, q=1"),
    ("displacement_bs", "signal amplitude (1.0071067811865475+0j) at T=0.5"),
], ids=["convergence", "displacement_bs"])
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
    # the truncated squeezer is not unitary: its columns keep only the mass below
    # n_max, so the tail checks see the mass pushed past it
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
    # |eff| = 2.4e308 is past the float range, while each part is not: the run's
    # abs of the signal amplitude overflows, before any tail check
    ({"experiment": "displacement_bs", "eff_re": 1.7e308, "eff_im": 1.7e308, "cutoff": 5}, 2),
], ids=["heuristic_cutoff-b", "coherent_amplitudes-alpha", "vacuum_weight-cosh_r",
        "heuristic_cutoff-e_r", "coherent_amplitudes-abs_eff"])
def test_overflowing_values_exit_without_traceback(tmp_path, capsys, fields, code):
    cfg = write_config(tmp_path, **fields)
    assert main(["run", cfg, "--out", str(tmp_path / "rows.csv")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_huge_theta_runs_as_its_wrapped_angle(tmp_path):
    # 2 theta overflowed to inf, and cos(inf) raised a math domain error
    huge = [1e308, -1e308, 9e307]
    out, wrapped = tmp_path / "huge.csv", tmp_path / "wrapped.csv"
    fields = dict(experiment="nongauss_variance", r_list=[0.5], beta_mag_list=[0.8])
    cfg = write_config(tmp_path, "huge.json", theta_list=huge, **fields)
    assert main(["run", cfg, "--out", str(out)]) == 0
    cfg = write_config(tmp_path, "wrapped.json", theta_list=[fock.wrap_angle(t) for t in huge],
                       **fields)
    assert main(["run", cfg, "--out", str(wrapped)]) == 0
    cols, rows = read_csv(out)
    first = cols.index("cutoff")
    assert [row[first:] for row in rows] == [row[first:] for row in read_csv(wrapped)[1]]
    assert [row[cols.index("theta")] for row in rows] == ["1e+308", "-1e+308",
                                                          "9.0000000000000005e+307"] * 2


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
def test_a_p_list_in_the_config_exits_2(tmp_path, capsys, command):
    # conformation lists every ring 1..N; the ring filter it once read is gone
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, experiment="conformation", N_list=[4], p_list=[1, 2])
    assert main(argv(command, cfg, out)) == 2
    err = capsys.readouterr().err
    assert "config error: unknown config field(s): p_list" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fields, unread", [
    ({"experiment": "convergence", "N_list": [2], "theta_list": [0.5], "cutoff": 30},
     "theta_list"),
    ({"experiment": "mmstate", "eff_re": 0.5, "input_kind": "vacuum"},
     "eff_re, input_kind"),
], ids=["convergence-theta_list", "mmstate-displacement_bs_fields"])
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
    st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-200, 1e300, 1e308, -1e308, 10 ** 400]),
)
_SMALL_INT = st.integers(-3, 0)  # no large integers where they set a size


def _well_typed(name):
    """A value of the field's own type, in a range where a run is cheap."""
    if name == "experiment":
        return st.sampled_from(sorted(REGISTRY))
    if name == "cutoff":
        return st.integers(1, 30)
    if name == "N_list":
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
    is never null, which would take the default, nor N large, which sets the size
    of a run."""
    if name == "cutoff":
        return st.one_of(_SMALL_INT, st.floats(), st.booleans(), st.text(max_size=3))
    if name == "N_list":
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


def _console(*args):
    """`python -m cvpqc.cli ARGS` with stdout and stderr piped; the child imports
    the same package the tests do, installed or not."""
    src = os.path.dirname(os.path.dirname(cvpqc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "cvpqc.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_console_script_runs():
    proc = _console("validate", "/nonexistent.json")
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_console_run_exits_cleanly_through_pipes(tmp_path):
    # the entry skips the interpreter's teardown: its line must still arrive
    # through the pipe, and its rows must be those of an in-process main()
    cfg = write_config(tmp_path, experiment="squeezed_convergence", N_list=[1, 2],
                       r_list=[0.0, 0.3], cutoff=40)
    child, here = tmp_path / "child.csv", tmp_path / "here.csv"
    proc = _console("run", cfg, "--out", child)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote 4 rows to {child} in ")
    assert main(["run", cfg, "--out", str(here)]) == 0
    assert child.read_bytes() == here.read_bytes()
    assert Path(str(child) + ".meta.json").stat().st_size > 0


def test_a_huge_signal_amplitude_exits_3_with_only_the_tail_line(tmp_path):
    # |alpha| = 1e200 squares past the float range: its row is zero, a tail of 1,
    # and no overflow warning reaches stderr beside the tail-mass line
    cfg = write_config(tmp_path, experiment="displacement_bs", eff_re=1e200, cutoff=12)
    proc = _console("run", cfg, "--out", tmp_path / "rows.csv")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "tail-mass violation: truncation tail mass 1.000e+00 exceeds tolerance 1.000e-08 "
        "for signal amplitude (1e+200+0j) at T=0.5"]
    assert not (tmp_path / "rows.csv").exists()


_PAST_BETA = ("problem: beta_mag_list entries must be at most 838.9: past it the closed "
              "forms, which cancel terms of size |beta|^2, round by more than tail_tol")


@pytest.mark.parametrize("fields, code, lines", [
    # the closed forms would print NaN: beta_mag_list is a config problem
    ({"experiment": "nongauss_overlap", "beta_mag_list": [1e308], "cutoff": 5}, 2,
     [_PAST_BETA, "config INVALID"]),
    ({"experiment": "nongauss_variance", "beta_mag_list": [1e308], "cutoff": 5}, 2,
     [_PAST_BETA, "config INVALID"]),
    # |beta|^2 is inf, not an OverflowError: the even coherent row is zero, a tail of 1
    ({"experiment": "displacement_bs", "input_beta_mag": 1e200, "T_list": [1.0], "cutoff": 5},
     3, ["tail-mass violation: truncation tail mass 1.000e+00 exceeds tolerance 1.000e-08 "
         "for even coherent state |beta|=1e+200"]),
], ids=["nongauss_overlap", "nongauss_variance", "displacement_bs"])
def test_a_huge_beta_exits_3_naming_the_even_coherent_state(tmp_path, fields, code, lines):
    # only displacement_bs builds the even coherent state; the non-Gaussian closed
    # forms exit 2 naming the field
    cfg = write_config(tmp_path, **fields)
    proc = _console("run", cfg, "--out", tmp_path / "rows.csv")
    assert proc.returncode == code
    assert proc.stderr.splitlines() == lines
    assert not (tmp_path / "rows.csv").exists()


_HUGE = st.one_of(st.floats(0.0, 1e308), st.floats(0.0, 10.0), st.sampled_from(
    [0.0, 1.0, 3.5, 8.0, 20.0, 354.9, 355.3, 710.0, 838.0, 1e4, 1e154, 1.35e154, 1e308]))


@settings(max_examples=300, deadline=None)
@given(experiment=st.sampled_from(["nongauss_overlap", "nongauss_variance"]),
       beta_mag=_HUGE, r=_HUGE,
       angle=st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.0, 2.0 * math.pi - 1e-9]),
       tail_tol=st.sampled_from([1e-12, 1e-8, 1e-3, 0.5]))
def test_huge_beta_and_r_print_finite_cells_or_exit_2(experiment, beta_mag, r, angle,
                                                       tail_tol):
    # every cos(2 varphi - phi) or cos(2 theta - 2 varphi) of +-1 and 0 included.  A
    # run that is let through prints finite cells, and its exact and closed_form lie
    # within tail_tol (relative) of the cancellation-free forms, so no variance is
    # negative however far r squeezes one quadrature
    doc = {"experiment": experiment, "beta_mag_list": [beta_mag], "r_list": [r],
           "phi_list": [angle], "varphi_list": [0.0, angle], "tail_tol": tail_tol}
    if experiment == "nongauss_variance":
        doc["theta_list"] = [0.0, angle, 0.5 * angle]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        rc = main(["run", path, "--out", out])
        assert rc in (0, 2)
        if rc == 2:
            return
        _, rows = read_csv(out)
    cols = REGISTRY[experiment].columns
    for row in rows:
        cell = {c: v if c == "kind" else float(v) for c, v in zip(cols, row)}
        assert all(math.isfinite(v) for c, v in cell.items() if c != "kind"), row
        xi = fock.SqueezeParam(cell["r"], cell["phi_xi"])
        vp = fock.wrap_angle(cell["varphi"])
        if experiment == "nongauss_overlap":
            printed = [cell["exact"]]
            ref = overlap_stable(cell["beta_mag"], vp, xi)
        else:
            printed = [cell["exact"], cell["closed_form"]]
            th = fock.wrap_angle(cell["theta"])
            ref = (squeezed_vacuum_variance_stable(xi.r, xi.phi, th)
                   if cell["kind"] == "squeezed_vacuum"
                   else even_variance_stable(cell["beta_mag"], vp, th))
            assert min(printed) >= 0.0, row
        for v in printed:  # a cell below the smallest normal float holds fewer digits
            assert abs(v - ref) <= tail_tol * ref + sys.float_info.min, (row, ref)


_PAST_R = ("problem: r_list entries must be at most 3.539: past it the squeezed vacuum's "
           "variance, which cancels terms of size e^{2r} to reach e^{-2r}/4, rounds by more "
           "than tail_tol")
_PAST_SQUEEZER = ("problem: alpha_list entries must be at most 4.205 at r = 1: past it the "
                  "squeezer's recurrence, which grows rounding by up to e^{|alpha|^2 tanh r}, "
                  "rounds the squeezed inputs by more than tail_tol")


@pytest.mark.parametrize("doc, problem", [
    ({"experiment": "nongauss_overlap", "r_list": [5.0]}, _PAST_R),
    ({"experiment": "nongauss_variance", "r_list": [5.0]}, _PAST_R),
    # the squeezer rounds |alpha| = 9 at r = 1 to a tail of -6.4e+02 at cutoff 150,
    # and |alpha| = 7 at r = 1, phi = pi/4 to a tail check that passes at cutoff
    # 218, where the input's true tail is 3.4e-8
    ({"experiment": "attack", "alpha_list": [9.0], "r_list": [1.0], "cutoff": 150},
     _PAST_SQUEEZER),
    ({"experiment": "attack", "alpha_list": [7.0], "r_list": [1.0],
      "phi_list": [math.pi / 4], "cutoff": 218}, _PAST_SQUEEZER),
    ({"experiment": "squeezed_convergence", "b_list": [8.0], "r_list": [0.0, 0.3]},
     "problem: b_list entries must be at most 6.798 at r = 0.3: past it the squeezer's "
     "recurrence, which grows rounding by up to e^{|alpha|^2 tanh r}, rounds the squeezed "
     "key states by more than tail_tol"),
    # k_factor printed 0 at r = 20, where it is 8.5e-18
    ({"experiment": "conformation", "N_list": [1], "r_list": [20.0]},
     "problem: r_list entries must be at most 7.079: past it k_factor, which cancels "
     "1 - tanh r cos(2 theta - phi) down to 2 / (1 + e^{2r}), rounds by more than tail_tol"),
], ids=["nongauss_overlap", "nongauss_variance", "attack-negative_tail", "attack-masked_tail",
        "squeezed_convergence", "conformation"])
def test_validate_names_the_limit_an_input_passes(tmp_path, capsys, doc, problem):
    assert validate(config_from_dict(doc)).render().splitlines() == [problem, "config INVALID"]
    # a run of the same config exits 2 with that report alone, and writes nothing
    out = tmp_path / "rows.csv"
    assert main(["run", write_config(tmp_path, **doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [problem, "config INVALID"]
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@example(r=1.0, phi=math.pi / 4, alpha=7.0, offset=-9, tail_tol=1e-8)
@given(r=st.one_of(st.sampled_from([0.3, 0.6, 1.0, 1.5]), st.floats(0.01, 1.5)),
       phi=st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                     st.floats(0.0, 2.0 * math.pi)),
       alpha=st.one_of(st.sampled_from([4.0, 7.0, 9.0, 12.0]), st.floats(0.0, 7.0),
                       st.floats(0.0, 12.0)),
       offset=st.integers(-12, 3), tail_tol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-3]))
def test_a_squeezed_state_that_validate_and_its_tail_check_accept_keeps_its_contract(
        r, phi, alpha, offset, tail_tol):
    # near the smallest cutoff whose true tail is within tail_tol, where the
    # squeezer's rounding near the cutoff could hide a tail past it
    doc = {"experiment": "attack", "alpha_list": [alpha], "r_list": [r], "phi_list": [phi],
           "tail_tol": tail_tol}
    if not validate(config_from_dict(doc)).ok:
        return
    xi = fock.SqueezeParam(r, phi)
    probs = np.abs(fock.squeezed_coherent_closed_form(xi, alpha, FockCutoff(2500))) ** 2
    assert abs(1.0 - probs.sum()) < 1e-10  # the closed form has converged
    beyond = np.cumsum(probs[::-1])[::-1]  # beyond[n]: the mass at levels n and up
    n_max = max(1, int(np.argmax(beyond[1:] <= tail_tol)) + offset)
    try:
        (state,) = fock.squeezed_coherent_state(xi, [alpha], FockCutoff(n_max), tail_tol)
    except fock.TailMassError:
        return
    assert beyond[n_max + 1] <= tail_tol
    assert np.max(np.abs(np.abs(state) ** 2 - probs[:n_max + 1])) <= tail_tol


@settings(max_examples=200, deadline=None)
@example(r=12.0, phi=0.0, N=1, tail_tol=1e-8)
@given(r=st.one_of(st.sampled_from([0.0, 1.0, 7.0, 7.08, 8.0, 9.5, 12.0, 20.0]),
                   st.floats(0.0, 25.0)),
       phi=st.one_of(st.sampled_from([0.0, math.pi / 2, -1.0]), st.floats(-10.0, 10.0)),
       N=st.integers(1, 4), tail_tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
def test_conformation_prints_each_k_factor_within_tail_tol_or_exits_2(r, phi, N, tail_tol):
    # where cos(2 theta - phi) = 1, 1 - tanh r cos(2 theta - phi) cancels down to
    # 2 / (1 + e^{2r}); a run that validate lets through prints it within tail_tol
    # (relative) of the cancellation-free form
    cfg = config_from_dict({"experiment": "conformation", "N_list": [N], "r_list": [r],
                            "phi_list": [phi], "tail_tol": tail_tol})
    if not validate(cfg).ok:
        return
    cols, rows = execute(cfg)
    for row in rows:
        cell = dict(zip(cols, row))
        xi = fock.SqueezeParam(cell["r"], cell["phi"])
        ref = k_factor_stable(xi.r, xi.phi, cell["theta_pq"])
        assert abs(cell["k_factor"] - ref) <= tail_tol * ref, (row, ref)


def test_console_error_exits_keep_their_messages(tmp_path):
    # exit 3: cutoff 12 holds too little of the disk-uniform state at b = 3
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], b_list=[3.0],
                       cutoff=12)
    proc = _console("run", cfg, "--out", tmp_path / "rows.csv")
    assert proc.returncode == 3
    assert "tail-mass violation" in proc.stderr and "b=3.0" in proc.stderr
    # exit 4: the output directory does not exist
    cfg = write_config(tmp_path, experiment="convergence", N_list=[1], b_list=[2.0],
                       cutoff=40)
    proc = _console("run", cfg, "--out", tmp_path / "no_such_dir" / "rows.csv")
    assert proc.returncode == 4
    assert "i/o error" in proc.stderr
