"""Checks of the honesty screen; run with `PYTHONPATH=src pytest bench/test_screen.py`."""
import math

import numpy as np
import pytest

import workloads
from cvpqc.fock import FockCutoff, SqueezeParam, squeezed_coherent_closed_form


@pytest.mark.parametrize("alpha, r, phi", [
    (1 + 0.5j, 0.3, 1.0), (2.0, 0.6, math.pi / 2), (0.5j, 0.1, 0.0), (0.0, 0.4, 0.3),
    (1.5, 0.0, 0.0)])
def test_recurrence_matches_hermite_closed_form(alpha, r, phi):
    amps = squeezed_coherent_closed_form(SqueezeParam(r, phi), alpha, FockCutoff(60))
    probs = workloads.fock_probabilities(alpha, r, phi, 60)[0]
    assert np.max(np.abs(probs - np.abs(amps) ** 2)) < 1e-14


def test_known_tails_above_tolerance():
    # the 50:50 tap input at cutoff 80, and r = 0.5 on the outer ring at b = 2
    tap = workloads.true_tails(3.0, 0.6, math.pi / 2, 80)[0]
    ring = workloads.true_tails(workloads.key_displacements(32, 2.0), 0.5, 0.0, 59).max()
    assert tap == pytest.approx(1.1e-8, rel=0.01)
    assert ring == pytest.approx(1.008e-8, rel=0.001)


def test_large_levels_do_not_overflow():
    tails = workloads.true_tails(np.array([4.9, 4.9j]), 0.3, math.pi / 2, 195)
    assert np.all(np.isfinite(tails)) and np.all(tails < 1e-20)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_grid_passes_the_screen(workload, seed):
    for _, cfg in workloads.build(workload, seed):
        assert all(t <= workloads.TAIL_TOL for _, t in workloads.screen(cfg))


def test_redraws_keep_the_cost_shape():
    for cid in workloads.CONFIGS:
        a, b = workloads.build_config(cid, 0), workloads.build_config(cid, 7)
        assert a.keys() == b.keys()
        for k in a:
            if k in ("r_list", "T_list", "N_list", "b_list", "cutoff"):
                assert a[k] == b[k], (cid, k)
            elif k.endswith("_list"):
                assert len(a[k]) == len(b[k]), (cid, k)
        assert workloads.grid_points(a) == workloads.grid_points(b)
