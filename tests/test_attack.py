"""Beam-splitter tap on a single branch: purity, entanglement, factorization."""
import inspect
import math

import numpy as np
import pytest

from cvpqc.attack import attack
from cvpqc.config import config_from_dict
from cvpqc.experiments import _compute_attack
from cvpqc.fock import FockCutoff, SqueezeParam, von_neumann_entropy
from oracles import partial_trace_dense, tap_output, verify_decomposition

C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# coherent inputs leave no trace


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0j])
def test_coherent_input_splits_into_product(alpha):
    bob, eve, ent, _ = attack(alpha, SqueezeParam(0.0), C60)
    assert bob >= 1 - 1e-10
    assert eve >= 1 - 1e-10
    assert ent < 1e-10


def test_coherent_input_receiver_state_is_attenuated_copy():
    _, _, _, fid = attack(1.0, SqueezeParam(0.0), C60)
    assert fid >= 1 - 1e-6


# ---------------------------------------------------------------------------
# squeezed inputs entangle the arms


def test_entanglement_grows_with_squeezing():
    rs = (0.1, 0.3, 0.5, 0.8)
    proxies = [attack(1.0, SqueezeParam(r), C60)[2] for r in rs]
    assert all(a < b for a, b in zip(proxies, proxies[1:]))
    frozen = {0.1: 0.0252, 0.3: 0.1569, 0.5: 0.3483, 0.8: 0.6960}
    for r, proxy in zip(rs, proxies):
        assert abs(proxy - frozen[r]) < 1e-4


def test_entanglement_independent_of_displacement():
    # displacement is local once split; only squeezing entangles
    base = attack(0.0, SqueezeParam(0.4, 0.9), C60)[2]
    moved = attack(1.0, SqueezeParam(0.4, 0.9), C60)[2]
    assert abs(base - moved) < 1e-6


def test_both_arms_equally_mixed():
    # cutoff 30: the dense reduction holds 31^4 entries per mode (15 MB; 221 MB at 60)
    cut = FockCutoff(30)
    bob, eve, ent, _ = attack(0.8, SqueezeParam(0.5, 1.3), cut)
    assert abs(bob - eve) < 1e-10
    # global output stays pure, so the reported entropy is the exact
    # entanglement entropy; recompute it from an independent reduction
    out = tap_output(0.8, SqueezeParam(0.5, 1.3), cut)
    rho_b = partial_trace_dense(out, 0)
    rho_e = partial_trace_dense(out, 1)
    assert abs(von_neumann_entropy(rho_b) - ent) < 1e-8
    assert abs(von_neumann_entropy(rho_e) - ent) < 1e-8


def test_tap_output_stays_normalized():
    # the splitter is unitary: the output keeps the input's norm, and each arm's
    # reduced state has the full trace, so purities stay at most 1
    out = tap_output(1.0, SqueezeParam(0.5), C60)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    bob, eve, _, _ = attack(1.0, SqueezeParam(0.5), C60)
    assert bob <= 1 + 1e-10
    assert eve <= 1 + 1e-10


def test_report_carries_inputs():
    # one task is one (r, phi) with every alpha: a row per alpha, in alpha_list order,
    # naming the input kind and carrying the input amplitude
    cfg = config_from_dict({"experiment": "attack"})
    (row_a,), (row_b,) = _compute_attack(cfg, 60, r=0.2, phi=0.4, alpha_list=[0.3, -1.5])
    assert row_a[:6] == ("squeezed_coherent", 0.3, 0.0, 0.2, 0.4, 60)
    assert row_a[6:] == attack(0.3, SqueezeParam(0.2, 0.4), C60)
    assert row_b[:6] == ("squeezed_coherent", -1.5, 0.0, 0.2, 0.4, 60)
    assert row_b[6:] == attack(-1.5, SqueezeParam(0.2, 0.4), C60)
    ((row,),) = _compute_attack(cfg, 60, r=0.0, phi=0.0, alpha_list=[-1.5])
    assert row[:3] == ("coherent", -1.5, 0.0)


@pytest.mark.parametrize("xi", [SqueezeParam(0.0), SqueezeParam(0.6, math.pi / 2)])
def test_attack_over_an_alpha_array_is_the_scalar_calls(xi):
    # S(xi) and S(xi/2) are built once for the whole array; every number is
    # bit for bit the one its own call gives
    alphas = np.array([0.0, 0.5, 1.0 - 0.7j, -2.0, 1.5j])
    got = attack(alphas, xi, C60)
    assert got == [attack(complex(a), xi, C60) for a in alphas]
    assert got == [attack(a, xi, C60) for a in alphas.tolist()]


# ---------------------------------------------------------------------------
# factorized model of the tap


def test_factorization_exact_under_sqrt2_convention():
    rep = verify_decomposition(1.0, SqueezeParam(0.1), C60)
    assert rep.fidelity_sqrt2 >= 1 - 1e-10
    assert rep.best == rep.fidelity_sqrt2
    assert float(rep) == rep.best


def test_factorization_trivial_input():
    rep = verify_decomposition(0.0, SqueezeParam(0.0), C60)
    assert rep.fidelity_half >= 1 - 1e-12
    assert rep.fidelity_sqrt2 >= 1 - 1e-12


def test_factorization_coherent_sqrt2_exact():
    rep = verify_decomposition(1.3, SqueezeParam(0.0), C60)
    assert rep.fidelity_sqrt2 >= 1 - 1e-10


def test_halved_displacement_convention_shorts_the_fit():
    rep = verify_decomposition(1.0, SqueezeParam(0.1), C60)
    assert abs(rep.fidelity_half - 0.917790) < 1e-6
    # the shortfall is a displacement mismatch, insensitive to squeezing
    rep2 = verify_decomposition(1.0, SqueezeParam(0.4), C60)
    assert abs(rep2.fidelity_half - rep.fidelity_half) < 1e-3


def test_halved_displacement_gap_closes_as_alpha_shrinks():
    # exp(-|alpha|^2 (1 - 1/sqrt2)^2 ...) style gap: smaller alpha, better fit
    f_small = verify_decomposition(0.3, SqueezeParam(0.1), C60).fidelity_half
    f_large = verify_decomposition(1.5, SqueezeParam(0.1), C60).fidelity_half
    assert f_small > f_large


def test_factorization_matches_over_phase_grid():
    for phi in (0.0, math.pi / 2, math.pi):
        rep = verify_decomposition(0.7, SqueezeParam(0.3, phi), C60)
        assert rep.fidelity_sqrt2 >= 1 - 1e-9


def test_attack_submodule_is_not_shadowed():
    import cvpqc.attack
    assert inspect.ismodule(cvpqc.attack)
