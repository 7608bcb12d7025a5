"""Beam-splitter tap on a single branch: purity, entanglement, factorization."""
import inspect
import math

import numpy as np
import pytest

from cvpqc.attack import AttackReport, attack
from cvpqc.fock import (
    DensityOperator,
    FockCutoff,
    SqueezeParam,
    beam_splitter_5050,
    squeezed_coherent_state,
    tensor,
    vacuum,
    von_neumann_entropy,
)
from oracles import partial_trace_dense, verify_decomposition

C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# coherent inputs leave no trace


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0j])
def test_coherent_input_splits_into_product(alpha):
    rep = attack(alpha, SqueezeParam(0.0), C60)
    assert rep.input_kind == "coherent"
    assert rep.bob_reduced_purity >= 1 - 1e-10
    assert rep.eve_reduced_purity >= 1 - 1e-10
    assert rep.entanglement_proxy < 1e-10


def test_coherent_input_receiver_state_is_attenuated_copy():
    rep = attack(1.0, SqueezeParam(0.0), C60)
    assert rep.bob_fidelity_vs_expected >= 1 - 1e-6


# ---------------------------------------------------------------------------
# squeezed inputs entangle the arms


def test_entanglement_grows_with_squeezing():
    rs = (0.1, 0.3, 0.5, 0.8)
    proxies = [attack(1.0, SqueezeParam(r), C60).entanglement_proxy for r in rs]
    assert all(a < b for a, b in zip(proxies, proxies[1:]))
    frozen = {0.1: 0.0252, 0.3: 0.1569, 0.5: 0.3483, 0.8: 0.6960}
    for r, proxy in zip(rs, proxies):
        assert abs(proxy - frozen[r]) < 1e-4


def test_entanglement_independent_of_displacement():
    # displacement is local once split; only squeezing entangles
    base = attack(0.0, SqueezeParam(0.4, 0.9), C60).entanglement_proxy
    moved = attack(1.0, SqueezeParam(0.4, 0.9), C60).entanglement_proxy
    assert abs(base - moved) < 1e-6


def test_both_arms_equally_mixed():
    # cutoff 30: the dense reduction holds 31^4 entries per mode (15 MB; 221 MB at 60)
    cut = FockCutoff(30)
    rep = attack(0.8, SqueezeParam(0.5, 1.3), cut)
    assert abs(rep.bob_reduced_purity - rep.eve_reduced_purity) < 1e-10
    # global output stays pure, so the report's entropy is the exact
    # entanglement entropy; recompute it from an independent reduction
    out = beam_splitter_5050(cut).apply(
        tensor(squeezed_coherent_state(SqueezeParam(0.5, 1.3), 0.8, cut), vacuum(cut)))
    rho_b = DensityOperator(partial_trace_dense(out, 0), cut)
    rho_e = DensityOperator(partial_trace_dense(out, 1), cut)
    assert abs(von_neumann_entropy(rho_b) - rep.entanglement_proxy) < 1e-8
    assert abs(von_neumann_entropy(rho_e) - rep.entanglement_proxy) < 1e-8


def test_tap_output_stays_normalized():
    rep = attack(1.0, SqueezeParam(0.5), C60)
    assert rep.tail_mass < 1e-8
    assert rep.bob_reduced_purity <= 1 + 1e-10


def test_report_carries_inputs():
    xi = SqueezeParam(0.2, 0.4)
    rep = attack(0.3 + 0.1j, xi, C60)
    assert isinstance(rep, AttackReport)
    assert rep.alpha == 0.3 + 0.1j
    assert rep.xi == xi
    assert rep.input_kind == "squeezed_coherent"


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
