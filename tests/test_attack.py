"""Beam-splitter tap on a single branch: purity, entanglement, factorization."""
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from cvpqc.attack import attack, thermal_entropy
from cvpqc.config import config_from_dict
from cvpqc.experiments import _compute_attack
from cvpqc.fock import (FockCutoff, SqueezeParam, TailMassError, fidelity,
                        squeezed_coherent_state, von_neumann_entropy)
from oracles import (TAP_CLOSED_FORM_TOL, partial_trace_dense, purity, tap_output,
                     verify_decomposition)

C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# coherent inputs leave no trace


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0j])
def test_coherent_input_splits_into_product(alpha):
    ((bob, eve, ent, _),) = attack([alpha], SqueezeParam(0.0), C60)
    assert bob >= 1 - 1e-10
    assert eve >= 1 - 1e-10
    assert ent < 1e-10


def test_coherent_input_receiver_state_is_attenuated_copy():
    ((_, _, _, fid),) = attack([1.0], SqueezeParam(0.0), C60)
    assert fid >= 1 - 1e-6


# ---------------------------------------------------------------------------
# squeezed inputs entangle the arms


def test_entanglement_grows_with_squeezing():
    rs = (0.1, 0.3, 0.5, 0.8)
    proxies = [attack([1.0], SqueezeParam(r), C60)[0][2] for r in rs]
    assert all(a < b for a, b in zip(proxies, proxies[1:]))
    frozen = {0.1: 0.0252, 0.3: 0.1569, 0.5: 0.3483, 0.8: 0.6960}
    for r, proxy in zip(rs, proxies):
        assert abs(proxy - frozen[r]) < 1e-4


def test_entanglement_independent_of_displacement():
    # displacement is local once split; only squeezing entangles
    base, moved = (res[2] for res in attack([0.0, 1.0], SqueezeParam(0.4, 0.9), C60))
    assert abs(base - moved) < 1e-6


def test_both_arms_equally_mixed():
    # cutoff 30: the dense reduction holds 31^4 entries per mode (15 MB; 221 MB at 60)
    cut, xi = FockCutoff(30), SqueezeParam(0.5, 1.3)
    ((bob, eve, ent, _),) = attack([0.8], xi, cut)
    # the global output stays pure, so both arms are one thermal state of
    # nbar = sinh^2(r/2): purity sech r and entropy g(nbar), whatever alpha is
    assert bob == eve == 1.0 / (2.0 * math.sinh(0.25) ** 2 + 1.0)
    assert abs(bob - 1.0 / math.cosh(0.5)) <= 1e-15
    assert ent == thermal_entropy(math.sinh(0.25) ** 2)
    # independent reductions of the Fock tap agree with the closed forms
    out = tap_output(0.8, xi, cut)
    for mode in (0, 1):
        rho = partial_trace_dense(out, mode)
        assert abs(purity(rho) - bob) <= TAP_CLOSED_FORM_TOL
        assert abs(von_neumann_entropy(rho) - ent) <= TAP_CLOSED_FORM_TOL


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("phi", [0.0, math.pi / 2])
def test_eve_purity_is_the_receivers_on_the_tap_grid(r, phi):
    # the output is pure, so both arms share one Schmidt spectrum: attack prints
    # its closed-form purity for both, and each arm's own Fock reduction agrees.
    # At cutoff 100 every input's tail is far below tail_tol: the two sit 1.1e-11
    # apart at most on this grid
    cut, xi = FockCutoff(100), SqueezeParam(r, phi)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        out = tap_output(alpha, xi, cut)
        bob, eve = purity(out @ out.conj().T), purity(out.T @ out.conj())
        assert abs(eve - bob) <= 1e-14
        (printed,) = attack([alpha], xi, cut)
        assert printed[0] == printed[1]
        assert abs(printed[0] - 1.0 / math.cosh(r)) <= 1e-15
        assert abs(printed[0] - bob) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(r=strategies.floats(0.0, 1.0), phi=strategies.floats(0.0, 2.0 * math.pi),
       alpha_mag=strategies.floats(0.0, 2.0), alpha_arg=strategies.floats(0.0, 2.0 * math.pi),
       n_max=strategies.integers(1, 30))
@example(r=0.4, phi=0.9, alpha_mag=0.67, alpha_arg=5.8, n_max=23)
@example(r=1.0, phi=0.0, alpha_mag=0.0, alpha_arg=0.0, n_max=30)
@example(r=0.0, phi=0.0, alpha_mag=2.0, alpha_arg=1.0, n_max=30)
@example(r=4.759477527738737e-162, phi=0.0, alpha_mag=0.0, alpha_arg=0.0, n_max=1)
def test_closed_forms_match_the_fock_tap(r, phi, alpha_mag, alpha_arg, n_max):
    # every draw whose tails pass: purity and entropy of both arms, reduced from
    # the Fock tap's output, sit within TAP_CLOSED_FORM_TOL of the printed closed
    # forms, and the fidelity is the receiver's reduced state read against the
    # target; purity and entanglement depend on r alone, not on alpha, phi or
    # the cutoff
    xi, cut = SqueezeParam(r, phi), FockCutoff(n_max)
    alpha = alpha_mag * complex(math.cos(alpha_arg), math.sin(alpha_arg))
    try:
        ((bob, eve, ent, fid),) = attack([alpha], xi, cut)
    except TailMassError:
        return
    out = tap_output(alpha, xi, cut)
    for mode in (0, 1):
        rho = partial_trace_dense(out, mode)
        assert abs(purity(rho) - bob) <= TAP_CLOSED_FORM_TOL
        assert abs(von_neumann_entropy(rho) - ent) <= TAP_CLOSED_FORM_TOL
    (target,) = squeezed_coherent_state(SqueezeParam(r / 2, phi), [alpha / math.sqrt(2.0)], cut)
    assert abs(fidelity(target, partial_trace_dense(out, 0)) - fid) <= 1e-13
    assert bob == eve and ent >= 0.0
    assert attack([0.0], SqueezeParam(r), FockCutoff(80))[0][:3] == (bob, eve, ent)


def test_thermal_entropy_is_the_symplectic_form():
    # g(nbar) against ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2) at the
    # symplectic eigenvalue nu = 2 nbar + 1 = cosh r, where that form cancels
    # little; g(0) = 0, g is finite at the smallest nbar, where 1/nbar is inf,
    # and g grows without a sign change
    assert thermal_entropy(0.0) == 0.0
    assert 0.0 < thermal_entropy(5e-324) < 1e-320
    for r in (0.5, 1.0, 2.0, 5.0):
        nu = math.cosh(r)
        g = (nu + 1) / 2 * math.log2((nu + 1) / 2) - (nu - 1) / 2 * math.log2((nu - 1) / 2)
        assert abs(thermal_entropy(math.sinh(r / 2) ** 2) - g) <= 1e-14 * max(1.0, g)
    tiny = [thermal_entropy(math.sinh(r / 2) ** 2) for r in (1e-150, 1e-8, 1e-3, 0.1)]
    assert all(0.0 < a < b for a, b in zip(tiny, tiny[1:]))


def test_tap_output_stays_normalized():
    # the splitter is unitary: the output keeps the input's norm, and each arm's
    # reduced state has the full trace, so purities stay at most 1
    out = tap_output(1.0, SqueezeParam(0.5), C60)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    ((bob, eve, _, _),) = attack([1.0], SqueezeParam(0.5), C60)
    assert bob <= 1 + 1e-10
    assert eve <= 1 + 1e-10


def test_report_carries_inputs():
    # a row per (alpha, r, phi), alpha-major, naming the input kind and carrying
    # the input amplitude and the squeezing as configured
    cfg = config_from_dict({"experiment": "attack", "alpha_list": [0.3, -1.5],
                            "r_list": [0.2, 0.0], "phi_list": [0.4]})
    rows = _compute_attack(cfg, 60)
    assert [row[:6] for row in rows] == [("squeezed_coherent", 0.3, 0.0, 0.2, 0.4, 60),
                                         ("coherent", 0.3, 0.0, 0.0, 0.4, 60),
                                         ("squeezed_coherent", -1.5, 0.0, 0.2, 0.4, 60),
                                         ("coherent", -1.5, 0.0, 0.0, 0.4, 60)]
    squeezed, coherent = (attack([0.3, -1.5], SqueezeParam(r, 0.4), C60) for r in (0.2, 0.0))
    assert [row[6:] for row in rows] == [squeezed[0], coherent[0], squeezed[1], coherent[1]]


@pytest.mark.parametrize("xi", [SqueezeParam(0.0), SqueezeParam(0.6, math.pi / 2)])
def test_attack_over_an_alpha_array_is_the_scalar_calls(xi):
    # S(xi) and S(xi/2) are built once for the whole list; every number is
    # bit for bit the one a one-element list gives
    alphas = [0.0, 0.5, 1.0 - 0.7j, -2.0, 1.5j]
    got = attack(alphas, xi, C60)
    assert got == [attack([a], xi, C60)[0] for a in alphas]
    assert got == [attack([complex(a)], xi, C60)[0] for a in alphas]


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
