"""Even coherent states as squeezed-vacuum mimics; ancilla-based displacement."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cvpqc.fock import (
    FockCutoff,
    PureState,
    SqueezeParam,
    TailMassError,
    fidelity,
    quadrature_variance,
    squeeze_operator,
    vacuum,
)
from cvpqc.nongauss import (
    BeamSplitterRealization,
    EvenCoherentParam,
    displacement_via_beamsplitter,
    even_coherent_state,
    even_variance_approx,
    even_variance_closed_form,
    overlap_even_vs_squeezed,
    quadrature_variance_even,
    squeezed_vacuum_variance,
    squeezed_vacuum_variance_approx,
)
from oracles import (
    coherent_state,
    displacement_via_beamsplitter_fock,
    matching_varphi,
    truncated_squeeze_check,
    truncated_squeeze_operator,
)

C40 = FockCutoff(40)


def overlap_closed_form(beta_mag: float, varphi: float, xi: SqueezeParam) -> float:
    # independent closed form of the squared overlap:
    # sech(|b|^2) / cosh(r) * exp(-|b|^2 tanh(r) cos(phi - 2 varphi))
    b2 = beta_mag ** 2
    return (1.0 / math.cosh(b2)) / math.cosh(xi.r) \
        * math.exp(-b2 * math.tanh(xi.r) * math.cos(xi.phi - 2.0 * varphi))


# ---------------------------------------------------------------------------
# state construction


def test_even_state_small_amplitude_is_nearly_vacuum():
    st = even_coherent_state(EvenCoherentParam(1e-4), C40)
    assert abs(st.overlap(vacuum(C40))) ** 2 > 1 - 1e-8


def test_even_state_odd_levels_exactly_zero():
    st = even_coherent_state(EvenCoherentParam(0.9, 0.7), C40)
    assert np.all(st.amplitudes[1::2] == 0.0)
    assert abs(st.norm() - 1.0) < 1e-12


def test_even_state_matches_direct_superposition():
    param = EvenCoherentParam(0.8, 1.2)
    st = even_coherent_state(param, C40)
    plus = coherent_state(param.beta, C40).amplitudes
    minus = coherent_state(-param.beta, C40).amplitudes
    direct = plus + minus
    direct = direct / np.linalg.norm(direct)
    assert np.max(np.abs(st.amplitudes - direct)) < 1e-12


def test_even_param_validation_and_wrap():
    with pytest.raises(ValueError):
        EvenCoherentParam(-0.1)
    p = EvenCoherentParam(0.5, 2 * math.pi + 0.3)
    assert abs(p.varphi - 0.3) < 1e-12


def test_even_state_tail_guard():
    with pytest.raises(TailMassError):
        even_coherent_state(EvenCoherentParam(3.5), FockCutoff(10))


# ---------------------------------------------------------------------------
# overlap with squeezed vacuum


def test_overlap_trivial_parameters():
    exact, approx = overlap_even_vs_squeezed(
        EvenCoherentParam(0.0), SqueezeParam(0.0), C40)
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert approx == 1.0


def test_overlap_exact_matches_closed_form():
    for bm, vp, r, phi in (
        (0.25, 0.0, 0.05, 0.0),
        (0.5, math.pi / 2, 0.05, 0.0),
        (0.4, 0.3, 0.2, 1.0),
        (0.7, -1.0, 0.1, 2.5),
    ):
        exact, _ = overlap_even_vs_squeezed(
            EvenCoherentParam(bm, vp), SqueezeParam(r, phi), C40)
        assert abs(exact - overlap_closed_form(bm, vp, SqueezeParam(r, phi))) < 1e-12


def test_overlap_approx_tracks_exact_over_angles():
    bm, r = 0.25, 0.05
    vps = np.linspace(-math.pi, math.pi, 37)
    exact = np.empty_like(vps)
    approx = np.empty_like(vps)
    for i, vp in enumerate(vps):
        exact[i], approx[i] = overlap_even_vs_squeezed(
            EvenCoherentParam(bm, vp), SqueezeParam(r, 0.0), C40)
    assert np.max(np.abs(exact - approx)) < 5e-3
    corr = np.corrcoef(exact, approx)[0, 1]
    assert corr > 0.99


def test_overlap_joint_phase_covariance():
    # shifting varphi by delta and phi by 2 delta leaves the overlap fixed
    bm, r = 0.5, 0.1
    base, _ = overlap_even_vs_squeezed(
        EvenCoherentParam(bm, 0.4), SqueezeParam(r, 0.9), C40)
    for delta in (0.3, 1.0, -2.0):
        moved, _ = overlap_even_vs_squeezed(
            EvenCoherentParam(bm, 0.4 + delta), SqueezeParam(r, 0.9 + 2 * delta), C40)
        assert abs(moved - base) < 1e-12


def test_matching_angles_maximize_overlap():
    phi = 0.8
    v1, v2 = matching_varphi(phi)
    assert abs(math.cos(2 * v1 - phi) + 1.0) < 1e-12  # cos = -1 at the match
    assert abs(math.cos(2 * v2 - phi) + 1.0) < 1e-12
    bm, r = 0.3, 0.05
    at_match, _ = overlap_even_vs_squeezed(
        EvenCoherentParam(bm, v1), SqueezeParam(r, phi), C40)
    off, _ = overlap_even_vs_squeezed(
        EvenCoherentParam(bm, v1 + 0.7), SqueezeParam(r, phi), C40)
    assert at_match > off


# ---------------------------------------------------------------------------
# first-order squeezer


def test_truncated_squeezer_identity_at_zero():
    assert truncated_squeeze_check(SqueezeParam(0.0), C40) == pytest.approx(0.0, abs=1e-14)


def test_truncated_squeezer_error_is_second_order():
    e1 = truncated_squeeze_check(SqueezeParam(0.05, 0.4), C40)
    e2 = truncated_squeeze_check(SqueezeParam(0.1, 0.4), C40)
    assert 3.5 < e2 / e1 < 4.5


def test_truncated_squeezer_vacuum_action():
    xi = SqueezeParam(0.1, 0.7)
    out = truncated_squeeze_operator(xi, C40)[:, 0]
    expect = np.zeros(41, dtype=complex)
    expect[0] = 1.0
    expect[2] = -xi.xi / 2.0 * math.sqrt(2.0)
    assert np.max(np.abs(out - expect)) < 1e-15


# ---------------------------------------------------------------------------
# quadrature variances


def test_variance_trivial_amplitude_is_vacuum_level():
    exact, closed = quadrature_variance_even(EvenCoherentParam(0.0), C40, 0.3)
    assert exact == pytest.approx(0.25, abs=1e-12)
    assert closed == pytest.approx(0.25, abs=1e-12)


def test_variance_exact_matches_closed_form_on_grid():
    param = EvenCoherentParam(0.5, 0.6)
    thetas = np.linspace(0.0, math.pi, 13)
    exact, closed = quadrature_variance_even(param, C40, thetas)
    assert exact.shape == closed.shape == thetas.shape
    assert np.max(np.abs(exact - closed)) < 1e-8


def test_variance_approx_extremes():
    b2 = 0.05
    param = EvenCoherentParam(math.sqrt(b2), 0.0)
    hi = even_variance_approx(param, 0.0)
    lo = even_variance_approx(param, math.pi / 2)
    assert hi == pytest.approx((1 + 2 * b2) / 4)
    assert lo == pytest.approx((1 - 2 * b2) / 4)
    xi = SqueezeParam(b2, 0.0)
    assert squeezed_vacuum_variance_approx(xi, 0.0) == pytest.approx((1 - 2 * b2) / 4)
    assert squeezed_vacuum_variance_approx(xi, math.pi / 2) == pytest.approx((1 + 2 * b2) / 4)


def test_variance_closed_vs_approx_next_order_bound():
    u = 0.1  # 2 |beta|^2
    param = EvenCoherentParam(math.sqrt(u / 2), 0.0)
    worst = float(np.max(np.abs(
        even_variance_closed_form(param, np.linspace(0, math.pi, 50))
        - even_variance_approx(param, np.linspace(0, math.pi, 50)))))
    assert worst <= u * u / 2 * (1 + u) / 4


def test_variance_families_match_at_corresponding_parameters():
    # r = |beta|^2 with the amplitude at a matching angle mimics the
    # squeezed vacuum's variance profile to the stated first order
    r = 0.05
    phi = 0.0
    vp = matching_varphi(phi)[0]
    param = EvenCoherentParam(math.sqrt(r), vp)
    thetas = np.linspace(0.0, math.pi, 25)
    sv_ap = np.array([squeezed_vacuum_variance_approx(SqueezeParam(r, phi), t)
                      for t in thetas])
    ec_ap = even_variance_approx(param, thetas)
    assert np.max(np.abs(sv_ap - ec_ap)) < 1e-12
    sv_ex = np.array([squeezed_vacuum_variance(SqueezeParam(r, phi), t) for t in thetas])
    ec_ex = even_variance_closed_form(param, thetas)
    assert np.max(np.abs(sv_ex - ec_ex)) <= 3e-3


def test_variance_exact_against_general_machinery():
    # the closed form should agree with the generic moment-based variance
    xi = SqueezeParam(0.3, 1.0)
    cut = FockCutoff(60)
    sv = squeeze_operator(xi, cut)[:, 0]
    st = PureState(sv / np.linalg.norm(sv), cut)
    for th in (0.0, 0.7, math.pi / 2):
        assert abs(quadrature_variance(st, th)
                   - squeezed_vacuum_variance(xi, th)) < 1e-8


# ---------------------------------------------------------------------------
# displacement via a strong ancilla


def test_bs_realization_validation():
    with pytest.raises(ValueError):
        BeamSplitterRealization(0.0, 1.0)
    with pytest.raises(ValueError):
        BeamSplitterRealization(1.2, 1.0)
    real = BeamSplitterRealization(0.04, 1.5)
    assert real.effective_displacement == pytest.approx(0.3)


VACUUM = EvenCoherentParam(0.0)


def test_displacement_bs_full_swap_replaces_vacuum():
    real = BeamSplitterRealization(1.0, 0.0)
    rho, fid = displacement_via_beamsplitter(real, VACUUM, C40)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_displacement_bs_vacuum_input_high_reflectivity():
    real = BeamSplitterRealization(0.01, 3.0)
    rho, fid = displacement_via_beamsplitter(real, VACUUM, C40)
    assert fid >= 0.99
    target = coherent_state(0.3, C40)
    assert fidelity(target, rho) >= 0.99


def test_displacement_bs_vacuum_input_fidelity_is_exactly_one():
    # mixing two coherent beams yields coherent outputs; the signal arm IS
    # the ideal displaced state whenever the input is itself coherent
    for T in (0.5, 0.1, 0.01):
        real = BeamSplitterRealization(T, 0.3 / math.sqrt(T))
        _, fid = displacement_via_beamsplitter(real, VACUUM, C40)
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_displacement_bs_coherent_input_gap():
    # non-vacuum coherent input: fidelity drops by exp(-|a|^2 (1-sqrt(1-T))^2)
    alpha = 0.8
    st = coherent_state(alpha, C40)
    for T in (0.25, 0.04):
        real = BeamSplitterRealization(T, 0.2 / math.sqrt(T))
        _, fid = displacement_via_beamsplitter_fock(real, st, C40)
        expect = math.exp(-abs(alpha) ** 2 * (1.0 - math.sqrt(1.0 - T)) ** 2)
        assert abs(fid - expect) < 1e-6


def test_displacement_bs_fidelity_improves_as_T_drops():
    cut = FockCutoff(45)
    fids = []
    for T in (0.5, 0.25, 0.1, 0.04, 0.01):
        real = BeamSplitterRealization(T, 0.3 / math.sqrt(T))
        _, fid = displacement_via_beamsplitter(real, EvenCoherentParam(1.0), cut)
        fids.append(fid)
    assert all(a < b for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.99


def test_displacement_bs_ancilla_tail_guard():
    # the ancilla (mean 81 photons at cutoff 40) is never truncated: only the
    # signal rows and the target are, and here both sit at amplitude 0.9
    _, fid = displacement_via_beamsplitter(BeamSplitterRealization(0.01, 9.0), VACUUM, C40)
    assert fid == pytest.approx(1.0, abs=1e-9)
    # a signal row at amplitude sqrt(0.5) * 12.7 ~ 9 loses more than tail_tol
    with pytest.raises(TailMassError) as exc:
        displacement_via_beamsplitter(BeamSplitterRealization(0.5, 12.7), VACUUM, C40)
    assert "signal" in str(exc.value)


def test_displacement_bs_rejects_mismatched_input():
    with pytest.raises(ValueError):
        displacement_via_beamsplitter_fock(
            BeamSplitterRealization(0.5, 0.1), vacuum(FockCutoff(20)), C40)


@pytest.mark.parametrize("T", [1.0, 0.5, 0.1, 0.01])
def test_displacement_bs_closed_form_matches_fock_oracle(T):
    for beta_mag in (0.0, 0.8, 1.5):
        param = EvenCoherentParam(beta_mag, 0.9)
        for eff in (0.3, 0.2 + 0.25j):
            real = BeamSplitterRealization(T, eff / math.sqrt(T))
            rho, fid = displacement_via_beamsplitter(real, param, C40)
            rho_fock, fid_fock = displacement_via_beamsplitter_fock(
                real, even_coherent_state(param, C40), C40)
            # the oracle renormalizes a truncated ancilla and is off by a few
            # times its tail (3.8e-13 for |gamma| = 3.2); the closed form truncates none
            anc = coherent_state(real.ancilla_amp, C40)
            tol = 1e-12 + 10.0 * anc.tail_mass
            assert abs(fid - fid_fock) <= tol
            assert np.max(np.abs(rho.matrix - rho_fock.matrix)) <= tol


@settings(max_examples=30, deadline=None)
@given(T=strategies.floats(0.0, 1.0, exclude_min=True),
       beta_mag=strategies.floats(0.0, 3.0), varphi=strategies.floats(0.0, 2.0 * math.pi),
       eff_mag=strategies.floats(0.0, 2.0), eff_arg=strategies.floats(0.0, 2.0 * math.pi))
def test_displacement_bs_closed_form_raises_or_meets_tail_tol(T, beta_mag, varphi,
                                                              eff_mag, eff_arg):
    # the oracle runs at cutoff 80: its truncated splitter is itself off by up to
    # 4e-6 in rho at cutoff 30, and by 3.5e-8 in fidelity at cutoff 60 (T = 0.0664,
    # |beta| = 1, |eff| = 1.31), while its input and ancilla pass their tail checks
    cut, big, tol = FockCutoff(30), FockCutoff(80), 1e-8
    param = EvenCoherentParam(beta_mag, varphi)
    real = BeamSplitterRealization(T, eff_mag * complex(math.cos(eff_arg),
                                                        math.sin(eff_arg)) / math.sqrt(T))
    try:
        rho, fid = displacement_via_beamsplitter(real, param, cut, tol)
    except TailMassError:
        return
    try:
        rho_fock, fid_fock = displacement_via_beamsplitter_fock(
            real, even_coherent_state(param, big, tol), big, tol)
    except TailMassError:  # a gamma past ~1e154 has an all-zero row, a tail of 1
        return
    assert abs(fid - fid_fock) <= tol
    assert np.max(np.abs(rho.matrix - rho_fock.matrix[:cut.dim, :cut.dim])) <= tol
