"""Even coherent states as squeezed-vacuum mimics; ancilla-based displacement."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from cvpqc import nongauss
from cvpqc.config import config_from_dict, validate
from cvpqc.experiments import execute
from cvpqc.fock import (
    FockCutoff,
    SqueezeParam,
    TailMassError,
    coherent_amplitudes,
    displacement_operator,
    fidelity,
    quadrature_variance,
    squeeze_operator,
    squeezed_coherent_state,
    wrap_angle,
)
from cvpqc.nongauss import (
    beamsplitter_signal,
    displacement_via_beamsplitter,
    even_coherent_state,
    even_variance_approx,
    even_variance_closed_form,
    overlap_even_vs_squeezed,
    squeezed_vacuum_variance,
    squeezed_vacuum_variance_approx,
)
from oracles import (
    coherent_state,
    displacement_via_beamsplitter_fock,
    matching_varphi,
    mode_moments,
    overlap_even_vs_squeezed_fock,
    truncated_squeeze_check,
    truncated_squeeze_operator,
    vacuum,
    xi_value,
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
    st = even_coherent_state(1e-4, 0.0, C40)
    assert abs(np.vdot(st, vacuum(C40))) ** 2 > 1 - 1e-8


def test_even_state_odd_levels_exactly_zero():
    st = even_coherent_state(0.9, 0.7, C40)
    assert np.all(st[1::2] == 0.0)
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def test_even_state_matches_direct_superposition():
    st = even_coherent_state(0.8, 1.2, C40)
    beta = 0.8 * np.exp(1.2j)
    direct = coherent_state(beta, C40) + coherent_state(-beta, C40)
    direct = direct / np.linalg.norm(direct)
    assert np.max(np.abs(st - direct)) < 1e-12


def test_even_param_validation_and_wrap():
    # a negative |beta| is a config problem, and every even-coherent experiment
    # wraps varphi into [0, 2 pi) before it forms beta
    for doc in ({"experiment": "nongauss_overlap", "beta_mag_list": [-0.1]},
                {"experiment": "nongauss_variance", "beta_mag_list": [-0.1]},
                {"experiment": "displacement_bs", "input_beta_mag": -0.1}):
        assert not validate(config_from_dict(doc)).ok
    # (config, angle field, first computed column); rows equal bit for bit
    for doc, angle, first in (({"experiment": "nongauss_overlap", "r_list": [0.1]},
                               "varphi_list", 5),
                              ({"experiment": "nongauss_variance"}, "varphi_list", 7),
                              ({"experiment": "displacement_bs"}, "input_varphi", 9)):
        computed = []
        for vp in (-100.1, wrap_angle(-100.1)):
            _, rows = execute(config_from_dict(
                dict(doc, **{angle: [vp] if angle.endswith("_list") else vp})))
            computed.append([row[first:] for row in rows])
        assert computed[0] == computed[1]


def test_even_state_tail_guard():
    with pytest.raises(TailMassError):
        even_coherent_state(3.5, 0.0, FockCutoff(10))


# ---------------------------------------------------------------------------
# overlap with squeezed vacuum


def test_overlap_trivial_parameters():
    exact, approx = overlap_even_vs_squeezed(0.0, 0.0, SqueezeParam(0.0))
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert approx == 1.0


def test_overlap_exact_matches_closed_form():
    for bm, vp, r, phi in (
        (0.25, 0.0, 0.05, 0.0),
        (0.5, math.pi / 2, 0.05, 0.0),
        (0.4, 0.3, 0.2, 1.0),
        (0.7, -1.0, 0.1, 2.5),
    ):
        exact, _ = overlap_even_vs_squeezed(bm, wrap_angle(vp), SqueezeParam(r, phi))
        assert abs(exact - overlap_closed_form(bm, vp, SqueezeParam(r, phi))) < 1e-12
        fock = overlap_even_vs_squeezed_fock(bm, wrap_angle(vp), SqueezeParam(r, phi), C40)
        assert abs(exact - fock) < 1e-12


def test_overlap_approx_tracks_exact_over_angles():
    bm, r = 0.25, 0.05
    vps = np.linspace(-math.pi, math.pi, 37)
    exact = np.empty_like(vps)
    approx = np.empty_like(vps)
    for i, vp in enumerate(vps):
        exact[i], approx[i] = overlap_even_vs_squeezed(bm, wrap_angle(vp), SqueezeParam(r, 0.0))
    assert np.max(np.abs(exact - approx)) < 5e-3
    corr = np.corrcoef(exact, approx)[0, 1]
    assert corr > 0.99


def test_overlap_joint_phase_covariance():
    # shifting varphi by delta and phi by 2 delta leaves the overlap fixed
    bm, r = 0.5, 0.1
    base, _ = overlap_even_vs_squeezed(bm, 0.4, SqueezeParam(r, 0.9))
    for delta in (0.3, 1.0, -2.0):
        moved, _ = overlap_even_vs_squeezed(bm, wrap_angle(0.4 + delta),
                                            SqueezeParam(r, 0.9 + 2 * delta))
        assert abs(moved - base) < 1e-12


def test_matching_angles_maximize_overlap():
    phi = 0.8
    v1, v2 = matching_varphi(phi)
    assert abs(math.cos(2 * v1 - phi) + 1.0) < 1e-12  # cos = -1 at the match
    assert abs(math.cos(2 * v2 - phi) + 1.0) < 1e-12
    bm, r = 0.3, 0.05
    at_match, _ = overlap_even_vs_squeezed(bm, v1, SqueezeParam(r, phi))
    off, _ = overlap_even_vs_squeezed(bm, wrap_angle(v1 + 0.7), SqueezeParam(r, phi))
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
    expect[2] = -xi_value(xi) / 2.0 * math.sqrt(2.0)
    assert np.max(np.abs(out - expect)) < 1e-15


# ---------------------------------------------------------------------------
# quadrature variances


def test_variance_trivial_amplitude_is_vacuum_level():
    exact = quadrature_variance(*mode_moments(even_coherent_state(0.0, 0.0, C40)), 0.3)
    assert exact == pytest.approx(0.25, abs=1e-12)
    assert even_variance_closed_form(0.0, 0.0, 0.3) == pytest.approx(0.25, abs=1e-12)


def test_variance_exact_matches_closed_form_on_grid():
    state = even_coherent_state(0.5, 0.6, C40)
    worst = max(abs(quadrature_variance(*mode_moments(state), th)
                    - even_variance_closed_form(0.5, 0.6, th))
                for th in np.linspace(0.0, math.pi, 13))
    assert worst < 1e-8


def test_variance_approx_extremes():
    b2 = 0.05
    hi = even_variance_approx(math.sqrt(b2), 0.0, 0.0)
    lo = even_variance_approx(math.sqrt(b2), 0.0, math.pi / 2)
    assert hi == pytest.approx((1 + 2 * b2) / 4)
    assert lo == pytest.approx((1 - 2 * b2) / 4)
    xi = SqueezeParam(b2, 0.0)
    assert squeezed_vacuum_variance_approx(xi, 0.0) == pytest.approx((1 - 2 * b2) / 4)
    assert squeezed_vacuum_variance_approx(xi, math.pi / 2) == pytest.approx((1 + 2 * b2) / 4)


def test_variance_closed_vs_approx_next_order_bound():
    u = 0.1  # 2 |beta|^2
    bm = math.sqrt(u / 2)
    worst = max(abs(even_variance_closed_form(bm, 0.0, th) - even_variance_approx(bm, 0.0, th))
                for th in np.linspace(0, math.pi, 50))
    assert worst <= u * u / 2 * (1 + u) / 4


def test_variance_families_match_at_corresponding_parameters():
    # r = |beta|^2 with the amplitude at a matching angle mimics the
    # squeezed vacuum's variance profile to the stated first order
    r = 0.05
    phi = 0.0
    vp = matching_varphi(phi)[0]
    thetas = np.linspace(0.0, math.pi, 25)
    sv_ap = np.array([squeezed_vacuum_variance_approx(SqueezeParam(r, phi), t)
                      for t in thetas])
    ec_ap = np.array([even_variance_approx(math.sqrt(r), vp, t) for t in thetas])
    assert np.max(np.abs(sv_ap - ec_ap)) < 1e-12
    sv_ex = np.array([squeezed_vacuum_variance(SqueezeParam(r, phi), t) for t in thetas])
    ec_ex = np.array([even_variance_closed_form(math.sqrt(r), vp, t) for t in thetas])
    assert np.max(np.abs(sv_ex - ec_ex)) <= 3e-3


def test_variance_exact_against_general_machinery():
    # the closed form should agree with the generic moment-based variance
    xi = SqueezeParam(0.3, 1.0)
    cut = FockCutoff(60)
    sv = squeeze_operator(xi, cut)[:, 0]
    st = sv / np.linalg.norm(sv)
    for th in (0.0, 0.7, math.pi / 2):
        assert abs(quadrature_variance(*mode_moments(st), th)
                   - squeezed_vacuum_variance(xi, th)) < 1e-8


# ---------------------------------------------------------------------------
# displacement via a strong ancilla


VACUUM = (0.0, 0.0)  # |beta|, varphi


def test_bs_realization_validation():
    for T in (0.0, -0.5, 1.2, math.nan):
        with pytest.raises(ValueError, match="transmission must lie in"):
            beamsplitter_signal(T, 0.3, *VACUUM, C40)
        with pytest.raises(ValueError, match="transmission must lie in"):
            displacement_via_beamsplitter([0.5, T], 0.3, *VACUUM, C40)
    [fid] = displacement_via_beamsplitter([1.0], 0.3, *VACUUM, C40)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_displacement_bs_full_swap_replaces_vacuum():
    [fid] = displacement_via_beamsplitter([1.0], 0.0, *VACUUM, C40)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_displacement_bs_vacuum_input_high_reflectivity():
    [fid] = displacement_via_beamsplitter([0.01], 0.3, *VACUUM, C40)
    assert fid >= 0.99
    target = coherent_state(0.3, C40)
    assert fidelity(target, beamsplitter_signal(0.01, 0.3, *VACUUM, C40)) >= 0.99


def test_displacement_bs_vacuum_input_fidelity_is_exactly_one():
    # mixing two coherent beams yields coherent outputs; the signal arm IS
    # the ideal displaced state whenever the input is itself coherent
    for fid in displacement_via_beamsplitter([0.5, 0.1, 0.01], 0.3, *VACUUM, C40):
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_displacement_bs_coherent_input_gap():
    # non-vacuum coherent input: fidelity drops by exp(-|a|^2 (1-sqrt(1-T))^2)
    alpha = 0.8
    st = coherent_state(alpha, C40)
    for T in (0.25, 0.04):
        _, fid = displacement_via_beamsplitter_fock(T, 0.2, st, C40)
        expect = math.exp(-abs(alpha) ** 2 * (1.0 - math.sqrt(1.0 - T)) ** 2)
        assert abs(fid - expect) < 1e-6


def test_displacement_bs_fidelity_improves_as_T_drops():
    cut = FockCutoff(45)
    fids = displacement_via_beamsplitter([0.5, 0.25, 0.1, 0.04, 0.01], 0.3, 1.0, 0.0, cut)
    assert all(a < b for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.99


def test_displacement_bs_ancilla_tail_guard():
    # the ancilla (mean 81 photons at cutoff 40) is never truncated: only the
    # signal rows and the target are, and here both sit at amplitude 0.9
    [fid] = displacement_via_beamsplitter([0.01], 0.9, *VACUUM, C40)
    assert fid == pytest.approx(1.0, abs=1e-9)
    # a signal row at amplitude sqrt(0.5) * 12.7 ~ 9 loses more than tail_tol
    with pytest.raises(TailMassError) as exc:
        displacement_via_beamsplitter([0.5], math.sqrt(0.5) * 12.7, *VACUUM, C40)
    assert "signal" in str(exc.value)


def test_displacement_bs_config_is_one_task_that_builds_its_target_once(monkeypatch):
    calls = []

    def counting(eff, cutoff):
        calls.append(eff)
        return displacement_operator(eff, cutoff)

    monkeypatch.setattr(nongauss, "displacement_operator", counting)
    Ts = [0.5, 0.1, 0.01]
    _, rows = execute(config_from_dict({"experiment": "displacement_bs", "T_list": Ts,
                                        "cutoff": 40}))
    assert calls == [0.3]
    # the same bytes as one call per transmission
    each = [fid for T in Ts for fid in displacement_via_beamsplitter([T], 0.3, 1.0, 0.0, C40)]
    assert [row[-1] for row in rows] == each
    # both signals fail here, the one at T = 0.01 by more; the first in T_list
    # is reported, as when each transmission was a task of its own
    with pytest.raises(TailMassError, match=r"at T=0\.5"):
        displacement_via_beamsplitter([0.5, 0.01], 8.5, 1.0, 0.0, C40)


def test_overlap_over_pair_lists_is_the_scalar_calls():
    # a run over lists of (|beta|, varphi) prints, bit for bit, the closed form of
    # each pair, its varphi wrapped
    bms, vps, xi = [0.1, 0.5, 0.0, 0.25], [0.0, 1.3, 2.0, -5.9], SqueezeParam(0.2, 1.0)
    _, rows = execute(config_from_dict({"experiment": "nongauss_overlap", "r_list": [0.2],
                                        "phi_list": [1.0], "beta_mag_list": bms,
                                        "varphi_list": vps}))
    assert [row[5:7] for row in rows] == [overlap_even_vs_squeezed(bm, wrap_angle(vp), xi)
                                          for bm in bms for vp in vps]


@settings(max_examples=60, deadline=None)
@given(r=strategies.floats(0.0, 0.5), phi=strategies.floats(-10.0, 10.0),
       beta_mag=strategies.floats(0.0, 1.0), varphi=strategies.floats(-10.0, 10.0),
       theta=strategies.floats(-10.0, 10.0))
def test_nongauss_exact_matches_the_fock_oracle(r, phi, beta_mag, varphi, theta):
    # both experiments' closed forms against the truncated Fock states they
    # replaced, at a cutoff that holds these states to far below 1e-10
    cut, xi, vp, th = FockCutoff(80), SqueezeParam(r, phi), wrap_angle(varphi), wrap_angle(theta)
    fields = {"r_list": [r], "phi_list": [phi], "beta_mag_list": [beta_mag],
              "varphi_list": [varphi], "cutoff": 80}
    _, (row,) = execute(config_from_dict(dict(fields, experiment="nongauss_overlap")))
    assert abs(row[5] - overlap_even_vs_squeezed_fock(beta_mag, vp, xi, cut)) <= 1e-10
    _, (squeezed, even) = execute(config_from_dict(
        dict(fields, experiment="nongauss_variance", theta_list=[theta])))
    (sv,) = squeezed_coherent_state(xi, [0.0], cut)
    assert abs(squeezed[7] - quadrature_variance(*mode_moments(sv), th)) <= 1e-10
    ec = even_coherent_state(beta_mag, vp, cut)
    assert abs(even[7] - quadrature_variance(*mode_moments(ec), th)) <= 1e-10


def test_displacement_bs_rejects_mismatched_input():
    with pytest.raises(ValueError):
        displacement_via_beamsplitter_fock(0.5, 0.1, vacuum(FockCutoff(20)), C40)


@pytest.mark.parametrize("T", [1.0, 0.5, 0.1, 0.01])
def test_displacement_bs_closed_form_matches_fock_oracle(T):
    for beta_mag in (0.0, 0.8, 1.5):
        for eff in (0.3, 0.2 + 0.25j):
            rho = beamsplitter_signal(T, eff, beta_mag, 0.9, C40)
            [fid] = displacement_via_beamsplitter([T], eff, beta_mag, 0.9, C40)
            rho_fock, fid_fock = displacement_via_beamsplitter_fock(
                T, eff, even_coherent_state(beta_mag, 0.9, C40), C40)
            # the oracle renormalizes a truncated ancilla and is off by a few
            # times its tail (3.8e-13 for |gamma| = 3.2); the closed form truncates none
            (anc,) = coherent_amplitudes([eff / math.sqrt(T)], C40)
            tol = 1e-12 + 10.0 * (1.0 - np.vdot(anc, anc).real)
            assert abs(fid - fid_fock) <= tol
            assert np.max(np.abs(rho - rho_fock)) <= tol


@settings(max_examples=30, deadline=None)
@given(T=strategies.floats(0.0, 1.0, exclude_min=True),
       beta_mag=strategies.floats(0.0, 3.0), varphi=strategies.floats(0.0, 2.0 * math.pi),
       eff_mag=strategies.floats(0.0, 2.0), eff_arg=strategies.floats(0.0, 2.0 * math.pi))
# an oracle at a fixed cutoff 80 was off by 4.6e-8 in rho at the first, and by
# 1.7e-8 in rho and 2.9e-8 in fidelity at the second: |gamma| = 6.33 and 6.25
@example(T=0.09375, beta_mag=1.5, varphi=0.0, eff_mag=1.9375, eff_arg=1.0)
@example(T=0.0625, beta_mag=1.0, varphi=0.0, eff_mag=1.5625, eff_arg=0.0)
def test_displacement_bs_closed_form_raises_or_meets_tail_tol(T, beta_mag, varphi,
                                                              eff_mag, eff_arg):
    # the oracle's box-wide splitter cuts short the sectors i + j > n_max, which
    # the ancilla gamma = eff / sqrt(T) and the input beta fill up to about
    # (|gamma| + |beta|)^2 photons, so its cutoff follows that square:
    # (|gamma| + |beta| + 3)^2 levels, and 80 at least, kept it within 1.3e-9 of
    # the closed form in 550 random draws with |gamma| in [4, 9] and |beta| <= 3.
    # A draw that needs more than 200 levels, |gamma| + |beta| above 11.1, is not
    # checked
    cut, tol = FockCutoff(30), 1e-8
    eff = eff_mag * complex(math.cos(eff_arg), math.sin(eff_arg))
    try:
        rho = beamsplitter_signal(T, eff, beta_mag, varphi, cut, tol)
        [fid] = displacement_via_beamsplitter([T], eff, beta_mag, varphi, cut, tol)
    except TailMassError:
        return
    reach = eff_mag / math.sqrt(T) + beta_mag + 3.0
    if reach * reach > 200.0:  # inf past the float range
        return
    big = FockCutoff(max(80, math.ceil(reach * reach)))
    rho_fock, fid_fock = displacement_via_beamsplitter_fock(
        T, eff, even_coherent_state(beta_mag, varphi, big, tol), big, tol)
    assert abs(fid - fid_fock) <= tol
    assert np.max(np.abs(rho - rho_fock[:cut.dim, :cut.dim])) <= tol
