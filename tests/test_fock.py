"""Core Fock-space layer: states, operators, metrics, truncation control."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cvpqc.channel import ConformationSpec, maximally_mixed, mixture_gamma, squeezed_mixture
from cvpqc.fock import (
    DensityOperator,
    FockCutoff,
    PureState,
    SqueezeParam,
    TailMassError,
    beam_splitter,
    beam_splitter_5050,
    coherent_amplitudes,
    displacement_operator,
    fidelity,
    heuristic_cutoff,
    hs_distance,
    mode_moments,
    partial_trace,
    purity,
    quadrature_variance,
    squeeze_operator,
    squeezed_coherent_closed_form,
    squeezed_coherent_state,
    tensor,
    vacuum,
    von_neumann_entropy,
)
from cvpqc.nongauss import (
    BeamSplitterRealization,
    EvenCoherentParam,
    displacement_via_beamsplitter,
)
from oracles import (
    annihilation,
    apply_mode_operator,
    channel_output,
    check_density,
    coherent_state,
    conformation_ring,
    decrypt,
    displacement_expm,
    encrypt,
    partial_trace_dense,
    squeeze_expm,
    squeezed_coherent_amplitudes,
    squeezed_conformation,
    squeezed_vacuum_amplitudes,
    two_mode_dense,
    two_mode_inverse,
    two_mode_squeezer,
)

C40 = FockCutoff(40)
C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# vacuum


def test_vacuum_single_mode_amplitudes():
    v = vacuum(FockCutoff(4))
    assert np.array_equal(v.amplitudes, np.array([1, 0, 0, 0, 0], dtype=complex))


def test_vacuum_two_mode_amplitude_at_origin():
    v = vacuum(FockCutoff(2), modes=2)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0)


def test_vacuum_norm_exact():
    assert vacuum(C40).norm() == 1.0


def test_vacuum_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        vacuum(C40, modes=3)


# ---------------------------------------------------------------------------
# displacement operator


def test_displacement_zero_is_identity():
    for build in (displacement_operator, displacement_expm):
        D = build(0.0, FockCutoff(12))
        assert np.allclose(D, np.eye(13), atol=1e-14)


def test_coherent_rows_equal_one_call_per_alpha():
    # one batched call must give each row bit for bit, and alpha = 0 the vacuum row
    alphas = np.array([0.7 - 0.4j, 0.0, -2.5 + 1e-3j, 1e-9j, 5.0])
    rows = coherent_amplitudes(alphas, C40)
    assert rows.shape == (5, 41)
    for a, row in zip(alphas, rows):
        assert np.array_equal(row, coherent_amplitudes(a, C40))
    assert np.array_equal(rows[1], np.eye(41)[0])


def test_displacement_column_zero_is_coherent_amplitudes():
    alpha = 0.7 - 0.4j
    D = displacement_operator(alpha, C40)
    assert np.max(np.abs(D[:, 0] - coherent_amplitudes(alpha, C40))) < 1e-14


def test_displacement_methods_agree_on_interior():
    D1 = displacement_operator(1.0, C40)
    D2 = displacement_expm(1.0, C40)
    assert np.max(np.abs(D1[:21, :21] - D2[:21, :21])) < 1e-8


def test_displacement_laguerre_unitary_on_interior():
    D = displacement_operator(0.8 + 0.5j, C40)
    G = D.conj().T @ D
    assert np.max(np.abs(G[:20, :20] - np.eye(20))) < 1e-10


# ---------------------------------------------------------------------------
# squeeze operator


def test_squeeze_zero_is_identity():
    S = squeeze_operator(SqueezeParam(0.0), FockCutoff(15))
    assert np.allclose(S, np.eye(16), atol=1e-14)


def test_squeeze_leaves_odd_levels_unpopulated():
    for r, phi in ((0.3, 0.0), (0.7, 1.1), (1.2, 4.0)):
        S = squeeze_operator(SqueezeParam(r, phi), C40)
        assert np.max(np.abs(S[1::2, 0])) < 1e-14


def test_squeeze_level2_weight_matches_series_term():
    r = 0.5
    S = squeeze_operator(SqueezeParam(r, 0.0), C60)
    # second even coefficient of the vacuum column: -tanh(r) sqrt(2)/2 / sqrt(cosh r)
    expected = math.tanh(r) ** 2 / (2.0 * math.cosh(r))
    got = abs(S[2, 0]) ** 2
    assert abs(got - expected) / expected < 1e-8


def test_squeezed_vacuum_series_matches_operator_column():
    xi = SqueezeParam(0.6, 2.0)
    col = squeeze_operator(xi, C60)[:, 0]
    ser = squeezed_vacuum_amplitudes(xi, C60)
    assert np.max(np.abs(col - ser)) < 1e-14


def test_squeeze_operator_is_unitary():
    # unitary where truncation does not bite: on the columns S|n> whose tail beyond
    # n_max is negligible (read off the expm form at three times the cutoff), and
    # equal to the truncated generator's expm on the interior block
    xi = SqueezeParam(0.3, 0.3)
    S = squeeze_operator(xi, C60)
    wide = squeeze_expm(xi, FockCutoff(180))
    tails = np.sum(np.abs(wide[61:, :61]) ** 2, axis=0)
    kept = np.flatnonzero(tails < 1e-15)
    assert len(kept) >= 12
    G = S[:, kept].conj().T @ S[:, kept]
    assert np.max(np.abs(G - np.eye(len(kept)))) < 1e-12
    lo = C60.n_max // 3 + 1
    assert np.max(np.abs(S[:lo, :lo] - squeeze_expm(xi, C60)[:lo, :lo])) < 1e-12


@pytest.mark.parametrize("r", [0.3, 0.6])
def test_squeeze_operator_times_coherent_row_is_the_closed_form(r):
    xi = SqueezeParam(r, 1.2)
    for alpha in (1.0, 0.5 - 0.7j):
        got = squeeze_operator(xi, C60) @ coherent_amplitudes(alpha, C60)
        assert np.max(np.abs(got - squeezed_coherent_closed_form(xi, alpha, C60))) <= 1e-14


def test_squeezed_state_reports_the_mass_it_loses():
    # the squeezed vacuum at r = 2 keeps only 79% of its mass below level 21
    with pytest.raises(TailMassError) as err:
        squeezed_coherent_state(SqueezeParam(2.0), 0, FockCutoff(20))
    assert err.value.tail == pytest.approx(0.2093, rel=0.01)


@pytest.mark.parametrize("r, tail", [(1.0, 2.16e-2), (1.5, 0.588)])
def test_squeezed_mixture_reports_the_mass_it_loses(r, tail):
    # b = 2 at the heuristic cutoff 59: the outer ring loses this much once squeezed
    with pytest.raises(TailMassError) as err:
        squeezed_mixture(16, 2.0, SqueezeParam(r), FockCutoff(59))
    assert err.value.tail == pytest.approx(tail, rel=0.01)


# ---------------------------------------------------------------------------
# coherent and squeezed coherent states


@settings(max_examples=200, deadline=None)
@given(r=strategies.floats(0.0, 2.0), phi=strategies.floats(0.0, 2.0 * math.pi),
       alpha_mag=strategies.floats(0.0, 4.0), alpha_arg=strategies.floats(0.0, 2.0 * math.pi),
       n_max=strategies.integers(5, 80))
def test_squeezed_coherent_state_raises_or_matches_closed_form(r, phi, alpha_mag, alpha_arg,
                                                               n_max):
    # An accepted state has lost at most tol: its raw amplitudes S P c (P truncates
    # the coherent row c) differ from the truncated closed form P S c by P S (1 - P) c,
    # whose squared norm is at most the coherent tail, itself at most the tail the
    # call reports.  Single levels can move by more (4.8e-7 seen): the error is first
    # order in that amplitude, so the comparison is in the norm the contract bounds.
    xi, tol = SqueezeParam(r, phi), 1e-8
    alpha = alpha_mag * complex(math.cos(alpha_arg), math.sin(alpha_arg))
    closed = squeezed_coherent_amplitudes(xi, alpha, 4000)
    probs = np.abs(closed) ** 2
    assert abs(1.0 - probs.sum()) < 1e-10  # the closed form has converged
    try:
        state = squeezed_coherent_state(xi, alpha, FockCutoff(n_max), tol)
    except TailMassError:
        return
    assert probs[n_max + 1:].sum() <= 2.0 * tol
    raw = state.amplitudes * math.sqrt(1.0 - state.tail_mass)
    assert np.sum(np.abs(raw - closed[:n_max + 1]) ** 2) <= tol


def test_squeezed_coherent_with_zero_displacement_is_squeezed_vacuum():
    xi = SqueezeParam(0.4, 0.9)
    sc = squeezed_coherent_state(xi, 0.0, C60)
    sv = squeezed_vacuum_amplitudes(xi, C60)
    assert abs(np.vdot(sv / np.linalg.norm(sv), sc.amplitudes)) ** 2 > 1 - 1e-12


def test_squeezed_coherent_without_squeezing_is_coherent():
    sc = squeezed_coherent_state(SqueezeParam(0.0), 1.3, C60)
    c = coherent_state(1.3, C60)
    assert abs(sc.overlap(c)) ** 2 > 1 - 1e-12


def test_squeezed_coherent_matches_closed_form():
    xi = SqueezeParam(0.3, math.pi / 2)
    sc = squeezed_coherent_state(xi, 1.0, C60)
    cf = squeezed_coherent_closed_form(xi, 1.0, C60)
    cf = cf / np.linalg.norm(cf)
    assert abs(np.vdot(cf, sc.amplitudes)) ** 2 >= 1 - 1e-8


def test_closed_form_reduces_to_coherent_at_zero_squeezing():
    cf = squeezed_coherent_closed_form(SqueezeParam(0.0), 0.8 + 0.2j, C40)
    assert np.max(np.abs(cf - coherent_amplitudes(0.8 + 0.2j, C40))) < 1e-14


def test_operator_ordering_displacement_after_squeeze():
    # squeeze(displace(vac, a)) == displace(squeeze(vac), a cosh r - conj(a) e^{i phi} sinh r)
    xi = SqueezeParam(0.35, 1.3)
    alpha = 0.9 - 0.5j
    lhs = squeezed_coherent_state(xi, alpha, C60)
    moved = alpha * math.cosh(xi.r) - np.conj(alpha) * np.exp(1j * xi.phi) * math.sinh(xi.r)
    rhs_raw = displacement_operator(moved, C60) @ squeezed_vacuum_amplitudes(xi, C60)
    rhs_raw = rhs_raw / np.linalg.norm(rhs_raw)
    assert abs(np.vdot(rhs_raw, lhs.amplitudes)) ** 2 >= 1 - 1e-8


def test_coherent_state_tail_failure_raises():
    with pytest.raises(TailMassError):
        coherent_state(4.0, FockCutoff(10))


def test_tail_mass_recorded_and_small():
    st = coherent_state(1.0, C40)
    assert 0.0 <= st.tail_mass < 1e-12


# ---------------------------------------------------------------------------
# beam splitter and two-mode machinery


def test_beam_splitter_preserves_vacuum():
    bs = beam_splitter_5050(FockCutoff(10))
    out = bs.apply(vacuum(FockCutoff(10), modes=2))
    assert abs(out.amplitudes[0]) > 1 - 1e-12


def test_beam_splitter_splits_coherent_state():
    cut = FockCutoff(25)
    out = beam_splitter_5050(cut).apply(tensor(coherent_state(1.0, cut), vacuum(cut)))
    half = coherent_state(1.0 / math.sqrt(2.0), cut)
    target = tensor(half, half)
    assert abs(out.overlap(target)) ** 2 >= 1 - 1e-6


def test_beam_splitter_dense_is_unitary():
    cut = FockCutoff(12)
    B = two_mode_dense(beam_splitter_5050(cut))
    assert np.max(np.abs(B.conj().T @ B - np.eye(13 * 13))) < 1e-8


def test_beam_splitter_dense_and_apply_agree():
    cut = FockCutoff(8)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=81) + 1j * rng.normal(size=81)
    amps /= np.linalg.norm(amps)
    st = PureState(amps, cut, modes=2)
    bs = beam_splitter(0.6, cut)
    direct = two_mode_dense(bs) @ amps
    assert np.max(np.abs(direct - bs.apply(st).amplitudes)) < 1e-12


def test_beam_splitter_inverse_roundtrip():
    cut = FockCutoff(10)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=121) + 1j * rng.normal(size=121)
    amps /= np.linalg.norm(amps)
    st = PureState(amps, cut, modes=2)
    bs = beam_splitter(0.9, cut)
    back = two_mode_inverse(bs).apply(bs.apply(st))
    assert np.max(np.abs(back.amplitudes - amps)) < 1e-12


def test_two_mode_squeezer_vacuum_series():
    # exp(z* ab - z a+b+)|0,0> has amplitude (-e^{i phi} tanh r)^n / cosh r at |n,n>
    cut = FockCutoff(20)
    xi = SqueezeParam(0.5, 0.8)
    out = two_mode_squeezer(xi, cut).apply(vacuum(cut, modes=2)).amplitudes.reshape(21, 21)
    n = np.arange(21)
    expect = (-np.exp(1j * xi.phi) * math.tanh(xi.r)) ** n / math.cosh(xi.r)
    # ladder truncation perturbs the top levels; the interior is converged
    assert np.max(np.abs(np.diag(out)[:15] - expect[:15])) < 1e-10
    assert np.max(np.abs(np.diag(out) - expect)) < 1e-6
    off = out - np.diag(np.diag(out))
    assert np.max(np.abs(off)) == 0.0  # number-difference conservation is structural


def test_apply_mode_operator_matches_kron():
    cut = FockCutoff(6)
    rng = np.random.default_rng(11)
    op = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    amps = rng.normal(size=49) + 1j * rng.normal(size=49)
    amps /= np.linalg.norm(amps)
    st = PureState(amps, cut, modes=2)
    via0 = apply_mode_operator(op, st, 0).amplitudes
    assert np.allclose(via0, np.kron(op, np.eye(7)) @ amps)
    via1 = apply_mode_operator(op, st, 1).amplitudes
    assert np.allclose(via1, np.kron(np.eye(7), op) @ amps)


def test_cross_cutoff_operations_rejected():
    a = vacuum(FockCutoff(5))
    b = vacuum(FockCutoff(6))
    with pytest.raises(ValueError):
        tensor(a, b)
    with pytest.raises(ValueError):
        a.overlap(b)
    with pytest.raises(ValueError):
        hs_distance(a.density_operator(), b.density_operator())


# ---------------------------------------------------------------------------
# metrics


def test_hs_distance_of_state_with_itself_is_zero():
    rho = coherent_state(0.6, C40).density_operator()
    assert hs_distance(rho, rho) == 0.0


def test_hs_distance_orthogonal_pure_states():
    r0 = vacuum(C40).density_operator()
    r1 = PureState(np.eye(41)[1], C40).density_operator()
    assert abs(hs_distance(r0, r1) - math.sqrt(2.0)) < 1e-12


def test_hs_distance_squeezed_vacuum_closed_form():
    r = 0.2
    sv = squeezed_coherent_state(SqueezeParam(r), 0.0, C60).density_operator()
    vac = vacuum(C60).density_operator()
    closed = 2.0 * math.sinh(r / 2.0) / math.sqrt(math.cosh(r))
    assert abs(hs_distance(sv, vac) - closed) < 1e-10


def test_hs_distance_unitary_invariance():
    rng = np.random.default_rng(42)
    cut = C40

    def random_density():
        g = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
        m = g @ g.conj().T
        full = np.zeros((41, 41), dtype=complex)
        full[:11, :11] = m / np.trace(m).real
        return full

    def moved_by(u, m):
        return DensityOperator(u @ m @ u.conj().T, cut)

    u = displacement_operator(0.5 + 0.2j, cut) @ squeeze_operator(SqueezeParam(0.3, 1.0), cut)
    for _ in range(5):
        r1, r2 = random_density(), random_density()
        base = hs_distance(DensityOperator(r1, cut), DensityOperator(r2, cut))
        moved = hs_distance(moved_by(u, r1), moved_by(u, r2))
        assert abs(moved - base) < 1e-8


def test_entropy_and_purity_of_pure_state():
    rho = coherent_state(0.9, C40).density_operator()
    assert von_neumann_entropy(rho) < 1e-10
    assert abs(purity(rho) - 1.0) < 1e-10


def test_entropy_of_flat_diagonal_state():
    d = 8
    rho = DensityOperator(np.eye(d, dtype=complex) / d, FockCutoff(d - 1))
    assert abs(von_neumann_entropy(rho) - 3.0) < 1e-12
    assert abs(purity(rho) - 1.0 / d) < 1e-12


def test_partial_trace_of_product_state_is_pure():
    cut = FockCutoff(30)
    half = coherent_state(1.0 / math.sqrt(2.0), cut)
    both = tensor(half, half)
    for mode in (0, 1):
        red = partial_trace(both, mode)
        assert purity(red) >= 1 - 1e-8
        assert abs(fidelity(half, red) - 1.0) < 1e-8


def test_partial_trace_requires_two_modes():
    with pytest.raises(ValueError):
        partial_trace(vacuum(C40), 0)


def test_partial_trace_of_tap_matches_dense_oracle():
    # the input's closed-form tail is within tail_tol from cutoff 23 on (5.9e-5 at 12)
    cut = FockCutoff(23)
    sig = squeezed_coherent_state(SqueezeParam(0.4, 0.9), 0.6 - 0.3j, cut)
    out = beam_splitter_5050(cut).apply(tensor(sig, vacuum(cut)))
    for mode in (0, 1):
        red = partial_trace(out, mode)
        assert np.max(np.abs(red.matrix - partial_trace_dense(out, mode))) < 1e-14


def test_entanglement_entropy_of_product_state_is_zero():
    cut = FockCutoff(20)
    st = tensor(coherent_state(0.7, cut), coherent_state(-0.2, cut))
    for mode in (0, 1):
        assert von_neumann_entropy(partial_trace(st, mode)) < 1e-10


# ---------------------------------------------------------------------------
# quadrature variance


def test_vacuum_variance_quarter_at_all_angles():
    v = vacuum(C40)
    for th in np.linspace(0, 2 * math.pi, 9):
        assert abs(quadrature_variance(v, th) - 0.25) < 1e-12


def test_coherent_variance_quarter_at_all_angles():
    st = coherent_state(1.1 - 0.3j, C40)
    for th in np.linspace(0, 2 * math.pi, 9):
        assert abs(quadrature_variance(st, th) - 0.25) < 1e-10


def test_squeezed_vacuum_variance_closed_form():
    xi = SqueezeParam(0.45, 1.7)
    sv = squeezed_coherent_state(xi, 0.0, C60)
    for th in np.linspace(0, math.pi, 7):
        expect = 0.25 * (math.cosh(2 * xi.r) - math.sinh(2 * xi.r) * math.cos(2 * th - xi.phi))
        assert abs(quadrature_variance(sv, th) - expect) < 1e-8


def test_mode_moments_of_coherent_state():
    alpha = 0.8 + 0.1j
    ea, ea2, en = mode_moments(coherent_state(alpha, C40))
    assert abs(ea - alpha) < 1e-10
    assert abs(ea2 - alpha * alpha) < 1e-10
    assert abs(en - abs(alpha) ** 2) < 1e-10


def test_quadrature_variance_rejects_leaky_state():
    # norm loss of 1e-3 >> the variance guard
    raw = coherent_amplitudes(3.0, FockCutoff(12))
    st = PureState(raw / np.linalg.norm(raw), FockCutoff(12), tail_mass=1e-3)
    with pytest.raises(TailMassError):
        quadrature_variance(st, 0.0)


# ---------------------------------------------------------------------------
# density-operator validation


def test_density_validation_rejects_non_hermitian():
    m = np.zeros((41, 41), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        check_density(DensityOperator(m, C40))


def test_density_validation_rejects_negative_eigenvalue():
    m = np.zeros((41, 41), dtype=complex)
    m[0, 0] = 1.1
    m[1, 1] = -0.1
    with pytest.raises(ValueError):
        check_density(DensityOperator(m, C40))


def test_density_validation_rejects_excess_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(41, dtype=complex), C40)


_C30 = FockCutoff(30)
_XI = SqueezeParam(0.3, 0.7)
_RING = ConformationSpec(4, 1.5, 3)


def _tap_arm(mode):
    sig = squeezed_coherent_state(SqueezeParam(0.5, 1.3), 0.8, _C30)
    return partial_trace(beam_splitter_5050(_C30).apply(tensor(sig, vacuum(_C30))), mode)


# every library call that returns a DensityOperator, and the oracles built on its key average
_DENSITY_OUTPUTS = {
    "coherent_projector": lambda: coherent_state(0.5, C40).density_operator(),
    "squeezed_vacuum_projector":
        lambda: squeezed_coherent_state(SqueezeParam(0.4, 0.7), 0.0, C60).density_operator(),
    "maximally_mixed": lambda: maximally_mixed(1.5, _C30),
    "conformation_ring": lambda: conformation_ring(5, 1.2, _C30),
    "mixture_gamma": lambda: mixture_gamma(4, 1.5, _C30),
    "squeezed_conformation": lambda: squeezed_conformation(_RING, _XI, _C30),
    "squeezed_mixture": lambda: squeezed_mixture(4, 1.5, _XI, _C30),
    "encrypt": lambda: encrypt(0.4 + 0.2j, _XI, 7, 4, 1.5, _C30),
    "decrypt": lambda: decrypt(encrypt(0.4 + 0.2j, _XI, 7, 4, 1.5, _C30), _XI, 7, 4, 1.5,
                               _C30),
    "channel_output": lambda: channel_output(0.4 + 0.2j, _XI, 4, 1.5, _C30),
    "tap_receiver_arm": lambda: _tap_arm(0),
    "tap_eavesdropper_arm": lambda: _tap_arm(1),
    "displacement_bs_signal": lambda: displacement_via_beamsplitter(
        BeamSplitterRealization(0.1, 0.9), EvenCoherentParam(0.8, 0.3), C40)[0],
}


@pytest.mark.parametrize("make", _DENSITY_OUTPUTS.values(), ids=_DENSITY_OUTPUTS.keys())
def test_module_outputs_pass_validation(make):
    check_density(make())  # must not raise


# ---------------------------------------------------------------------------
# overcompleteness of displaced squeezed states at fixed squeezing


def test_disk_integral_of_squeezed_coherent_projectors_approaches_identity():
    cut = C40
    xi = SqueezeParam(0.2, 0.5)
    S = squeeze_operator(xi, cut)
    R, n_rad, n_ang = 5.0, 251, 256
    radii = np.linspace(0.0, R, n_rad)
    angles = np.arange(n_ang) * 2 * math.pi / n_ang

    # Simpson weights in radius, uniform (exact for trig polynomials) in angle
    w = np.ones(n_rad)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (radii[1] - radii[0]) / 3.0

    acc = np.zeros((41, 41), dtype=complex)
    n = np.arange(41)
    logfact = np.cumsum(np.log(np.maximum(n, 1)))
    for s, ws in zip(radii, w):
        if s == 0.0:
            continue
        # coherent amplitudes for all angles at radius s, vectorized
        logmag = n * math.log(s) - 0.5 * logfact - s * s / 2.0
        mags = np.exp(logmag)
        phases = np.exp(1j * np.outer(angles, n))
        rows = (phases * mags) @ S.T
        acc += rows.T @ rows.conj() * (ws * s * (2 * math.pi / n_ang))
    acc /= math.pi

    low = acc[:5, :5]
    assert np.max(np.abs(np.diag(low) - 1.0)) < 1e-4
    assert np.max(np.abs(low - np.diag(np.diag(low)))) < 1e-4


# ---------------------------------------------------------------------------
# cutoff heuristic


def test_heuristic_cutoff_values():
    assert heuristic_cutoff(1.0) == 25
    assert heuristic_cutoff(2.0) == 59
    assert heuristic_cutoff(3.0) == 99


def test_heuristic_cutoff_controls_coherent_tail():
    for b in (1.0, 2.0, 3.0):
        cut = FockCutoff(heuristic_cutoff(b))
        st = coherent_state(b, cut)  # no TailMassError at the boundary amplitude
        assert st.tail_mass < 1e-8


def test_annihilation_matrix_elements():
    a = annihilation(FockCutoff(4))
    expect = np.diag(np.sqrt([1.0, 2.0, 3.0, 4.0]), 1)
    assert np.allclose(a, expect)
