"""Core Fock-space layer: states, operators, metrics, truncation control."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from cvpqc.channel import key_rows, maximally_mixed, mixture_gamma, squeezed_mixture
from cvpqc.fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    SqueezeParam,
    TailMassError,
    TwoModeUnitary,
    _finish_state,
    beam_splitter,
    check_row_tails,
    check_tails,
    coherent_amplitudes,
    displacement_operator,
    fidelity,
    hs_distance,
    quadrature_variance,
    squeeze_operator,
    squeezed_coherent_closed_form,
    squeezed_coherent_state,
    von_neumann_entropy,
    wrap_angle,
)
from cvpqc.attack import attack
from cvpqc.experiments import heuristic_cutoff
from cvpqc.nongauss import beamsplitter_signal
from oracles import (
    TAP_CLOSED_FORM_TOL,
    annihilation,
    apply_mode_operator,
    beam_splitter_expm,
    channel_output,
    check_density,
    coherent_state,
    conformation_ring,
    decrypt,
    displacement_expm,
    displacement_laguerre,
    encrypt,
    mode_moments,
    partial_trace_dense,
    projector,
    purity,
    squeeze_expm,
    squeezed_coherent_hermite,
    squeezed_conformation,
    squeezed_vacuum_amplitudes,
    tap_output,
    two_mode_dense,
    two_mode_inverse,
    two_mode_squeezer,
    vacuum,
)

C40 = FockCutoff(40)
C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# vacuum


def test_vacuum_single_mode_amplitudes():
    v = vacuum(FockCutoff(4))
    assert np.array_equal(v, np.array([1, 0, 0, 0, 0], dtype=complex))


def test_vacuum_norm_exact():
    assert np.linalg.norm(vacuum(C40)) == 1.0


# ---------------------------------------------------------------------------
# displacement operator


def test_displacement_zero_is_identity():
    for build in (displacement_operator, displacement_expm):
        D = build(0.0, FockCutoff(12))
        assert np.allclose(D, np.eye(13), atol=1e-14)


def test_coherent_rows_equal_one_call_per_alpha():
    # one batched call must give each row bit for bit, and alpha = 0 the vacuum row
    alphas = [0.7 - 0.4j, 0.0, -2.5 + 1e-3j, 1e-9j, 5.0]
    for batch in (alphas, np.array(alphas)):
        rows = coherent_amplitudes(batch, C40)
        assert rows.shape == (5, 41)
        for a, row in zip(alphas, rows):
            assert np.array_equal(row, coherent_amplitudes([a], C40)[0])
    assert np.array_equal(rows[1], np.eye(41)[0])


def test_an_amplitude_whose_square_overflows_is_a_zero_row():
    # |alpha|^2 past the float range: the row is zero, a tail of 1 for the caller
    # to report, and no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alphas in ([1e200], [1e200j, 0.5], np.array([1e200])):
            rows = coherent_amplitudes(alphas, FockCutoff(5))
            assert np.array_equal(rows[0], np.zeros(6))


def test_displacement_column_zero_is_coherent_amplitudes():
    alpha = 0.7 - 0.4j
    D = displacement_operator(alpha, C40)
    assert np.max(np.abs(D[:, 0] - coherent_amplitudes([alpha], C40)[0])) < 1e-14


def test_displacement_methods_agree_on_interior():
    D1 = displacement_operator(1.0, C40)
    D2 = displacement_expm(1.0, C40)
    assert np.max(np.abs(D1[:21, :21] - D2[:21, :21])) < 1e-8


@pytest.mark.parametrize("n_max", [40, 99, 195])
@pytest.mark.parametrize("alpha", [0.01j, 0.3, 0.8 + 0.5j, 2 - 1j, 3.0, -2.5 + 3j, 4.0])
def test_displacement_recurrence_matches_laguerre_oracle(alpha, n_max):
    cut = FockCutoff(n_max)
    assert np.max(np.abs(displacement_operator(alpha, cut)
                         - displacement_laguerre(alpha, cut))) <= 1e-13


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
        got = squeeze_operator(xi, C60) @ coherent_amplitudes([alpha], C60)[0]
        assert np.max(np.abs(got - squeezed_coherent_closed_form(xi, alpha, C60))) <= 1e-14


def test_squeezed_state_reports_the_mass_it_loses():
    # the squeezed vacuum at r = 2 keeps only 79% of its mass below level 21
    with pytest.raises(TailMassError) as err:
        squeezed_coherent_state(SqueezeParam(2.0), [0], FockCutoff(20))
    assert err.value.tail == pytest.approx(0.2093, rel=0.01)


@pytest.mark.parametrize("r, tail", [(1.0, 2.16e-2), (1.5, 0.588)])
def test_squeezed_mixture_reports_the_mass_it_loses(r, tail):
    # b = 2 at the heuristic cutoff 59: the outer ring loses this much once squeezed
    cut = FockCutoff(59)
    with pytest.raises(TailMassError) as err:
        squeezed_mixture(16, 2.0, key_rows(16, 2.0, cut), SqueezeParam(r),
                         squeeze_operator(SqueezeParam(r), cut))
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
    closed = squeezed_coherent_closed_form(xi, alpha, FockCutoff(4000))
    probs = np.abs(closed) ** 2
    assert abs(1.0 - probs.sum()) < 1e-10  # the closed form has converged
    cut = FockCutoff(n_max)
    try:
        (state,) = squeezed_coherent_state(xi, [alpha], cut, tol)
    except TailMassError:
        return
    assert probs[n_max + 1:].sum() <= 2.0 * tol
    raw = squeeze_operator(xi, cut) @ coherent_amplitudes([alpha], cut)[0]
    assert np.array_equal(state, raw / math.sqrt(np.vdot(raw, raw).real))
    assert np.sum(np.abs(raw - closed[:n_max + 1]) ** 2) <= tol


def test_squeezed_coherent_with_zero_displacement_is_squeezed_vacuum():
    xi = SqueezeParam(0.4, 0.9)
    (sc,) = squeezed_coherent_state(xi, [0.0], C60)
    sv = squeezed_vacuum_amplitudes(xi, C60)
    assert abs(np.vdot(sv / np.linalg.norm(sv), sc)) ** 2 > 1 - 1e-12


def test_squeezed_coherent_without_squeezing_is_coherent():
    (sc,) = squeezed_coherent_state(SqueezeParam(0.0), [1.3], C60)
    c = coherent_state(1.3, C60)
    assert abs(np.vdot(sc, c)) ** 2 > 1 - 1e-12


def test_squeezed_coherent_matches_closed_form():
    xi = SqueezeParam(0.3, math.pi / 2)
    (sc,) = squeezed_coherent_state(xi, [1.0], C60)
    cf = squeezed_coherent_closed_form(xi, 1.0, C60)
    cf = cf / np.linalg.norm(cf)
    assert abs(np.vdot(cf, sc)) ** 2 >= 1 - 1e-8


@pytest.mark.parametrize("alpha", [38.0, 40.0, 45.0, 30.0 - 30.0j])
def test_closed_form_starts_below_the_smallest_double(alpha):
    # c_0 = e^{-|alpha|^2 / 2} is subnormal at |alpha| = 38 and zero from about 38.6
    # on, while the levels near |alpha|^2 are of order 0.1
    cut = FockCutoff(int(abs(alpha) ** 2 + 10 * abs(alpha) + 100))
    cf = squeezed_coherent_closed_form(SqueezeParam(0.0), alpha, cut)
    assert np.max(np.abs(cf - coherent_amplitudes([alpha], cut)[0])) <= 1e-12
    wider = FockCutoff(int(abs(alpha) ** 2 * 1.25 + 12 * abs(alpha) + 200))
    for phi in (0.0, 1.0):
        squeezed = squeezed_coherent_closed_form(SqueezeParam(0.1, phi), alpha, wider)
        assert abs(1.0 - np.sum(np.abs(squeezed) ** 2)) <= 1e-12


def test_closed_form_reduces_to_coherent_at_zero_squeezing():
    cf = squeezed_coherent_closed_form(SqueezeParam(0.0), 0.8 + 0.2j, C40)
    assert np.max(np.abs(cf - coherent_amplitudes([0.8 + 0.2j], C40)[0])) < 1e-14


@pytest.mark.parametrize("alpha, r, phi", [
    (1 + 0.5j, 0.3, 1.0), (2.0, 0.6, math.pi / 2), (0.5j, 0.1, 0.0), (0.0, 0.4, 0.3),
    (-3.0 + 4.0j, 1.0, 5.0), (10.0, 0.5, 1.0)])
def test_closed_form_matches_the_hermite_form(alpha, r, phi):
    xi = SqueezeParam(r, phi)
    got = squeezed_coherent_closed_form(xi, alpha, C60)
    assert np.max(np.abs(got - squeezed_coherent_hermite(xi, alpha, C60))) <= 1e-14


@pytest.mark.parametrize("alpha, r, phi", [
    (3.0 - 1.0j, 1e-9, 2.0),  # the Hermite form gave 136 non-finite levels at cutoff 195
    (0.001, 0.2, 0.0), (10.0, 0.5, 1.0), (5.0j, 1.0, 4.0), (-2.0, 0.0, 0.0)])
def test_closed_form_stays_finite_at_large_cutoffs(alpha, r, phi):
    amps = squeezed_coherent_closed_form(SqueezeParam(r, phi), alpha, FockCutoff(600))
    assert np.all(np.isfinite(amps))
    assert abs(1.0 - np.sum(np.abs(amps) ** 2)) <= 1e-12


# -1e-20 + 2 pi rounds to 2 pi itself, and fmod keeps the sign of -0.0 and -2 pi
@example(x=-1e-20)
@example(x=-1e-17)
@example(x=-0.0)
@example(x=-2.0 * math.pi)
@given(x=strategies.floats(allow_nan=False, allow_infinity=False))
def test_wrap_angle_lands_in_the_half_open_circle(x):
    y = wrap_angle(x)
    assert 0.0 <= y < 2.0 * math.pi
    assert math.copysign(1.0, y) == 1.0  # never -0.0


def test_operator_ordering_displacement_after_squeeze():
    # squeeze(displace(vac, a)) == displace(squeeze(vac), a cosh r - conj(a) e^{i phi} sinh r)
    xi = SqueezeParam(0.35, 1.3)
    alpha = 0.9 - 0.5j
    (lhs,) = squeezed_coherent_state(xi, [alpha], C60)
    moved = alpha * math.cosh(xi.r) - np.conj(alpha) * np.exp(1j * xi.phi) * math.sinh(xi.r)
    rhs_raw = displacement_operator(moved, C60) @ squeezed_vacuum_amplitudes(xi, C60)
    rhs_raw = rhs_raw / np.linalg.norm(rhs_raw)
    assert abs(np.vdot(rhs_raw, lhs)) ** 2 >= 1 - 1e-8


def test_coherent_state_tail_failure_raises():
    with pytest.raises(TailMassError):
        coherent_state(4.0, FockCutoff(10))


def test_tail_mass_recorded_and_small():
    coherent_state(1.0, C40)  # accepted
    (raw,) = coherent_amplitudes([1.0], C40)
    assert 0.0 <= 1.0 - np.vdot(raw, raw).real < 1e-12


# ---------------------------------------------------------------------------
# beam splitter and two-mode machinery


def test_beam_splitter_preserves_vacuum():
    bs = beam_splitter(math.pi / 4, FockCutoff(10))
    vac = vacuum(FockCutoff(10))
    out = bs.apply(np.outer(vac, vac))
    assert abs(out[0, 0]) > 1 - 1e-12


def test_beam_splitter_splits_coherent_state():
    cut = FockCutoff(25)
    out = beam_splitter(math.pi / 4, cut).apply(
        np.outer(coherent_state(1.0, cut), vacuum(cut)))
    half = coherent_state(1.0 / math.sqrt(2.0), cut)
    assert abs(np.vdot(out, np.outer(half, half))) ** 2 >= 1 - 1e-6


def _inside_triangle(n_max: int, seed: int) -> np.ndarray:
    """A random normalized amplitude matrix with no mass beyond i + j <= n_max."""
    rng = np.random.default_rng(seed)
    d = n_max + 1
    psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi[np.add.outer(np.arange(d), np.arange(d)) > n_max] = 0.0
    return psi / np.linalg.norm(psi)


def test_beam_splitter_dense_is_unitary():
    # unitary on the triangle i + j <= n_max it covers, and zero outside it
    cut = FockCutoff(12)
    B = two_mode_dense(beam_splitter(math.pi / 4, cut))
    i, j = np.divmod(np.arange(13 * 13), 13)
    tri = i + j <= 12
    on = B[np.ix_(tri, tri)]
    assert np.max(np.abs(on.conj().T @ on - np.eye(int(tri.sum())))) < 1e-8
    assert not B[~tri].any() and not B[:, ~tri].any()


@pytest.mark.parametrize("n_max", [12, 40, 100])
@pytest.mark.parametrize("theta", [math.pi / 4, 0.6, math.asin(math.sqrt(0.01)),
                                   math.asin(math.sqrt(0.99))])
def test_beam_splitter_blocks_match_expm_and_are_orthonormal(theta, n_max):
    # the sectors s <= n_max, which the cutoff holds whole, and no others
    cut = FockCutoff(n_max)
    blocks = beam_splitter(theta, cut).blocks
    oracle = beam_splitter_expm(theta, cut).blocks
    assert len(blocks) == n_max + 1
    for s, blk in enumerate(blocks):
        assert np.array_equal(oracle[s][0], np.arange(s + 1))
        assert np.max(np.abs(blk - oracle[s][1])) <= 1e-11
        assert np.max(np.abs(blk.conj().T @ blk - np.eye(s + 1))) <= 1e-13


@pytest.mark.parametrize("theta", [math.pi / 4, 0.1, 1.2, math.asin(math.sqrt(0.99))])
def test_beam_splitter_recurrence_stays_orthonormal_at_large_cutoffs(theta):
    # the sector recurrence builds block s from block s - 1, so its rounding could
    # pile up with s; at the large-mixture cutoff it does not
    blocks = beam_splitter(theta, FockCutoff(195)).blocks
    assert len(blocks) == 196
    for blk in blocks:
        assert np.max(np.abs(blk.conj().T @ blk - np.eye(len(blk)))) <= 1e-13


def test_beam_splitter_dense_and_apply_agree():
    psi = _inside_triangle(8, seed=7)
    bs = beam_splitter(0.6, FockCutoff(8))
    direct = two_mode_dense(bs) @ psi.reshape(-1)
    assert np.max(np.abs(direct - bs.apply(psi).reshape(-1))) < 1e-12


def test_beam_splitter_inverse_roundtrip():
    psi = _inside_triangle(10, seed=3)
    bs = beam_splitter(0.9, FockCutoff(10))
    back = two_mode_inverse(bs).apply(bs.apply(psi))
    assert np.max(np.abs(back - psi)) < 1e-12


def test_apply_of_a_real_state_is_apply_of_it_cast_to_complex():
    # apply multiplies (re, im) pairs of a float view: a float psi viewed as
    # pairs would mix neighbouring entries, so it must be cast first
    psi = _inside_triangle(9, seed=11).real.copy()
    bs = beam_splitter(0.6, FockCutoff(9))
    out = bs.apply(psi)
    assert out.dtype == complex
    assert np.array_equal(out, bs.apply(psi.astype(complex)))
    assert np.array_equal(bs.apply(psi.T), bs.apply(np.ascontiguousarray(psi.T)))


def test_two_mode_unitary_refuses_a_complex_block():
    # its imaginary part would be dropped, not applied
    blocks = list(beam_splitter(0.6, FockCutoff(4)).blocks)
    blocks[2] = blocks[2] * 1j
    with pytest.raises(TypeError, match="must be real"):
        TwoModeUnitary(blocks)


def test_an_attack_task_at_cutoff_100_holds_less_than_a_complex_gate():
    # the real blocks take 8 bytes an entry: the whole task, gate built inside it,
    # peaks below what its 348,551 block entries took alone at 16 bytes
    beam_splitter.cache_clear()
    tracemalloc.start()
    try:
        attack([0.5, 1.0 + 0.5j], SqueezeParam(0.3, 1.0), FockCutoff(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 348551 * 16


def test_apply_judges_the_mass_beyond_the_triangle():
    # 2^-20 beyond i + j <= 6, exact in binary: a tail at the tolerance passes
    # and is dropped, a tail past it raises
    cut = FockCutoff(6)
    bs = beam_splitter(0.6, cut)
    inside = _inside_triangle(6, seed=5) * math.sqrt(1.0 - 2.0 ** -20)
    psi = inside.copy()
    psi[4, 5] = 2.0 ** -10
    with pytest.raises(TailMassError) as exc:
        bs.apply(psi, 2.0 ** -21)
    assert exc.value.tail == 2.0 ** -20
    assert "beyond i + j <= 6" in str(exc.value)
    assert np.array_equal(bs.apply(psi, 2.0 ** -20), bs.apply(inside, 2.0 ** -20))
    assert bs.apply(psi, 2.0 ** -19)[4, 5] == 0.0
    with pytest.raises(TailMassError):
        bs.apply(psi)  # the default tolerance, 1e-8


@pytest.mark.parametrize("alpha, xi", [
    (0.5, SqueezeParam(0.0)), (1.0 + 0.5j, SqueezeParam(0.3, 1.0)),
    (2.0, SqueezeParam(0.3))])
def test_attack_matches_the_box_wide_expm_oracle(alpha, xi):
    # the tap's input sits in column 0, so the sectors s > n_max that the
    # library drops only ever multiply zeros
    cut = FockCutoff(30)
    psi = np.zeros((31, 31), dtype=complex)
    psi[:, 0] = squeezed_coherent_state(xi, [alpha], cut)[0]
    out = beam_splitter_expm(math.pi / 4, cut).apply(psi)
    rho_b = out @ out.conj().T
    (expected,) = squeezed_coherent_state(SqueezeParam(xi.r / 2, xi.phi),
                                          [alpha / math.sqrt(2.0)], cut)
    box = (purity(rho_b), purity(out.T @ out.conj()), von_neumann_entropy(rho_b),
           fidelity(expected, rho_b))
    assert np.max(np.abs(np.subtract(attack([alpha], xi, cut)[0], box))) <= 1e-12


def test_two_mode_squeezer_vacuum_series():
    # exp(z* ab - z a+b+)|0,0> has amplitude (-e^{i phi} tanh r)^n / cosh r at |n,n>
    cut = FockCutoff(20)
    xi = SqueezeParam(0.5, 0.8)
    vac = vacuum(cut)
    out = two_mode_squeezer(xi, cut).apply(np.outer(vac, vac))
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
    psi = amps.reshape(7, 7)
    via0 = apply_mode_operator(op, psi, 0).reshape(-1)
    assert np.allclose(via0, np.kron(op, np.eye(7)) @ amps)
    via1 = apply_mode_operator(op, psi, 1).reshape(-1)
    assert np.allclose(via1, np.kron(np.eye(7), op) @ amps)


def test_cross_cutoff_operations_rejected():
    a = vacuum(FockCutoff(5))
    b = vacuum(FockCutoff(6))
    with pytest.raises(ValueError):
        hs_distance(projector(a), projector(b))


# ---------------------------------------------------------------------------
# metrics


def test_hs_distance_of_state_with_itself_is_zero():
    rho = projector(coherent_state(0.6, C40))
    assert hs_distance(rho, rho) == 0.0


def test_hs_distance_orthogonal_pure_states():
    r0 = projector(vacuum(C40))
    r1 = projector(np.eye(41, dtype=complex)[1])
    assert abs(hs_distance(r0, r1) - math.sqrt(2.0)) < 1e-12


def test_hs_distance_squeezed_vacuum_closed_form():
    r = 0.2
    sv = projector(squeezed_coherent_state(SqueezeParam(r), [0.0], C60)[0])
    vac = projector(vacuum(C60))
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
        return u @ m @ u.conj().T

    u = displacement_operator(0.5 + 0.2j, cut) @ squeeze_operator(SqueezeParam(0.3, 1.0), cut)
    for _ in range(5):
        r1, r2 = random_density(), random_density()
        base = hs_distance(r1, r2)
        moved = hs_distance(moved_by(u, r1), moved_by(u, r2))
        assert abs(moved - base) < 1e-8


def test_entropy_and_purity_of_pure_state():
    rho = projector(coherent_state(0.9, C40))
    assert von_neumann_entropy(rho) < 1e-10
    assert abs(purity(rho) - 1.0) < 1e-10


def test_entropy_of_flat_diagonal_state():
    d = 8
    rho = np.eye(d, dtype=complex) / d
    assert abs(von_neumann_entropy(rho) - 3.0) < 1e-12
    assert abs(purity(rho) - 1.0 / d) < 1e-12


def test_partial_trace_of_product_state_is_pure():
    # a coherent input leaves the tap as the product |a/sqrt2>|a/sqrt2>: both
    # reduced states are pure, and the receiver's is the attenuated copy
    cut = FockCutoff(30)
    half = coherent_state(1.0 / math.sqrt(2.0), cut)
    out = tap_output(1.0, SqueezeParam(0.0), cut)
    for mode in (0, 1):
        red = partial_trace_dense(out, mode)
        assert abs(fidelity(half, red) - 1.0) < 1e-8
    ((bob, eve, ent, fid),) = attack([1.0], SqueezeParam(0.0), cut)
    assert min(bob, eve, fid) >= 1 - 1e-8
    assert ent < 1e-10


def test_entanglement_entropy_of_product_state_is_zero():
    # two coherent inputs leave any splitter as a product of coherent states, so the
    # reduced state of either arm is pure
    cut = FockCutoff(20)
    both = np.outer(coherent_state(0.7, cut), coherent_state(-0.2, cut))
    out = beam_splitter(0.6, cut).apply(both)
    for red in (out @ out.conj().T, out.T @ out.conj()):
        assert von_neumann_entropy(red) < 1e-10


def test_partial_trace_of_tap_matches_dense_oracle():
    # the input's closed-form tail is within tail_tol from cutoff 23 on (5.9e-5 at 12);
    # the fidelity attack reports is read off the receiver's reduced state, and its
    # closed-form purities and entropy agree with both reductions to within the
    # Fock input's truncation error (1.4e-8 and 6.2e-8 here)
    cut = FockCutoff(23)
    xi, alpha = SqueezeParam(0.4, 0.9), 0.6 - 0.3j
    out = tap_output(alpha, xi, cut)
    rho_b, rho_e = (partial_trace_dense(out, mode) for mode in (0, 1))
    (expected,) = squeezed_coherent_state(SqueezeParam(xi.r / 2, xi.phi),
                                          [alpha / math.sqrt(2.0)], cut)
    ((bob, eve, ent, fid),) = attack([alpha], xi, cut)
    assert abs(fid - fidelity(expected, rho_b)) < 1e-13
    dense = (purity(rho_b) - bob, purity(rho_e) - eve, von_neumann_entropy(rho_b) - ent)
    assert np.max(np.abs(dense)) <= TAP_CLOSED_FORM_TOL


# ---------------------------------------------------------------------------
# quadrature variance


def test_vacuum_variance_quarter_at_all_angles():
    v = vacuum(C40)
    for th in np.linspace(0, 2 * math.pi, 9):
        assert abs(quadrature_variance(*mode_moments(v), th) - 0.25) < 1e-12


def test_coherent_variance_quarter_at_all_angles():
    st = coherent_state(1.1 - 0.3j, C40)
    for th in np.linspace(0, 2 * math.pi, 9):
        assert abs(quadrature_variance(*mode_moments(st), th) - 0.25) < 1e-10


def test_squeezed_vacuum_variance_closed_form():
    xi = SqueezeParam(0.45, 1.7)
    (sv,) = squeezed_coherent_state(xi, [0.0], C60)
    for th in np.linspace(0, math.pi, 7):
        expect = 0.25 * (math.cosh(2 * xi.r) - math.sinh(2 * xi.r) * math.cos(2 * th - xi.phi))
        assert abs(quadrature_variance(*mode_moments(sv), th) - expect) < 1e-8


def test_mode_moments_of_coherent_state():
    alpha = 0.8 + 0.1j
    ea, ea2, en = mode_moments(coherent_state(alpha, C40))
    assert abs(ea - alpha) < 1e-10
    assert abs(ea2 - alpha * alpha) < 1e-10
    assert abs(en - abs(alpha) ** 2) < 1e-10


# ---------------------------------------------------------------------------
# density-matrix and tail validation


def test_density_validation_rejects_non_hermitian():
    m = np.zeros((41, 41), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        check_density(m)


def test_density_validation_rejects_negative_eigenvalue():
    m = np.zeros((41, 41), dtype=complex)
    m[0, 0] = 1.1
    m[1, 1] = -0.1
    with pytest.raises(ValueError):
        check_density(m)


def test_density_validation_rejects_excess_trace():
    # the one tail check fails a mass above one: the identity's trace, 41, and
    # amplitudes of that norm
    with pytest.raises(TailMassError):
        check_tails(np.array([1.0 - np.trace(np.eye(41)).real]), 1e-8, lambda k: "identity")
    with pytest.raises(TailMassError):
        _finish_state(np.ones(41, dtype=complex), DEFAULT_TAIL_TOL, "excess amplitudes")
    with pytest.raises(ValueError, match="trace"):
        check_density(np.eye(41, dtype=complex))  # the oracle's check of a whole matrix


def _with_entry(entry):
    (raw,) = coherent_amplitudes([0.5], C40)
    raw[0] = entry
    return raw


@pytest.mark.parametrize("entry", [math.nan, complex(0.5, math.nan)])
def test_density_rejects_a_trace_that_is_not_finite(entry):
    # NaN raw amplitudes have a NaN norm, so a NaN tail
    with pytest.raises(TailMassError, match="tail mass nan"):
        _finish_state(_with_entry(entry), DEFAULT_TAIL_TOL, "NaN amplitudes")
    m = np.zeros((41, 41), dtype=complex)
    m[0, 0] = entry
    with pytest.raises(ValueError, match="trace"):
        check_density(m)


@pytest.mark.parametrize("entry", [math.nan, complex(0.5, math.nan)])
def test_check_row_tails_rejects_a_nan_row(entry):
    rows = np.vstack([coherent_amplitudes([0.3], C40), _with_entry(entry)])
    with pytest.raises(TailMassError, match="tail mass nan") as err:
        check_row_tails(rows, DEFAULT_TAIL_TOL, lambda k: f"row {k}")
    assert err.value.what == "row 1"


@pytest.mark.parametrize("tails, worst", [
    ([0.0, -2e-9, 0.0], 1),             # a mass above one by more than rounding
    ([0.0, 2e-8, math.nan, 1.0], 2),    # NaN fails the check and is named first
    ([1e-9, 3e-8, 5e-8, -1e-3], 3),     # the entry furthest outside [-1e-9, tol]
    ([1e-9, 3e-8, 5e-8, 0.0], 2),
], ids=["mass_above_one", "nan", "furthest_outside", "largest_tail"])
def test_check_tails_names_the_worst_entry_outside_its_bounds(tails, worst):
    with pytest.raises(TailMassError) as err:
        check_tails(np.array(tails), 1e-8, lambda k: f"entry {k}")
    assert err.value.what == f"entry {worst}"
    assert err.value.tail == tails[worst] or math.isnan(tails[worst])


def test_check_tails_accepts_its_bounds():
    check_tails(np.array([-1e-9, 0.0, 1e-8]), 1e-8, lambda k: f"entry {k}")


_C30 = FockCutoff(30)
_XI = SqueezeParam(0.3, 0.7)


def _tap_arm(mode):
    # the receiver's and the eavesdropper's reduced states, as attack forms them
    out = tap_output(0.8, SqueezeParam(0.5, 1.3), _C30)
    return out @ out.conj().T if mode == 0 else out.T @ out.conj()


# every library call that returns a density matrix, and the oracles built on a key average
_DENSITY_OUTPUTS = {
    "coherent_projector": lambda: projector(coherent_state(0.5, C40)),
    "squeezed_vacuum_projector":
        lambda: projector(squeezed_coherent_state(SqueezeParam(0.4, 0.7), [0.0], C60)[0]),
    "maximally_mixed": lambda: maximally_mixed(1.5, _C30),
    "conformation_ring": lambda: conformation_ring(5, 1.2, _C30),
    "mixture_gamma": lambda: mixture_gamma(4, 1.5, key_rows(4, 1.5, _C30)),
    "squeezed_conformation": lambda: squeezed_conformation(4, 1.5, 3, _XI, _C30),
    "squeezed_mixture": lambda: squeezed_mixture(4, 1.5, key_rows(4, 1.5, _C30), _XI,
                                                  squeeze_operator(_XI, _C30)),
    "encrypt": lambda: encrypt(0.4 + 0.2j, _XI, 7, 4, 1.5, _C30),
    "decrypt": lambda: decrypt(encrypt(0.4 + 0.2j, _XI, 7, 4, 1.5, _C30), _XI, 7, 4, 1.5,
                               _C30),
    "channel_output": lambda: channel_output(0.4 + 0.2j, _XI, 4, 1.5, _C30),
    "tap_receiver_arm": lambda: _tap_arm(0),
    "tap_eavesdropper_arm": lambda: _tap_arm(1),
    "displacement_bs_signal": lambda: beamsplitter_signal(
        0.1, math.sqrt(0.1) * 0.9, 0.8, 0.3, C40),
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
        coherent_state(b, cut)  # no TailMassError at the boundary amplitude
        (raw,) = coherent_amplitudes([b], cut)
        assert 1.0 - np.vdot(raw, raw).real < 1e-8


def test_annihilation_matrix_elements():
    a = annihilation(FockCutoff(4))
    expect = np.diag(np.sqrt([1.0, 2.0, 3.0, 4.0]), 1)
    assert np.allclose(a, expect)
