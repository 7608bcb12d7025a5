"""Ring-key channel: target state, conformations, mixtures, encryption, distances."""
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.integrate import simpson

from cvpqc import channel
from cvpqc.channel import (
    convergence_rows,
    k_factor,
    key_count,
    key_displacements,
    key_rows,
    key_to_ring,
    maximally_mixed,
    mixture_gamma,
    ring,
    squeezed_mixture,
)
from cvpqc.cli import main
from cvpqc.config import config_from_dict, validate
from cvpqc.experiments import execute, heuristic_cutoff, resolve_cutoff
from cvpqc.fock import (
    FockCutoff,
    SqueezeParam,
    TailMassError,
    coherent_amplitudes,
    displacement_operator,
    hs_distance,
    squeeze_operator,
    squeezed_coherent_closed_form,
    von_neumann_entropy,
)
from oracles import (
    channel_output,
    check_density,
    conformation_ring,
    convergence_point,
    decrypt,
    disk_diagonal_numpy,
    disk_state,
    disk_uniform_diagonal,
    encrypt,
    padded,
    projector,
    ring_analytic_matrix,
    ring_displacements,
    secret_bits,
    squeezed_conformation,
    squeezed_projector_prefactor,
    squeezed_vacuum_distance_closed_form,
    vacuum,
    vacuum_weight,
)

C59 = FockCutoff(59)
C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# disk-uniform target state


def test_mm_is_fock_diagonal_with_decreasing_entries():
    # the state is phase-invariant, so it is its Fock diagonal: a list of floats
    diag = maximally_mixed(2.0, C59)
    assert isinstance(diag, list) and len(diag) == C59.dim
    assert all(type(w) is float and w > 0 for w in diag)
    assert all(a > b for a, b in zip(diag, diag[1:]))


def test_mm_mass_at_heuristic_cutoff():
    for b in (1.0, 2.0, 3.0):
        cut = FockCutoff(heuristic_cutoff(b))
        rho = disk_state(b, cut)
        assert np.trace(rho).real >= 1 - 1e-6


def test_mm_entries_match_radial_integral():
    # entry_n = (2/b^2) int_0^b e^{-s^2} s^{2n+1} / n! ds, by direct quadrature
    b = 2.0
    s = np.linspace(0.0, b, 4001)
    diag = maximally_mixed(b, C59)
    for n in range(11):
        f = np.exp(-s * s) * s ** (2 * n + 1) / math.factorial(n)
        val = 2.0 / (b * b) * simpson(f, x=s)
        assert abs(diag[n] - val) < 1e-10


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_mm_matches_incomplete_gamma_oracle(b):
    for n_max in (heuristic_cutoff(b), heuristic_cutoff(b) // 2, 3):
        cut = FockCutoff(n_max)
        diag = np.array(maximally_mixed(b, cut, tail_tol=1.0))
        ref = disk_uniform_diagonal(b, cut)
        assert np.max(np.abs(diag - ref) / ref) <= 1e-12


@pytest.mark.parametrize("b", [1e-3, 0.3, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("n_max", [1, 3, 10, 59, 60, 127, 128, 195, 300])
def test_mm_walk_matches_the_numpy_walk_bit_for_bit(b, n_max):
    # the sequential products and sums of the Python walk are numpy's cumprod and
    # cumsum; tail_tol 1.0 lets a small cutoff at a large b through
    cut = FockCutoff(n_max)
    assert maximally_mixed(b, cut, tail_tol=1.0) == disk_diagonal_numpy(b, cut).tolist()


def test_mm_at_a_huge_radius_raises_at_once(tmp_path, capsys):
    # the pmf spans the levels below 2 d + 64, not b^2 = 1e10 of them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "mmstate", "b_list": [1e5], "cutoff": 10}),
                   encoding="utf-8")
    t0 = time.perf_counter()
    with pytest.raises(TailMassError):
        maximally_mixed(1e5, FockCutoff(10))
    assert main(["run", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "disk-uniform state b=100000.0" in capsys.readouterr().err


def test_mm_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        maximally_mixed(0.0, C59)


def test_mm_cutoff_too_small_raises():
    with pytest.raises(TailMassError):
        maximally_mixed(3.0, FockCutoff(10))


# ---------------------------------------------------------------------------
# ring geometry and key bookkeeping


def test_conformation_spec_schedule():
    radius, angles = ring(4, 2.0, 3)
    assert radius == pytest.approx(1.0)
    assert np.allclose(angles, np.pi / 3 * np.array([1, 3, 5]))
    assert len(ring_displacements(4, 2.0, 3)) == 3


def test_ring_angles_are_the_doubles_of_numpys_expression():
    # ring lists its angles in plain floats, so that conformation needs no numpy
    for p in range(1, 65):
        _, angles = ring(64, 2.0, p)
        assert type(angles) is list
        expected = (np.pi / p) * (2 * np.arange(1, p + 1) - 1)
        assert np.array(angles).tobytes() == expected.tobytes(), p


def test_conformation_spec_validation():
    # N and b are checked where a config enters: N >= 1, b > 0
    for fields in ({"N_list": [0]}, {"b_list": [-1.0]}):
        rep = validate(config_from_dict(dict(fields, experiment="conformation")))
        assert not rep.ok, fields


@pytest.mark.parametrize("N", [1, 7, 64, 300])
def test_key_layout_roundtrip(N):
    M = key_count(N)
    seen = []
    for k in range(M):
        p, q = key_to_ring(k, N)
        assert 1 <= q <= p <= N
        assert p * (p - 1) // 2 + (q - 1) == k
        seen.append((p, q))
    assert len(set(seen)) == M
    assert seen[-1] == (N, N)


def test_key_to_ring_bounds():
    with pytest.raises(ValueError):
        key_to_ring(-1, 4)
    with pytest.raises(ValueError):
        key_to_ring(10, 4)


def test_key_displacement_matches_ring_schedule():
    N, b = 5, 1.5
    disp = key_displacements(N, b)
    assert disp.shape == (key_count(N),)
    for k in range(key_count(N)):
        p, q = key_to_ring(k, N)
        expect = (p - 1) * b / N * np.exp(1j * np.pi / p * (2 * q - 1))
        assert abs(disp[k] - expect) < 1e-14


def test_secret_bits_identity():
    for N in (2, 16, 64):
        M = N * (N + 1) // 2
        assert secret_bits(N) == math.log2(M + 1)
    assert key_count(64) == 2080


# ---------------------------------------------------------------------------
# single-ring states


def test_innermost_ring_is_vacuum_projector():
    rho = conformation_ring(1, ring(4, 2.0, 1)[0], C59)
    expect = np.zeros((60, 60), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(rho - expect)) < 1e-14


def test_ring_off_pattern_entries_vanish():
    cut = C59
    for p in (2, 3, 4, 7):
        rho = conformation_ring(p, 1.2, cut)
        m, n = np.meshgrid(np.arange(60), np.arange(60), indexing="ij")
        off_pattern = (m - n) % p != 0
        assert np.max(np.abs(rho[off_pattern])) < 1e-10


def test_ring_analytic_matches_operational():
    cut = C59
    for p, radius in ((2, 0.5), (4, 1.0), (5, 1.6), (8, 2.0)):
        a = ring_analytic_matrix(p, radius, cut)
        o = conformation_ring(p, radius, cut)
        assert np.max(np.abs(a - o)) < 1e-10


def test_ring_cutoff_too_small_raises_with_location():
    with pytest.raises(TailMassError) as exc:
        conformation_ring(4, 3.5, FockCutoff(8))
    assert "ring" in str(exc.value)


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_single_ring_family_is_vacuum():
    rho = mixture_gamma(1, 2.0, key_rows(1, 2.0, C59))
    assert abs(rho[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(rho)) == pytest.approx(1.0)


def test_mixture_is_ring_average_weighted_by_population():
    N, b = 5, 2.0
    cut = C59
    M = key_count(N)
    acc = np.zeros((60, 60), dtype=complex)
    for p in range(1, N + 1):
        acc += p * conformation_ring(p, ring(N, b, p)[0], cut)
    acc /= M
    mix = mixture_gamma(N, b, key_rows(N, b, cut))
    assert np.max(np.abs(mix - acc)) < 1e-12
    assert abs(np.trace(mix).real - 1.0) < 1e-10


def test_squeezed_mixture_is_unitary_conjugation_of_plain():
    N, b = 4, 2.0
    xi = SqueezeParam(0.3, 0.9)
    cut = C60
    s = squeeze_operator(xi, cut, cut.dim)
    rows = key_rows(N, b, cut)
    plain = mixture_gamma(N, b, rows)
    sq = squeezed_mixture(N, b, rows, xi, squeeze_operator(xi, cut, cut.dim))
    assert np.max(np.abs(sq - s @ plain @ s.conj().T)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(N=strategies.integers(1, 6), b=strategies.floats(0.01, 3.0),
       r=strategies.floats(0.0, 1.0), phi=strategies.floats(0.0, 2.0 * math.pi),
       n_max=strategies.integers(5, 80))
def test_squeezed_mixture_raises_or_keeps_its_mass(N, b, r, phi, n_max):
    # The tail check must catch every key whose true tail, read from the closed
    # form at a wide cutoff, is past twice the tolerance.  The key rows are
    # squeezed at their padded dimension, as convergence_rows squeezes them.
    xi, tol = SqueezeParam(r, phi), 1e-8
    worst = 0.0
    for alpha in key_displacements(N, b):
        probs = np.abs(squeezed_coherent_closed_form(xi, alpha, FockCutoff(1500))) ** 2
        assert abs(1.0 - probs.sum()) < 1e-10  # the closed form has converged
        worst = max(worst, probs[n_max + 1:].sum())
    try:
        cut = FockCutoff(n_max)
        wide = padded(cut, [b])
        rho = squeezed_mixture(N, b, key_rows(N, b, wide), xi,
                               squeeze_operator(xi, cut, wide.dim), tol)
    except TailMassError:
        return
    assert worst <= 2.0 * tol
    check_density(rho)
    assert np.trace(rho).real >= 1.0 - tol


def test_squeezed_conformation_at_zero_squeezing_reduces():
    a = squeezed_conformation(4, 2.0, 3, SqueezeParam(0.0), C59)
    b = conformation_ring(3, ring(4, 2.0, 3)[0], C59)
    assert np.max(np.abs(a - b)) < 1e-14


# ---------------------------------------------------------------------------
# squeezed ring weights


def test_vacuum_weight_matches_operational_first_amplitude():
    cut = C60
    for phi in (0.0, np.pi / 3):
        xi = SqueezeParam(0.5, phi)
        s = squeeze_operator(xi, cut, cut.dim)
        for alpha in ring_displacements(4, 2.0, 4):
            row = s @ coherent_amplitudes([alpha], cut)[0]
            w = abs(row[0]) ** 2
            assert abs(w / vacuum_weight(xi, alpha) - 1.0) < 1e-8


def test_k_factor_range():
    xi = SqueezeParam(0.7, 1.1)
    ths = np.linspace(0, 2 * np.pi, 50)
    vals = np.array([k_factor(xi, t) for t in ths])
    assert np.all(vals >= 1 - math.tanh(0.7) - 1e-12)
    assert np.all(vals <= 1 + math.tanh(0.7) + 1e-12)
    assert abs(vals.min() - (1 - math.tanh(0.7))) < 1e-3
    assert k_factor(SqueezeParam(0.0), 0.3) == 1.0


def test_projector_prefactor_reconstructs_squeezed_projector():
    cut = C60
    xi = SqueezeParam(0.5, 0.8)
    alpha = 1.2 * np.exp(0.9j)
    row = squeeze_operator(xi, cut, cut.dim) @ coherent_amplitudes([alpha], cut)[0]
    proj = np.outer(row, row.conj())
    kap = squeezed_projector_prefactor(xi, alpha, cut)
    weight = math.exp(-abs(alpha) ** 2 * k_factor(xi, float(np.angle(alpha))))
    diff = np.abs(proj - kap * weight)
    # operational row carries squeeze truncation in the far corner
    assert np.max(diff[:45, :45]) < 1e-12
    assert np.max(diff) < 1e-8


def test_projector_prefactor_zero_squeezing_is_coherent_outer():
    cut = FockCutoff(30)
    alpha = 0.7 - 0.4j
    kap = squeezed_projector_prefactor(SqueezeParam(0.0), alpha, cut)
    n = np.arange(31)
    col = alpha ** n / np.sqrt(np.array([math.factorial(int(k)) for k in n], dtype=float))
    assert np.max(np.abs(kap - np.outer(col, col.conj()))) < 1e-12


def test_projector_prefactor_converges_linearly_in_r():
    cut = FockCutoff(25)
    alpha = 0.8 * np.exp(0.4j)
    base = squeezed_projector_prefactor(SqueezeParam(0.0), alpha, cut)
    errs = []
    for r in (1e-2, 1e-3, 1e-4):
        kap = squeezed_projector_prefactor(SqueezeParam(r, 0.6), alpha, cut)
        errs.append(np.max(np.abs(kap - base)))
    assert 8 < errs[0] / errs[1] < 12
    assert 8 < errs[1] / errs[2] < 12


# ---------------------------------------------------------------------------
# encryption round trips


def test_encrypt_zero_message_zero_squeeze_is_key_projector():
    N, b, k = 4, 2.0, 7
    rho = encrypt(0.0, SqueezeParam(0.0), k, N, b, C59)
    col = coherent_amplitudes(key_displacements(N, b)[k:k + 1], C59)[0]
    assert np.max(np.abs(rho - np.outer(col, col.conj()))) < 1e-12


def test_decrypt_recovers_message():
    N, b, k = 4, 2.0, 5
    xi = SqueezeParam(0.3, 1.0)
    beta = 0.3 + 0.2j
    branch = encrypt(beta, xi, k, N, b, C60)
    rho = decrypt(branch, xi, k, N, b, C60)
    (msg,) = coherent_amplitudes([beta], C60)
    overlap = (msg.conj() @ rho @ msg).real
    assert overlap >= 1 - 1e-8
    # the branch against S D(alpha)|beta> from the Laguerre matrix, at a key where
    # the closed form's phase e^{i Im(alpha conj(beta))} is not 1
    alpha = key_displacements(N, b)[k]
    assert abs((alpha * np.conj(beta)).imag) > 0.1
    row = squeeze_operator(xi, C60, C60.dim) @ displacement_operator(alpha, C60) @ msg
    assert np.max(np.abs(branch - np.outer(row, row.conj()))[:40, :40]) < 1e-12


def test_channel_output_is_key_average():
    N, b = 3, 2.0
    xi = SqueezeParam(0.2, 0.5)
    beta = 0.25 - 0.1j
    cut = C60
    acc = np.zeros((61, 61), dtype=complex)
    for k in range(key_count(N)):
        acc += encrypt(beta, xi, k, N, b, cut)
    acc /= key_count(N)
    out = channel_output(beta, xi, N, b, cut)
    assert np.max(np.abs(out - acc)) < 1e-12


def test_channel_output_trivial_message_reduces_to_mixture():
    out = channel_output(0.0, SqueezeParam(0.0), 4, 2.0, C59)
    mix = mixture_gamma(4, 2.0, key_rows(4, 2.0, C59))
    assert np.max(np.abs(out - mix)) < 1e-13


def test_channel_covariance_under_displacement():
    # averaging over keys commutes with displacing the message
    N, b = 4, 2.0
    xi = SqueezeParam(0.25, 0.7)
    beta = 0.3 - 0.1j
    cut = C60
    out = channel_output(beta, xi, N, b, cut)
    s = squeeze_operator(xi, cut, cut.dim)
    d = displacement_operator(beta, cut)
    u = s @ d
    expect = u @ mixture_gamma(N, b, key_rows(N, b, cut)) @ u.conj().T
    assert np.max(np.abs(out - expect)) < 1e-9


def test_encrypt_tail_failure_names_key():
    with pytest.raises(TailMassError) as exc:
        encrypt(1.0, SqueezeParam(0.8), 9, 4, 2.0, FockCutoff(12))
    assert "key" in str(exc.value)


# ---------------------------------------------------------------------------
# distances and convergence


def test_unsqueezed_point_has_tight_triangle_bound():
    # r = 0: d_hs is the distance to the plain mixture, and the bound adds nothing
    d_hs, bound, _ = convergence_point(2, 2.0, SqueezeParam(0.0), C59)
    gam = mixture_gamma(2, 2.0, key_rows(2, 2.0, C59))
    assert d_hs == hs_distance(disk_state(2.0, C59), gam)
    assert bound == d_hs


def test_squeezed_vacuum_distance_closed_form_against_numeric():
    r = 0.2
    # N=1: plain mixture is the vacuum, squeezed mixture is a squeezed vacuum
    rows = key_rows(1, 2.0, C60)
    d_squeeze = hs_distance(squeezed_mixture(1, 2.0, rows, SqueezeParam(r),
                                             squeeze_operator(SqueezeParam(r), C60, C60.dim)),
                            mixture_gamma(1, 2.0, rows))
    assert abs(d_squeeze - squeezed_vacuum_distance_closed_form(r)) < 1e-8


def test_distance_decreases_with_ring_count():
    ds = [convergence_point(N, 2.0, SqueezeParam(0.0), C59)[0] for N in range(1, 9)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_distance_regression_values():
    # frozen from an independent run of the same quantities; guards against
    # silent drift in the mixture or target constructions
    frozen = {2: 0.475070, 4: 0.221063, 8: 0.091218, 16: 0.044170, 32: 0.021989}
    for N, expect in frozen.items():
        assert abs(convergence_point(N, 2.0, SqueezeParam(0.0), C59)[0] - expect) < 1e-5


def test_triangle_bound_holds():
    mm = disk_state(2.0, C60)
    for N in (2, 4):
        rows = key_rows(N, 2.0, C60)
        gam = mixture_gamma(N, 2.0, rows)
        for xi in (SqueezeParam(0.2, 0.0), SqueezeParam(0.5, np.pi / 3)):
            d_hs, bound, _ = convergence_point(N, 2.0, xi, C60)
            assert d_hs <= bound + 1e-12
            s = squeeze_operator(xi, C60, C60.dim)
            d_squeeze = hs_distance(squeezed_mixture(N, 2.0, rows, xi, s), gam)
            assert abs(bound - (hs_distance(mm, gam) + d_squeeze)) < 1e-15


def test_convergence_sweep_row_contents():
    columns, rows = execute(config_from_dict(
        {"experiment": "convergence", "N_list": [1, 2], "b_list": [2.0], "cutoff": 59}))
    rows = [dict(zip(columns, row)) for row in rows]
    assert [r["N"] for r in rows] == [1, 2]
    for row in rows:
        assert row["d_hs_times_Np1"] == pytest.approx(row["d_hs"] * (row["N"] + 1))
        assert row["b"] == 2.0 and row["cutoff"] == 59
    # single ring family is a pure vacuum: zero entropy, known distance
    assert rows[0]["entropy"] < 1e-10
    vac = projector(vacuum(C59))
    mm = disk_state(2.0, C59)
    assert rows[0]["d_hs"] == pytest.approx(hs_distance(mm, vac))


# Every key branch is pure, so the entropy of a key-averaged mixture is the
# Holevo quantity of its uniform-key ensemble.


# Ring p's angles pi (2q - 1) / p are closed under conjugation, so the plain
# mixture is real, and mixture_gamma returns it as a real array.
_REAL_MIXTURE_GRID = list(itertools.product([2.0, 5.0], [1, 2, 3, 8, 32, 64]))


def _complex_gram(N, b, cut):
    rows = key_rows(N, b, cut)
    return rows.T @ rows.conj() / rows.shape[0]


def _cutoff_for(b):
    return FockCutoff(heuristic_cutoff(b))


@pytest.mark.parametrize("b, N", _REAL_MIXTURE_GRID)
def test_mixture_gamma_is_the_real_part_of_the_complex_gram(b, N):
    cut = _cutoff_for(b)
    gam, gram = mixture_gamma(N, b, key_rows(N, b, cut)), _complex_gram(N, b, cut)
    assert gam.dtype == np.float64
    assert np.array_equal(gam, gam.T)
    assert np.abs(gram.imag).max() <= 1e-15  # rounding only
    assert np.abs(gam - gram.real).max() <= 1e-14  # summed in another order


@pytest.mark.parametrize("b, N", _REAL_MIXTURE_GRID)
def test_real_mixture_entropy_is_the_complex_grams(b, N):
    cut = _cutoff_for(b)
    w = np.linalg.eigvalsh(_complex_gram(N, b, cut))
    w = w[w > 1e-14]
    expect = float(-(w * np.log2(w)).sum())
    gam = mixture_gamma(N, b, key_rows(N, b, cut))
    assert abs(von_neumann_entropy(gam) - expect) <= 1e-13


def test_holevo_proxy_pure_for_single_point():
    xi = SqueezeParam(0.4, 0.2)
    rows = key_rows(1, 2.0, C60)
    assert von_neumann_entropy(squeezed_mixture(1, 2.0, rows, xi,
                                                squeeze_operator(xi, C60, C60.dim))) < 1e-10
    assert von_neumann_entropy(mixture_gamma(1, 2.0, rows)) < 1e-10


def test_holevo_proxy_entropies_equal_by_unitary_invariance():
    rows = key_rows(4, 2.0, C60)
    xi = SqueezeParam(0.3, 1.1)
    s_sq = von_neumann_entropy(squeezed_mixture(4, 2.0, rows, xi,
                                                squeeze_operator(xi, C60, C60.dim)))
    s_coh = von_neumann_entropy(mixture_gamma(4, 2.0, rows))
    assert s_coh > 1.0  # genuinely mixed family
    assert abs(s_sq - s_coh) < 1e-8


# S(xi) is unitary, so a squeezed mixture has the plain mixture's entropy, which
# is what convergence_rows prints for every squeezing.  The identity holds to
# rounding at the default and the benchmark cutoffs; at the smallest cutoff
# that accepts the squeezed rows, truncation moves the squeezed entropy by at
# most 1.01e-8 (N = 4, b = 2, r = 0.3, phi = 0), within twice tail_tol.
_ENTROPY_GRID = list(itertools.product([2.0, 5.0], [4, 32], [0.1, 0.3, 0.5], [0.0, 1.0]))
# the smallest cutoff whose tail check accepts the squeezed mixture, per grid point
_SMALLEST_CUTOFF = dict(zip(_ENTROPY_GRID, [17, 19, 26, 31, 40, 48, 25, 25, 39, 39, 60, 60,
                                            42, 49, 57, 74, 82, 111, 69, 69, 104, 105, 157, 158]))


def _entropy_gap(N, b, xi, cut):
    rows = key_rows(N, b, cut)
    gam_xi = squeezed_mixture(N, b, rows, xi, squeeze_operator(xi, cut, cut.dim))
    return abs(von_neumann_entropy(gam_xi) - von_neumann_entropy(mixture_gamma(N, b, rows)))


@pytest.mark.parametrize("b, N, r, phi", _ENTROPY_GRID)
def test_squeezed_mixture_entropy_is_the_plain_mixtures(b, N, r, phi):
    cutoffs = [resolve_cutoff(config_from_dict(
        {"experiment": "squeezed_convergence", "b_list": [b], "r_list": [r]}))]
    if r <= 0.3:
        cutoffs.append(59 if b == 2.0 else 195)  # the benchmark's squeezed_convergence cutoffs
    for n_max in cutoffs:
        assert _entropy_gap(N, b, SqueezeParam(r, phi), FockCutoff(n_max)) <= 1e-13


@pytest.mark.parametrize("b, N, r, phi", _ENTROPY_GRID)
def test_squeezed_mixture_entropy_at_the_smallest_accepted_cutoff(b, N, r, phi):
    xi, n_max = SqueezeParam(r, phi), _SMALLEST_CUTOFF[b, N, r, phi]
    below = FockCutoff(n_max - 1)
    with pytest.raises(TailMassError):
        squeezed_mixture(N, b, key_rows(N, b, below), xi, squeeze_operator(xi, below, below.dim))
    assert _entropy_gap(N, b, xi, FockCutoff(n_max)) <= 2e-8


def test_mixture_entropy_matches_direct_computation():
    xi = SqueezeParam(0.3, 1.1)
    rho = squeezed_mixture(3, 2.0, key_rows(3, 2.0, C60), xi, squeeze_operator(xi, C60, C60.dim))
    entropy = convergence_point(3, 2.0, xi, C60)[2]
    assert abs(entropy - von_neumann_entropy(rho)) < 1e-12


def test_squeezed_convergence_point_squeezes_once(monkeypatch):
    # one squeeze per distinct xi with r > 0, for every b and N, before the
    # first b; the plain mixture needs none
    calls = []

    def counting(xi, cutoff, width):
        calls.append(xi)
        return squeeze_operator(xi, cutoff, width)

    monkeypatch.setattr(channel, "squeeze_operator", counting)
    xis = [SqueezeParam(r, 1.1) for r in (0.3, 0.0, 0.2, 0.3)]
    _, rows = execute(config_from_dict(
        {"experiment": "squeezed_convergence", "b_list": [2.0, 1.5], "N_list": [4, 2],
         "r_list": [xi.r for xi in xis], "phi_list": [1.1], "cutoff": 60}))
    assert calls == [xis[0], xis[2]]
    assert len(rows) == 16
    # convergence_rows takes the squeezings, repeats included, and builds their
    # squeezers itself, none for the plain mixture
    calls.clear()
    at = convergence_rows([2.0], [4, 2], xis, C60)
    assert calls == [xis[0], xis[2]]
    assert set(at) == set(itertools.product([2.0], [4, 2], xis))


def _count_calls(monkeypatch, module, names):
    """Replaces each function of ``module`` in ``names`` by one that records
    its positional arguments in the returned {name: [args, ...]}."""
    calls = {name: [] for name in names}

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_convergence_task_computes_the_plain_entropy_once(monkeypatch):
    # one b and 18 grid points: 3 N values, 2 of them distinct, and 6
    # squeezings, 4 of them distinct and 2 of those with r > 0.  Every squeezing
    # prints the plain mixture's entropy, computed once per distinct N; each
    # distinct squeezer is built once, and each distinct squeezed mixture once
    calls = _count_calls(monkeypatch, channel, ("squeezed_mixture", "von_neumann_entropy"))
    calls.update(_count_calls(monkeypatch, channel, ("squeeze_operator",)))

    def counts():
        return {name: len(args) for name, args in calls.items()}

    doc = {"experiment": "squeezed_convergence", "b_list": [1.0], "r_list": [0.3, 0.0, 0.3],
           "phi_list": [0.0, 1.0], "N_list": [4, 1, 4], "cutoff": 30}
    _, rows = execute(config_from_dict(doc))
    assert len(rows) == 18
    assert counts() == {"squeezed_mixture": 4, "von_neumann_entropy": 2, "squeeze_operator": 2}
    # with no r = 0 entry it is still the one entropy of each distinct N
    for args in calls.values():
        args.clear()
    _, rows = execute(config_from_dict(dict(doc, r_list=[0.3])))
    assert len(rows) == 6
    assert counts() == {"squeezed_mixture": 4, "von_neumann_entropy": 2, "squeeze_operator": 2}


def test_convergence_task_builds_shared_work_once_per_b_and_N(monkeypatch):
    # each squeezer once per run; each b is swept on its own: the target once
    # per b, and the key rows and the plain mixture once per (b, N)
    calls = _count_calls(monkeypatch, channel, (
        "maximally_mixed", "coherent_amplitudes", "mixture_gamma", "squeezed_mixture"))
    calls.update(_count_calls(monkeypatch, channel, ("squeeze_operator",)))
    b_list, r_list, phi_list, N_list = [1.0, 1.5], [0.1, 0.2], [0.0, 1.0], [1, 2, 3]
    _, rows = execute(config_from_dict(
        {"experiment": "squeezed_convergence", "b_list": b_list, "r_list": r_list,
         "phi_list": phi_list, "N_list": N_list, "cutoff": 40}))
    assert len(rows) == 24
    pairs = sorted((b, N) for b in b_list for N in N_list)
    assert sorted(args[0] for args in calls["maximally_mixed"]) == b_list
    assert sorted((xi.r, xi.phi) for xi, *_ in calls["squeeze_operator"]) == \
        sorted(itertools.product(r_list, phi_list))
    assert len(calls["coherent_amplitudes"]) == len(pairs)
    assert sorted((b, N) for N, b, *_ in calls["mixture_gamma"]) == pairs
    assert sorted((b, N, xi.r, xi.phi) for N, b, _, xi, *_ in calls["squeezed_mixture"]) == \
        sorted(itertools.product(b_list, N_list, r_list, phi_list))


def test_repeated_b_builds_the_key_rows_once_per_distinct_b_and_N(monkeypatch):
    # a repeated b is swept once: the second b = 2 takes the first one's rows
    calls = _count_calls(monkeypatch, channel, ("key_rows",))
    _, rows = execute(config_from_dict({"experiment": "convergence", "b_list": [2.0, 2.0],
                                        "N_list": [8, 16], "cutoff": 59}))
    assert sorted((N, b) for N, b, _ in calls["key_rows"]) == [(8, 2.0), (16, 2.0)]
    assert len(rows) == 4 and rows[:2] == rows[2:]


def _execute_peak(doc):
    """The tracemalloc peak, in bytes, of ``execute`` on the config ``doc``."""
    cfg = config_from_dict(doc)
    tracemalloc.start()
    try:
        execute(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_large_squeezed_sweep_holds_one_product_and_one_mixture_at_a_time():
    # b = 5, cutoff 195 and four squeezings: one block product and one squeezed
    # mixture are live at a time, so beyond its four squeezers and its key
    # stack the run holds what the plain sweep holds, 4.3 d^2 complex entries; a
    # block product or a squeezed mixture kept past its use raises that to 6.2
    d, keys = 196, key_count(32)
    doc = {"experiment": "convergence", "b_list": [5.0], "cutoff": 195,
           "N_list": [2, 4, 8, 16, 32]}
    plain = _execute_peak(doc)
    squeezed = _execute_peak(dict(doc, experiment="squeezed_convergence", r_list=[0.1, 0.3],
                                  phi_list=[0.0, math.pi / 2]))
    squeezers = 4 * d * d
    assert squeezed / 16 - squeezers - keys * d <= 5 * d * d
    assert squeezed / 16 - plain / 16 <= squeezers + d * d / 2


def test_the_large_squeezed_sweep_keeps_its_triangle_bounds_and_one_entropy_a_ring_count():
    # the benchmark's b = 5 and cutoff 195, summed a block product at a time:
    # every row's triangle bound holds without slack, and each N prints one
    # entropy, the plain mixture's, across its four squeezings
    columns, rows = execute(config_from_dict(
        {"experiment": "squeezed_convergence", "b_list": [5.0], "N_list": [16, 32],
         "r_list": [0.1, 0.3], "phi_list": [0.0, math.pi / 2], "cutoff": 195}))
    rows = [dict(zip(columns, row)) for row in rows]
    assert len(rows) == 8
    assert all(row["triangle_bound"] >= row["d_hs"] for row in rows)
    entropies = {}
    for row in rows:
        entropies.setdefault(row["N"], set()).add(row["entropy"])
    assert sorted(entropies) == [16, 32] and all(len(e) == 1 for e in entropies.values())


@pytest.mark.parametrize("experiment", ["convergence", "squeezed_convergence"])
def test_convergence_rows_match_the_per_point_oracle(experiment):
    # unsorted and repeated grid values: every row lands at its grid position
    doc = {"experiment": experiment, "b_list": [1.5, 1.0], "N_list": [4, 1, 4]}
    if experiment == "squeezed_convergence":
        doc.update(r_list=[0.3, 0.0, 0.3], phi_list=[1.0, 0.0])
    cfg = config_from_dict(doc)
    _, rows = execute(cfg)
    n_max = resolve_cutoff(cfg)
    squeezings = (itertools.product(cfg.r_list, cfg.phi_list)
                  if experiment == "squeezed_convergence" else [(0.0, 0.0)])
    expect = []
    for b, (r, phi), N in itertools.product(cfg.b_list, list(squeezings), cfg.N_list):
        d_hs, bound, entropy = convergence_point(N, b, SqueezeParam(r, phi), FockCutoff(n_max))
        expect.append((N, b, r, phi, n_max, d_hs, d_hs * (N + 1), bound, entropy))
    assert rows == expect
