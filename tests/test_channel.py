"""Ring-key channel: target state, conformations, mixtures, encryption, distances."""
import itertools
import json
import math
import time

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
    vacuum_weight,
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
    disk_uniform_diagonal,
    encrypt,
    projector,
    ring_analytic_matrix,
    ring_displacements,
    secret_bits,
    squeezed_conformation,
    squeezed_projector_prefactor,
    squeezed_vacuum_distance_closed_form,
    vacuum,
)

C59 = FockCutoff(59)
C60 = FockCutoff(60)


# ---------------------------------------------------------------------------
# disk-uniform target state


def test_mm_is_fock_diagonal_with_decreasing_entries():
    rho = maximally_mixed(2.0, C59)
    diag = np.diag(rho).real
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) == 0.0
    assert np.all(diag > 0)
    assert np.all(np.diff(diag) < 0)


def test_mm_mass_at_heuristic_cutoff():
    for b in (1.0, 2.0, 3.0):
        cut = FockCutoff(heuristic_cutoff(b))
        rho = maximally_mixed(b, cut)
        assert np.trace(rho).real >= 1 - 1e-6


def test_mm_entries_match_radial_integral():
    # entry_n = (2/b^2) int_0^b e^{-s^2} s^{2n+1} / n! ds, by direct quadrature
    b = 2.0
    s = np.linspace(0.0, b, 4001)
    diag = np.diag(maximally_mixed(b, C59)).real
    for n in range(11):
        f = np.exp(-s * s) * s ** (2 * n + 1) / math.factorial(n)
        val = 2.0 / (b * b) * simpson(f, x=s)
        assert abs(diag[n] - val) < 1e-10


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_mm_matches_incomplete_gamma_oracle(b):
    for n_max in (heuristic_cutoff(b), heuristic_cutoff(b) // 2, 3):
        cut = FockCutoff(n_max)
        diag = np.diag(maximally_mixed(b, cut, tail_tol=1.0)).real
        ref = disk_uniform_diagonal(b, cut)
        assert np.max(np.abs(diag - ref) / ref) <= 1e-12


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


def test_conformation_spec_validation():
    # N, b and p are checked where a config enters: N >= 1, b > 0, p <= max N
    for fields in ({"N_list": [0]}, {"b_list": [-1.0]}, {"N_list": [4], "p_list": [5]}):
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
    rho = mixture_gamma(1, 2.0, key_rows(1, 2.0, C59), C59)
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
    mix = mixture_gamma(N, b, key_rows(N, b, cut), cut)
    assert np.max(np.abs(mix - acc)) < 1e-12
    assert abs(np.trace(mix).real - 1.0) < 1e-10


def test_squeezed_mixture_is_unitary_conjugation_of_plain():
    N, b = 4, 2.0
    xi = SqueezeParam(0.3, 0.9)
    cut = C60
    s = squeeze_operator(xi, cut)
    rows = key_rows(N, b, cut)
    plain = mixture_gamma(N, b, rows, cut)
    sq = squeezed_mixture(N, b, rows, xi, cut)
    assert np.max(np.abs(sq - s @ plain @ s.conj().T)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(N=strategies.integers(1, 6), b=strategies.floats(0.01, 3.0),
       r=strategies.floats(0.0, 1.0), phi=strategies.floats(0.0, 2.0 * math.pi),
       n_max=strategies.integers(5, 80))
def test_squeezed_mixture_raises_or_keeps_its_mass(N, b, r, phi, n_max):
    # The tail check must catch every key whose true tail, read from the closed
    # form at a wide cutoff, is past twice the tolerance.  Single levels are not
    # compared: a squeezed truncated row differs from the truncated closed form
    # by more than the tolerance at single levels, though not in norm.
    xi, tol = SqueezeParam(r, phi), 1e-8
    worst = 0.0
    for alpha in key_displacements(N, b):
        probs = np.abs(squeezed_coherent_closed_form(xi, alpha, FockCutoff(1500))) ** 2
        assert abs(1.0 - probs.sum()) < 1e-10  # the closed form has converged
        worst = max(worst, probs[n_max + 1:].sum())
    try:
        cut = FockCutoff(n_max)
        rho = squeezed_mixture(N, b, key_rows(N, b, cut), xi, cut, tol)
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
        s = squeeze_operator(xi, cut)
        for alpha in ring_displacements(4, 2.0, 4):
            row = s @ coherent_amplitudes(alpha, cut)
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
    row = squeeze_operator(xi, cut) @ coherent_amplitudes(alpha, cut)
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
    col = coherent_amplitudes(key_displacements(N, b)[k], C59)
    assert np.max(np.abs(rho - np.outer(col, col.conj()))) < 1e-12


def test_decrypt_recovers_message():
    N, b, k = 4, 2.0, 5
    xi = SqueezeParam(0.3, 1.0)
    beta = 0.3 + 0.2j
    branch = encrypt(beta, xi, k, N, b, C60)
    rho = decrypt(branch, xi, k, N, b, C60)
    msg = coherent_amplitudes(beta, C60)
    overlap = (msg.conj() @ rho @ msg).real
    assert overlap >= 1 - 1e-8
    # the branch against S D(alpha)|beta> from the Laguerre matrix, at a key where
    # the closed form's phase e^{i Im(alpha conj(beta))} is not 1
    alpha = key_displacements(N, b)[k]
    assert abs((alpha * np.conj(beta)).imag) > 0.1
    row = squeeze_operator(xi, C60) @ displacement_operator(alpha, C60) @ msg
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
    mix = mixture_gamma(4, 2.0, key_rows(4, 2.0, C59), C59)
    assert np.max(np.abs(out - mix)) < 1e-13


def test_channel_covariance_under_displacement():
    # averaging over keys commutes with displacing the message
    N, b = 4, 2.0
    xi = SqueezeParam(0.25, 0.7)
    beta = 0.3 - 0.1j
    cut = C60
    out = channel_output(beta, xi, N, b, cut)
    s = squeeze_operator(xi, cut)
    d = displacement_operator(beta, cut)
    u = s @ d
    expect = u @ mixture_gamma(N, b, key_rows(N, b, cut), cut) @ u.conj().T
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
    gam = mixture_gamma(2, 2.0, key_rows(2, 2.0, C59), C59)
    assert d_hs == hs_distance(maximally_mixed(2.0, C59), gam)
    assert bound == d_hs


def test_squeezed_vacuum_distance_closed_form_against_numeric():
    r = 0.2
    # N=1: plain mixture is the vacuum, squeezed mixture is a squeezed vacuum
    rows = key_rows(1, 2.0, C60)
    d_squeeze = hs_distance(squeezed_mixture(1, 2.0, rows, SqueezeParam(r), C60),
                            mixture_gamma(1, 2.0, rows, C60))
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
    mm = maximally_mixed(2.0, C60)
    for N in (2, 4):
        rows = key_rows(N, 2.0, C60)
        gam = mixture_gamma(N, 2.0, rows, C60)
        for xi in (SqueezeParam(0.2, 0.0), SqueezeParam(0.5, np.pi / 3)):
            d_hs, bound, _ = convergence_point(N, 2.0, xi, C60)
            assert d_hs <= bound + 1e-12
            d_squeeze = hs_distance(squeezed_mixture(N, 2.0, rows, xi, C60), gam)
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
    mm = maximally_mixed(2.0, C59)
    assert rows[0]["d_hs"] == pytest.approx(hs_distance(mm, vac))


# Every key branch is pure, so the entropy of a key-averaged mixture is the
# Holevo quantity of its uniform-key ensemble.


def test_holevo_proxy_pure_for_single_point():
    xi = SqueezeParam(0.4, 0.2)
    rows = key_rows(1, 2.0, C60)
    assert von_neumann_entropy(squeezed_mixture(1, 2.0, rows, xi, C60)) < 1e-10
    assert von_neumann_entropy(mixture_gamma(1, 2.0, rows, C60)) < 1e-10


def test_holevo_proxy_entropies_equal_by_unitary_invariance():
    rows = key_rows(4, 2.0, C60)
    s_sq = von_neumann_entropy(squeezed_mixture(4, 2.0, rows, SqueezeParam(0.3, 1.1), C60))
    s_coh = von_neumann_entropy(mixture_gamma(4, 2.0, rows, C60))
    assert s_coh > 1.0  # genuinely mixed family
    assert abs(s_sq - s_coh) < 1e-8


def test_mixture_entropy_matches_direct_computation():
    xi = SqueezeParam(0.3, 1.1)
    rho = squeezed_mixture(3, 2.0, key_rows(3, 2.0, C60), xi, C60)
    entropy = convergence_point(3, 2.0, xi, C60)[2]
    assert abs(entropy - von_neumann_entropy(rho)) < 1e-12


def test_squeezed_convergence_point_squeezes_once(monkeypatch):
    # one squeeze per (b, N, xi) with r > 0; the plain mixture needs none
    calls = []

    def counting(xi, cutoff):
        calls.append(xi)
        return squeeze_operator(xi, cutoff)

    monkeypatch.setattr("cvpqc.channel.squeeze_operator", counting)
    xis = [SqueezeParam(0.3, 1.1), SqueezeParam(0.0), SqueezeParam(0.2), SqueezeParam(0.3, 1.1)]
    convergence_rows(4, 2.0, xis, C60)
    assert calls == [xis[0], xis[2], xis[3]]


def test_convergence_task_computes_the_plain_entropy_once(monkeypatch):
    # 3 (b, N) tasks of 6 squeezings each: 4 with r > 0, and 2 with r = 0 that
    # share the plain mixture's entropy
    calls = {"squeezed_mixture": 0, "von_neumann_entropy": 0}

    def counting(name):
        fn = getattr(channel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(channel, name, counting(name))
    doc = {"experiment": "squeezed_convergence", "b_list": [1.0], "r_list": [0.3, 0.0, 0.3],
           "phi_list": [0.0, 1.0], "N_list": [4, 1, 4], "cutoff": 30}
    _, rows = execute(config_from_dict(doc))
    assert len(rows) == 18
    assert calls == {"squeezed_mixture": 12, "von_neumann_entropy": 15}
    # with no r = 0 entry the plain mixture's entropy is not computed
    calls.update(dict.fromkeys(calls, 0))
    execute(config_from_dict(dict(doc, r_list=[0.3])))
    assert calls == {"squeezed_mixture": 6, "von_neumann_entropy": 6}


def test_convergence_task_builds_shared_work_once_per_b_and_N(monkeypatch):
    calls = {name: [] for name in ("maximally_mixed", "coherent_amplitudes",
                                   "mixture_gamma", "squeezed_mixture")}

    def counting(name):
        fn = getattr(channel, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(channel, name, counting(name))
    b_list, r_list, phi_list, N_list = [1.0, 1.5], [0.1, 0.2], [0.0, 1.0], [1, 2, 3]
    _, rows = execute(config_from_dict(
        {"experiment": "squeezed_convergence", "b_list": b_list, "r_list": r_list,
         "phi_list": phi_list, "N_list": N_list, "cutoff": 40}))
    assert len(rows) == 24
    pairs = sorted((b, N) for b in b_list for N in N_list)
    assert sorted(args[0] for args in calls["maximally_mixed"]) == [b for b, _ in pairs]
    assert len(calls["coherent_amplitudes"]) == len(pairs)
    assert sorted((b, N) for N, b, *_ in calls["mixture_gamma"]) == pairs
    assert sorted((b, N, xi.r, xi.phi) for N, b, _, xi, *_ in calls["squeezed_mixture"]) == \
        sorted(itertools.product(b_list, N_list, r_list, phi_list))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", ["convergence", "squeezed_convergence"])
def test_convergence_rows_match_the_per_point_oracle(experiment, workers):
    # unsorted and repeated grid values: every row lands at its grid position
    doc = {"experiment": experiment, "b_list": [1.5, 1.0], "N_list": [4, 1, 4]}
    if experiment == "squeezed_convergence":
        doc.update(r_list=[0.3, 0.0, 0.3], phi_list=[1.0, 0.0])
    cfg = config_from_dict(doc)
    _, rows = execute(cfg, workers=workers)
    n_max = resolve_cutoff(cfg)
    squeezings = (itertools.product(cfg.r_list, cfg.phi_list)
                  if experiment == "squeezed_convergence" else [(0.0, 0.0)])
    expect = []
    for b, (r, phi), N in itertools.product(cfg.b_list, list(squeezings), cfg.N_list):
        xi = SqueezeParam(r, phi)
        d_hs, bound, entropy = convergence_point(N, b, xi, FockCutoff(n_max))
        expect.append((N, b, xi.r, xi.phi, n_max, d_hs, d_hs * (N + 1), bound, entropy))
    assert rows == expect
