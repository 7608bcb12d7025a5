"""Acceptance suite: one test and one visible PASS/FAIL line per criterion.

Each test computes everything first, emits its verdict line on the real
stdout (outside pytest's capture), then asserts with diagnostics.
"""
import math

import numpy as np
import pytest

from cvpqc.attack import attack
from cvpqc.channel import k_factor, key_rows, mixture_gamma
from cvpqc.experiments import heuristic_cutoff
from cvpqc.fock import (
    FockCutoff,
    SqueezeParam,
    coherent_amplitudes,
    displacement_operator,
    hs_distance,
    quadrature_variance,
    squeeze_operator,
    squeezed_coherent_state,
)
from cvpqc.nongauss import (
    displacement_via_beamsplitter,
    even_coherent_state,
    even_variance_approx,
    even_variance_closed_form,
    overlap_even_vs_squeezed,
    squeezed_vacuum_variance,
    squeezed_vacuum_variance_approx,
)
from oracles import (
    channel_output,
    conformation_ring,
    convergence_point,
    matching_varphi,
    mode_moments,
    projector,
    ring_analytic_matrix,
    secret_bits,
    squeezed_vacuum_distance_closed_form,
    vacuum,
    vacuum_weight,
)


@pytest.fixture
def report(capsys):
    """Verdict printer that bypasses output capture."""
    def _report(num: int, name: str, ok: bool) -> bool:
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        return ok
    return _report


def test_criterion_01_mixture_converges_to_disk_target(report):
    b = 2.0
    cut = FockCutoff(heuristic_cutoff(b))  # 59
    Ns = [2, 4, 8, 16, 32]
    ds = [convergence_point(N, b, SqueezeParam(0.0), cut)[0] for N in Ns]
    decreasing = all(a > bb for a, bb in zip(ds, ds[1:]))
    products = {N: d * (N + 1) for N, d in zip(Ns, ds)}
    banded = all(0.5 <= products[N] <= 2.0 for N in (8, 16, 32))
    slope = float(np.polyfit(np.log(Ns), np.log(ds), 1)[0])
    slope_ok = -1.15 <= slope <= -0.85
    ok = decreasing and banded and slope_ok
    assert report(1, "mixture converges to the disk target", ok), (
        f"distances={ds}, products={products}, slope={slope}")


def test_criterion_02_squeezed_vacuum_distance_closed_form(report):
    worst = 0.0
    for r in (0.1, 0.2, 0.5, 1.0):
        cut = FockCutoff(120 if r >= 1.0 else 60)
        col = squeeze_operator(SqueezeParam(r), cut, cut.dim)[:, 0]
        sv = projector(col)
        vac = projector(vacuum(cut))
        numeric = hs_distance(sv, vac)
        worst = max(worst, abs(numeric - squeezed_vacuum_distance_closed_form(r)))
    ok = worst <= 1e-8
    assert report(2, "squeezed-vacuum distance closed form", ok), f"worst error {worst}"


def test_criterion_03_ring_forms_agree_and_selection_rule(report):
    cut = FockCutoff(59)
    worst_form = 0.0
    worst_pattern = 0.0
    for p in range(1, 9):
        for radius in (0.5, 1.0, 2.0):
            a = ring_analytic_matrix(p, radius, cut)
            o = conformation_ring(p, radius, cut)
            worst_form = max(worst_form, float(np.max(np.abs(a - o))))
            m, n = np.meshgrid(np.arange(60), np.arange(60), indexing="ij")
            off = (m - n) % p != 0
            if off.any():  # p=1 has no off-pattern cells
                worst_pattern = max(worst_pattern,
                                    float(np.max(np.abs(o[off]))))
    ok = worst_form < 1e-10 and worst_pattern < 1e-10
    assert report(3, "ring forms agree and selection rule holds", ok), (
        f"form diff {worst_form}, off-pattern {worst_pattern}")


def test_criterion_04_channel_covariance(report):
    N, b = 6, 2.0
    # the worst drawn key (r = 0.497, |alpha + beta| = 2.4) keeps its closed-form
    # tail within tail_tol from cutoff 64 on; at 60 it loses 3.0e-8
    cut = FockCutoff(64)
    rng = np.random.default_rng(20260822)
    gamma = mixture_gamma(N, b, key_rows(N, b, cut))
    worst = 0.0
    for _ in range(10):
        beta = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
        xi = SqueezeParam(float(rng.uniform(0.0, 0.5)),
                          float(rng.uniform(0.0, 2 * math.pi)))
        out = channel_output(beta, xi, N, b, cut)
        u = squeeze_operator(xi, cut, cut.dim) @ displacement_operator(beta, cut)
        worst = max(worst, float(np.max(np.abs(out - u @ gamma @ u.conj().T))))
    ok = worst < 1e-9
    assert report(4, "channel output is a displaced squeezed mixture", ok), (
        f"worst element deviation {worst}")


def test_criterion_05_triangle_bound(report):
    cut = FockCutoff(60)
    ok = True
    worst_slack = -np.inf
    for N in (2, 4, 8, 16, 32):
        for r in (0.2, 0.5):
            for phi in (0.0, math.pi / 3):
                d_hs, bound, _ = convergence_point(N, 2.0, SqueezeParam(r, phi), cut)
                slack = d_hs - bound
                worst_slack = max(worst_slack, slack)
                ok = ok and slack <= 1e-12
    assert report(5, "triangle bound on the squeezed distance", ok), (
        f"worst bound violation {worst_slack}")


def test_criterion_06_angular_weight_factor(report):
    # outermost of 16 rings inside b=2, four squeeze arguments plus a flat check
    cut = FockCutoff(60)
    radius = 15 * 2.0 / 16
    angles = (math.pi / 16) * (2 * np.arange(1, 17) - 1)
    worst = 0.0
    for phi in (0.0, math.pi / 2, -math.pi / 2, -math.pi / 4):
        xi = SqueezeParam(0.5, phi)
        s = squeeze_operator(xi, cut, cut.dim)
        ratios = []
        for th in angles:
            alpha = radius * np.exp(1j * th)
            w = abs((s @ coherent_amplitudes([alpha], cut)[0])[0]) ** 2
            ratios.append(w / math.exp(-radius ** 2 * k_factor(xi, th)))
        ratios = np.array(ratios)
        worst = max(worst, float(np.max(np.abs(ratios / ratios.mean() - 1.0))))
        # and the module's own closed form carries the same constant
        for th in angles:
            alpha = radius * np.exp(1j * th)
            w = abs((s @ coherent_amplitudes([alpha], cut)[0])[0]) ** 2
            worst = max(worst, abs(w / vacuum_weight(xi, alpha) - 1.0))
    # zero squeezing: weights flat around the ring
    s0 = squeeze_operator(SqueezeParam(0.0), cut, cut.dim)
    w0 = [abs((s0 @ coherent_amplitudes([radius * np.exp(1j * th)], cut)[0])[0]) ** 2
          for th in angles]
    worst = max(worst, float(np.max(np.abs(np.array(w0) / np.mean(w0) - 1.0))))
    ok = worst < 1e-6
    assert report(6, "ring weights follow the angular factor", ok), (
        f"worst proportionality residual {worst}")


def test_criterion_07_tap_entanglement_contrast(report):
    cut = FockCutoff(60)
    coh = attack([1.0], [SqueezeParam(0.0)], cut)[0][0][2]  # the entanglement proxy
    rs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    proxies = [row[0][2] for row in attack([1.0], [SqueezeParam(r) for r in rs], cut)]
    at_half = proxies[rs.index(0.5)]
    monotone = all(a < b for a, b in zip(proxies, proxies[1:]))
    ok = coh < 1e-10 and at_half > 0.05 and monotone
    assert report(7, "tap entangles squeezed but not coherent inputs", ok), (
        f"coherent proxy {coh}, r=0.5 proxy {at_half}, sequence {proxies}")


def test_criterion_08_variance_closed_forms_and_bounds(report):
    ok = True
    detail = []

    # closed forms vs numeric moments
    cut = FockCutoff(60)
    xi = SqueezeParam(0.3, 0.7)
    (sv,) = squeezed_coherent_state(xi, [0.0], cut)
    worst_sv = max(abs(quadrature_variance(*mode_moments(sv), th)
                       - squeezed_vacuum_variance(xi, th))
                   for th in np.linspace(0.0, math.pi, 9))
    ok = ok and worst_sv <= 1e-8
    detail.append(f"sv closed-form error {worst_sv}")

    ec = even_coherent_state(0.5, 0.6, FockCutoff(40))
    worst_ec = max(abs(quadrature_variance(*mode_moments(ec), th)
                       - even_variance_closed_form(0.5, 0.6, th))
                   for th in np.linspace(0.0, math.pi, 9))
    ok = ok and worst_ec <= 1e-8
    detail.append(f"ec closed-form error {worst_ec}")

    # approximation extremes at r = |beta|^2 = 0.05, with next-order tolerance
    u = 0.1  # 2r and 2|beta|^2
    tol = u * u / 2 * (1 + u) / 4
    xi_s = SqueezeParam(0.05, 0.0)
    (sv_small,) = squeezed_coherent_state(xi_s, [0.0], FockCutoff(40))
    for th, sign in ((0.0, -1.0), (math.pi / 2, +1.0)):
        approx = squeezed_vacuum_variance_approx(xi_s, th)
        ok = ok and abs(approx - (1 + sign * u) / 4) < 1e-15
        err = abs(quadrature_variance(*mode_moments(sv_small), th) - approx)
        ok = ok and err <= tol
        detail.append(f"sv extreme theta={th}: err {err} tol {tol}")
    bm_small = math.sqrt(0.05)
    ec_small = even_coherent_state(bm_small, 0.0, FockCutoff(40))
    for th, sign in ((0.0, +1.0), (math.pi / 2, -1.0)):
        approx = even_variance_approx(bm_small, 0.0, th)
        ok = ok and abs(approx - (1 + sign * u) / 4) < 1e-15
        err = abs(quadrature_variance(*mode_moments(ec_small), th) - approx)
        ok = ok and err <= tol
        detail.append(f"ec extreme theta={th}: err {err} tol {tol}")

    assert report(8, "quadrature variances match closed forms", ok), "; ".join(detail)


def test_criterion_09_overlap_small_parameter_scaling(report):
    phi_xi = 0.0
    vp = matching_varphi(phi_xi)[0]  # pi/2 for phi_xi = 0

    def err(r, b2):
        exact, approx = overlap_even_vs_squeezed(math.sqrt(b2), vp, SqueezeParam(r, phi_xi))
        return abs(exact - approx)

    e1 = err(0.05, 0.05)
    e2 = err(0.025, 0.025)
    ratio = e1 / e2
    ok = e1 <= 5e-3 and 3.5 <= ratio <= 4.5
    assert report(9, "overlap approximation error and quartic scaling", ok), (
        f"error {e1}, halving ratio {ratio}")


def test_criterion_10_displacement_by_reflective_mixing(report):
    cut = FockCutoff(45)
    Ts = (0.5, 0.25, 0.1, 0.04, 0.01)
    # the effective displacement sqrt(T) gamma = 0.3 held fixed
    fids = displacement_via_beamsplitter(Ts, 0.3, 1.0, 0.0, cut)
    increasing = all(a < b for a, b in zip(fids, fids[1:]))
    ok = increasing and fids[-1] >= 0.99
    assert report(10, "reflective mixing approaches the ideal displacement", ok), (
        f"fidelities along decreasing T: {fids}")


def test_criterion_11_secret_bit_accounting(report):
    exact = all(secret_bits(N) == math.log2(N * (N + 1) // 2 + 1)
                for N in (2, 4, 16, 64))
    ell = secret_bits(64)
    rel = abs(ell / (2 * math.log2(64)) - 1.0)
    ok = exact and rel <= 0.10
    assert report(11, "secret bits count the key space", ok), (
        f"exact={exact}, ell(64)={ell}, relative gap {rel}")
