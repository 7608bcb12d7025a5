"""Even coherent states and how well they mimic weakly squeezed vacua.

Covers the overlap between the two families and its small-parameter form,
quadrature-variance closed forms, and the realization of a displacement by
mixing with a strong coherent ancilla on a highly reflective beam splitter.
The overlap and the variances are closed forms in <alpha|beta> and
<beta|S(xi)|0>, with no Fock-space state; only the displacement builds one.
An even coherent state is given by its amplitude beta = beta_mag e^{i varphi}
as the two numbers (beta_mag >= 0, varphi); callers pass varphi already
wrapped into [0, 2 pi), and each function forms beta where it uses it.
"""
from __future__ import annotations

import math

from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    SqueezeParam,
    _finish_state,
    check_row_tails,
    coherent_amplitudes,
    displacement_operator,
    fidelity,
    np,
)


def even_coherent_state(beta_mag: float, varphi: float, cutoff: FockCutoff,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Normalized amplitudes of (|beta> + |-beta>) / sqrt(2 (1 + e^{-2|beta|^2}));
    odd levels exactly zero."""
    b2 = beta_mag * beta_mag
    (raw,) = coherent_amplitudes([beta_mag * np.exp(1j * varphi)], cutoff)
    raw[1::2] = 0.0  # enforce parity exactly instead of relying on cancellation
    raw[0::2] *= 2.0
    raw /= math.sqrt(2.0 * (1.0 + math.exp(-2.0 * b2)))
    return _finish_state(raw, tail_tol, f"even coherent state |beta|={beta_mag}")


def overlap_even_vs_squeezed(beta_mag: float, varphi: float, xi: SqueezeParam):
    """(exact, approx) squared overlap between the squeezed vacuum and the even
    coherent state of amplitude beta_mag e^{i varphi}.

    ``exact`` is the closed form exp(-|beta|^2 tanh r cos(2 varphi - phi)) /
    (cosh r cosh |beta|^2), with each cosh written through e^{-r} and
    e^{-|beta|^2}, so that no factor overflows; ``approx`` is its first order
    in the small parameters, 1 - |beta|^2 r cos(2 varphi - phi).  The two agree
    to the neglected O(r^2, |beta|^4) terms near the matching angles.
    """
    b2, c = beta_mag * beta_mag, math.cos(2.0 * varphi - xi.phi)
    e = math.exp(-xi.r)
    exact = (4.0 * e * math.exp(-b2 * (1.0 + math.tanh(xi.r) * c))
             / ((1.0 + e * e) * (1.0 + math.exp(-2.0 * b2))))
    return exact, 1.0 - b2 * xi.r * c


# ---------------------------------------------------------------------------
# quadrature-variance closed forms


def squeezed_vacuum_variance(xi: SqueezeParam, theta: float) -> float:
    """(1/4)[cosh 2r - sinh 2r cos(2 theta - phi)], exact at every angle; each
    term is quartered first, so the difference is finite wherever cosh 2r is."""
    return (0.25 * math.cosh(2.0 * xi.r)
            - 0.25 * math.sinh(2.0 * xi.r) * math.cos(2.0 * theta - xi.phi))


def squeezed_vacuum_variance_approx(xi: SqueezeParam, theta: float) -> float:
    """First order in r: (1/4)[1 - 2r cos(2 theta - phi)]; extremes (1 -+ 2r)/4."""
    return 0.25 * (1.0 - 2.0 * xi.r * math.cos(2.0 * theta - xi.phi))


def even_variance_closed_form(beta_mag: float, varphi: float, theta: float) -> float:
    """(1/4)[1 + 2|b|^2 cos(2 theta - 2 varphi) + 2|b|^2 tanh(|b|^2)], exact at every angle."""
    b2 = beta_mag * beta_mag
    return 0.25 * (1.0 + 2.0 * b2 * math.cos(2.0 * theta - 2.0 * varphi)
                   + 2.0 * b2 * math.tanh(b2))


def even_variance_approx(beta_mag: float, varphi: float, theta: float) -> float:
    """Small-amplitude form (1/4)[1 + 2|b|^2 cos(2 theta - 2 varphi)]; extremes (1 +- 2|b|^2)/4."""
    b2 = beta_mag * beta_mag
    return 0.25 * (1.0 + 2.0 * b2 * math.cos(2.0 * theta - 2.0 * varphi))


# ---------------------------------------------------------------------------
# displacement from a strong ancilla


def beamsplitter_signal(T: float, eff: complex, beta_mag: float, varphi: float,
                        cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Mix the even coherent input (beta = 0 is the vacuum) with a coherent
    ancilla gamma on a splitter of transmission T for the ancilla arm; returns
    the signal-arm state, with eff = sqrt(T) gamma the displacement it mimics.

    With t = sqrt(1-T) and s = sqrt(T) the splitter sends |+-beta>|gamma> to
    |+-t beta + s gamma>|-+s beta + t gamma>, so the signal is a 2x2 mixture of
    coherent dyads weighted by the overlaps of the two eavesdropper states.
    """
    if not 0.0 < T <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {T}")
    t, b2 = math.sqrt(1.0 - T), beta_mag * beta_mag
    beta = beta_mag * np.exp(1j * varphi)
    sig = t * beta * np.array([1.0, -1.0]) + eff
    rows = coherent_amplitudes(sig, cutoff)
    check_row_tails(rows, tail_tol, lambda k: f"signal amplitude {sig[k]} at T={T}")
    # <s beta + t gamma|-s beta + t gamma> in terms of eff = s gamma: no |gamma|^2 to cancel
    w = np.exp(-2.0 * T * b2 + 2j * t * (eff * np.conj(beta)).imag)
    gram = np.array([[1.0, w], [np.conj(w), 1.0]])
    norm = 2.0 * (1.0 + math.exp(-2.0 * b2))
    return rows.T @ gram @ rows.conj() / norm


def displacement_via_beamsplitter(Ts, eff: complex, beta_mag: float, varphi: float,
                                  cutoff: FockCutoff,
                                  tail_tol: float = DEFAULT_TAIL_TOL) -> list:
    """Fidelity of each transmission T's ``beamsplitter_signal`` against the
    input displaced by eff, one per T in ``Ts``.

    With the effective displacement held fixed, the fidelity climbs toward 1
    as T shrinks, because t approaches unity.  The input and the target
    D(eff)|input>, which do not depend on T, are built once, after the first
    signal has passed its tail check; one signal is held at a time.
    """
    fids, ideal = [], None
    for T in Ts:
        signal = beamsplitter_signal(T, eff, beta_mag, varphi, cutoff, tail_tol)
        if ideal is None:
            psi = even_coherent_state(beta_mag, varphi, cutoff, tail_tol)
            ideal = _finish_state(displacement_operator(eff, cutoff) @ psi, tail_tol,
                                  f"displaced target eff={eff}")
        fids.append(fidelity(ideal, signal) / float(np.trace(signal).real))
    return fids
