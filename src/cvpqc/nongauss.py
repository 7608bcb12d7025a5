"""Even coherent states and how well they mimic weakly squeezed vacua.

Covers the small-parameter overlap between the two families,
quadrature-variance closed forms, and the realization of a displacement by
mixing with a strong coherent ancilla on a highly reflective beam splitter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_TAIL_TOL,
    DensityOperator,
    FockCutoff,
    PureState,
    SqueezeParam,
    TailMassError,
    _finish_state,
    coherent_amplitudes,
    displacement_operator,
    fidelity,
    quadrature_variance,
    squeezed_coherent_state,
    wrap_angle,
)


@dataclass(frozen=True)
class EvenCoherentParam:
    """Amplitude of the symmetric superposition: beta = beta_mag e^{i varphi}."""

    beta_mag: float
    varphi: float = 0.0

    def __post_init__(self):
        if self.beta_mag < 0:
            raise ValueError(f"amplitude magnitude must be >= 0, got {self.beta_mag}")
        object.__setattr__(self, "varphi", wrap_angle(self.varphi))

    @property
    def beta(self) -> complex:
        return self.beta_mag * np.exp(1j * self.varphi)


@dataclass(frozen=True)
class BeamSplitterRealization:
    """Mixing with a coherent ancilla: transmission T for the ancilla arm.

    The signal survives with amplitude sqrt(1-T), so small T means a nearly
    transparent pass for the signal; the ancilla contributes the effective
    displacement sqrt(T) * gamma.
    """

    transmission: float
    ancilla_amp: complex

    def __post_init__(self):
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in (0, 1], got {self.transmission}")

    @property
    def effective_displacement(self) -> complex:
        return math.sqrt(self.transmission) * complex(self.ancilla_amp)


def even_coherent_state(param: EvenCoherentParam, cutoff: FockCutoff,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> PureState:
    """(|beta> + |-beta>) / sqrt(2 (1 + e^{-2|beta|^2})); odd levels exactly zero."""
    b2 = param.beta_mag ** 2
    raw = coherent_amplitudes(param.beta, cutoff).copy()
    raw[1::2] = 0.0  # enforce parity exactly instead of relying on cancellation
    raw[0::2] *= 2.0
    raw /= math.sqrt(2.0 * (1.0 + math.exp(-2.0 * b2)))
    return _finish_state(raw, cutoff, tail_tol, f"even coherent state |beta|={param.beta_mag}")


def overlap_even_vs_squeezed(param: EvenCoherentParam, xi: SqueezeParam,
                             cutoff: FockCutoff,
                             tail_tol: float = DEFAULT_TAIL_TOL):
    """(exact, approx) squared overlap between the even coherent state and the
    squeezed vacuum.

    ``exact`` sums the truncated Fock series; ``approx`` is the first-order
    small-parameter form 1 - |beta|^2 r cos(2 varphi - phi).  The two agree
    to the neglected O(r^2, |beta|^4) terms near the matching angles.
    """
    ec = even_coherent_state(param, cutoff, tail_tol)
    sv = squeezed_coherent_state(xi, 0.0, cutoff, tail_tol)
    exact = float(abs(np.vdot(ec.amplitudes, sv.amplitudes)) ** 2)
    approx = 1.0 - param.beta_mag ** 2 * xi.r * math.cos(2.0 * param.varphi - xi.phi)
    return exact, approx


# ---------------------------------------------------------------------------
# quadrature-variance closed forms


def squeezed_vacuum_variance(xi: SqueezeParam, theta: float) -> float:
    """(1/4)[cosh 2r - sinh 2r cos(2 theta - phi)], exact at every angle."""
    return 0.25 * (math.cosh(2.0 * xi.r)
                   - math.sinh(2.0 * xi.r) * math.cos(2.0 * theta - xi.phi))


def squeezed_vacuum_variance_approx(xi: SqueezeParam, theta: float) -> float:
    """First order in r: (1/4)[1 - 2r cos(2 theta - phi)]; extremes (1 -+ 2r)/4."""
    return 0.25 * (1.0 - 2.0 * xi.r * math.cos(2.0 * theta - xi.phi))


def even_variance_closed_form(param: EvenCoherentParam, theta) -> np.ndarray:
    """(1/4)[1 + 2|b|^2 cos(2 theta - 2 varphi) + 2|b|^2 tanh(|b|^2)] per theta."""
    t = np.asarray(theta, dtype=float)
    b2 = param.beta_mag ** 2
    return 0.25 * (1.0 + 2.0 * b2 * np.cos(2.0 * t - 2.0 * param.varphi)
                   + 2.0 * b2 * math.tanh(b2))


def even_variance_approx(param: EvenCoherentParam, theta) -> np.ndarray:
    """Small-amplitude form (1/4)[1 + 2|b|^2 cos(2 theta - 2 varphi)]; extremes (1 +- 2|b|^2)/4."""
    t = np.asarray(theta, dtype=float)
    b2 = param.beta_mag ** 2
    return 0.25 * (1.0 + 2.0 * b2 * np.cos(2.0 * t - 2.0 * param.varphi))


def quadrature_variance_even(param: EvenCoherentParam, cutoff: FockCutoff, thetas,
                             tail_tol: float = DEFAULT_TAIL_TOL):
    """(exact, closed_form) variance of the even coherent state, per angle."""
    state = even_coherent_state(param, cutoff, tail_tol)
    t = np.atleast_1d(np.asarray(thetas, dtype=float))
    exact = np.array([quadrature_variance(state, th, tail_tol) for th in t])
    closed = even_variance_closed_form(param, t)
    if np.isscalar(thetas) or np.asarray(thetas).ndim == 0:
        return float(exact[0]), float(closed.reshape(-1)[0])
    return exact, closed


# ---------------------------------------------------------------------------
# displacement from a strong ancilla


def displacement_via_beamsplitter(realization: BeamSplitterRealization,
                                  param: EvenCoherentParam, cutoff: FockCutoff,
                                  tail_tol: float = DEFAULT_TAIL_TOL):
    """Mix the even coherent input (beta = 0 is the vacuum) with the coherent
    ancilla; returns (signal-arm state, fidelity against the displaced input).

    With t = sqrt(1-T) and s = sqrt(T) the splitter sends |+-beta>|gamma> to
    |+-t beta + s gamma>|-+s beta + t gamma>, so the signal is a 2x2 mixture of
    coherent dyads weighted by the overlaps of the two eavesdropper states.
    With the effective displacement s gamma held fixed, the fidelity climbs
    toward 1 as T shrinks, because t approaches unity.
    """
    T, eff = realization.transmission, realization.effective_displacement
    t = math.sqrt(1.0 - T)
    sig = t * param.beta * np.array([1.0, -1.0]) + eff
    rows = coherent_amplitudes(sig, cutoff)
    tails = 1.0 - np.einsum("ij,ij->i", rows, rows.conj()).real
    k = int(np.argmax(tails))
    if tails[k] > tail_tol:
        raise TailMassError(float(tails[k]), tail_tol, f"signal amplitude {sig[k]} at T={T}")
    # <s beta + t gamma|-s beta + t gamma> in terms of eff = s gamma: no |gamma|^2 to cancel
    w = np.exp(-2.0 * T * param.beta_mag ** 2 + 2j * t * (eff * np.conj(param.beta)).imag)
    gram = np.array([[1.0, w], [np.conj(w), 1.0]])
    norm = 2.0 * (1.0 + math.exp(-2.0 * param.beta_mag ** 2))
    signal = DensityOperator(rows.T @ gram @ rows.conj() / norm, cutoff)
    psi = even_coherent_state(param, cutoff, tail_tol).amplitudes
    ideal = _finish_state(displacement_operator(eff, cutoff) @ psi, cutoff, tail_tol,
                          f"displaced target eff={eff}")
    return signal, fidelity(ideal, signal) / signal.mass
