"""Passive eavesdropping on one channel branch with a 50:50 beam splitter.

The tap sends half of the signal to an eavesdropper arm.  For a coherent
input the two output arms are an unentangled product, so the tap leaves
no correlation trace; squeezing the input changes that, and the reduced
states of both arms become mixed.  Everything here works on the pure
two-mode output, so reduced-state entropy is an exact entanglement
measure rather than a proxy bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    PureState,
    SqueezeParam,
    beam_splitter_5050,
    fidelity,
    partial_trace,
    purity,
    squeezed_coherent_state,
    tensor,
    vacuum,
    von_neumann_entropy,
)

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AttackReport:
    """Tap outcome for one input.

    ``entanglement_proxy`` is the von Neumann entropy (bits) of the
    receiver's reduced state; the global two-mode output is pure, so this
    is the exact entanglement entropy between the two arms (preferred here
    over negativity-style measures, which add nothing for pure states).
    ``bob_fidelity_vs_expected`` compares the receiver arm against the
    undisturbed local target: the input with its amplitude and squeezing
    both cut in half by the tap.
    """

    input_kind: str  # "coherent" or "squeezed_coherent"
    alpha: complex
    xi: SqueezeParam
    bob_reduced_purity: float
    eve_reduced_purity: float
    bob_fidelity_vs_expected: float
    entanglement_proxy: float
    tail_mass: float


def _tap_output(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
                tail_tol: float) -> PureState:
    signal = squeezed_coherent_state(xi, alpha, cutoff, tail_tol=tail_tol)
    both = tensor(signal, vacuum(cutoff))
    return beam_splitter_5050(cutoff).apply(both)


def attack(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
           tail_tol: float = DEFAULT_TAIL_TOL) -> AttackReport:
    """Send squeeze(displace(|0>)) through the 50:50 tap and report both arms."""
    out = _tap_output(alpha, xi, cutoff, tail_tol)  # modes: receiver, eavesdropper
    rho_b = partial_trace(out, 0)
    expected = squeezed_coherent_state(xi.half(), alpha / _SQRT2, cutoff,
                                       tail_tol=tail_tol)

    return AttackReport(
        input_kind="coherent" if xi.r == 0.0 else "squeezed_coherent",
        alpha=complex(alpha),
        xi=xi,
        bob_reduced_purity=purity(rho_b),
        eve_reduced_purity=purity(partial_trace(out, 1)),
        bob_fidelity_vs_expected=fidelity(expected, rho_b),
        entanglement_proxy=von_neumann_entropy(rho_b),
        tail_mass=out.tail_mass,
    )
